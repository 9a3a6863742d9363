#include "src/trace/analysis.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace bladerunner {

namespace {

// Groups items 0..count-1 into rows by span id (ids outside 1..rows are
// dropped), keeping item order within a row: row `id` of `items` is
// [begin[id-1], begin[id]).
template <typename SpanOf>
void BuildRows(size_t rows, size_t count, SpanOf span_of, std::vector<uint32_t>* begin,
               std::vector<uint32_t>* items) {
  begin->assign(rows + 1, 0);
  for (size_t i = 0; i < count; ++i) {
    uint64_t id = span_of(i);
    if (id != 0 && id <= rows) ++(*begin)[id];
  }
  for (size_t id = 1; id <= rows; ++id) (*begin)[id] += (*begin)[id - 1];
  std::vector<uint32_t> cursor(begin->begin(), begin->end() - 1);
  items->resize(begin->back());
  for (size_t i = 0; i < count; ++i) {
    uint64_t id = span_of(i);
    if (id != 0 && id <= rows) (*items)[cursor[id - 1]++] = static_cast<uint32_t>(i);
  }
}

std::span<const uint32_t> Row(const std::vector<uint32_t>& begin,
                              const std::vector<uint32_t>& items, SpanId id) {
  return std::span<const uint32_t>(items).subspan(begin[id - 1], begin[id] - begin[id - 1]);
}

// A SpanQuery with its text resolved to one store's label ids. Each LP
// store interns its own labels, so a query resolves once per table.
struct ResolvedQuery {
  bool possible = true;  // false when a required label was never recorded
  LabelId name = kNoLabel;
  LabelId component = kNoLabel;
  LabelId annotation_key = kNoLabel;

  ResolvedQuery(const TraceLabels& labels, const SpanQuery& query) {
    auto resolve = [&](const std::string& text, LabelId* id) {
      if (text.empty()) return;
      *id = labels.Find(text);
      if (*id == kNoLabel) possible = false;
    };
    resolve(query.name, &name);
    resolve(query.component, &component);
    resolve(query.annotation_key, &annotation_key);
  }
};

// Calls visit(trace, span) for every span matching `query`, in trace
// insertion then span-id order.
template <typename Visit>
void ForEachMatch(const TraceCollector& collector, const SpanQuery& query, Visit visit) {
  std::optional<ResolvedQuery> resolved;
  const TraceLabels* resolved_for = nullptr;
  std::vector<const Value*> last_value;  // by span id - 1, under annotation_key
  for (const TraceRecord* trace : collector.AllTraces()) {
    if (trace->labels != resolved_for) {
      resolved.emplace(*trace->labels, query);
      resolved_for = trace->labels;
    }
    if (!resolved->possible) continue;
    if (resolved->annotation_key != kNoLabel) {
      // Forward pass: a later value under the key overwrites an earlier one.
      last_value.assign(trace->spans.size(), nullptr);
      for (const SpanAnnotation& annotation : trace->annotations) {
        if (annotation.key == resolved->annotation_key) {
          last_value[annotation.span_id - 1] = &annotation.value;
        }
      }
    }
    for (const Span& span : trace->spans) {
      if (resolved->name != kNoLabel && span.name != resolved->name) continue;
      if (resolved->component != kNoLabel && span.component != resolved->component) continue;
      if (resolved->annotation_key != kNoLabel) {
        const Value* v = last_value[span.span_id - 1];
        if (v == nullptr || *v != query.annotation_value) continue;
      }
      visit(*trace, span);
    }
  }
}

}  // namespace

TraceIndex::TraceIndex(const TraceRecord& trace) {
  const size_t n = trace.spans.size();
  BuildRows(n, n, [&](size_t i) { return trace.spans[i].parent_span_id; }, &child_begin_,
            &children_);
  // Row entries are positions in spans; children are reported by id.
  for (uint32_t& child : children_) ++child;
  BuildRows(n, trace.annotations.size(), [&](size_t i) { return trace.annotations[i].span_id; },
            &annotation_begin_, &annotations_);

  // Children always have larger ids than their parents, so one reverse pass
  // sees every child's effective end before its parent needs it.
  effective_end_.resize(n);
  for (size_t i = n; i-- > 0;) {
    const Span& span = trace.spans[i];
    SimTime end = span.end;
    if (span.open()) {
      end = span.start;
      for (uint32_t child : Children(i + 1)) end = std::max(end, effective_end_[child - 1]);
    }
    effective_end_[i] = end;
  }
}

std::span<const uint32_t> TraceIndex::Children(SpanId id) const {
  return Row(child_begin_, children_, id);
}

std::span<const uint32_t> TraceIndex::Annotations(SpanId id) const {
  return Row(annotation_begin_, annotations_, id);
}

SimTime TraceDuration(const TraceRecord& trace) {
  const Span* root = trace.root();
  if (root == nullptr) return 0;
  SimTime end = root->open() ? TraceIndex(trace).EffectiveEnd(root->span_id) : root->end;
  return std::max<SimTime>(0, end - root->start);
}

std::map<std::string, ComponentStat> ComponentBreakdown(const TraceRecord& trace) {
  TraceIndex index(trace);
  // Accumulate by label id (a trace has a handful of components), then key
  // the result by text so label-id order never reaches the caller.
  std::vector<std::pair<LabelId, ComponentStat>> by_label;
  std::vector<std::pair<SimTime, SimTime>> intervals;
  for (const Span& span : trace.spans) {
    SimTime end = index.EffectiveEnd(span.span_id);
    SimTime inclusive = std::max<SimTime>(0, end - span.start);
    auto stat_it = std::find_if(by_label.begin(), by_label.end(),
                                [&](const auto& entry) { return entry.first == span.component; });
    if (stat_it == by_label.end()) {
      by_label.emplace_back(span.component, ComponentStat());
      stat_it = by_label.end() - 1;
    }
    ComponentStat& stat = stat_it->second;
    stat.inclusive += inclusive;
    ++stat.span_count;

    // Exclusive = inclusive minus the union of child intervals clipped to
    // this span's interval (children may overlap, e.g. a parallel fanout).
    intervals.clear();
    for (uint32_t child_id : index.Children(span.span_id)) {
      const Span& child = trace.spans[child_id - 1];
      SimTime lo = std::max(span.start, child.start);
      SimTime hi = std::min(end, index.EffectiveEnd(child_id));
      if (hi > lo) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    SimTime covered = 0;
    SimTime cursor = span.start;
    for (const auto& [lo, hi] : intervals) {
      SimTime from = std::max(cursor, lo);
      if (hi > from) {
        covered += hi - from;
        cursor = hi;
      }
    }
    stat.exclusive += inclusive - covered;
  }
  std::map<std::string, ComponentStat> out;
  for (const auto& [label, stat] : by_label) {
    out.emplace(std::string(trace.Label(label)), stat);
  }
  return out;
}

std::vector<CriticalPathSegment> CriticalPath(const TraceRecord& trace) {
  std::vector<CriticalPathSegment> path;
  const Span* current = trace.root();
  if (current == nullptr) return path;
  TraceIndex index(trace);
  while (true) {
    const Span* pick = nullptr;
    SimTime pick_end = 0;
    for (uint32_t child_id : index.Children(current->span_id)) {
      SimTime e = index.EffectiveEnd(child_id);
      if (pick == nullptr || e > pick_end) {
        pick = &trace.spans[child_id - 1];
        pick_end = e;
      }
    }
    SimTime cur_end = index.EffectiveEnd(current->span_id);
    if (pick == nullptr) {
      path.push_back({current->span_id, std::max<SimTime>(0, cur_end - current->start)});
      return path;
    }
    // Time this span explains itself: before the chosen child starts, plus
    // any tail after the child ends.
    SimTime before = std::max<SimTime>(0, pick->start - current->start);
    SimTime after = std::max<SimTime>(0, cur_end - pick_end);
    path.push_back({current->span_id, before + after});
    current = pick;
  }
}

SimTime CriticalPathDuration(const TraceRecord& trace) {
  SimTime total = 0;
  for (const CriticalPathSegment& seg : CriticalPath(trace)) {
    total += seg.contribution;
  }
  return total;
}

Histogram SpanDurationHistogram(const TraceCollector& collector, const SpanQuery& query) {
  Histogram hist;
  ForEachMatch(collector, query, [&](const TraceRecord&, const Span& span) {
    if (!span.open()) hist.Record(static_cast<double>(span.duration()));
  });
  return hist;
}

Histogram SpanEndSinceRootHistogram(const TraceCollector& collector, const SpanQuery& query) {
  Histogram hist;
  ForEachMatch(collector, query, [&](const TraceRecord& trace, const Span& span) {
    if (!span.open()) hist.Record(static_cast<double>(span.end - trace.root()->start));
  });
  return hist;
}

std::vector<SpanRef> FindSpans(const TraceCollector& collector, const SpanQuery& query) {
  std::vector<SpanRef> out;
  ForEachMatch(collector, query, [&](const TraceRecord& trace, const Span& span) {
    out.push_back({&trace, &span});
  });
  return out;
}

}  // namespace bladerunner
