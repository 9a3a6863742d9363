// Span and trace records collected by TraceCollector.
//
// The store is compact: a Span is a 32-byte trivially copyable record whose
// name and component are 16-bit ids into its store's TraceLabels, and a
// trace keeps every span's annotations in one append-only vector rather than
// a heap-allocated list per span. Read text back through the TraceRecord
// (Name, Component, Label).

#ifndef BLADERUNNER_SRC_TRACE_SPAN_H_
#define BLADERUNNER_SRC_TRACE_SPAN_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/graphql/value.h"
#include "src/sim/time.h"
#include "src/trace/context.h"
#include "src/trace/labels.h"

namespace bladerunner {

// Sentinel `end` for a span that has not been closed yet. Open spans are
// legal in finished traces (e.g. a long-lived stream span); analysis and
// export derive an effective end from the latest descendant.
constexpr SimTime kSpanOpen = -1;

// One timed operation inside a trace. Span ids are assigned sequentially
// per trace starting at 1, so spans[id - 1] is the span with that id, and a
// child's id is always larger than its parent's.
struct Span {
  uint32_t span_id = 0;
  uint32_t parent_span_id = 0;  // 0 = root span
  LabelId name = 0;             // e.g. "pylon.deliver"
  LabelId component = 0;        // e.g. "was", "pylon", "brass", "burst", "device"
  int16_t region = -1;          // RegionId where the span was opened; -1 unknown
  bool error = false;
  SimTime start = 0;
  SimTime end = kSpanOpen;

  bool open() const { return end == kSpanOpen; }
  SimTime duration() const { return (open() || end < start) ? 0 : end - start; }
};

// One annotation: `key` = `value` on span `span_id` of the same trace.
struct SpanAnnotation {
  uint32_t span_id = 0;
  LabelId key = 0;
  Value value;
};

// All spans of one sampled trace, in span-id order (spans[0] is the root),
// and all their annotations in record order.
struct TraceRecord {
  TraceId trace_id = 0;
  const TraceLabels* labels = nullptr;  // the owning store's table
  std::vector<Span> spans;
  std::vector<SpanAnnotation> annotations;

  std::string_view Label(LabelId id) const { return labels->Text(id); }
  std::string_view Name(const Span& span) const { return Label(span.name); }
  std::string_view Component(const Span& span) const { return Label(span.component); }

  const Span* root() const { return spans.empty() ? nullptr : &spans[0]; }

  const Span* Find(SpanId id) const {
    if (id == 0 || id > spans.size()) return nullptr;
    return &spans[id - 1];
  }
  Span* Find(SpanId id) {
    if (id == 0 || id > spans.size()) return nullptr;
    return &spans[id - 1];
  }

  // Returns the last annotation recorded under `key` on span `id`, or
  // nullptr. Scans the trace's annotations, so passes that look up many
  // spans index the annotations once instead (TraceIndex, span queries).
  const Value* FindAnnotation(SpanId id, std::string_view key) const {
    LabelId key_id = labels->Find(key);
    if (key_id == kNoLabel) return nullptr;
    for (auto it = annotations.rbegin(); it != annotations.rend(); ++it) {
      if (it->span_id == id && it->key == key_id) return &it->value;
    }
    return nullptr;
  }
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_TRACE_SPAN_H_
