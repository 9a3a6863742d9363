// Analysis passes over collected traces: per-component latency attribution
// (inclusive vs. exclusive time), critical-path extraction, and span queries
// that aggregate matching spans into histograms (the mechanism bench_table3
// and bench_fig9 derive their rows/CDFs from).

#ifndef BLADERUNNER_SRC_TRACE_ANALYSIS_H_
#define BLADERUNNER_SRC_TRACE_ANALYSIS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/sim/histogram.h"
#include "src/trace/collector.h"
#include "src/trace/span.h"

namespace bladerunner {

// Per-trace adjacency built once in O(spans + annotations): each span's
// children in span-id order, each span's annotations in record order, and
// every span's effective end. Passes that visit every span of a trace (an
// update trace can hold hundreds) use it instead of rescanning the trace
// per span.
class TraceIndex {
 public:
  explicit TraceIndex(const TraceRecord& trace);

  // Ids of the children of span `id`, ascending.
  std::span<const uint32_t> Children(SpanId id) const;
  // Positions in trace.annotations of span `id`'s annotations, ascending.
  std::span<const uint32_t> Annotations(SpanId id) const;
  // End time used for attribution: a closed span's own end, or for an open
  // span the latest effective end among its descendants (at least `start`).
  SimTime EffectiveEnd(SpanId id) const { return effective_end_[id - 1]; }

 private:
  // Compressed rows keyed by span id: row `id` is [begin[id-1], begin[id]).
  std::vector<uint32_t> child_begin_;
  std::vector<uint32_t> children_;
  std::vector<uint32_t> annotation_begin_;
  std::vector<uint32_t> annotations_;
  std::vector<SimTime> effective_end_;
};

// Root effective end minus root start (0 for an empty trace). An open root
// costs one TraceIndex, O(spans + annotations).
SimTime TraceDuration(const TraceRecord& trace);

struct ComponentStat {
  // Sum of span durations for the component (children included), so nested
  // same-component spans are counted once per span.
  SimTime inclusive = 0;
  // Time inside the component's spans not covered by any child span —
  // "where the time actually went".
  SimTime exclusive = 0;
  int span_count = 0;
};

// Attribution keyed by component name.
std::map<std::string, ComponentStat> ComponentBreakdown(const TraceRecord& trace);

// One hop of the critical path: the span plus the share of the trace's
// duration attributed to it (its time not explained by the next hop down).
struct CriticalPathSegment {
  SpanId span_id = 0;
  SimTime contribution = 0;
};

// Walks from the root, at each level descending into the child whose
// effective end is latest (ties: lower span id). Each segment's
// contribution is the parent's time before the chosen child starts plus
// its time after the child ends; on a linear fully-nested trace the
// contributions telescope so their sum equals the root duration exactly.
std::vector<CriticalPathSegment> CriticalPath(const TraceRecord& trace);

// Sum of critical-path contributions.
SimTime CriticalPathDuration(const TraceRecord& trace);

// Matches spans by name / component / one annotation. Empty fields match
// anything; the annotation check requires `annotation_key` non-empty and
// compares the span's last value under that key with Value::operator==.
struct SpanQuery {
  std::string name;
  std::string component;
  std::string annotation_key;
  Value annotation_value;
};

// Histogram of closed matching spans' durations, in microseconds.
Histogram SpanDurationHistogram(const TraceCollector& collector, const SpanQuery& query);

// Histogram of (span end - root start) for closed matching spans: latency
// from the start of the journey to the end of this hop.
Histogram SpanEndSinceRootHistogram(const TraceCollector& collector, const SpanQuery& query);

// A span together with the trace that holds its labels and annotations.
struct SpanRef {
  const TraceRecord* trace = nullptr;
  const Span* span = nullptr;
};

// All matching spans across retained traces, in trace insertion order.
std::vector<SpanRef> FindSpans(const TraceCollector& collector, const SpanQuery& query);

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_TRACE_ANALYSIS_H_
