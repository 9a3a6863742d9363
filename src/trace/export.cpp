#include "src/trace/export.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "src/trace/analysis.h"

namespace bladerunner {

namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string HexId(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, id);
  return buf;
}

// Assigns each component a stable tid in first-use (span-id) order. The
// thread metadata lists components by text, so label ids never show.
struct ComponentTids {
  std::vector<std::pair<LabelId, int>> by_label;  // first-use order
  std::map<std::string_view, int> by_text;

  explicit ComponentTids(const TraceRecord& trace) {
    for (const Span& span : trace.spans) {
      if (Find(span.component) != 0) continue;
      int tid = static_cast<int>(by_label.size()) + 1;
      by_label.emplace_back(span.component, tid);
      by_text.emplace(trace.Label(span.component), tid);
    }
  }
  // 0 when `component` has no tid yet.
  int Find(LabelId component) const {
    for (const auto& [label, tid] : by_label) {
      if (label == component) return tid;
    }
    return 0;
  }
};

void AppendMetadataEvent(std::ostringstream& out, bool* first, int pid, int tid,
                         const std::string& kind, std::string_view name) {
  if (!*first) out << ",\n";
  *first = false;
  out << "  {\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"name\":\"" << kind << "\",\"args\":{\"name\":\"" << JsonEscape(name)
      << "\"}}";
}

void AppendTraceEvents(std::ostringstream& out, bool* first,
                       const TraceRecord& trace, int pid) {
  ComponentTids tids(trace);
  TraceIndex index(trace);
  AppendMetadataEvent(out, first, pid, 0, "process_name",
                      "trace " + HexId(trace.trace_id));
  for (const auto& [component, tid] : tids.by_text) {
    AppendMetadataEvent(out, first, pid, tid, "thread_name", component);
  }
  for (const Span& span : trace.spans) {
    SimTime end = index.EffectiveEnd(span.span_id);
    if (!*first) out << ",\n";
    *first = false;
    out << "  {\"ph\":\"X\",\"name\":\"" << JsonEscape(trace.Name(span))
        << "\",\"cat\":\"" << JsonEscape(trace.Component(span)) << "\",\"ts\":" << span.start
        << ",\"dur\":" << std::max<SimTime>(0, end - span.start)
        << ",\"pid\":" << pid << ",\"tid\":" << tids.Find(span.component) << ",\"args\":{";
    out << "\"span\":" << span.span_id << ",\"parent\":" << span.parent_span_id;
    if (span.region >= 0) out << ",\"region\":" << span.region;
    if (span.open()) out << ",\"open\":true";
    if (span.error) out << ",\"error\":true";
    for (uint32_t i : index.Annotations(span.span_id)) {
      const SpanAnnotation& annotation = trace.annotations[i];
      out << ",\"" << JsonEscape(trace.Label(annotation.key)) << "\":" << annotation.value.ToJson();
    }
    out << "}}";
  }
}

std::string WrapTraceEvents(const std::string& body) {
  return "{\"traceEvents\":[\n" + body + "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace

std::string ChromeTraceJson(const TraceRecord& trace) {
  std::ostringstream out;
  bool first = true;
  AppendTraceEvents(out, &first, trace, 1);
  return WrapTraceEvents(out.str());
}

std::string ChromeTraceJson(const TraceCollector& collector) {
  std::ostringstream out;
  bool first = true;
  int pid = 1;
  for (const TraceRecord* trace_ptr : collector.AllTraces()) {
    const TraceRecord& trace = *trace_ptr;
    AppendTraceEvents(out, &first, trace, pid++);
  }
  return WrapTraceEvents(out.str());
}

bool WriteTraceFile(const std::string& path, const std::string& contents) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file << contents;
  return static_cast<bool>(file);
}

std::string RenderTrace(const TraceRecord& trace) {
  std::ostringstream out;
  const Span* root = trace.root();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1fms", ToMillis(TraceDuration(trace)));
  out << "trace " << HexId(trace.trace_id) << " "
      << (root != nullptr ? trace.Name(*root) : "<empty>") << " " << buf << "\n";
  if (root == nullptr) return out.str();

  // Depth-first render; children in span-id order.
  TraceIndex index(trace);
  std::vector<std::pair<const Span*, int>> stack;  // (span, depth)
  stack.emplace_back(root, 1);
  while (!stack.empty()) {
    auto [span, depth] = stack.back();
    stack.pop_back();
    out << std::string(static_cast<size_t>(depth) * 2, ' ') << trace.Name(*span) << " ["
        << trace.Component(*span) << "]";
    std::snprintf(buf, sizeof(buf), " +%.1fms", ToMillis(span->start - root->start));
    out << buf;
    SimTime end = index.EffectiveEnd(span->span_id);
    std::snprintf(buf, sizeof(buf), " %.1fms", ToMillis(end - span->start));
    out << buf;
    if (span->open()) out << " (open)";
    if (span->error) out << " ERROR";
    for (uint32_t i : index.Annotations(span->span_id)) {
      const SpanAnnotation& annotation = trace.annotations[i];
      out << " " << trace.Label(annotation.key) << "=" << annotation.value.ToJson();
    }
    out << "\n";
    // Push children in reverse so the lowest span id renders first.
    std::span<const uint32_t> children = index.Children(span->span_id);
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.emplace_back(&trace.spans[*it - 1], depth + 1);
    }
  }
  return out.str();
}

}  // namespace bladerunner
