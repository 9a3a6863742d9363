// TraceLabels: the interned text of span names, components and annotation
// keys. A trace store holds 16-bit label ids instead of strings; the text
// lives here once per store.
//
// Ids are handed out in first-use order, so under the partitioned kernel
// they depend on how worker threads interleave. Nothing may order or print
// by id: analysis and exports read the text back and order by that.
//
// Not thread-safe on its own: each TraceCollector store owns one table and
// interns into it under the same lock that guards the store's traces (no
// lock at all in a sequential run).

#ifndef BLADERUNNER_SRC_TRACE_LABELS_H_
#define BLADERUNNER_SRC_TRACE_LABELS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace bladerunner {

using LabelId = uint16_t;

// Returned by TraceLabels::Find for text that was never interned.
inline constexpr LabelId kNoLabel = 0xffff;

class TraceLabels {
 public:
  TraceLabels() = default;
  TraceLabels(const TraceLabels&) = delete;
  TraceLabels& operator=(const TraceLabels&) = delete;

  // Id of `text`, interning it on first use. Labels name code paths, so the
  // vocabulary is small and fixed; throws std::length_error past kNoLabel
  // labels rather than recycle ids.
  LabelId Intern(std::string_view text);
  // Id of `text` if interned, else kNoLabel. Never inserts.
  LabelId Find(std::string_view text) const;
  // Text of an id returned by Intern. The view lives as long as the table.
  std::string_view Text(LabelId id) const { return texts_[id]; }

 private:
  std::deque<std::string> texts_;  // by id; a deque never moves its strings
  std::unordered_map<std::string_view, LabelId> ids_;  // views into texts_
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_TRACE_LABELS_H_
