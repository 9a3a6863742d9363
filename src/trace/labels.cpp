#include "src/trace/labels.h"

#include <stdexcept>

namespace bladerunner {

LabelId TraceLabels::Intern(std::string_view text) {
  auto it = ids_.find(text);
  if (it != ids_.end()) return it->second;
  if (texts_.size() >= kNoLabel) throw std::length_error("TraceLabels: label table full");
  auto id = static_cast<LabelId>(texts_.size());
  ids_.emplace(texts_.emplace_back(text), id);
  return id;
}

LabelId TraceLabels::Find(std::string_view text) const {
  auto it = ids_.find(text);
  return it == ids_.end() ? kNoLabel : it->second;
}

}  // namespace bladerunner
