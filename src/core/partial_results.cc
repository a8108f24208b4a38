#include "core/partial_results.h"

#include "common/strings.h"

namespace nimble {
namespace core {

std::string CompletenessInfo::ToString() const {
  if (complete) return "complete";
  std::string out = "INCOMPLETE; unavailable sources: ";
  for (size_t i = 0; i < unavailable_sources.size(); ++i) {
    if (i > 0) out += ", ";
    out += unavailable_sources[i];
  }
  if (!skipped_branches.empty()) {
    out += "; skipped branches: ";
    for (size_t i = 0; i < skipped_branches.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(skipped_branches[i]);
    }
  }
  return out;
}

void CompletenessInfo::StampOn(Node* root) const {
  root->SetAttribute("complete", Value::Bool(complete));
  if (!complete) {
    root->SetAttribute("missing_sources",
                       Value::String(Join(unavailable_sources, ",")));
  }
}

CompletenessInfo CompletenessInfo::ReadFrom(const Node& root) {
  CompletenessInfo info;
  const Value complete = root.GetAttribute("complete");
  info.complete = !complete.is_bool() || complete.AsBool();
  if (!info.complete) {
    const std::string missing = root.GetAttribute("missing_sources").ToString();
    if (!missing.empty()) info.unavailable_sources = Split(missing, ',');
  }
  return info;
}

bool DegradableCode(StatusCode code) {
  return code == StatusCode::kTimeout || code == StatusCode::kUnavailable ||
         code == StatusCode::kResourceExhausted;
}

}  // namespace core
}  // namespace nimble
