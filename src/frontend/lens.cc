#include "frontend/lens.h"

#include "common/strings.h"

namespace nimble {
namespace frontend {

Status LensService::RegisterLens(Lens lens) {
  const std::string name = lens.name;
  if (name.empty()) return Status::InvalidArgument("lens needs a name");
  if (lenses_.count(name) > 0) {
    return Status::AlreadyExists("lens '" + name + "' already registered");
  }
  lenses_[name] = std::move(lens);
  return Status::OK();
}

const Lens* LensService::lens(const std::string& name) const {
  auto it = lenses_.find(name);
  return it == lenses_.end() ? nullptr : &it->second;
}

std::vector<std::string> LensService::LensNames() const {
  std::vector<std::string> names;
  names.reserve(lenses_.size());
  for (const auto& [name, lens] : lenses_) names.push_back(name);
  return names;
}

Result<std::string> LensService::ExpandTemplate(
    const std::string& query_template,
    const std::map<std::string, std::string>& parameters) {
  std::string out;
  out.reserve(query_template.size());
  size_t i = 0;
  while (i < query_template.size()) {
    char c = query_template[i];
    if (c != '{') {
      out.push_back(c);
      ++i;
      continue;
    }
    size_t close = query_template.find('}', i);
    if (close == std::string::npos) {
      return Status::InvalidArgument("unterminated '{' in lens template");
    }
    std::string param = query_template.substr(i + 1, close - i - 1);
    auto it = parameters.find(param);
    if (it == parameters.end()) {
      return Status::InvalidArgument("lens parameter '" + param +
                                     "' not supplied");
    }
    // Keep injected values inert inside quoted literals.
    out += ReplaceAll(it->second, "'", "''");
    i = close + 1;
  }
  return out;
}

Result<LensResult> LensService::Invoke(
    const std::string& lens_name,
    const std::map<std::string, std::string>& parameters,
    const std::string& token) {
  const Lens* target = lens(lens_name);
  if (target == nullptr) {
    return Status::NotFound("no lens '" + lens_name + "'");
  }
  if (target->require_auth) {
    if (auth_ == nullptr) {
      return Status::PermissionDenied("lens '" + lens_name +
                                      "' requires auth but none configured");
    }
    NIMBLE_RETURN_IF_ERROR(auth_->Authorize(token, lens_name).status());
  }

  // Merge parameters over the defaults.
  std::map<std::string, std::string> merged = target->default_parameters;
  for (const auto& [key, value] : parameters) merged[key] = value;
  NIMBLE_ASSIGN_OR_RETURN(std::string query,
                          ExpandTemplate(target->query_template, merged));

  LensResult result;
  core::QueryOptions query_options;
  query_options.tenant = target->tenant;
  query_options.priority = target->priority;
  const std::string cache_key = "lens:" + lens_name + ":" + query;
  if (cache_ != nullptr && target->cacheable) {
    // Singleflight: concurrent identical invocations share one engine
    // execution. A hit (or a waiter) receives the shared frozen snapshot —
    // zero-copy; callers mutate via result.raw.MutableDocument().
    core::QueryResult executed;
    bool ran = false;
    Result<ConstNodePtr> snapshot = cache_->LookupOrCompute(
        cache_key,
        [&]() -> Result<materialize::ResultCache::Computed> {
          Result<core::QueryResult> raw =
              balancer_->Execute(query, query_options);
          if (!raw.ok()) return raw.status();
          executed = std::move(*raw);
          ran = true;
          materialize::ResultCache::Computed computed;
          computed.document = executed.document;
          // Only complete answers are cached: a partial result must not
          // mask the sources' recovery.
          computed.cacheable = executed.report.completeness.complete;
          computed.tags = executed.report.sources_contacted;
          return computed;
        });
    NIMBLE_RETURN_IF_ERROR(snapshot.status());
    if (ran) {
      result.raw = std::move(executed);
      // nimble-lint: frozen(zero-copy cache seam; callers mutate via QueryResult::MutableDocument which clones)
      result.raw.document = std::const_pointer_cast<Node>(*snapshot);
    } else {
      // A hit or a singleflight waiter: no execution report, so the
      // snapshot's own stamp says whether the answer is complete (a waiter
      // may share a leader's partial answer, which is never stored).
      // nimble-lint: frozen(zero-copy cache seam; callers mutate via QueryResult::MutableDocument which clones)
      result.raw.document = std::const_pointer_cast<Node>(*snapshot);
      result.raw.report.result_count = result.raw.document->children().size();
      result.raw.report.completeness =
          core::CompletenessInfo::ReadFrom(*result.raw.document);
      result.served_from_cache = true;
    }
    result.body = FormatResult(*result.raw.document, target->format);
    return result;
  }

  NIMBLE_ASSIGN_OR_RETURN(result.raw,
                          balancer_->Execute(query, query_options));
  result.body = FormatResult(*result.raw.document, target->format);
  return result;
}

}  // namespace frontend
}  // namespace nimble
