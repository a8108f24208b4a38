#include "materialize/view_store.h"

#include "xmlql/parser.h"

namespace nimble {
namespace materialize {

Status MaterializedViewStore::Materialize(
    const std::string& view_name, const MaterializationPolicy& policy) {
  if (catalog_->view(view_name) == nullptr) {
    return Status::NotFound("no view '" + view_name + "' in the catalog");
  }
  Entry entry;
  entry.policy = policy;
  NIMBLE_RETURN_IF_ERROR(LoadEntry(view_name, &entry));
  entries_[view_name] = std::move(entry);
  return Status::OK();
}

Status MaterializedViewStore::LoadEntry(const std::string& view_name,
                                        Entry* entry) {
  const metadata::MediatedView* view = catalog_->view(view_name);
  if (view == nullptr) return Status::NotFound("no view '" + view_name + "'");
  Result<core::QueryResult> result = engine_->ExecuteText(view->query_text);
  if (!result.ok()) return result.status();
  entry->document = result->document;
  entry->document->Freeze();
  entry->load_report = result->report;
  entry->refreshed_at_micros = clock_->NowMicros();
  entry->source_versions.clear();
  for (const std::string& source_name : view->source_dependencies) {
    connector::Connector* source = catalog_->source(source_name);
    if (source != nullptr) {
      entry->source_versions[source_name] = source->DataVersion();
    }
  }
  ++stats_.refreshes;
  return Status::OK();
}

bool MaterializedViewStore::EntryIsStale(const Entry& entry) const {
  for (const auto& [source_name, version] : entry.source_versions) {
    connector::Connector* source = catalog_->source(source_name);
    if (source != nullptr && source->DataVersion() != version) return true;
  }
  return false;
}

Result<core::QueryResult> MaterializedViewStore::Query(
    const std::string& view_name) {
  auto it = entries_.find(view_name);
  if (it == entries_.end()) {
    // Virtual execution: contact the sources every time.
    const metadata::MediatedView* view = catalog_->view(view_name);
    if (view == nullptr) {
      return Status::NotFound("no view '" + view_name + "'");
    }
    ++stats_.serves;
    return engine_->ExecuteText(view->query_text);
  }

  Entry& entry = it->second;
  bool refresh = false;
  switch (entry.policy.refresh) {
    case MaterializationPolicy::Refresh::kManualOnly:
      break;
    case MaterializationPolicy::Refresh::kOnStale:
      refresh = EntryIsStale(entry);
      break;
    case MaterializationPolicy::Refresh::kTtl:
      refresh = clock_->NowMicros() - entry.refreshed_at_micros >=
                entry.policy.ttl_micros;
      break;
  }
  if (refresh) {
    NIMBLE_RETURN_IF_ERROR(LoadEntry(view_name, &entry));
  }

  ++stats_.serves;
  if (EntryIsStale(entry)) ++stats_.stale_serves;

  // Serves share the frozen local copy. A local serve ships no rows and
  // spends no source time; report the result size only.
  core::QueryResult result;
  result.document = entry.document;
  result.report.result_count = result.document->children().size();
  result.report.completeness = entry.load_report.completeness;
  return result;
}

Status MaterializedViewStore::Refresh(const std::string& view_name) {
  auto it = entries_.find(view_name);
  if (it == entries_.end()) {
    return Status::NotFound("view '" + view_name + "' is not materialized");
  }
  return LoadEntry(view_name, &it->second);
}

Status MaterializedViewStore::Drop(const std::string& view_name) {
  if (entries_.erase(view_name) == 0) {
    return Status::NotFound("view '" + view_name + "' is not materialized");
  }
  return Status::OK();
}

bool MaterializedViewStore::IsMaterialized(
    const std::string& view_name) const {
  return entries_.count(view_name) > 0;
}

Result<bool> MaterializedViewStore::IsStale(
    const std::string& view_name) const {
  auto it = entries_.find(view_name);
  if (it == entries_.end()) {
    return Status::NotFound("view '" + view_name + "' is not materialized");
  }
  return EntryIsStale(it->second);
}

Result<int64_t> MaterializedViewStore::AgeMicros(
    const std::string& view_name) const {
  auto it = entries_.find(view_name);
  if (it == entries_.end()) {
    return Status::NotFound("view '" + view_name + "' is not materialized");
  }
  return clock_->NowMicros() - it->second.refreshed_at_micros;
}

size_t MaterializedViewStore::StorageCost() const {
  size_t total = 0;
  for (const auto& [view_name, entry] : entries_) {
    total += entry.document->SubtreeSize();
  }
  return total;
}

}  // namespace materialize
}  // namespace nimble
