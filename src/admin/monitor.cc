#include "admin/monitor.h"

#include "common/strings.h"

namespace nimble {
namespace admin {

NodePtr SystemMonitor::StatusDocument() const {
  NodePtr root = Node::Element("system_status");

  NodePtr sources = root->AddChild(Node::Element("sources"));
  for (const std::string& name : catalog_->SourceNames()) {
    connector::Connector* source = catalog_->source(name);
    NodePtr elem = sources->AddChild(Node::Element("source"));
    elem->SetAttribute("name", Value::String(name));
    elem->SetAttribute("online", Value::Bool(source->Ping().ok()));
    connector::SourceCapabilities caps = source->capabilities();
    elem->AddScalarChild("sql", Value::Bool(caps.supports_sql));
    elem->AddScalarChild("predicates", Value::Bool(caps.supports_predicates));
    elem->AddScalarChild(
        "indexes", Value::Int(static_cast<int64_t>(caps.indexed_columns.size())));
    elem->AddScalarChild("data_version",
                         Value::Int(static_cast<int64_t>(source->DataVersion())));
    connector::FetchStats stats = source->stats();
    elem->AddScalarChild("calls", Value::Int(static_cast<int64_t>(stats.calls)));
    elem->AddScalarChild("rows_shipped",
                         Value::Int(static_cast<int64_t>(stats.rows_shipped)));
    elem->AddScalarChild("latency_ms",
                         Value::Double(stats.latency_micros / 1000.0));
    std::vector<std::string> collections = source->Collections();
    elem->AddScalarChild("collections",
                         Value::String(Join(collections, ",")));
  }

  NodePtr views = root->AddChild(Node::Element("views"));
  for (const std::string& name : catalog_->ViewNames()) {
    const metadata::MediatedView* view = catalog_->view(name);
    NodePtr elem = views->AddChild(Node::Element("view"));
    elem->SetAttribute("name", Value::String(name));
    elem->AddScalarChild("sources",
                         Value::String(Join(view->source_dependencies, ",")));
    if (!view->view_dependencies.empty()) {
      elem->AddScalarChild("depends_on",
                           Value::String(Join(view->view_dependencies, ",")));
    }
    if (!view->description.empty()) {
      elem->AddScalarChild("description", Value::String(view->description));
    }
    if (views_ != nullptr) {
      bool materialized = views_->IsMaterialized(name);
      elem->AddScalarChild("materialized", Value::Bool(materialized));
      if (materialized) {
        elem->AddScalarChild("stale",
                             Value::Bool(views_->IsStale(name).ValueOr(false)));
        elem->AddScalarChild(
            "age_ms", Value::Double(views_->AgeMicros(name).ValueOr(0) / 1000.0));
      }
    }
  }

  if (views_ != nullptr) {
    NodePtr store = root->AddChild(Node::Element("view_store"));
    store->AddScalarChild(
        "serves", Value::Int(static_cast<int64_t>(views_->stats().serves)));
    store->AddScalarChild(
        "refreshes",
        Value::Int(static_cast<int64_t>(views_->stats().refreshes)));
    store->AddScalarChild(
        "storage_nodes",
        Value::Int(static_cast<int64_t>(views_->StorageCost())));
  }

  if (cache_ != nullptr) {
    materialize::CacheStats stats = cache_->stats();
    NodePtr cache = root->AddChild(Node::Element("result_cache"));
    cache->AddScalarChild("entries",
                          Value::Int(static_cast<int64_t>(stats.entries)));
    cache->AddScalarChild("bytes",
                          Value::Int(static_cast<int64_t>(stats.bytes)));
    cache->AddScalarChild(
        "max_bytes", Value::Int(static_cast<int64_t>(cache_->max_bytes())));
    cache->AddScalarChild("hit_rate", Value::Double(stats.HitRate()));
    cache->AddScalarChild("coalesced",
                          Value::Int(static_cast<int64_t>(stats.coalesced)));
    cache->AddScalarChild("evictions",
                          Value::Int(static_cast<int64_t>(stats.evictions)));
    cache->AddScalarChild(
        "expirations", Value::Int(static_cast<int64_t>(stats.expirations)));
    cache->AddScalarChild(
        "invalidations",
        Value::Int(static_cast<int64_t>(stats.invalidations)));
  }

  if (balancer_ != nullptr) {
    NodePtr pool = root->AddChild(Node::Element("engine_pool"));
    pool->SetAttribute("size",
                       Value::Int(static_cast<int64_t>(balancer_->pool_size())));
    std::vector<uint64_t> served = balancer_->QueriesPerEngine();
    std::vector<int64_t> busy = balancer_->BusyMicrosPerEngine();
    for (size_t i = 0; i < served.size(); ++i) {
      NodePtr engine = pool->AddChild(Node::Element("engine"));
      engine->SetAttribute("index", Value::Int(static_cast<int64_t>(i)));
      engine->AddScalarChild("queries",
                             Value::Int(static_cast<int64_t>(served[i])));
      engine->AddScalarChild("busy_ms", Value::Double(busy[i] / 1000.0));
      sched::QueryScheduler* scheduler = balancer_->engine(i)->scheduler();
      if (scheduler == nullptr) continue;
      sched::SchedulerStats stats = scheduler->stats();
      NodePtr sched = engine->AddChild(Node::Element("scheduler"));
      sched->AddScalarChild("queue_depth",
                            Value::Int(static_cast<int64_t>(stats.queue_depth)));
      sched->AddScalarChild(
          "inflight", Value::Int(static_cast<int64_t>(stats.inflight_queries)));
      sched->AddScalarChild(
          "admitted", Value::Int(static_cast<int64_t>(stats.admitted)));
      sched->AddScalarChild(
          "completed", Value::Int(static_cast<int64_t>(stats.completed)));
      sched->AddScalarChild("shed",
                            Value::Int(static_cast<int64_t>(stats.TotalShed())));
      sched->AddScalarChild(
          "dropped_expired",
          Value::Int(static_cast<int64_t>(stats.dropped_expired)));
      sched->AddScalarChild(
          "dropped_cancelled",
          Value::Int(static_cast<int64_t>(stats.dropped_cancelled)));
      sched->AddScalarChild("queue_wait_p50_ms",
                            Value::Double(stats.queue_wait_p50_micros / 1000.0));
      sched->AddScalarChild("queue_wait_p90_ms",
                            Value::Double(stats.queue_wait_p90_micros / 1000.0));
      sched->AddScalarChild("queue_wait_p99_ms",
                            Value::Double(stats.queue_wait_p99_micros / 1000.0));
      for (const sched::TenantStats& ts : stats.tenants) {
        NodePtr tenant = sched->AddChild(Node::Element("tenant"));
        tenant->SetAttribute("name", Value::String(ts.tenant.empty()
                                                       ? "<default>"
                                                       : ts.tenant));
        tenant->SetAttribute("weight",
                             Value::Int(static_cast<int64_t>(ts.weight)));
        tenant->AddScalarChild(
            "submitted", Value::Int(static_cast<int64_t>(ts.submitted)));
        tenant->AddScalarChild("admitted",
                               Value::Int(static_cast<int64_t>(ts.admitted)));
        // Admit rate: share of this tenant's submissions that reached a
        // worker (the rest were shed or dropped while queued).
        tenant->AddScalarChild(
            "admit_rate",
            Value::Double(ts.submitted == 0
                              ? 1.0
                              : static_cast<double>(ts.admitted) /
                                    static_cast<double>(ts.submitted)));
        tenant->AddScalarChild("completed",
                               Value::Int(static_cast<int64_t>(ts.completed)));
        tenant->AddScalarChild("shed",
                               Value::Int(static_cast<int64_t>(ts.shed)));
        tenant->AddScalarChild("dropped",
                               Value::Int(static_cast<int64_t>(ts.dropped)));
        tenant->AddScalarChild("queued",
                               Value::Int(static_cast<int64_t>(ts.queued)));
      }
    }
  }
  if (coordinator_ != nullptr) {
    dist::ShardCluster* cluster = coordinator_->cluster();
    dist::CoordinatorCounters counters = coordinator_->counters();
    NodePtr distribution = root->AddChild(Node::Element("distribution"));
    distribution->SetAttribute(
        "shards", Value::Int(static_cast<int64_t>(cluster->num_shards())));
    distribution->AddScalarChild(
        "scatter_queries",
        Value::Int(static_cast<int64_t>(counters.scatter_queries)));
    distribution->AddScalarChild(
        "fallback_queries",
        Value::Int(static_cast<int64_t>(counters.fallback_queries)));
    distribution->AddScalarChild(
        "scatter_subqueries",
        Value::Int(static_cast<int64_t>(counters.subqueries)));
    distribution->AddScalarChild(
        "shards_pruned",
        Value::Int(static_cast<int64_t>(counters.shards_pruned)));
    distribution->AddScalarChild(
        "merge_rows", Value::Int(static_cast<int64_t>(counters.merge_rows)));
    distribution->AddScalarChild(
        "stragglers", Value::Int(static_cast<int64_t>(counters.stragglers)));
    distribution->AddScalarChild(
        "partial_results",
        Value::Int(static_cast<int64_t>(counters.partial_results)));
    distribution->AddScalarChild(
        "repartitions",
        Value::Int(static_cast<int64_t>(cluster->repartitions())));
    for (size_t i = 0; i < cluster->num_shards(); ++i) {
      NodePtr shard = distribution->AddChild(Node::Element("shard"));
      shard->SetAttribute("index", Value::Int(static_cast<int64_t>(i)));
      core::IntegrationEngine* engine = cluster->shard_engine(i);
      shard->AddScalarChild(
          "queries",
          Value::Int(static_cast<int64_t>(engine->queries_served())));
      sched::QueryScheduler* scheduler = engine->scheduler();
      if (scheduler != nullptr) {
        sched::SchedulerStats stats = scheduler->stats();
        shard->AddScalarChild(
            "queue_depth",
            Value::Int(static_cast<int64_t>(stats.queue_depth)));
        shard->AddScalarChild(
            "inflight",
            Value::Int(static_cast<int64_t>(stats.inflight_queries)));
      }
    }
    for (const metadata::FragmentMap* map :
         cluster->catalog()->FragmentMaps()) {
      NodePtr fragment_map =
          distribution->AddChild(Node::Element("fragment_map"));
      fragment_map->SetAttribute("source", Value::String(map->source));
      fragment_map->SetAttribute("collection", Value::String(map->collection));
      fragment_map->AddScalarChild("key", Value::String(map->partition_key));
      fragment_map->AddScalarChild(
          "kind",
          Value::String(metadata::FragmentMap::KindName(map->kind)));
      std::vector<size_t> rows =
          cluster->registry().FragmentRowCounts(map->source, map->collection);
      std::vector<std::string> row_text;
      row_text.reserve(rows.size());
      for (size_t n : rows) row_text.push_back(std::to_string(n));
      fragment_map->AddScalarChild("fragment_rows",
                                   Value::String(Join(row_text, ",")));
    }
  }
  return root;
}

namespace {

void RenderText(const Node& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(node.name());
  for (const auto& [name, value] : node.attributes()) {
    out->append(" " + name + "=" + value.ToString());
  }
  // Simple-content children render inline as key: value.
  bool has_nested = false;
  std::string inline_fields;
  for (const NodePtr& child : node.children()) {
    if (!child->is_element()) continue;
    if (child->children().size() == 1 && child->children()[0]->is_text()) {
      inline_fields +=
          "  " + child->name() + ": " + child->ScalarValue().ToString();
    } else {
      has_nested = true;
    }
  }
  out->append(inline_fields);
  out->push_back('\n');
  if (has_nested || !node.children().empty()) {
    for (const NodePtr& child : node.children()) {
      if (!child->is_element()) continue;
      if (child->children().size() == 1 && child->children()[0]->is_text()) {
        continue;  // already inlined
      }
      RenderText(*child, depth + 1, out);
    }
  }
}

}  // namespace

std::string SystemMonitor::ToText() const {
  NodePtr doc = StatusDocument();
  std::string out;
  RenderText(*doc, 0, &out);
  return out;
}

}  // namespace admin
}  // namespace nimble
