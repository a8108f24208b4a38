// sharded_aggregate: one client sending queries through
// dist::Coordinator::ExecuteText to an in-process three-shard cluster over
// two collections hash-partitioned on the same key. GROUP BY aggregates and
// ORDER BY + LIMIT top-k queries scatter to every shard; partition-key point
// queries are pruned to one shard; a co-partitioned join falls back to the
// coordinator's local engine. The straggler budget is off. The client and
// the shard workers share the one CPU a round is pinned to, so a query costs
// the sum of its shard subplans rather than the slowest one: the benchmark
// measures the work scatter-gather does, not how the host schedules four
// vCPUs. This is the only workload on the print/re-parse shard transport,
// shard fetch + pattern match, partial aggregation and the k-way merge; it
// uses no relational executor and no result cache.

#include <algorithm>

#include "common/rng.h"
#include "connector/xml_connector.h"
#include "dist/cluster.h"
#include "dist/coordinator.h"
#include "harness.h"
#include "metadata/catalog.h"
#include "workload_util.h"
#include "xml/serializer.h"

namespace nimble {
namespace e2ebench {

namespace {

constexpr size_t kShards = 3;
/// Small enough that a 30 s run holds ~8 blocks of 160 reads at one CPU's
/// speed.
constexpr int64_t kOrders = 4000;
constexpr int64_t kLinesPerOrder = 1;
constexpr int64_t kCustomers = 600;

enum Kind { kGroup = 0, kTop, kPoint, kJoin, kKinds };
constexpr const char* kKindNames[kKinds] = {"group_by", "top_k", "point",
                                            "copartitioned_join"};
/// Distinct texts per kind (56 in all: the local engine's 64-entry plan
/// cache holds every fallback text).
constexpr size_t kTexts[kKinds] = {8, 8, 24, 8};
/// Requests per kind in one round. On one CPU the pruned point queries are
/// the cheapest (25%), the scattered aggregates and top-k next (50%) and
/// the fallback join the dearest (25%), so p50 sits at the centre of the
/// scatter mode and p90 at 60% of the join mode. Each mode is wide (the
/// rounds run on vCPUs of different speeds), and a percentile on the
/// slope of one swung twice as much as throughput between runs.
constexpr int kPerRound[kKinds] = {6, 4, 5, 5};

std::string GroupText(int64_t min_amount) {
  return "WHERE <orders><order><region>$r</region><amount>$a</amount></order>"
         "</orders> IN \"sales:orders\", $a >= " +
         std::to_string(min_amount) +
         " CONSTRUCT <g region=$r><n>count($a)</n><s>sum($a)</s><m>max($a)</m></g>"
         " GROUP BY $r ORDER BY $r";
}

std::string TopText(int64_t min_amount) {
  return "WHERE <orders><order><oid>$o</oid><cust>$c</cust><amount>$a</amount>"
         "</order></orders> IN \"sales:orders\", $a >= " +
         std::to_string(min_amount) +
         " CONSTRUCT <top id=$o><cust>$c</cust><amount>$a</amount></top>"
         " ORDER BY $a DESC, $o LIMIT 10";
}

std::string PointText(int64_t oid) {
  return "WHERE <orders><order><oid>$o</oid><cust>$c</cust><amount>$a</amount>"
         "</order></orders> IN \"sales:orders\", $o = " +
         std::to_string(oid) +
         " CONSTRUCT <o id=$o><cust>$c</cust><amount>$a</amount></o>";
}

std::string JoinText(int64_t cust) {
  return "WHERE <orders><order><oid>$o</oid><cust>" + std::to_string(cust) +
         "</cust></order></orders> IN \"sales:orders\", <lines><line><oid>$o</oid>"
         "<sku>$s</sku><qty>$q</qty></line></lines> IN \"sales:lines\""
         " CONSTRUCT <l order=$o><sku>$s</sku><qty>$q</qty></l> ORDER BY $o, $s";
}

class ShardedAggregate : public Workload {
 public:
  explicit ShardedAggregate(uint64_t seed) : seed_(seed) {
    Rng rng(seed);
    const auto& cities = CityRegions();
    orders_xml_ = "<orders>";
    lines_xml_ = "<lines>";
    for (int64_t oid = 0; oid < kOrders; ++oid) {
      orders_xml_ += "<order><oid>" + std::to_string(oid) + "</oid><cust>" +
                     std::to_string(rng.UniformInt(0, kCustomers - 1)) +
                     "</cust><region>" + cities[rng.Index(cities.size())].second +
                     "</region><amount>" + std::to_string(rng.UniformInt(1, 1000)) +
                     "</amount></order>";
      for (int64_t l = 0; l < kLinesPerOrder; ++l) {
        lines_xml_ += "<line><oid>" + std::to_string(oid) + "</oid><sku>s" +
                      std::to_string(rng.UniformInt(100, 999)) + "</sku><qty>" +
                      std::to_string(rng.UniformInt(1, 9)) + "</qty></line>";
      }
    }
    orders_xml_ += "</orders>";
    lines_xml_ += "</lines>";
    for (int kind = 0; kind < kKinds; ++kind) {
      for (size_t i = 0; i < kTexts[kind]; ++i) {
        switch (kind) {
          case kGroup:
            texts_[kind].push_back(GroupText(rng.UniformInt(1, 50)));
            break;
          case kTop:
            texts_[kind].push_back(TopText(rng.UniformInt(950, 990)));
            break;
          case kPoint:
            texts_[kind].push_back(PointText(rng.UniformInt(0, kOrders - 1)));
            break;
          default:
            texts_[kind].push_back(JoinText(rng.UniformInt(0, kCustomers - 1)));
        }
      }
    }
  }

  void Teardown() override {
    coordinator_.reset();
    cluster_.reset();
    catalog_.reset();
  }

  Status Setup() override {
    auto sales = std::make_unique<connector::XmlConnector>("sales");
    NIMBLE_RETURN_IF_ERROR(sales->PutDocumentText("orders", orders_xml_));
    NIMBLE_RETURN_IF_ERROR(sales->PutDocumentText("lines", lines_xml_));
    catalog_ = std::make_unique<metadata::Catalog>();
    NIMBLE_RETURN_IF_ERROR(catalog_->RegisterSource(
        std::make_unique<TimingConnector>(std::move(sales), -1)));

    dist::ShardClusterOptions options;
    options.num_shards = kShards;
    // One private worker per shard: shard subplans never queue behind each
    // other on the shared pool.
    options.engine_options.worker_threads = 1;
    options.wrap_connector = [](size_t shard,
                                std::unique_ptr<connector::Connector> inner)
        -> std::unique_ptr<connector::Connector> {
      return std::make_unique<TimingConnector>(std::move(inner),
                                               static_cast<int>(shard));
    };
    cluster_ = std::make_unique<dist::ShardCluster>(catalog_.get(), options);
    for (const char* collection : {"orders", "lines"}) {
      dist::PartitionSpec spec;
      spec.source = "sales";
      spec.collection = collection;
      spec.partition_key = "oid";
      spec.kind = metadata::FragmentMap::Kind::kHash;
      spec.num_fragments = kShards;
      NIMBLE_RETURN_IF_ERROR(cluster_->Partition(spec));
    }
    NIMBLE_RETURN_IF_ERROR(cluster_->Init());
    coordinator_ = std::make_unique<dist::Coordinator>(cluster_.get());
    // Warm-up: one request of each kind.
    for (int kind = 0; kind < kKinds; ++kind) {
      NIMBLE_RETURN_IF_ERROR(coordinator_->ExecuteText(texts_[kind][0]).status());
    }
    return Status::OK();
  }

  /// Expected bytes: every text run on the coordinator's local engine over
  /// the unsharded collections.
  Status PrepareChecks() override {
    for (int kind = 0; kind < kKinds; ++kind) {
      expected_[kind].clear();
      for (const std::string& text : texts_[kind]) {
        NIMBLE_ASSIGN_OR_RETURN(core::QueryResult local,
                                coordinator_->local_engine()->ExecuteText(text));
        expected_[kind].push_back(ToXml(*local.document));
      }
    }
    return Status::OK();
  }

  Status RunRound(int round, RoundLog* log) override {
    Rng rng(seed_ * 1000003ULL + static_cast<uint64_t>(round));
    std::vector<std::pair<int, size_t>> picks;
    for (int kind = 0; kind < kKinds; ++kind) {
      for (int i = 0; i < kPerRound[kind]; ++i) {
        picks.push_back({kind, rng.Index(kTexts[kind])});
      }
    }
    for (size_t i = picks.size() - 1; i > 0; --i) {
      std::swap(picks[i], picks[rng.Index(i + 1)]);
    }

    Tracer& tracer = Tracer::Get();
    for (const auto& [kind, index] : picks) {
      RequestRecord r;
      r.id = tracer.NextId();
      r.kind = kKindNames[kind];
      const uint64_t fallbacks = coordinator_->counters().fallback_queries;
      tracer.set_current_request(r.id);
      r.start = NowNanos();
      Result<core::QueryResult> result =
          coordinator_->ExecuteText(texts_[kind][index]);
      r.end = NowNanos();
      tracer.set_current_request(0);
      RecordRequestSpan(r);
      if (!result.ok()) {
        log->Fail(result.status());
        continue;
      }
      if (!IsComplete(*result->document)) {
        ++log->failures.incomplete;
        continue;
      }
      if (ToXml(*result->document) != expected_[kind][index]) {
        return Status::Internal("sharded answer differs from the local engine's for: " +
                                texts_[kind][index]);
      }
      r.fell_back = coordinator_->counters().fallback_queries != fallbacks;
      r.results = result->report.result_count;
      r.operator_rows = OperatorRows(result->report.plan_with_stats);
      r.queue_wait_micros = result->report.queue_wait_micros;
      log->requests.push_back(r);
    }
    return Status::OK();
  }

  Counters Snapshot() override {
    Counters c;
    c.plan = coordinator_->local_engine()->plan_cache()->stats();
    for (size_t shard = 0; shard < kShards; ++shard) {
      core::PlanCache::Stats s = cluster_->shard_engine(shard)->plan_cache()->stats();
      c.shard_plan.hits += s.hits;
      c.shard_plan.misses += s.misses;
    }
    c.dist = coordinator_->counters();
    return c;
  }

  std::vector<std::string> QueryTexts() override {
    std::vector<std::string> all;
    for (const std::vector<std::string>& kind : texts_) {
      all.insert(all.end(), kind.begin(), kind.end());
    }
    return all;
  }

 private:
  const uint64_t seed_;
  std::string orders_xml_;
  std::string lines_xml_;
  std::vector<std::string> texts_[kKinds];
  std::vector<std::string> expected_[kKinds];
  std::unique_ptr<metadata::Catalog> catalog_;
  std::unique_ptr<dist::ShardCluster> cluster_;
  std::unique_ptr<dist::Coordinator> coordinator_;
};

}  // namespace

std::unique_ptr<Workload> MakeShardedAggregate(uint64_t seed) {
  return std::make_unique<ShardedAggregate>(seed);
}

}  // namespace e2ebench
}  // namespace nimble
