// E8 — Query-result caching (§2.1/§4 "caching and other performance
// tuning capabilities").
//
// Claims quantified:
//  (a) hit rate / mean latency vs cache byte budget under Zipf-skewed
//      query workloads: skew drives most traffic to few queries, so a
//      small cache captures a large share;
//  (b) TTL tradeoff: short TTLs bound staleness but lose hits when the
//      underlying data churns;
//  (c) singleflight: N concurrent identical misses through
//      ResultCache::LookupOrCompute around ExecuteText — the lens cache's
//      path — collapse into one engine execution (the rest coalesce onto
//      the leader's flight);
//  (d) zero-copy hits: a hit hands out a shared frozen snapshot, so hit
//      latency is O(1) in result size — unlike the deep-clone-per-hit
//      scheme it replaces, which is O(result size).
//
// Expected shape: hit rate rises with capacity and with skew, saturating
// near the distinct-query working set; with a TTL, longer TTL → higher
// hit rate but more stale answers; (c) reports exactly 1 execution per
// round regardless of client count; (d) snapshot hit cost is flat while
// clone cost grows linearly with rows.

#include <chrono>
#include <thread>

#include "bench/workload.h"
#include "core/engine.h"
#include "materialize/result_cache.h"
#include "metadata/catalog.h"

using namespace nimble;
using bench::Fmt;
using bench::FmtInt;
using bench::FmtPct;

namespace {

constexpr size_t kDistinctQueries = 64;
constexpr size_t kWorkload = 2000;

struct World {
  VirtualClock clock;
  metadata::Catalog catalog;
  std::unique_ptr<bench::RemoteRelationalSource> holder;
  std::unique_ptr<core::IntegrationEngine> engine;
  std::vector<std::string> queries;
};

std::unique_ptr<World> MakeWorld() {
  auto world = std::make_unique<World>();
  connector::SimulationConfig config;
  config.fixed_latency_micros = 3000;
  config.per_row_latency_micros = 15;
  auto src = bench::MakeRemoteCustomers("crm", 4000, 21, config, &world->clock,
                                        true);
  world->holder = std::make_unique<bench::RemoteRelationalSource>(
      std::move(src));
  (void)world->catalog.RegisterSource(std::move(world->holder->connector));
  world->engine = std::make_unique<core::IntegrationEngine>(&world->catalog);
  for (size_t q = 0; q < kDistinctQueries; ++q) {
    int lo = static_cast<int>((q * 131) % 950);
    world->queries.push_back(
        "WHERE <customers><row><id>$i</id><value>$v</value></row></customers>"
        " IN \"crm:customers\", $v >= " +
        std::to_string(lo) + ", $v < " + std::to_string(lo + 50) +
        " CONSTRUCT <c id=$i><value>$v</value></c>");
  }
  return world;
}

/// One representative result document's cost, used to express the byte
/// budget sweep in "entries worth of bytes" for comparability with the
/// entry-count sweep this bench used before byte budgeting.
size_t TypicalResultBytes() {
  std::unique_ptr<World> world = MakeWorld();
  Result<core::QueryResult> result =
      world->engine->ExecuteText(world->queries[0]);
  if (!result.ok()) return 0;
  return result->document->EstimatedBytes();
}

/// A flat result document with `rows` rows, shaped like engine output.
NodePtr MakeRows(size_t rows) {
  NodePtr doc = Node::Element("result");
  for (size_t i = 0; i < rows; ++i) {
    NodePtr row = doc->AddChild(Node::Element("c"));
    row->SetAttribute("id", Value::Int(static_cast<int64_t>(i)));
    row->AddScalarChild("value", Value::Int(static_cast<int64_t>(i * 7)));
    row->AddScalarChild("name", Value::String("customer-" +
                                              std::to_string(i)));
  }
  return doc;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  const size_t doc_bytes = TypicalResultBytes();
  if (doc_bytes == 0) return 1;

  std::printf("E8(a): cache hit rate and mean latency vs byte budget and "
              "skew\n");
  std::printf("(%zu queries over %zu distinct templates, 3ms RTT source, "
              "~%zu KB per result)\n\n",
              kWorkload, kDistinctQueries, doc_bytes / 1024);
  bench::PrintRow({"skew", "budget", "hit_rate", "mean_lat_ms"});
  bench::PrintRule(4);
  for (double skew : {0.0, 0.8, 1.2}) {
    for (size_t entries : {0u, 4u, 16u, 64u}) {
      std::unique_ptr<World> world = MakeWorld();
      materialize::ResultCacheOptions cache_options;
      // +25% slack per entry so budget rounding never strands capacity.
      cache_options.max_bytes = entries * (doc_bytes + doc_bytes / 4);
      cache_options.shards = 1;  // deterministic LRU for the sweep
      materialize::ResultCache cache(cache_options, &world->clock);
      ZipfGenerator zipf(kDistinctQueries, skew, 5);
      int64_t total_latency = 0;
      for (size_t i = 0; i < kWorkload; ++i) {
        const std::string& query = world->queries[zipf.Next()];
        int64_t before = world->clock.NowMicros();
        ConstNodePtr cached = cache.Lookup(query);
        if (cached == nullptr) {
          Result<core::QueryResult> result = world->engine->ExecuteText(query);
          if (!result.ok()) return 1;
          cache.Insert(query, result->document);
        }
        total_latency += world->clock.NowMicros() - before;
      }
      bench::PrintRow({Fmt(skew, 1),
                       FmtInt(static_cast<int64_t>(entries)) + "x",
                       FmtPct(cache.stats().HitRate()),
                       Fmt(static_cast<double>(total_latency) / kWorkload /
                               1000.0,
                           2)});
    }
    bench::PrintRule(4);
  }

  std::printf("\nE8(b): TTL vs staleness under churn "
              "(1 source update per 20 queries)\n\n");
  bench::PrintRow({"ttl_ms", "hit_rate", "stale_hits", "mean_lat_ms"});
  bench::PrintRule(4);
  for (int64_t ttl_ms : {0, 10, 100, 1000}) {
    std::unique_ptr<World> world = MakeWorld();
    relational::Database* db = world->holder->db.get();
    materialize::ResultCacheOptions cache_options;
    cache_options.max_bytes = 64 * (doc_bytes + doc_bytes / 4);
    cache_options.ttl_micros = ttl_ms * 1000;
    cache_options.shards = 1;
    materialize::ResultCache cache(cache_options, &world->clock);
    ZipfGenerator zipf(kDistinctQueries, 1.0, 5);
    Rng rng(13);
    uint64_t data_version = 0;
    std::map<std::string, uint64_t> cached_version;
    size_t stale_hits = 0;
    int64_t total_latency = 0;
    for (size_t i = 0; i < kWorkload; ++i) {
      if (i % 20 == 19) {
        (void)db->Execute("UPDATE customers SET value = " +
                          std::to_string(rng.UniformInt(0, 999)) +
                          " WHERE id = " +
                          std::to_string(rng.UniformInt(0, 3999)));
        ++data_version;
      }
      const std::string& query = world->queries[zipf.Next()];
      int64_t before = world->clock.NowMicros();
      ConstNodePtr cached = cache.Lookup(query);
      if (cached != nullptr) {
        if (cached_version[query] != data_version) ++stale_hits;
      } else {
        Result<core::QueryResult> result = world->engine->ExecuteText(query);
        if (!result.ok()) return 1;
        cache.Insert(query, result->document);
        cached_version[query] = data_version;
      }
      total_latency += world->clock.NowMicros() - before;
      world->clock.AdvanceMicros(500);  // think time so TTLs elapse
    }
    bench::PrintRow({ttl_ms == 0 ? "inf" : FmtInt(ttl_ms),
                     FmtPct(cache.stats().HitRate()),
                     FmtInt(static_cast<int64_t>(stale_hits)),
                     Fmt(static_cast<double>(total_latency) / kWorkload /
                             1000.0,
                         2)});
  }

  std::printf("\nE8(c): singleflight — N concurrent identical cold misses\n"
              "(LookupOrCompute around ExecuteText; executions counts real "
              "engine runs)\n\n");
  bench::PrintRow({"clients", "executions", "coalesced", "hits", "wall_ms"});
  bench::PrintRule(5);
  for (size_t clients : {1u, 4u, 16u, 64u}) {
    std::unique_ptr<World> world = MakeWorld();
    materialize::ResultCache cache(8u << 20, 0, &world->clock);
    const std::string& query = world->queries[0];
    std::vector<std::thread> threads;
    threads.reserve(clients);
    double start = NowMs();
    for (size_t t = 0; t < clients; ++t) {
      threads.emplace_back([&] {
        Result<ConstNodePtr> snapshot = cache.LookupOrCompute(
            query, [&]() -> Result<materialize::ResultCache::Computed> {
              NIMBLE_ASSIGN_OR_RETURN(core::QueryResult result,
                                      world->engine->ExecuteText(query));
              materialize::ResultCache::Computed computed;
              computed.document = std::move(result.document);
              return computed;
            });
        if (!snapshot.ok()) std::abort();
      });
    }
    for (std::thread& t : threads) t.join();
    double wall = NowMs() - start;
    materialize::CacheStats stats = cache.stats();
    const uint64_t executions = world->engine->queries_served();
    bench::PrintRow({FmtInt(static_cast<int64_t>(clients)),
                     FmtInt(static_cast<int64_t>(executions)),
                     FmtInt(static_cast<int64_t>(stats.coalesced)),
                     FmtInt(static_cast<int64_t>(stats.hits)),
                     Fmt(wall, 2)});
    if (executions != 1) {
      std::printf("FAIL: %zu clients ran %llu executions, expected 1\n",
                  clients, static_cast<unsigned long long>(executions));
      return 1;
    }
  }

  std::printf("\nE8(d): hit latency vs result size — shared snapshot vs "
              "deep clone\n(clone column emulates the pre-snapshot cache, "
              "which copied on every hit)\n\n");
  bench::PrintRow({"rows", "snapshot_us", "clone_us", "speedup"});
  bench::PrintRule(4);
  VirtualClock clock;
  for (size_t rows : {64u, 256u, 1024u, 4000u}) {
    materialize::ResultCacheOptions cache_options;
    cache_options.max_bytes = 64u << 20;
    cache_options.shards = 1;
    materialize::ResultCache cache(cache_options, &clock);
    cache.Insert("q", MakeRows(rows));
    const size_t iters = 400;
    // Shared-snapshot hit: what Lookup does now.
    double start = NowMs();
    for (size_t i = 0; i < iters; ++i) {
      ConstNodePtr hit = cache.Lookup("q");
      if (hit == nullptr) return 1;
    }
    double snapshot_us = (NowMs() - start) * 1000.0 / iters;
    // Deep-clone hit: what every lookup paid before frozen snapshots.
    start = NowMs();
    for (size_t i = 0; i < iters; ++i) {
      NodePtr copy = cache.Lookup("q")->Clone();
      if (copy == nullptr) return 1;
    }
    double clone_us = (NowMs() - start) * 1000.0 / iters;
    bench::PrintRow({FmtInt(static_cast<int64_t>(rows)), Fmt(snapshot_us, 3),
                     Fmt(clone_us, 1),
                     Fmt(clone_us / std::max(snapshot_us, 1e-9), 0) + "x"});
  }

  std::printf(
      "\nShape check: hit rate climbs with capacity and skew; longer TTLs\n"
      "buy hits at the price of stale answers under churn; concurrent\n"
      "identical misses execute once; snapshot hits stay flat while clone\n"
      "cost grows with result size.\n");
  return 0;
}
