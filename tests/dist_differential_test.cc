#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dist/cluster.h"
#include "dist/coordinator.h"
#include "dist/partition.h"
#include "query_generator.h"
#include "xml/serializer.h"

namespace nimble {
namespace dist {
namespace {

/// Distributed differential test: the same generated XML-QL program must
/// produce byte-identical output on a 1-shard and a 4-shard deployment.
/// The coordinator's contract is that sharding is invisible — scatter
/// decisions read only shard-count-independent state, a branch run on
/// gathered bindings puts them in the canonical order first, and every
/// other branch runs on identical local engines — so any divergence is a
/// distribution bug.
///
/// Reuses the grammar fuzzer's generator (fixture: db:t, feed:products,
/// view "named"), so a fuzzer repro (NIMBLE_FUZZ_SEED/NIMBLE_FUZZ_ITERS)
/// replays here verbatim.

struct Deployment {
  core::testgen::GeneratorFixture fixture;
  std::unique_ptr<ShardCluster> cluster;
  std::unique_ptr<Coordinator> coordinator;
};

std::unique_ptr<Deployment> MakeDeployment(size_t shards) {
  auto d = std::make_unique<Deployment>();
  d->fixture = core::testgen::MakeGeneratorFixture();
  if (d->fixture.catalog == nullptr) return nullptr;

  ShardClusterOptions cluster_options;
  cluster_options.num_shards = shards;
  d->cluster = std::make_unique<ShardCluster>(d->fixture.catalog.get(),
                                              cluster_options);
  // Hash-partition both base collections (range keying needs more distinct
  // keys than the 2-row products feed can cut bounds from).
  for (const auto& [source, collection, key] :
       std::initializer_list<std::tuple<const char*, const char*, const char*>>{
           {"db", "t", "a"}, {"feed", "products", "title"}}) {
    PartitionSpec spec;
    spec.source = source;
    spec.collection = collection;
    spec.partition_key = key;
    spec.kind = metadata::FragmentMap::Kind::kHash;
    if (!d->cluster->Partition(spec).ok()) return nullptr;
  }
  if (!d->cluster->Init().ok()) return nullptr;

  // The local engines must plan identically on both deployments. Their
  // data is identical, but KMV-merged statistics are not guaranteed
  // bit-equal between a 1-fragment and a 4-fragment merge, so keep the
  // cost optimizer (whose join-order choices read those statistics) out of
  // them. Shard engines keep their defaults: the canonical order over
  // gathered rows makes shard-internal plan choices invisible.
  core::EngineOptions local_options;
  local_options.enable_cost_optimizer = false;
  local_options.verify_plans = true;
  d->coordinator = std::make_unique<Coordinator>(d->cluster.get(),
                                                 DistOptions{}, local_options);
  return d;
}

TEST(DistDifferentialTest, GeneratedProgramsAgreeAcrossShardCounts) {
  std::unique_ptr<Deployment> one = MakeDeployment(1);
  std::unique_ptr<Deployment> four = MakeDeployment(4);
  ASSERT_NE(one, nullptr) << "1-shard deployment setup failed";
  ASSERT_NE(four, nullptr) << "4-shard deployment setup failed";

  Rng rng(core::testgen::FuzzSeed());
  const size_t iters = core::testgen::FuzzIters(/*fallback=*/400);
  size_t executed = 0;
  for (size_t i = 0; i < iters; ++i) {
    const std::string text = core::testgen::GenProgram(rng);

    Result<core::QueryResult> reference = one->coordinator->ExecuteText(text);
    Result<core::QueryResult> got = four->coordinator->ExecuteText(text);
    ASSERT_EQ(got.ok(), reference.ok())
        << "outcome diverges at iter " << i << " (seed "
        << core::testgen::FuzzSeed() << "):\n"
        << text << "\n1-shard: " << reference.status().ToString()
        << "\n4-shard: " << got.status().ToString();
    if (!reference.ok()) {
      EXPECT_EQ(got.status().code(), reference.status().code())
          << "error class diverges at iter " << i << ":\n"
          << text;
      continue;
    }
    ++executed;
    EXPECT_EQ(ToXml(*got->document), ToXml(*reference->document))
        << "result diverges at iter " << i << " (seed "
        << core::testgen::FuzzSeed() << "):\n"
        << text;
  }
  // The property is vacuous unless programs both ran and scattered.
  EXPECT_GT(executed, iters / 10)
      << "only " << executed << "/" << iters << " programs executed";
  EXPECT_GT(four->coordinator->counters().scatter_queries, 0u)
      << "no generated program took the scatter path";
  EXPECT_GT(four->coordinator->counters().fallback_queries, 0u)
      << "no generated program took the fallback path";
}

}  // namespace
}  // namespace dist
}  // namespace nimble
