#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "algebra/operators.h"
#include "common/thread_pool.h"
#include "connector/relational_connector.h"
#include "connector/simulated_source.h"
#include "connector/xml_connector.h"
#include "core/engine.h"
#include "frontend/lens.h"
#include "frontend/load_balancer.h"
#include "materialize/result_cache.h"
#include "xml/serializer.h"

namespace nimble {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 1; i <= 100; ++i) {
    tasks.push_back([&sum, i] { sum.fetch_add(i); });
  }
  pool.RunParallel(std::move(tasks));
  EXPECT_EQ(sum.load(), 5050);
}

// Fork-join from inside a pool task must not deadlock even when the batch
// fan-out exceeds the worker count: the caller of RunParallel drains its own
// batch instead of blocking on a worker slot.
TEST(ThreadPoolTest, NestedRunParallelDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 8; ++i) {
    outer.push_back([&pool, &leaves] {
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 8; ++j) {
        inner.push_back([&leaves] { leaves.fetch_add(1); });
      }
      pool.RunParallel(std::move(inner));
    });
  }
  pool.RunParallel(std::move(outer));
  EXPECT_EQ(leaves.load(), 64);
}

TEST(ThreadPoolTest, SubmitRunsDetachedTask) {
  ThreadPool pool(1);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran.store(true); });
  for (int i = 0; i < 1000 && !ran.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ran.load());
}

// ---------------------------------------------------------------------------
// Engine fixture: a relational store plus two simulated flaky XML feeds.

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<relational::Database>("shop");
    Must(db_->Execute("CREATE TABLE products (sku TEXT PRIMARY KEY, "
                      "title TEXT, price DOUBLE)"));
    Must(db_->Execute("INSERT INTO products VALUES "
                      "('w-1', 'Widget', 25.0), ('g-1', 'Gizmo', 8.0), "
                      "('b-1', 'Bauble', 3.5), ('t-1', 'Trinket', 12.0)"));

    catalog_ = std::make_unique<metadata::Catalog>();
    Must(catalog_->RegisterSource(
        std::make_unique<connector::RelationalConnector>("shop", db_.get())));
    stock_ = AddXmlFeed(
        "wh",
        "<stock>"
        "<item sku=\"w-1\"><on_hand>14</on_hand></item>"
        "<item sku=\"g-1\"><on_hand>0</on_hand></item>"
        "<item sku=\"b-1\"><on_hand>250</on_hand></item>"
        "<item sku=\"t-1\"><on_hand>3</on_hand></item>"
        "</stock>",
        "stock");
    reviews_ = AddXmlFeed("rev",
                          "<reviews>"
                          "<review sku=\"w-1\"><stars>5</stars></review>"
                          "<review sku=\"b-1\"><stars>4</stars></review>"
                          "<review sku=\"t-1\"><stars>2</stars></review>"
                          "</reviews>",
                          "reviews");
  }

  /// Registers an XML connector wrapped in a SimulatedSource on clock_.
  connector::SimulatedSource* AddXmlFeed(const std::string& name,
                                         const std::string& xml,
                                         const std::string& collection) {
    auto inner = std::make_unique<connector::XmlConnector>(name);
    Must(inner->PutDocumentText(collection, xml));
    auto sim = std::make_unique<connector::SimulatedSource>(
        std::move(inner), connector::SimulationConfig{}, &clock_);
    connector::SimulatedSource* raw = sim.get();
    Must(catalog_->RegisterSource(std::move(sim)));
    return raw;
  }

  void Must(const Status& s) { ASSERT_TRUE(s.ok()) << s.ToString(); }
  template <typename T>
  void Must(const Result<T>& r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  core::EngineOptions BaseOptions() {
    core::EngineOptions opts;
    opts.clock = &clock_;
    return opts;
  }

  VirtualClock clock_;
  std::unique_ptr<relational::Database> db_;
  std::unique_ptr<metadata::Catalog> catalog_;
  connector::SimulatedSource* stock_ = nullptr;
  connector::SimulatedSource* reviews_ = nullptr;
};

/// Order-insensitive canonical rendering of a result document.
std::string Canonical(const Node& doc) {
  std::vector<std::string> parts;
  for (const NodePtr& child : doc.children()) parts.push_back(ToXml(*child));
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (const std::string& part : parts) out += part + "\n";
  return out;
}

constexpr char kJoinQuery[] = R"(
  WHERE <products><row><sku>$s</sku><title>$t</title><price>$p</price>
        </row></products> IN "shop:products",
        <stock><item sku=$s><on_hand>$h</on_hand></item></stock>
          IN "wh:stock",
        $h > 0
  CONSTRUCT <avail><title>$t</title><on_hand>$h</on_hand></avail>
)";

constexpr char kUnionQuery[] = R"(
  WHERE <stock><item sku=$s><on_hand>$h</on_hand></item></stock>
          IN "wh:stock", $h > 10
  CONSTRUCT <hit><sku>$s</sku></hit>
  UNION
  WHERE <reviews><review sku=$s><stars>$r</stars></review></reviews>
          IN "rev:reviews", $r > 3
  CONSTRUCT <hit><sku>$s</sku></hit>
)";

// N client threads hammer one engine (parallel fragment fetches on the
// shared pool) and every answer must match the serial baseline.
TEST_F(ConcurrencyTest, StressManyClientsOneEngine) {
  core::EngineOptions serial = BaseOptions();
  serial.parallel_fetch = false;
  core::IntegrationEngine baseline(catalog_.get(), serial);
  Result<core::QueryResult> join_expected = baseline.ExecuteText(kJoinQuery);
  Result<core::QueryResult> union_expected = baseline.ExecuteText(kUnionQuery);
  Must(join_expected);
  Must(union_expected);
  const std::string join_canon = Canonical(*join_expected->document);
  const std::string union_canon = Canonical(*union_expected->document);

  core::IntegrationEngine engine(catalog_.get(), BaseOptions());
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 25;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        bool join = (t + q) % 2 == 0;
        Result<core::QueryResult> r =
            engine.ExecuteText(join ? kJoinQuery : kUnionQuery);
        if (!r.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const std::string& want = join ? join_canon : union_canon;
        if (Canonical(*r->document) != want) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(engine.queries_served(),
            static_cast<uint64_t>(kThreads * kQueriesPerThread));
}

// Fetches hand out the stored frozen document, not a copy. Readers
// fetch+match it in a loop while a writer keeps replacing it with a 3- or
// 4-record version: every answer must come from one whole version, and a
// replacement must never disturb a snapshot a reader is still matching.
TEST_F(ConcurrencyTest, FetchSnapshotsSurviveConcurrentPutDocument) {
  auto feed = std::make_unique<connector::XmlConnector>("feed");
  connector::XmlConnector* feed_raw = feed.get();
  const std::string three =
      "<items><item><n>1</n></item><item><n>2</n></item>"
      "<item><n>3</n></item></items>";
  const std::string four =
      "<items><item><n>1</n></item><item><n>2</n></item>"
      "<item><n>3</n></item><item><n>4</n></item></items>";
  Must(feed->PutDocumentText("items", three));
  Must(catalog_->RegisterSource(std::move(feed)));
  core::IntegrationEngine engine(catalog_.get(), BaseOptions());
  constexpr char kQuery[] = R"(
    WHERE <items><item><n>$n</n></item></items> IN "feed:items"
    CONSTRUCT <hit>$n</hit>
  )";

  constexpr int kReaders = 4;
  constexpr int kMinAnswers = 400;
  constexpr int kMinWrites = 400;
  std::atomic<bool> stop{false};
  std::atomic<int> answers{0};
  std::atomic<int> failures{0};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        Result<core::QueryResult> r = engine.ExecuteText(kQuery);
        if (!r.ok()) {
          failures.fetch_add(1);
        } else {
          size_t records = r->document->children().size();
          if (records != 3 && records != 4) torn.fetch_add(1);
        }
        answers.fetch_add(1);
      }
    });
  }
  // Bounded, so a wedged reader fails the test instead of hanging it.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (int i = 0; (i < kMinWrites || answers.load() < kMinAnswers) &&
                  std::chrono::steady_clock::now() < give_up;
       ++i) {
    Must(feed_raw->PutDocumentText("items", i % 2 == 0 ? four : three));
  }
  stop.store(true);
  for (std::thread& r : readers) r.join();
  EXPECT_GE(answers.load(), kMinAnswers);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(torn.load(), 0);
}

// The load balancer serves a batch concurrently from the worker pool and
// spreads it across instances.
TEST_F(ConcurrencyTest, LoadBalancerServesBatchFromPool) {
  frontend::LoadBalancer balancer(frontend::BalancePolicy::kRoundRobin);
  for (int i = 0; i < 3; ++i) {
    balancer.AddEngine(std::make_unique<core::IntegrationEngine>(
        catalog_.get(), BaseOptions()));
  }
  std::vector<std::string> batch(30, kJoinQuery);
  std::vector<Result<core::QueryResult>> results = balancer.ExecuteBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->report.result_count, 3u);
  }
  std::vector<uint64_t> served = balancer.QueriesPerEngine();
  ASSERT_EQ(served.size(), 3u);
  EXPECT_EQ(served[0] + served[1] + served[2], 30u);
  EXPECT_EQ(served[0], 10u);  // round-robin is exact
}

// Scripted outage + exponential backoff on virtual time: with jitter off
// the backoff schedule (1000, 2000) is exact, so the clock and the retry
// counter can be asserted precisely.
TEST_F(ConcurrencyTest, RetryBackoffMasksScriptedOutage) {
  connector::SimulationConfig cfg;
  cfg.fixed_latency_micros = 100;
  stock_->set_config(cfg);
  stock_->FailNextRequests(2);

  core::EngineOptions opts = BaseOptions();
  opts.fetch_retries = 3;
  opts.retry_jitter = false;
  opts.retry_backoff_micros = 1000;
  opts.retry_backoff_multiplier = 2.0;
  core::IntegrationEngine engine(catalog_.get(), opts);

  constexpr char kStockQuery[] = R"(
    WHERE <stock><item sku=$s><on_hand>$h</on_hand></item></stock>
            IN "wh:stock"
    CONSTRUCT <row><sku>$s</sku></row>
  )";
  Result<core::QueryResult> r = engine.ExecuteText(kStockQuery);
  Must(r);
  EXPECT_EQ(r->report.result_count, 4u);
  EXPECT_EQ(r->report.retries, 2u);
  // Two failed admits (free), two backoffs, one successful fetch.
  EXPECT_EQ(clock_.NowMicros(), 1000 + 2000 + 100);
  EXPECT_EQ(r->report.source_latency_micros, 100);
}

// A retry whose backoff cannot finish before the deadline is not taken:
// the transient error surfaces instead of blowing the budget.
TEST_F(ConcurrencyTest, RetryStopsAtDeadline) {
  stock_->FailNextRequests(10);
  core::EngineOptions opts = BaseOptions();
  opts.fetch_retries = 10;
  opts.retry_jitter = false;
  opts.retry_backoff_micros = 4000;
  opts.query_deadline_micros = 10000;
  core::IntegrationEngine engine(catalog_.get(), opts);

  Result<core::QueryResult> r = engine.ExecuteText(kUnionQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  // Backoffs taken: 4000, then 8000 would land past the 10000 deadline.
  EXPECT_EQ(clock_.NowMicros(), 4000);
}

// Once virtual time passes the deadline mid-query, the next fragment stops
// with Timeout instead of fetching.
TEST_F(ConcurrencyTest, DeadlineExceededMidQuery) {
  connector::SimulationConfig slow;
  slow.fixed_latency_micros = 5000;
  stock_->set_config(slow);
  reviews_->set_config(slow);

  core::EngineOptions opts = BaseOptions();
  opts.parallel_fetch = false;  // fragments run one after another
  opts.query_deadline_micros = 4000;
  core::IntegrationEngine engine(catalog_.get(), opts);

  Result<core::QueryResult> r = engine.ExecuteText(kUnionQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
}

// Cooperative cancellation through QueryOptions.
TEST_F(ConcurrencyTest, CancelledQueryReturnsCancelled) {
  core::IntegrationEngine engine(catalog_.get(), BaseOptions());
  std::atomic<bool> cancel{true};
  core::QueryOptions qopts;
  qopts.cancel = &cancel;
  Result<core::QueryResult> r = engine.ExecuteText(kJoinQuery, qopts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

/// A one-column batch holding the ints 0 .. rows-1.
algebra::TupleBatch IntColumn(int rows) {
  algebra::TupleBatch batch(1);
  for (int i = 0; i < rows; ++i) {
    batch.MutableColumn(0).emplace_back(Value::Int(i));
  }
  batch.SetNumRows(static_cast<size_t>(rows));
  return batch;
}

// An operator tree stops draining mid-stream when its cancel probe trips:
// the NL006 contract at runtime. The probe counts its invocations, proving
// the operators poll while producing batches, not just at Open().
TEST(OperatorCancellationTest, ProbeStopsDrainMidStream) {
  algebra::MaterializedScan scan(algebra::TupleSchema({"x"}), IntColumn(1000));
  scan.SetBatchSize(16);  // many DoNextBatch calls across the drain
  std::atomic<int> polls{0};
  scan.SetCancelProbe([&polls]() -> Status {
    return ++polls >= 5 ? Status::Cancelled("probe tripped") : Status::OK();
  });
  Result<algebra::TupleBatch> out = scan.Drain();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCancelled);
  EXPECT_GE(polls.load(), 5);  // cancelled mid-stream, not up front
}

// SetCancelProbe installs recursively: a probe handed to the root reaches
// every child, so a cancelled query stops wherever it happens to be.
TEST(OperatorCancellationTest, ProbePropagatesThroughTheTree) {
  auto scan = std::make_unique<algebra::MaterializedScan>(
      algebra::TupleSchema({"x"}), IntColumn(100));
  algebra::MaterializedScan* scan_view = scan.get();
  algebra::Limit limit(std::move(scan), 50);
  limit.SetCancelProbe(
      [] { return Status::Cancelled("cancelled before any batch"); });
  EXPECT_TRUE(static_cast<algebra::Operator*>(scan_view) != nullptr);
  Result<algebra::TupleBatch> out = limit.Drain();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCancelled);
}

// Connector decorator that raises a cancel flag during the fetch itself:
// by the time the operator tree drains, the engine's up-front cancel check
// has long passed, so only the operator-level polls can notice the flag.
class CancelDuringFetch : public connector::Connector {
 public:
  CancelDuringFetch(std::unique_ptr<connector::Connector> inner,
                    std::atomic<bool>* flag)
      : inner_(std::move(inner)), flag_(flag) {}

  const std::string& name() const override { return inner_->name(); }
  connector::SourceCapabilities capabilities() const override {
    return inner_->capabilities();
  }
  std::vector<std::string> Collections() override {
    return inner_->Collections();
  }
  using connector::Connector::FetchCollection;
  Result<NodePtr> FetchCollection(
      const std::string& collection,
      const connector::RequestContext& ctx) override {
    flag_->store(true);  // cancellation arrives while the query is in flight
    return inner_->FetchCollection(collection, ctx);
  }
  uint64_t DataVersion() override { return inner_->DataVersion(); }

 private:
  std::unique_ptr<connector::Connector> inner_;
  std::atomic<bool>* flag_;
};

// The cancel flag flips mid-query, deterministically, during the fetch;
// the operators must stop the subsequent drain.
TEST_F(ConcurrencyTest, CancelFlagFlippedMidQueryStopsTheDrain) {
  auto catalog = std::make_unique<metadata::Catalog>();
  auto inner = std::make_unique<connector::XmlConnector>("wh");
  Must(inner->PutDocumentText("stock", R"(
    <stock>
      <item sku="a"><on_hand>12</on_hand></item>
      <item sku="b"><on_hand>5</on_hand></item>
    </stock>)"));
  std::atomic<bool> cancel{false};
  Must(catalog->RegisterSource(
      std::make_unique<CancelDuringFetch>(std::move(inner), &cancel)));

  core::EngineOptions opts;
  opts.clock = &clock_;
  core::IntegrationEngine engine(catalog.get(), opts);
  core::QueryOptions qopts;
  qopts.cancel = &cancel;
  Result<core::QueryResult> r = engine.ExecuteText(R"(
    WHERE <stock><item sku=$s><on_hand>$h</on_hand></item></stock>
            IN "wh:stock", $h > 0
    CONSTRUCT <hit><sku>$s</sku></hit>
  )",
                                                   qopts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

// The UNION plan bugfix: every branch's plan survives in the report, under
// per-branch headers, instead of the last branch overwriting the rest.
TEST_F(ConcurrencyTest, UnionReportKeepsEveryBranchPlan) {
  core::IntegrationEngine engine(catalog_.get(), BaseOptions());
  Result<core::QueryResult> r = engine.ExecuteText(kUnionQuery);
  Must(r);
  EXPECT_NE(r->report.plan.find("-- branch 0 --"), std::string::npos);
  EXPECT_NE(r->report.plan.find("-- branch 1 --"), std::string::npos);
  EXPECT_NE(r->report.plan.find("wh:stock"), std::string::npos);
  EXPECT_NE(r->report.plan.find("rev:reviews"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sharded result cache under contention (run under TSan in CI).

// Many threads mixing Lookup / Insert / Invalidate / InvalidateTag / stats
// on one cache: no data races, budget respected, hits always frozen.
TEST(ResultCacheConcurrencyTest, StressMixedOperations) {
  VirtualClock clock;
  materialize::ResultCacheOptions options;
  options.max_bytes = 1 << 20;
  options.shards = 8;
  materialize::ResultCache cache(options, &clock);

  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  constexpr int kKeys = 16;
  std::atomic<int> thawed_hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::string key = "k" + std::to_string((t * 7 + i) % kKeys);
        switch ((t + i) % 5) {
          case 0:
          case 1: {
            ConstNodePtr hit = cache.Lookup(key);
            if (hit != nullptr && !hit->frozen()) thawed_hits.fetch_add(1);
            break;
          }
          case 2: {
            NodePtr doc = Node::Element("doc");
            doc->AddScalarChild("v", Value::Int(i));
            cache.Insert(key, doc, {"tag" + std::to_string(i % 3)});
            break;
          }
          case 3:
            cache.Invalidate(key);
            break;
          default:
            if (i % 50 == 0) {
              cache.InvalidateTag("tag" + std::to_string(i % 3));
            } else {
              (void)cache.stats();
            }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(thawed_hits.load(), 0);
  EXPECT_LE(cache.bytes(), cache.max_bytes());
  materialize::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, cache.size());
}

// Singleflight, deterministic: the leader's compute blocks until every
// thread has at least entered LookupOrCompute, so the fetch runs once no
// matter how the scheduler interleaves them.
TEST(ResultCacheConcurrencyTest, LookupOrComputeRunsComputeOnce) {
  VirtualClock clock;
  materialize::ResultCache cache(1 << 20, 0, &clock);
  constexpr int kThreads = 8;
  std::atomic<int> arrived{0};
  std::atomic<int> computes{0};
  std::atomic<const Node*> shared_snapshot{nullptr};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      arrived.fetch_add(1);
      Result<ConstNodePtr> r = cache.LookupOrCompute(
          "hot", [&]() -> Result<materialize::ResultCache::Computed> {
            while (arrived.load() < kThreads) std::this_thread::yield();
            computes.fetch_add(1);
            materialize::ResultCache::Computed computed;
            computed.document = Node::Element("doc");
            return computed;
          });
      if (!r.ok()) {
        mismatches.fetch_add(1);
        return;
      }
      const Node* expected = nullptr;
      if (!shared_snapshot.compare_exchange_strong(expected, r->get()) &&
          expected != r->get()) {
        mismatches.fetch_add(1);  // everyone must see the same snapshot
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(mismatches.load(), 0);
  materialize::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.coalesced, static_cast<uint64_t>(kThreads - 1));
}

// Frontend singleflight: concurrent identical lens invocations collapse to
// one engine execution across the whole balancer pool.
TEST_F(ConcurrencyTest, ConcurrentLensInvokesShareOneExecution) {
  frontend::LoadBalancer balancer(frontend::BalancePolicy::kRoundRobin);
  for (int i = 0; i < 3; ++i) {
    balancer.AddEngine(std::make_unique<core::IntegrationEngine>(
        catalog_.get(), BaseOptions()));
  }
  materialize::ResultCache cache(1 << 20, 0, &clock_);
  frontend::LensService lenses(&balancer, &cache, nullptr);
  frontend::Lens lens;
  lens.name = "avail";
  lens.query_template = kJoinQuery;
  Must(lenses.RegisterLens(lens));

  constexpr int kThreads = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      Result<frontend::LensResult> r = lenses.Invoke("avail");
      if (!r.ok() || r->raw.document == nullptr) failures.fetch_add(1);
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  std::vector<uint64_t> served = balancer.QueriesPerEngine();
  uint64_t total = 0;
  for (uint64_t count : served) total += count;
  EXPECT_EQ(total, 1u);
  materialize::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.coalesced, static_cast<uint64_t>(kThreads - 1));
}

// A source that goes down mid-query, after a second lens invocation has
// coalesced onto the first one's in-flight execution.
class DownOnceCoalesced : public connector::Connector {
 public:
  explicit DownOnceCoalesced(const materialize::ResultCache* cache)
      : cache_(cache) {}

  const std::string& name() const override { return name_; }
  connector::SourceCapabilities capabilities() const override { return {}; }
  std::vector<std::string> Collections() override { return {"feed"}; }
  using connector::Connector::FetchCollection;
  Result<NodePtr> FetchCollection(const std::string&,
                                  const connector::RequestContext&) override {
    // Bounded, so a broken singleflight fails the test instead of hanging.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (cache_->stats().coalesced < 1 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Unavailable("feed went down mid-query");
  }
  uint64_t DataVersion() override { return 0; }

 private:
  const std::string name_ = "down";
  const materialize::ResultCache* cache_;
};

// A singleflight waiter shares the leader's partial answer (never stored in
// the cache) and must report it incomplete, as the leader does.
TEST_F(ConcurrencyTest, CoalescedLensWaiterReportsPartialAnswer) {
  materialize::ResultCache cache(1 << 20, 0, &clock_);
  metadata::Catalog catalog;
  Must(catalog.RegisterSource(std::make_unique<DownOnceCoalesced>(&cache)));
  core::EngineOptions opts = BaseOptions();
  opts.availability = core::AvailabilityPolicy::kPartial;
  frontend::LoadBalancer balancer(frontend::BalancePolicy::kRoundRobin);
  for (int i = 0; i < 2; ++i) {
    balancer.AddEngine(
        std::make_unique<core::IntegrationEngine>(&catalog, opts));
  }
  frontend::LensService lenses(&balancer, &cache, nullptr);
  frontend::Lens lens;
  lens.name = "feed";
  lens.query_template =
      "WHERE <feed><e>$v</e></feed> IN \"down:feed\" CONSTRUCT <v>$v</v>";
  Must(lenses.RegisterLens(lens));

  std::vector<Result<frontend::LensResult>> results(
      2, Result<frontend::LensResult>(Status::Internal("not run")));
  std::vector<std::thread> clients;
  for (size_t t = 0; t < results.size(); ++t) {
    clients.emplace_back([&, t] { results[t] = lenses.Invoke("feed"); });
  }
  for (std::thread& c : clients) c.join();

  EXPECT_EQ(cache.stats().coalesced, 1u);
  EXPECT_EQ(cache.size(), 0u);  // partial answers are never stored
  size_t waiters = 0;
  for (const Result<frontend::LensResult>& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->raw.report.completeness.complete);
    EXPECT_EQ(r->raw.report.completeness.unavailable_sources,
              (std::vector<std::string>{"down"}));
    EXPECT_EQ(r->raw.document->GetAttribute("complete"), Value::Bool(false));
    if (r->served_from_cache) ++waiters;
  }
  EXPECT_EQ(waiters, 1u);
}

}  // namespace
}  // namespace nimble
