// portal_mix: four closed-loop clients invoking parameterized lenses through
// LensService::Invoke over a two-engine LoadBalancer. Each engine admits one
// query at a time, so with four clients the admission queue is used. Like
// every round, a portal round runs on one CPU, which the four clients
// share; spreading them over four vCPUs served no more requests per second
// and swung widely whenever the host descheduled one vCPU. A
// shared result cache whose byte budget is far below the Zipf-skewed key
// space sits in front of the engines, and every parameter value is a new
// query text, so the texts overflow the 64-entry plan caches. A small share
// of operations are writes: an UPDATE of one account's tier through the
// relational connector, then Catalog::NotifySourceUpdated, after which the
// writer's next read of that account must return the written tier. Writes
// go to the 200-row accounts table, not the 20k-row customers table: an
// UPDATE scans its whole table under the source's exclusive lock, and on
// customers that lock stalled every reader for ~15 ms per write.

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>

#include "common/clock.h"
#include "common/rng.h"
#include "connector/relational_connector.h"
#include "connector/xml_connector.h"
#include "core/engine.h"
#include "frontend/lens.h"
#include "harness.h"
#include "metadata/catalog.h"
#include "relational/database.h"
#include "workload_util.h"

namespace nimble {
namespace e2ebench {

namespace {

constexpr int kClients = 4;
constexpr int kEngines = 2;
constexpr int64_t kCustomers = 20000;
/// Account aid belongs to client aid % kClients, the only one that writes
/// it or reads it through account_page.
constexpr int64_t kAccounts = 200;
constexpr int64_t kProducts = 300;
/// Result-cache budget: ~200 small answers, against 20k customer keys.
constexpr size_t kCacheBytes = 128 << 10;
constexpr double kZipfSkew = 0.9;
constexpr int kReadsPerClientRound = 250;

enum class Lens { kCustomer, kRegion, kProduct, kAccount };

const char* kCustomerLens =
    "WHERE <customers><row><id>$i</id><name>$n</name><city>$c</city>"
    "<value>$v</value></row></customers> IN \"crm:customers\", $i = {id} "
    "CONSTRUCT <customer id=$i><name>$n</name><city>$c</city><value>$v</value>"
    "</customer>";
const char* kAccountsView =
    "WHERE <accounts><row><aid>$a</aid><city>$c</city><tier>$t</tier></row>"
    "</accounts> IN \"crm:accounts\", <regions><region><city>$c</city>"
    "<name>$r</name></region></regions> IN \"dim:regions\" "
    "CONSTRUCT <account id=$a region=$r><tier>$t</tier></account>";
const char* kAccountsLens =
    "WHERE <results><account id=$a region='{region}'><tier>$t</tier></account>"
    "</results> IN account_regions "
    "CONSTRUCT <acct id=$a><tier>$t</tier></acct>";
const char* kAccountLens =
    "WHERE <accounts><row><aid>$a</aid><tier>$t</tier></row></accounts> "
    "IN \"crm:accounts\", $a = {aid} CONSTRUCT <acct id=$a><tier>$t</tier></acct>";
const char* kProductLens =
    "WHERE <products><product sku='{sku}'><title>$t</title><price>$p</price>"
    "</product></products> IN \"dim:products\" "
    "CONSTRUCT <item><title>$t</title><price>$p</price></item>";

std::string Sku(int64_t i) { return "p" + std::to_string(1000 + i); }

/// Cumulative Zipf weights over n ranks, built once and sampled with the
/// caller's Rng so each (round, client) stream stays reproducible.
class ZipfCdf {
 public:
  ZipfCdf(int64_t n, double skew) {
    double total = 0;
    for (int64_t i = 1; i <= n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i), skew);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  int64_t Sample(Rng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.NextDouble());
    return std::min<int64_t>(it - cdf_.begin(), static_cast<int64_t>(cdf_.size()) - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// One step of a client's fixed sequence.
struct Op {
  Lens lens = Lens::kCustomer;
  std::string param;  ///< id, region, sku or aid.
  bool write = false;
  std::string tier;  ///< the tier a write sets.
};

class PortalMix : public Workload {
 public:
  explicit PortalMix(uint64_t seed)
      : seed_(seed),
        customer_rank_(kCustomers, kZipfSkew),
        product_rank_(kProducts, kZipfSkew) {
    Rng rng(seed);
    const auto& cities = CityRegions();
    for (int64_t i = 0; i < kCustomers; ++i) {
      const int64_t value = rng.UniformInt(0, 999999);
      customers_.push_back({Value::Int(i), Value::String("cust_" + rng.RandomWord(6)),
                            Value::String(cities[rng.Index(cities.size())].first),
                            Value::Int(value)});
      initial_value_.push_back(value);
    }
    for (int64_t i = 0; i < kAccounts; ++i) {
      const std::string& city = cities[rng.Index(cities.size())].first;
      initial_tier_.push_back(rng.Bernoulli(0.3) ? "gold" : "basic");
      accounts_.push_back(
          {Value::Int(i), Value::String(city), Value::String(initial_tier_.back())});
      for (const auto& [c, region] : cities) {
        if (c == city) ++accounts_per_region_[region];
      }
    }
    products_xml_ = "<products>";
    for (int64_t i = 0; i < kProducts; ++i) {
      std::string title = "item_" + rng.RandomWord(5);
      product_title_[Sku(i)] = title;
      products_xml_ += "<product sku=\"" + Sku(i) + "\"><title>" + title +
                       "</title><price>" + std::to_string(rng.UniformInt(1, 500)) +
                       "</price></product>";
    }
    products_xml_ += "</products>";
  }

  ~PortalMix() override { Teardown(); }

  void Teardown() override {
    if (catalog_ != nullptr && listener_ != 0) catalog_->RemoveUpdateListener(listener_);
    listener_ = 0;
    lenses_.reset();
    balancer_.reset();
    cache_.reset();
    catalog_.reset();
    db_.reset();
  }

  Status Setup() override {
    db_ = std::make_unique<relational::Database>("crm");
    NIMBLE_RETURN_IF_ERROR(
        db_->Execute("CREATE TABLE customers (id INT, name TEXT, city TEXT, value INT)")
            .status());
    NIMBLE_RETURN_IF_ERROR(
        db_->Execute("CREATE TABLE accounts (aid INT, city TEXT, tier TEXT)").status());
    relational::Table* customers = db_->GetTable("customers");
    NIMBLE_RETURN_IF_ERROR(customers->CreateIndex("idx_customers_id", "id"));
    for (const relational::Row& row : customers_) {
      NIMBLE_RETURN_IF_ERROR(customers->Insert(row));
    }
    relational::Table* accounts = db_->GetTable("accounts");
    for (const relational::Row& row : accounts_) {
      NIMBLE_RETURN_IF_ERROR(accounts->Insert(row));
    }

    catalog_ = std::make_unique<metadata::Catalog>();
    NIMBLE_RETURN_IF_ERROR(catalog_->RegisterSource(std::make_unique<TimingConnector>(
        std::make_unique<connector::RelationalConnector>("crm", db_.get()), -1)));
    auto dim = std::make_unique<connector::XmlConnector>("dim");
    NIMBLE_RETURN_IF_ERROR(dim->PutDocumentText("regions", RegionsXml()));
    NIMBLE_RETURN_IF_ERROR(dim->PutDocumentText("products", products_xml_));
    NIMBLE_RETURN_IF_ERROR(catalog_->RegisterSource(
        std::make_unique<TimingConnector>(std::move(dim), -1)));
    NIMBLE_RETURN_IF_ERROR(catalog_->DefineView("account_regions", kAccountsView));

    balancer_ = std::make_unique<frontend::LoadBalancer>();
    for (int i = 0; i < kEngines; ++i) {
      core::EngineOptions options;
      options.max_inflight_queries = 1;
      balancer_->AddEngine(
          std::make_unique<core::IntegrationEngine>(catalog_.get(), options));
    }
    NIMBLE_RETURN_IF_ERROR(balancer_->engine(0)->Analyze());

    materialize::ResultCacheOptions cache_options;
    cache_options.max_bytes = kCacheBytes;
    cache_ = std::make_unique<materialize::ResultCache>(cache_options, &clock_);
    materialize::ResultCache* cache = cache_.get();
    listener_ = catalog_->AddUpdateListener(
        [cache](const std::string& source) { cache->InvalidateTag(source); });
    lenses_ = std::make_unique<frontend::LensService>(balancer_.get(), cache_.get(),
                                                      nullptr);
    auto lens = [](const char* name, const char* query, frontend::TargetFormat format) {
      frontend::Lens l;
      l.name = name;
      l.query_template = query;
      l.format = format;
      return l;
    };
    NIMBLE_RETURN_IF_ERROR(lenses_->RegisterLens(
        lens("customer_page", kCustomerLens, frontend::TargetFormat::kHtml)));
    NIMBLE_RETURN_IF_ERROR(lenses_->RegisterLens(
        lens("region_accounts", kAccountsLens, frontend::TargetFormat::kText)));
    NIMBLE_RETURN_IF_ERROR(lenses_->RegisterLens(
        lens("product_card", kProductLens, frontend::TargetFormat::kText)));
    NIMBLE_RETURN_IF_ERROR(lenses_->RegisterLens(
        lens("account_page", kAccountLens, frontend::TargetFormat::kHtml)));

    // Warm-up: one invocation of each lens.
    NIMBLE_RETURN_IF_ERROR(lenses_->Invoke("customer_page", {{"id", "0"}}).status());
    NIMBLE_RETURN_IF_ERROR(
        lenses_->Invoke("region_accounts", {{"region", "north"}}).status());
    NIMBLE_RETURN_IF_ERROR(lenses_->Invoke("product_card", {{"sku", Sku(0)}}).status());
    NIMBLE_RETURN_IF_ERROR(lenses_->Invoke("account_page", {{"aid", "0"}}).status());
    cache_->Clear();
    written_.assign(accounts_.size(), "");
    return Status::OK();
  }

  Status PrepareChecks() override { return Status::OK(); }

  Status RunRound(int round, RoundLog* log) override {
    std::vector<RoundLog> logs(kClients);
    std::vector<Status> outcomes(kClients, Status::OK());
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([this, round, c, &logs, &outcomes] {
        outcomes[c] = RunClient(round, c, &logs[c]);
      });
    }
    for (std::thread& t : clients) t.join();
    for (int c = 0; c < kClients; ++c) {
      NIMBLE_RETURN_IF_ERROR(outcomes[c]);
      for (RequestRecord& r : logs[c].requests) log->requests.push_back(r);
      log->failures.status += logs[c].failures.status;
      log->failures.shed += logs[c].failures.shed;
      log->failures.incomplete += logs[c].failures.incomplete;
    }
    return Status::OK();
  }

  Counters Snapshot() override {
    Counters c;
    for (int i = 0; i < kEngines; ++i) {
      core::IntegrationEngine* engine = balancer_->engine(i);
      core::PlanCache::Stats s = engine->plan_cache()->stats();
      c.plan.hits += s.hits;
      c.plan.misses += s.misses;
      c.plan.stats_evictions += s.stats_evictions;
      c.shed += engine->scheduler()->stats().TotalShed();
    }
    c.result = cache_->stats();
    return c;
  }

  std::vector<std::string> QueryTexts() override {
    std::vector<std::string> texts;
    for (int64_t id = 0; id < 32; ++id) {
      texts.push_back(*frontend::LensService::ExpandTemplate(
          kCustomerLens, {{"id", std::to_string(id * 613 % kCustomers)}}));
    }
    for (const auto& [region, n] : accounts_per_region_) {
      texts.push_back(
          *frontend::LensService::ExpandTemplate(kAccountsLens, {{"region", region}}));
    }
    for (int64_t i = 0; i < 16; ++i) {
      texts.push_back(
          *frontend::LensService::ExpandTemplate(kProductLens, {{"sku", Sku(i)}}));
    }
    return texts;
  }

 private:
  /// Client `c`'s fixed sequence for `round`: Zipf-skewed reads, plus one
  /// write to an account only this client touches, read once before the
  /// write (so it is cached) and right after it (the freshness check).
  std::vector<Op> Sequence(int round, int c) const {
    const uint64_t stream =
        seed_ * 1000003ULL + static_cast<uint64_t>(round) * 16 + static_cast<uint64_t>(c);
    Rng rng(stream);
    std::vector<Op> ops;
    std::vector<std::string> regions;
    for (const auto& [region, n] : accounts_per_region_) regions.push_back(region);
    // Exact shares every round: 60% customer pages, 20% product cards, 20%
    // region lists, in seeded order.
    for (int i = 0; i < kReadsPerClientRound; ++i) {
      Op op;
      if (i < kReadsPerClientRound * 3 / 5) {
        // Spread ranks over ids so hot keys are not the lowest ids.
        op.param = std::to_string(customer_rank_.Sample(rng) * 7919 % kCustomers);
      } else if (i < kReadsPerClientRound * 4 / 5) {
        op.lens = Lens::kProduct;
        op.param = Sku(product_rank_.Sample(rng));
      } else {
        op.lens = Lens::kRegion;
        op.param = regions[rng.Index(regions.size())];
      }
      ops.push_back(op);
    }
    for (size_t i = ops.size() - 1; i > 0; --i) std::swap(ops[i], ops[rng.Index(i + 1)]);
    const int64_t aid =
        c + kClients * static_cast<int64_t>(rng.Index(kAccounts / kClients));
    Op read;
    read.lens = Lens::kAccount;
    read.param = std::to_string(aid);
    Op write = read;
    write.write = true;
    write.tier = "w" + std::to_string(round);
    const size_t at = 1 + rng.Index(ops.size() - 1);
    ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(at), {read, write, read});
    return ops;
  }

  Status RunClient(int round, int c, RoundLog* log) {
    Tracer& tracer = Tracer::Get();
    for (const Op& op : Sequence(round, c)) {
      RequestRecord r;
      r.id = tracer.NextId();
      if (op.write) {
        r.is_write = true;
        r.kind = "write";
        r.start = NowNanos();
        Result<relational::ResultSet> updated = catalog_->source("crm")->ExecuteSql(
            "UPDATE accounts SET tier = '" + op.tier + "' WHERE aid = " + op.param);
        if (updated.ok()) {
          ScopedSpan notify(span::kNotify, r.id);
          const uint64_t epoch = catalog_->statistics().epoch();
          catalog_->NotifySourceUpdated("crm");
          notify.set_count(catalog_->statistics().epoch() - epoch);
        }
        r.end = NowNanos();
        RecordRequestSpan(r);
        if (!updated.ok()) {
          log->Fail(updated.status());
          continue;
        }
        written_[static_cast<size_t>(std::stoll(op.param))] = op.tier;
        log->requests.push_back(r);
        continue;
      }
      static constexpr const char* kNames[] = {"customer_page", "region_accounts",
                                               "product_card", "account_page"};
      static constexpr const char* kParams[] = {"id", "region", "sku", "aid"};
      const char* lens = kNames[static_cast<int>(op.lens)];
      const char* param = kParams[static_cast<int>(op.lens)];
      r.kind = lens;
      r.start = NowNanos();
      Result<frontend::LensResult> answer = lenses_->Invoke(lens, {{param, op.param}});
      r.end = NowNanos();
      RecordRequestSpan(r);
      if (!answer.ok()) {
        log->Fail(answer.status());
        continue;
      }
      const Node& document = *answer->raw.document;
      if (tracer.enabled()) {
        // LensService formats inside Invoke; time the same call again here.
        ScopedSpan format(span::kFormat, 0);
        std::string body = frontend::FormatResult(
            document, lenses_->lens(lens)->format);
        format.set_count(body.size());
      }
      if (!IsComplete(document)) {
        ++log->failures.incomplete;
        continue;
      }
      NIMBLE_RETURN_IF_ERROR(Check(op, document));
      r.results = answer->raw.report.result_count;
      if (!answer->served_from_cache) {
        r.operator_rows = OperatorRows(answer->raw.report.plan_with_stats);
        r.queue_wait_micros = answer->raw.report.queue_wait_micros;
      }
      log->requests.push_back(r);
    }
    return Status::OK();
  }

  Status Check(const Op& op, const Node& document) const {
    const auto& records = document.children();
    if (op.lens == Lens::kCustomer) {
      const int64_t expected = initial_value_[static_cast<size_t>(std::stoll(op.param))];
      if (records.size() == 1 &&
          ChildText(*records[0], "value") == std::to_string(expected)) {
        return Status::OK();
      }
      return Status::Internal("customer " + op.param + " answer is wrong");
    }
    if (op.lens == Lens::kAccount) {
      const size_t aid = static_cast<size_t>(std::stoll(op.param));
      const std::string& expected =
          written_[aid].empty() ? initial_tier_[aid] : written_[aid];
      if (records.size() == 1 && ChildText(*records[0], "tier") == expected) {
        return Status::OK();
      }
      return Status::Internal("account " + op.param + " read " +
                              (records.empty() ? std::string("nothing")
                                               : ChildText(*records[0], "tier")) +
                              ", expected " + expected);
    }
    if (op.lens == Lens::kProduct) {
      if (records.size() == 1 &&
          ChildText(*records[0], "title") == product_title_.at(op.param)) {
        return Status::OK();
      }
      return Status::Internal("product " + op.param + " answer is wrong");
    }
    if (records.size() == accounts_per_region_.at(op.param)) return Status::OK();
    return Status::Internal("region " + op.param + " returned " +
                            std::to_string(records.size()) + " accounts");
  }

  const uint64_t seed_;
  const ZipfCdf customer_rank_;
  const ZipfCdf product_rank_;
  std::vector<relational::Row> customers_;
  std::vector<int64_t> initial_value_;
  std::vector<relational::Row> accounts_;
  std::vector<std::string> initial_tier_;
  std::map<std::string, size_t> accounts_per_region_;
  std::string products_xml_;
  std::map<std::string, std::string> product_title_;
  /// Last tier written per account ("" = never); a client only writes and
  /// reads its own accounts, so no two threads share an entry.
  std::vector<std::string> written_;

  RealClock clock_;
  std::unique_ptr<relational::Database> db_;
  std::unique_ptr<metadata::Catalog> catalog_;
  std::unique_ptr<materialize::ResultCache> cache_;
  std::unique_ptr<frontend::LoadBalancer> balancer_;
  std::unique_ptr<frontend::LensService> lenses_;
  uint64_t listener_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakePortalMix(uint64_t seed) {
  return std::make_unique<PortalMix>(seed);
}

}  // namespace e2ebench
}  // namespace nimble
