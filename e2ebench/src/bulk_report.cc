// bulk_report: one client running large-result reports against a relational
// source plus a small XML dimension. Pushdown range scans return ~10^4
// records each; a relational x XML join sorts its answer. Every answer is
// serialized with ToXml, as a report consumer would. The result cache is
// off and the plan cache holds every query text, so the time goes to the
// source's SQL executor, the row-to-column transpose, the algebra drain,
// CONSTRUCT and serialization.

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "connector/relational_connector.h"
#include "connector/xml_connector.h"
#include "core/engine.h"
#include "harness.h"
#include "metadata/catalog.h"
#include "relational/database.h"
#include "workload_util.h"
#include "xml/serializer.h"

namespace nimble {
namespace e2ebench {

namespace {

constexpr int64_t kCustomers = 100000;
constexpr int64_t kOrders = 100000;
constexpr int64_t kScanWidth = 10000;  ///< orders per range scan.
constexpr int64_t kJoinWidth = 5000;   ///< customers per sorted join.
constexpr size_t kTextsPerKind = 16;   ///< 32 texts fit the 64-entry plan cache.
/// A round is 80% sorted joins (~17 ms on a 4-vCPU Xeon) and 20% range
/// scans (~33 ms): p50 sits inside the join mode and p90 at the middle of
/// the scan mode, never on the boundary between the two.
constexpr int kScansPerRound = 2;
constexpr int kJoinsPerRound = 8;

enum class Kind { kScan, kJoin };

struct Query {
  Kind kind;
  int64_t lo;
  std::string text;
};

std::string ScanText(int64_t lo) {
  return "WHERE <orders><row><oid>$o</oid><cust>$c</cust><amount>$a</amount>"
         "<status>$s</status></row></orders> IN \"crm:orders\", $a >= " +
         std::to_string(lo) + ", $a < " + std::to_string(lo + kScanWidth) +
         " CONSTRUCT <order id=$o><cust>$c</cust><amount>$a</amount>"
         "<status>$s</status></order>";
}

std::string JoinText(int64_t lo) {
  return "WHERE <customers><row><id>$i</id><name>$n</name><city>$c</city>"
         "<value>$v</value></row></customers> IN \"crm:customers\", $v >= " +
         std::to_string(lo) + ", $v < " + std::to_string(lo + kJoinWidth) +
         ", <regions><region><city>$c</city><name>$r</name></region></regions>"
         " IN \"dim:regions\""
         " CONSTRUCT <customer id=$i region=$r><name>$n</name><value>$v</value>"
         "</customer> ORDER BY $v";
}

/// A permutation of [0, n): unique values make every range's size exact.
std::vector<int64_t> Permutation(int64_t n, Rng& rng) {
  std::vector<int64_t> p(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) p[static_cast<size_t>(i)] = i;
  for (size_t i = p.size() - 1; i > 0; --i) std::swap(p[i], p[rng.Index(i + 1)]);
  return p;
}

class BulkReport : public Workload {
 public:
  explicit BulkReport(uint64_t seed) : seed_(seed) {
    Rng rng(seed);
    const auto& cities = CityRegions();
    std::vector<int64_t> values = Permutation(kCustomers, rng);
    for (int64_t i = 0; i < kCustomers; ++i) {
      customers_.push_back({Value::Int(i), Value::String("cust_" + rng.RandomWord(6)),
                            Value::String(cities[rng.Index(cities.size())].first),
                            Value::Int(values[static_cast<size_t>(i)])});
    }
    static const char* kStatus[] = {"open", "shipped", "closed"};
    std::vector<int64_t> amounts = Permutation(kOrders, rng);
    for (int64_t i = 0; i < kOrders; ++i) {
      orders_.push_back({Value::Int(i), Value::Int(rng.UniformInt(0, kCustomers - 1)),
                         Value::Int(amounts[static_cast<size_t>(i)]),
                         Value::String(kStatus[rng.Index(3)])});
    }
    for (size_t i = 0; i < kTextsPerKind; ++i) {
      int64_t lo = rng.UniformInt(0, kOrders - kScanWidth);
      queries_.push_back({Kind::kScan, lo, ScanText(lo)});
    }
    for (size_t i = 0; i < kTextsPerKind; ++i) {
      int64_t lo = rng.UniformInt(0, kCustomers - kJoinWidth);
      queries_.push_back({Kind::kJoin, lo, JoinText(lo)});
    }
  }

  void Teardown() override {
    engine_.reset();
    catalog_.reset();
    db_.reset();
  }

  Status Setup() override {
    db_ = std::make_unique<relational::Database>("crm");
    NIMBLE_RETURN_IF_ERROR(
        db_->Execute("CREATE TABLE customers (id INT, name TEXT, city TEXT, value INT)")
            .status());
    NIMBLE_RETURN_IF_ERROR(
        db_->Execute("CREATE TABLE orders (oid INT, cust INT, amount INT, status TEXT)")
            .status());
    relational::Table* customers = db_->GetTable("customers");
    for (const relational::Row& row : customers_) {
      NIMBLE_RETURN_IF_ERROR(customers->Insert(row));
    }
    NIMBLE_RETURN_IF_ERROR(customers->CreateIndex("idx_customers_value", "value"));
    relational::Table* orders = db_->GetTable("orders");
    for (const relational::Row& row : orders_) {
      NIMBLE_RETURN_IF_ERROR(orders->Insert(row));
    }
    NIMBLE_RETURN_IF_ERROR(orders->CreateIndex("idx_orders_amount", "amount"));

    catalog_ = std::make_unique<metadata::Catalog>();
    NIMBLE_RETURN_IF_ERROR(catalog_->RegisterSource(std::make_unique<TimingConnector>(
        std::make_unique<connector::RelationalConnector>("crm", db_.get()), -1)));
    auto dim = std::make_unique<connector::XmlConnector>("dim");
    NIMBLE_RETURN_IF_ERROR(dim->PutDocumentText("regions", RegionsXml()));
    NIMBLE_RETURN_IF_ERROR(catalog_->RegisterSource(
        std::make_unique<TimingConnector>(std::move(dim), -1)));

    engine_ = std::make_unique<core::IntegrationEngine>(catalog_.get());
    NIMBLE_RETURN_IF_ERROR(engine_->Analyze());
    // Warm-up: one request of each kind.
    NIMBLE_RETURN_IF_ERROR(engine_->ExecuteText(queries_.front().text).status());
    NIMBLE_RETURN_IF_ERROR(engine_->ExecuteText(queries_.back().text).status());
    return Status::OK();
  }

  /// Runs each query's SQL directly on the database, then sends every query
  /// once through the engine (which also fills the plan cache).
  Status PrepareChecks() override {
    const std::map<std::string, std::string> region(CityRegions().begin(),
                                                     CityRegions().end());
    expected_.clear();
    for (const Query& q : queries_) {
      const bool scan = q.kind == Kind::kScan;
      const std::string sql =
          scan ? "SELECT oid, cust, amount, status FROM orders WHERE amount >= " +
                     std::to_string(q.lo) + " AND amount < " +
                     std::to_string(q.lo + kScanWidth)
               : "SELECT id, name, city, value FROM customers WHERE value >= " +
                     std::to_string(q.lo) + " AND value < " +
                     std::to_string(q.lo + kJoinWidth) + " ORDER BY value";
      NIMBLE_ASSIGN_OR_RETURN(relational::ResultSet rs, db_->Execute(sql));
      Digest digest;
      for (const relational::Row& row : rs.rows) {
        if (scan) {
          digest.Add(RecordHash({row[0].ToString(), row[1].ToString(),
                                 row[2].ToString(), row[3].ToString()}),
                     false);
        } else {
          digest.Add(RecordHash({row[0].ToString(), region.at(row[2].AsString()),
                                 row[1].ToString(), row[3].ToString()}),
                     true);
        }
      }
      expected_.push_back(digest);
    }
    for (size_t i = 0; i < queries_.size(); ++i) {
      NIMBLE_ASSIGN_OR_RETURN(core::QueryResult result,
                              engine_->ExecuteText(queries_[i].text));
      NIMBLE_RETURN_IF_ERROR(Check(i, *result.document));
    }
    return Status::OK();
  }

  Status RunRound(int round, RoundLog* log) override {
    Rng rng(seed_ * 1000003ULL + static_cast<uint64_t>(round));
    std::vector<size_t> picks;
    for (int i = 0; i < kScansPerRound; ++i) picks.push_back(rng.Index(kTextsPerKind));
    for (int i = 0; i < kJoinsPerRound; ++i) {
      picks.push_back(kTextsPerKind + rng.Index(kTextsPerKind));
    }
    for (size_t i = picks.size() - 1; i > 0; --i) {
      std::swap(picks[i], picks[rng.Index(i + 1)]);
    }

    Tracer& tracer = Tracer::Get();
    for (size_t pick : picks) {
      RequestRecord r;
      r.id = tracer.NextId();
      r.kind = queries_[pick].kind == Kind::kScan ? "range_scan" : "sorted_join";
      tracer.set_current_request(r.id);
      r.start = NowNanos();
      Result<core::QueryResult> result = engine_->ExecuteText(queries_[pick].text);
      if (result.ok()) {
        ScopedSpan serialize(span::kSerialize, r.id);
        std::string xml = ToXml(*result->document);
        serialize.set_count(xml.size());
      }
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
      NIMBLE_RETURN_IF_ERROR(Check(pick, *result->document));
      r.results = result->report.result_count;
      r.operator_rows = OperatorRows(result->report.plan_with_stats);
      r.queue_wait_micros = result->report.queue_wait_micros;
      log->requests.push_back(r);
    }
    return Status::OK();
  }

  Counters Snapshot() override {
    Counters c;
    c.plan = engine_->plan_cache()->stats();
    return c;
  }

  std::vector<std::string> QueryTexts() override {
    std::vector<std::string> texts;
    for (const Query& q : queries_) texts.push_back(q.text);
    return texts;
  }

 private:
  Status Check(size_t index, const Node& document) const {
    const bool scan = queries_[index].kind == Kind::kScan;
    Digest digest;
    for (const NodePtr& record : document.children()) {
      if (scan) {
        digest.Add(RecordHash({record->GetAttribute("id").ToString(),
                               ChildText(*record, "cust"), ChildText(*record, "amount"),
                               ChildText(*record, "status")}),
                   false);
      } else {
        digest.Add(RecordHash({record->GetAttribute("id").ToString(),
                               record->GetAttribute("region").ToString(),
                               ChildText(*record, "name"), ChildText(*record, "value")}),
                   true);
      }
    }
    if (digest == expected_[index]) return Status::OK();
    return Status::Internal("bulk_report query " + std::to_string(index) + " returned " +
                            std::to_string(digest.count) + " records, expected " +
                            std::to_string(expected_[index].count) +
                            " (or the digests differ)");
  }

  const uint64_t seed_;
  std::vector<relational::Row> customers_;
  std::vector<relational::Row> orders_;
  std::vector<Query> queries_;
  std::vector<Digest> expected_;
  std::unique_ptr<relational::Database> db_;
  std::unique_ptr<metadata::Catalog> catalog_;
  std::unique_ptr<core::IntegrationEngine> engine_;
};

}  // namespace

std::unique_ptr<Workload> MakeBulkReport(uint64_t seed) {
  return std::make_unique<BulkReport>(seed);
}

}  // namespace e2ebench
}  // namespace nimble
