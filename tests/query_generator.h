#ifndef NIMBLE_TESTS_QUERY_GENERATOR_H_
#define NIMBLE_TESTS_QUERY_GENERATOR_H_

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "connector/relational_connector.h"
#include "connector/xml_connector.h"
#include "metadata/catalog.h"
#include "relational/database.h"

/// Deterministic XML-QL program generator shared by the grammar fuzzer
/// (tests/grammar_fuzz_test.cc) and the batch/row differential test
/// (tests/batch_differential_test.cc). The grammar targets the fixture
/// built by MakeGeneratorFixture(): relational table db:t(a,b,c), XML feed
/// feed:products, and the mediated view "named" over db:t.
///
/// Everything is seeded through common/rng — no wall-clock input — so any
/// failure reproduces from (seed, iteration).

namespace nimble {
namespace core {
namespace testgen {

/// The sources the generated queries refer to. The database must outlive
/// the catalog (connectors hold raw pointers into it).
struct GeneratorFixture {
  std::unique_ptr<relational::Database> db;
  std::unique_ptr<metadata::Catalog> catalog;
};

/// Builds the catalog the grammar below generates queries against. Returns
/// a fixture with a null catalog if any setup step fails (callers assert).
inline GeneratorFixture MakeGeneratorFixture() {
  GeneratorFixture fx;
  fx.db = std::make_unique<relational::Database>("db");
  if (!fx.db->Execute("CREATE TABLE t (a INT PRIMARY KEY, b TEXT, c DOUBLE)")
           .ok() ||
      !fx.db->Execute("INSERT INTO t VALUES (1, 'alpha', 1.5), "
                      "(2, 'beta', 2.5), (3, 'gamma', 3.5), "
                      "(4, 'alpha', 0.25)")
           .ok()) {
    return fx;
  }

  auto feed = std::make_unique<connector::XmlConnector>("feed");
  if (!feed->PutDocumentText(
              "products",
              "<products>"
              "<product><title>alpha</title><price>9.5</price></product>"
              "<product><title>delta</title><price>2.0</price></product>"
              "</products>")
           .ok()) {
    return fx;
  }

  auto catalog = std::make_unique<metadata::Catalog>();
  if (!catalog
           ->RegisterSource(std::make_unique<connector::RelationalConnector>(
               "db", fx.db.get()))
           .ok() ||
      !catalog->RegisterSource(std::move(feed)).ok() ||
      !catalog
           ->DefineView("named",
                        "WHERE <t><row><a>$a</a><b>$b</b></row></t> IN "
                        "\"db:t\" CONSTRUCT <item><b>$b</b></item>")
           .ok()) {
    return fx;
  }
  fx.catalog = std::move(catalog);
  return fx;
}

/// Iteration/seed knobs, shared so a fuzzer repro can be replayed through
/// the differential harness verbatim: NIMBLE_FUZZ_ITERS, NIMBLE_FUZZ_SEED.
inline size_t FuzzIters(size_t fallback) {
  const char* env = std::getenv("NIMBLE_FUZZ_ITERS");
  if (env != nullptr && *env != '\0') {
    return static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
  return fallback;
}

inline uint64_t FuzzSeed() {
  const char* env = std::getenv("NIMBLE_FUZZ_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 0xD1CEu;
}

/// A variable the generator has bound, with its scalar type.
struct BoundVar {
  std::string name;
  char type;  // 'i' int, 's' string, 'd' double
};

/// Signed literals: a negative number is the literal a pushed SQL text can
/// mistranslate (as minus applied to a literal), and int64's minimum the
/// one whose magnitude does not fit int64.
inline std::string Literal(Rng& rng, char type) {
  switch (type) {
    case 'i':
      if (rng.Bernoulli(0.05)) return "-9223372036854775808";
      return std::to_string(rng.UniformInt(-5, 5));
    case 'd':
      return (rng.Bernoulli(0.5) ? "-" : "") +
             std::to_string(rng.UniformInt(0, 9)) + "." +
             std::to_string(rng.UniformInt(0, 9));
    default: {
      static const char* kWords[] = {"alpha", "beta", "gamma", "delta", "zz"};
      return "'" + std::string(kWords[rng.Index(5)]) + "'";
    }
  }
}

/// One WHERE pattern over a random source; appends the variables it binds.
inline std::string GenPattern(Rng& rng, int* next_var,
                              std::vector<BoundVar>* vars) {
  switch (rng.Index(3)) {
    case 0: {  // relational, SQL pushdown path
      struct Col {
        const char* name;
        char type;
      };
      static constexpr Col kCols[] = {{"a", 'i'}, {"b", 's'}, {"c", 'd'}};
      std::string body;
      size_t mask = 1 + rng.Index(7);  // non-empty subset of 3 columns
      for (size_t i = 0; i < 3; ++i) {
        if ((mask & (1u << i)) == 0) continue;
        BoundVar v{"$v" + std::to_string((*next_var)++), kCols[i].type};
        body += std::string("<") + kCols[i].name + ">" + v.name + "</" +
                kCols[i].name + ">";
        vars->push_back(v);
      }
      return "<t><row>" + body + "</row></t> IN \"db:t\"";
    }
    case 1: {  // XML feed, fetch+match path
      std::string body;
      size_t mask = 1 + rng.Index(3);  // subset of {title, price}
      if (mask & 1u) {
        BoundVar v{"$v" + std::to_string((*next_var)++), 's'};
        body += "<title>" + v.name + "</title>";
        vars->push_back(v);
      }
      if (mask & 2u) {
        BoundVar v{"$v" + std::to_string((*next_var)++), 'd'};
        body += "<price>" + v.name + "</price>";
        vars->push_back(v);
      }
      return "<products><product>" + body +
             "</product></products> IN \"feed:products\"";
    }
    default: {  // mediated view expansion
      BoundVar v{"$v" + std::to_string((*next_var)++), 's'};
      vars->push_back(v);
      return "<results><item><b>" + v.name +
             "</b></item></results> IN \"named\"";
    }
  }
}

/// A grammar-valid query: patterns, optional conditions (typed literals, or
/// an occasional deliberate type clash), CONSTRUCT, aggregation, ORDER BY,
/// LIMIT.
inline std::string GenQuery(Rng& rng) {
  int next_var = 0;
  std::vector<BoundVar> vars;
  std::string where = GenPattern(rng, &next_var, &vars);
  if (rng.Bernoulli(0.4)) {
    std::vector<BoundVar> more;
    std::string second = GenPattern(rng, &next_var, &more);
    // Half the time, join: rename one compatible variable pair.
    if (rng.Bernoulli(0.5)) {
      for (BoundVar& m : more) {
        for (const BoundVar& v : vars) {
          if (v.type == m.type) {
            size_t at = second.find(m.name);
            while (at != std::string::npos) {
              second.replace(at, m.name.size(), v.name);
              at = second.find(m.name, at + v.name.size());
            }
            m.name = v.name;
            goto joined;
          }
        }
      }
    joined:;
    }
    for (const BoundVar& m : more) vars.push_back(m);
    where += ",\n      " + second;
  }

  size_t n_conditions = rng.Index(3);
  for (size_t i = 0; i < n_conditions; ++i) {
    const BoundVar& v = vars[rng.Index(vars.size())];
    static const char* kOps[] = {"=", "!=", "<", "<=", ">", ">="};
    if (v.type == 's' && rng.Bernoulli(0.3)) {
      where += ", " + v.name + " LIKE 'a%'";
    } else {
      // 10%: deliberately mistyped literal — must fail cleanly, not crash.
      char lit_type = rng.Bernoulli(0.1) ? "isd"[rng.Index(3)] : v.type;
      where += ", " + v.name + " " + kOps[rng.Index(6)] + " " +
               Literal(rng, lit_type);
    }
  }

  bool aggregate = rng.Bernoulli(0.15) && vars.size() >= 2;
  std::string tail;
  std::string construct;
  if (aggregate) {
    const BoundVar& group = vars[0];
    const BoundVar& input = vars[1];
    const char* fn = input.type == 's' ? "count" : "sum";
    construct = "<out><k>" + group.name + "</k><agg>" + std::string(fn) +
                "(" + input.name + ")</agg></out>";
    tail = " GROUP BY " + group.name;
  } else {
    construct = "<out>";
    size_t keep = 1 + rng.Index(vars.size());
    for (size_t i = 0; i < keep; ++i) {
      construct += "<f" + std::to_string(i) + ">" + vars[i].name + "</f" +
                   std::to_string(i) + ">";
    }
    construct += "</out>";
    if (rng.Bernoulli(0.3)) {
      tail += " ORDER BY " + vars[rng.Index(vars.size())].name;
      if (rng.Bernoulli(0.5)) tail += " DESC";
    }
    if (rng.Bernoulli(0.3)) {
      tail += " LIMIT " + std::to_string(rng.UniformInt(1, 5));
    }
  }
  return "WHERE " + where + "\nCONSTRUCT " + construct + tail;
}

inline std::string GenProgram(Rng& rng) {
  std::string text = GenQuery(rng);
  if (rng.Bernoulli(0.15)) text += "\nUNION\n" + GenQuery(rng);
  return text;
}

/// Random text-level mutation: the result is usually ungrammatical — the
/// parser and verifier must reject it cleanly.
inline std::string Mutate(Rng& rng, std::string text) {
  static const char kNoise[] = "<>$\"'=,()WHERE ";
  size_t rounds = 1 + rng.Index(3);
  for (size_t i = 0; i < rounds && !text.empty(); ++i) {
    switch (rng.Index(5)) {
      case 0:  // delete a character
        text.erase(rng.Index(text.size()), 1);
        break;
      case 1:  // insert noise
        text.insert(rng.Index(text.size() + 1), 1,
                    kNoise[rng.Index(sizeof(kNoise) - 1)]);
        break;
      case 2:  // truncate
        text.resize(rng.Index(text.size()) + 1);
        break;
      case 3: {  // swap two characters
        size_t a = rng.Index(text.size());
        size_t b = rng.Index(text.size());
        std::swap(text[a], text[b]);
        break;
      }
      default: {  // duplicate a chunk
        size_t at = rng.Index(text.size());
        size_t len = 1 + rng.Index(std::min<size_t>(8, text.size() - at));
        text.insert(at, text.substr(at, len));
        break;
      }
    }
  }
  return text;
}

}  // namespace testgen
}  // namespace core
}  // namespace nimble

#endif  // NIMBLE_TESTS_QUERY_GENERATOR_H_
