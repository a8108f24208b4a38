// Pattern-match differential: generated XML-QL patterns are matched against
// generated documents by algebra::MatchPattern (the depth-first matcher) and
// by the cartesian-product matcher it replaced (tests/pattern_match_oracle.h),
// and must agree exactly — status, row count and row order, and per slot the
// binding kind, the scalar type and value bits, and for a node binding the
// node itself. Seeded through common/rng; knobs NIMBLE_FUZZ_SEED and
// NIMBLE_FUZZ_ITERS (default 20000 pairs).
//
// Documents are at most four elements deep, with tags drawn from three
// letters so siblings repeat and `//` matches nest, text mixed with element
// children, and attribute and text values drawn from null, "", 1, 1.0, "1",
// "a" and 2. Patterns use `*` and `//` at the root and inside, attribute and
// content literals and variables, ELEMENT_AS once or twice, and a small
// variable pool so variables repeat across levels and unify. Only patterns
// that pass basic semantic analysis are compared: a variable bound both by
// ELEMENT_AS and as a scalar is an analysis error (node-vs-scalar equality
// is not transitive, so the oracle's answer depends on its merge order),
// and the matcher refuses it.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "algebra/pattern_match.h"
#include "common/rng.h"
#include "pattern_match_oracle.h"
#include "query_generator.h"
#include "xmlql/parser.h"
#include "xmlql/semantic.h"

namespace nimble {
namespace algebra {
namespace {

using core::testgen::FuzzIters;
using core::testgen::FuzzSeed;
using xmlql::ElementPattern;

constexpr int kMaxDocumentDepth = 4;
constexpr int kMaxPatternDepth = 3;
/// Pattern elements below the root; bounds the cartesian products.
constexpr int kMaxPatternChildren = 4;

const Value& AnyValue(Rng& rng) {
  static const std::vector<Value> pool = {
      Value::Null(),   Value::String(""),  Value::Int(1),  Value::Double(1.0),
      Value::String("1"), Value::String("a"), Value::Int(2)};
  return pool[rng.Index(pool.size())];
}

const char* AnyTag(Rng& rng) {
  static const char* const kTags[] = {"a", "b", "c"};
  return kTags[rng.Index(3)];
}

NodePtr GenElement(Rng& rng, int depth) {
  NodePtr node = Node::Element(AnyTag(rng));
  for (const char* name : {"x", "y"}) {
    if (rng.Bernoulli(0.6)) node->SetAttribute(name, AnyValue(rng));
  }
  const size_t children = rng.Index(depth == 1 ? 5 : 4);
  for (size_t i = 0; i < children; ++i) {
    if (depth == kMaxDocumentDepth || rng.Bernoulli(0.3)) {
      node->AddChild(Node::Text(AnyValue(rng)));
    } else {
      node->AddChild(GenElement(rng, depth + 1));
    }
  }
  return node;
}

/// Scalar variables and ELEMENT_AS variables come from pools that overlap
/// in $v, so some patterns mix the two and analysis must reject them.
std::string ScalarVariable(Rng& rng) { return rng.Bernoulli(0.5) ? "v" : "w"; }
std::string ElementVariable(Rng& rng) {
  static const char* const kVars[] = {"e", "e", "f", "v"};
  return kVars[rng.Index(4)];
}

void GenPattern(Rng& rng, int depth, int* budget, ElementPattern* out) {
  out->tag = rng.Bernoulli(0.3) ? "*" : AnyTag(rng);
  out->descendant = rng.Bernoulli(0.35);
  for (const char* name : {"x", "y"}) {
    if (!rng.Bernoulli(0.2)) continue;
    xmlql::AttrPattern attr;
    attr.name = name;
    if (rng.Bernoulli(0.6)) {
      attr.is_variable = true;
      attr.variable = ScalarVariable(rng);
    } else {
      attr.literal = AnyValue(rng);
    }
    out->attributes.push_back(std::move(attr));
  }
  const double content = rng.NextDouble();
  if (content < 0.3) {
    out->content_variable = ScalarVariable(rng);
    // The same variable bound twice by one element: the later binding
    // replaces the earlier one once they unify (1 and 1.0 do).
    if (out->attributes.empty() && rng.Bernoulli(0.3)) {
      xmlql::AttrPattern attr;
      attr.name = "x";
      attr.is_variable = true;
      attr.variable = out->content_variable;
      out->attributes.push_back(std::move(attr));
    }
  } else if (content < 0.4) {
    out->content_literal = AnyValue(rng);
  }
  if (rng.Bernoulli(0.2)) out->element_variable = ElementVariable(rng);
  if (depth == kMaxPatternDepth) return;
  const size_t children = rng.Index(3);
  for (size_t i = 0; i < children && *budget > 0; ++i) {
    --*budget;
    out->children.push_back(std::make_unique<ElementPattern>());
    GenPattern(rng, depth + 1, budget, out->children.back().get());
  }
}

std::string Typed(const Value& value) {
  return std::string(ValueTypeName(value.type())) + ":" + value.ToString();
}

void DumpNode(const Node& node, std::string* out) {
  if (node.is_text()) {
    *out += "[" + Typed(node.value()) + "]";
    return;
  }
  *out += "<" + node.name();
  for (const auto& [name, value] : node.attributes()) {
    *out += " " + name + "=" + Typed(value);
  }
  *out += ">";
  for (const NodePtr& child : node.children()) DumpNode(*child, out);
  *out += "</" + node.name() + ">";
}

void DumpPattern(const ElementPattern& pattern, std::string* out) {
  *out += "<" + std::string(pattern.descendant ? "//" : "") + pattern.tag;
  for (const xmlql::AttrPattern& attr : pattern.attributes) {
    *out += " " + attr.name + "=" +
            (attr.is_variable ? "$" + attr.variable : Typed(attr.literal));
  }
  if (!pattern.element_variable.empty()) {
    *out += " ELEMENT_AS $" + pattern.element_variable;
  }
  *out += ">";
  if (!pattern.content_variable.empty()) *out += "$" + pattern.content_variable;
  if (pattern.content_literal.has_value()) {
    *out += Typed(*pattern.content_literal);
  }
  for (const auto& child : pattern.children) DumpPattern(*child, out);
  *out += "</" + pattern.tag + ">";
}

bool SameValueBits(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kBool:
      return a.AsBool() == b.AsBool();
    case ValueType::kInt:
      return a.AsInt() == b.AsInt();
    case ValueType::kDouble:
      return std::bit_cast<uint64_t>(a.AsDouble()) ==
             std::bit_cast<uint64_t>(b.AsDouble());
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

bool SameBinding(const Binding& a, const Binding& b) {
  return a.is_unset() == b.is_unset() && a.is_node() == b.is_node() &&
         a.node() == b.node() && SameValueBits(a.AsScalar(), b.AsScalar());
}

std::string DescribeBinding(const Binding& binding) {
  if (binding.is_unset()) return "unset";
  std::string out = binding.is_node() ? "node " : "scalar ";
  if (binding.is_node()) DumpNode(*binding.node(), &out);
  return out + " " + Typed(binding.AsScalar());
}

TEST(PatternMatchDifferentialTest, DepthFirstMatcherAgreesWithOracle) {
  const uint64_t seed = FuzzSeed();
  const size_t iters = FuzzIters(20000);
  Rng rng(seed);
  size_t compared = 0;
  size_t matched = 0;
  size_t rejected = 0;
  size_t rows = 0;
  for (size_t iter = 0; iter < iters; ++iter) {
    const NodePtr document = GenElement(rng, 1);
    xmlql::Query query;
    query.patterns.emplace_back();
    int budget = kMaxPatternChildren;
    GenPattern(rng, 1, &budget, &query.patterns[0].root);
    query.construct = std::make_unique<xmlql::TemplateNode>();
    query.construct->tag = "out";
    const ElementPattern& pattern = query.patterns[0].root;
    const TupleSchema schema = SchemaForPattern(pattern);

    std::string where = "seed " + std::to_string(seed) + " iteration " +
                        std::to_string(iter) + "\npattern  ";
    DumpPattern(pattern, &where);
    where += "\ndocument ";
    DumpNode(*document, &where);

    Result<TupleBatch> got = MatchPattern(pattern, document, schema);
    Status analysis = xmlql::AnalyzeQuery(query);
    if (!analysis.ok()) {
      // Basic analysis rejects exactly the ELEMENT_AS/scalar mix here, and
      // the matcher refuses the same pattern.
      ASSERT_EQ(analysis.code(), StatusCode::kTypeError)
          << where << "\n" << analysis.ToString();
      ASSERT_EQ(got.status().code(), StatusCode::kInvalidArgument) << where;
      ++rejected;
      continue;
    }
    Result<TupleBatch> want = oracle::MatchPattern(pattern, document, schema);
    ASSERT_TRUE(want.ok()) << where << "\n" << want.status().ToString();
    ASSERT_TRUE(got.ok()) << where << "\n" << got.status().ToString();
    ASSERT_EQ(got->num_slots(), want->num_slots()) << where;
    ASSERT_EQ(got->size(), want->size()) << where;
    for (size_t row = 0; row < want->size(); ++row) {
      for (size_t slot = 0; slot < want->num_slots(); ++slot) {
        const Binding& g = got->binding(slot, row);
        const Binding& w = want->binding(slot, row);
        ASSERT_TRUE(SameBinding(g, w))
            << where << "\nrow " << row << " $" << schema.variables()[slot]
            << ": got " << DescribeBinding(g) << ", want "
            << DescribeBinding(w);
      }
    }
    ++compared;
    if (!want->empty()) ++matched;
    rows += want->size();
  }
  std::printf("seed %llu: %zu pairs compared (%zu with rows, %zu rows), "
              "%zu mixed patterns rejected\n",
              static_cast<unsigned long long>(seed), compared, matched, rows,
              rejected);
  // The generator must keep the comparison meaningful: most patterns pass
  // analysis, and a fair share of them match something.
  EXPECT_GT(compared, iters / 2);
  EXPECT_GT(matched, compared / 10);
}

// The precedence rules on hand-picked bindings that unify without being
// identical (Int 1 and Double 1.0): the first element in pattern preorder
// keeps its binding, and within one element the content binding replaces
// the attribute binding it was checked against.
TEST(PatternMatchDifferentialTest, PrecedenceRulesMatchOracle) {
  NodePtr doc = Node::Element("a");
  doc->SetAttribute("x", Value::Int(1));
  NodePtr b = doc->AddChild(Node::Element("b"));
  b->SetAttribute("x", Value::Double(1.0));
  b->AddChild(Node::Text(Value::Int(1)));

  struct Case {
    const char* text;
    ValueType want;  // type of $v in the single row
  };
  const Case kCases[] = {
      // <a> binds first: its Int wins over <b>'s Double.
      {"<a x=$v><b x=$v/></a>", ValueType::kInt},
      // <b> alone: content (Int) replaces the attribute (Double).
      {"<a><b x=$v>$v</b></a>", ValueType::kInt},
      // <b>'s attribute binds first in preorder; the second child pattern
      // (<*>, the same <b>) only checks its content against it.
      {"<a><b x=$v/><*>$v</*></a>", ValueType::kDouble},
      // A root `//` pattern: <b> is the only candidate that matches.
      {"<//b x=$v>$v</b>", ValueType::kInt},
  };
  for (const Case& c : kCases) {
    Result<xmlql::Query> query = xmlql::ParseQuery(
        std::string("WHERE ") + c.text + " IN \"s:t\" CONSTRUCT <o>$v</o>");
    ASSERT_TRUE(query.ok()) << c.text << ": " << query.status().ToString();
    const ElementPattern& pattern = query->patterns[0].root;
    const TupleSchema schema = SchemaForPattern(pattern);
    Result<TupleBatch> got = MatchPattern(pattern, doc, schema);
    Result<TupleBatch> want = oracle::MatchPattern(pattern, doc, schema);
    ASSERT_TRUE(got.ok() && want.ok()) << c.text;
    ASSERT_EQ(got->size(), 1u) << c.text;
    ASSERT_EQ(want->size(), 1u) << c.text;
    EXPECT_TRUE(SameBinding(got->binding(0, 0), want->binding(0, 0)))
        << c.text << ": got " << DescribeBinding(got->binding(0, 0))
        << ", want " << DescribeBinding(want->binding(0, 0));
    EXPECT_EQ(got->binding(0, 0).AsScalar().type(), c.want) << c.text;
  }
}

}  // namespace
}  // namespace algebra
}  // namespace nimble
