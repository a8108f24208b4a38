#include "xmlql/parser.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/strings.h"
#include "xmlql/semantic.h"

namespace nimble {
namespace xmlql {

namespace {

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.';
}

/// Character-level recursive-descent parser. XML-QL mixes XML-ish pattern
/// syntax with expression syntax, so we parse straight off the text rather
/// than pre-tokenizing ('<' is both tag-open and less-than).
class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Result<Program> ParseAll() {
    Program program;
    while (true) {
      NIMBLE_ASSIGN_OR_RETURN(Query query, ParseOne());
      program.branches.push_back(std::move(query));
      SkipWhitespace();
      if (!ConsumeWord("UNION")) break;
    }
    SkipWhitespace();
    if (pos_ != input_.size()) return Error("trailing input after query");
    return program;
  }

 private:
  Result<Query> ParseOne() {
    Query query;
    NIMBLE_RETURN_IF_ERROR(ExpectWord("WHERE"));
    // Pattern and condition clauses, comma-separated. Clauses starting
    // with '<' are patterns; anything else is a condition.
    while (true) {
      SkipWhitespace();
      if (Peek() == '<') {
        NIMBLE_ASSIGN_OR_RETURN(PatternClause clause, ParsePatternClause());
        query.patterns.push_back(std::move(clause));
      } else {
        NIMBLE_ASSIGN_OR_RETURN(Condition cond, ParseCondition());
        query.conditions.push_back(std::move(cond));
      }
      SkipWhitespace();
      if (!Consume(',')) break;
    }
    NIMBLE_RETURN_IF_ERROR(ExpectWord("CONSTRUCT"));
    SkipWhitespace();
    NIMBLE_ASSIGN_OR_RETURN(query.construct, ParseTemplate());
    SkipWhitespace();
    if (ConsumeWord("GROUP")) {
      NIMBLE_RETURN_IF_ERROR(ExpectWord("BY"));
      while (true) {
        SkipWhitespace();
        query.group_by_pos.push_back(Pos());
        NIMBLE_ASSIGN_OR_RETURN(std::string var, ParseVariable());
        query.group_by.push_back(std::move(var));
        SkipWhitespace();
        if (!Consume(',')) break;
      }
    }
    SkipWhitespace();
    if (ConsumeWord("ORDER")) {
      NIMBLE_RETURN_IF_ERROR(ExpectWord("BY"));
      while (true) {
        SkipWhitespace();
        OrderSpec spec;
        spec.pos = Pos();
        NIMBLE_ASSIGN_OR_RETURN(std::string var, ParseVariable());
        spec.variable = std::move(var);
        SkipWhitespace();
        if (ConsumeWord("DESC")) {
          spec.descending = true;
        } else {
          ConsumeWord("ASC");
        }
        query.order_by.push_back(std::move(spec));
        SkipWhitespace();
        if (!Consume(',')) break;
      }
    }
    SkipWhitespace();
    if (ConsumeWord("LIMIT")) {
      SkipWhitespace();
      size_t start = pos_;
      while (pos_ < input_.size() &&
             std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
        ++pos_;
      }
      if (pos_ == start) return Error("expected integer after LIMIT");
      NIMBLE_ASSIGN_OR_RETURN(
          query.limit,
          ParseInt(std::string(input_.substr(start, pos_ - start))));
    }
    NIMBLE_RETURN_IF_ERROR(Validate(query));
    return query;
  }

  /// Line/column of the cursor. The parser never backtracks, so the scan
  /// cache only ever advances — position lookup is amortized O(1).
  SourcePos Pos() {
    while (scanned_ < pos_ && scanned_ < input_.size()) {
      if (input_[scanned_] == '\n') {
        ++line_;
        column_ = 1;
      } else {
        ++column_;
      }
      ++scanned_;
    }
    return SourcePos{line_, column_};
  }

  Status Error(const std::string& what) {
    return Status::ParseError("XML-QL parse error at " + Pos().ToString() +
                              ": " + what);
  }

  char Peek() const { return pos_ < input_.size() ? input_[pos_] : '\0'; }
  bool Consume(char c) {
    if (Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void SkipWhitespace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  /// Case-insensitive keyword consumption with word-boundary check.
  bool ConsumeWord(const char* word) {
    SkipWhitespace();
    size_t len = std::string_view(word).size();
    if (input_.substr(pos_, len).size() < len) return false;
    if (!EqualsIgnoreCase(input_.substr(pos_, len), word)) return false;
    size_t after = pos_ + len;
    if (after < input_.size() && IsNameChar(input_[after])) return false;
    pos_ = after;
    return true;
  }
  Status ExpectWord(const char* word) {
    if (!ConsumeWord(word)) {
      return Error(std::string("expected ") + word);
    }
    return Status::OK();
  }

  Result<std::string> ParseName() {
    SkipWhitespace();
    size_t start = pos_;
    while (pos_ < input_.size() && IsNameChar(input_[pos_])) ++pos_;
    if (pos_ == start) return Error("expected a name");
    return std::string(input_.substr(start, pos_ - start));
  }

  Result<std::string> ParseVariable() {
    SkipWhitespace();
    if (!Consume('$')) return Error("expected '$variable'");
    return ParseName();
  }

  Result<std::string> ParseQuotedString() {
    SkipWhitespace();
    char quote = Peek();
    if (quote != '"' && quote != '\'') return Error("expected quoted string");
    ++pos_;
    std::string out;
    while (pos_ < input_.size() && input_[pos_] != quote) {
      out.push_back(input_[pos_++]);
    }
    if (pos_ >= input_.size()) return Error("unterminated string");
    ++pos_;
    return out;
  }

  /// An integer literal's value; one outside int64 is an error, never a
  /// clamped value.
  Result<int64_t> ParseInt(const std::string& text) {
    errno = 0;
    const long long v = std::strtoll(text.c_str(), nullptr, 10);
    if (errno == ERANGE) {
      return Error("integer literal " + text + " out of range");
    }
    return static_cast<int64_t>(v);
  }

  Result<Value> ParseLiteral() {
    SkipWhitespace();
    char c = Peek();
    if (c == '"' || c == '\'') {
      NIMBLE_ASSIGN_OR_RETURN(std::string s, ParseQuotedString());
      return Value::String(std::move(s));
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+') {
      size_t start = pos_;
      if (c == '-' || c == '+') ++pos_;
      bool is_float = false;
      while (pos_ < input_.size() &&
             (std::isdigit(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '.')) {
        if (input_[pos_] == '.') is_float = true;
        ++pos_;
      }
      std::string text(input_.substr(start, pos_ - start));
      if (is_float) return Value::Double(std::strtod(text.c_str(), nullptr));
      NIMBLE_ASSIGN_OR_RETURN(int64_t v, ParseInt(text));
      return Value::Int(v);
    }
    if (ConsumeWord("true")) return Value::Bool(true);
    if (ConsumeWord("false")) return Value::Bool(false);
    if (ConsumeWord("null")) return Value::Null();
    return Error("expected a literal");
  }

  // ---- Patterns -------------------------------------------------------------

  Result<PatternClause> ParsePatternClause() {
    PatternClause clause;
    NIMBLE_ASSIGN_OR_RETURN(clause.root, ParseElementPattern());
    clause.pos = clause.root.pos;
    NIMBLE_RETURN_IF_ERROR(ExpectWord("IN"));
    SkipWhitespace();
    std::string ref;
    if (Peek() == '"' || Peek() == '\'') {
      NIMBLE_ASSIGN_OR_RETURN(ref, ParseQuotedString());
    } else {
      NIMBLE_ASSIGN_OR_RETURN(ref, ParseName());
    }
    size_t colon = ref.find(':');
    if (colon == std::string::npos) {
      clause.source.collection = ref;  // a mediated view
    } else {
      clause.source.source = ref.substr(0, colon);
      clause.source.collection = ref.substr(colon + 1);
      if (clause.source.source.empty() || clause.source.collection.empty()) {
        return Error("bad source reference '" + ref + "'");
      }
    }
    return clause;
  }

  Result<ElementPattern> ParseElementPattern() {
    SkipWhitespace();
    SourcePos pos = Pos();
    if (!Consume('<')) return Error("expected '<' to open a pattern");
    ElementPattern pattern;
    pattern.pos = pos;
    if (Peek() == '/') {
      // `<//tag>` descendant form.
      if (input_.substr(pos_, 2) != "//") {
        return Error("unexpected '/' in pattern tag");
      }
      pos_ += 2;
      pattern.descendant = true;
    }
    if (Peek() == '*') {
      ++pos_;
      pattern.tag = "*";
    } else {
      NIMBLE_ASSIGN_OR_RETURN(pattern.tag, ParseName());
    }

    // Attributes / ELEMENT_AS.
    while (true) {
      SkipWhitespace();
      if (Peek() == '>' || Peek() == '/') break;
      if (ConsumeWord("ELEMENT_AS")) {
        NIMBLE_ASSIGN_OR_RETURN(pattern.element_variable, ParseVariable());
        continue;
      }
      AttrPattern attr;
      NIMBLE_ASSIGN_OR_RETURN(attr.name, ParseName());
      SkipWhitespace();
      if (!Consume('=')) return Error("expected '=' in attribute pattern");
      SkipWhitespace();
      if (Peek() == '$') {
        attr.is_variable = true;
        NIMBLE_ASSIGN_OR_RETURN(attr.variable, ParseVariable());
      } else {
        NIMBLE_ASSIGN_OR_RETURN(std::string raw, ParseQuotedString());
        attr.literal = Value::Infer(raw);
      }
      pattern.attributes.push_back(std::move(attr));
    }

    if (Consume('/')) {  // self-closing
      if (!Consume('>')) return Error("expected '/>'");
      return pattern;
    }
    if (!Consume('>')) return Error("expected '>'");

    // Content: child patterns, a content variable, or literal text.
    while (true) {
      SkipWhitespace();
      if (input_.substr(pos_, 2) == "</") {
        pos_ += 2;
        std::string close;
        if (Peek() == '*') {
          ++pos_;
          close = "*";
        } else {
          NIMBLE_ASSIGN_OR_RETURN(close, ParseName());
        }
        if (close != pattern.tag && pattern.tag != "*") {
          return Error("mismatched </" + close + ">, expected </" +
                       pattern.tag + ">");
        }
        SkipWhitespace();
        if (!Consume('>')) return Error("expected '>'");
        return pattern;
      }
      if (Peek() == '<') {
        NIMBLE_ASSIGN_OR_RETURN(ElementPattern child, ParseElementPattern());
        pattern.children.push_back(
            std::make_unique<ElementPattern>(std::move(child)));
        continue;
      }
      if (Peek() == '$') {
        if (!pattern.content_variable.empty()) {
          return Error("element pattern binds two content variables");
        }
        NIMBLE_ASSIGN_OR_RETURN(pattern.content_variable, ParseVariable());
        continue;
      }
      if (Peek() == '\0') return Error("unterminated pattern");
      // Literal content up to the next '<'.
      size_t start = pos_;
      while (pos_ < input_.size() && input_[pos_] != '<' &&
             input_[pos_] != '$') {
        ++pos_;
      }
      std::string raw = Trim(input_.substr(start, pos_ - start));
      if (!raw.empty()) pattern.content_literal = Value::Infer(raw);
    }
  }

  // ---- Conditions -----------------------------------------------------------

  Result<Condition::Operand> ParseOperand() {
    SkipWhitespace();
    Condition::Operand operand;
    if (Peek() == '$') {
      operand.is_variable = true;
      NIMBLE_ASSIGN_OR_RETURN(operand.variable, ParseVariable());
    } else {
      NIMBLE_ASSIGN_OR_RETURN(operand.literal, ParseLiteral());
    }
    return operand;
  }

  Result<Condition> ParseCondition() {
    Condition cond;
    SkipWhitespace();
    cond.pos = Pos();
    NIMBLE_ASSIGN_OR_RETURN(cond.lhs, ParseOperand());
    SkipWhitespace();
    if (ConsumeWord("LIKE")) {
      cond.op = Condition::Op::kLike;
    } else if (input_.substr(pos_, 2) == "!=") {
      pos_ += 2;
      cond.op = Condition::Op::kNe;
    } else if (input_.substr(pos_, 2) == "<=") {
      pos_ += 2;
      cond.op = Condition::Op::kLe;
    } else if (input_.substr(pos_, 2) == ">=") {
      pos_ += 2;
      cond.op = Condition::Op::kGe;
    } else if (Consume('=')) {
      cond.op = Condition::Op::kEq;
    } else if (Consume('<')) {
      cond.op = Condition::Op::kLt;
    } else if (Consume('>')) {
      cond.op = Condition::Op::kGt;
    } else {
      return Error("expected a comparison operator");
    }
    NIMBLE_ASSIGN_OR_RETURN(cond.rhs, ParseOperand());
    return cond;
  }

  // ---- Templates ------------------------------------------------------------

  Result<std::unique_ptr<TemplateNode>> ParseTemplate() {
    SkipWhitespace();
    SourcePos pos = Pos();
    if (!Consume('<')) return Error("CONSTRUCT requires an element template");
    auto node = std::make_unique<TemplateNode>();
    node->pos = pos;
    node->kind = TemplateNode::Kind::kElement;
    NIMBLE_ASSIGN_OR_RETURN(node->tag, ParseName());

    while (true) {
      SkipWhitespace();
      if (Peek() == '>' || Peek() == '/') break;
      TemplateNode::Attr attr;
      NIMBLE_ASSIGN_OR_RETURN(attr.name, ParseName());
      SkipWhitespace();
      if (!Consume('=')) return Error("expected '=' in template attribute");
      SkipWhitespace();
      if (Peek() == '$') {
        attr.is_variable = true;
        NIMBLE_ASSIGN_OR_RETURN(attr.variable, ParseVariable());
      } else {
        NIMBLE_ASSIGN_OR_RETURN(std::string raw, ParseQuotedString());
        attr.literal = Value::Infer(raw);
      }
      node->attributes.push_back(std::move(attr));
    }
    if (Consume('/')) {
      if (!Consume('>')) return Error("expected '/>'");
      return node;
    }
    if (!Consume('>')) return Error("expected '>'");

    while (true) {
      SkipWhitespace();
      if (input_.substr(pos_, 2) == "</") {
        pos_ += 2;
        NIMBLE_ASSIGN_OR_RETURN(std::string close, ParseName());
        if (close != node->tag) {
          return Error("mismatched </" + close + "> in template");
        }
        SkipWhitespace();
        if (!Consume('>')) return Error("expected '>'");
        return node;
      }
      if (Peek() == '<') {
        NIMBLE_ASSIGN_OR_RETURN(std::unique_ptr<TemplateNode> child,
                                ParseTemplate());
        node->children.push_back(std::move(child));
        continue;
      }
      if (Peek() == '$') {
        auto var = std::make_unique<TemplateNode>();
        var->pos = Pos();
        var->kind = TemplateNode::Kind::kVariable;
        NIMBLE_ASSIGN_OR_RETURN(var->variable, ParseVariable());
        node->children.push_back(std::move(var));
        continue;
      }
      // Aggregate call: count($v), sum($v), avg($v), min($v), max($v).
      std::optional<AggregateFn> aggregate = PeekAggregateCall();
      if (aggregate.has_value()) {
        auto agg = std::make_unique<TemplateNode>();
        agg->pos = Pos();
        agg->kind = TemplateNode::Kind::kAggregate;
        agg->aggregate = *aggregate;
        // Consume "fn ( $var )".
        while (IsNameChar(Peek())) ++pos_;
        SkipWhitespace();
        Consume('(');
        NIMBLE_ASSIGN_OR_RETURN(agg->variable, ParseVariable());
        SkipWhitespace();
        if (!Consume(')')) return Error("expected ')' after aggregate");
        node->children.push_back(std::move(agg));
        continue;
      }
      if (Peek() == '\0') return Error("unterminated template");
      size_t start = pos_;
      while (pos_ < input_.size() && input_[pos_] != '<' &&
             input_[pos_] != '$') {
        ++pos_;
      }
      std::string raw = Trim(input_.substr(start, pos_ - start));
      if (!raw.empty()) {
        auto text = std::make_unique<TemplateNode>();
        text->kind = TemplateNode::Kind::kText;
        text->text = Value::String(raw);
        node->children.push_back(std::move(text));
      }
    }
  }

  /// Detects an aggregate call at the cursor without consuming it:
  /// one of count/sum/avg/min/max, optional space, '(', optional space,
  /// '$'. (Literal text that happens to look exactly like this must be
  /// escaped as CDATA in a pattern — documented limitation.)
  std::optional<AggregateFn> PeekAggregateCall() const {
    struct Entry {
      const char* word;
      AggregateFn fn;
    };
    static constexpr Entry kFns[] = {
        {"count", AggregateFn::kCount}, {"sum", AggregateFn::kSum},
        {"avg", AggregateFn::kAvg},     {"min", AggregateFn::kMin},
        {"max", AggregateFn::kMax},
    };
    for (const Entry& entry : kFns) {
      std::string_view word(entry.word);
      if (!EqualsIgnoreCase(input_.substr(pos_, word.size()), word)) continue;
      size_t cursor = pos_ + word.size();
      while (cursor < input_.size() &&
             std::isspace(static_cast<unsigned char>(input_[cursor]))) {
        ++cursor;
      }
      if (cursor >= input_.size() || input_[cursor] != '(') continue;
      ++cursor;
      while (cursor < input_.size() &&
             std::isspace(static_cast<unsigned char>(input_[cursor]))) {
        ++cursor;
      }
      if (cursor < input_.size() && input_[cursor] == '$') return entry.fn;
    }
    return std::nullopt;
  }

  // ---- Validation -----------------------------------------------------------

  /// Structural validation is shared with the engine's verifier: the parser
  /// runs the basic (non-strict, catalog-free) subset so every parse result
  /// is at least structurally sound.
  Status Validate(const Query& query) const { return AnalyzeQuery(query); }

  std::string_view input_;
  size_t pos_ = 0;
  /// Incremental line/column scan cache for Pos().
  size_t scanned_ = 0;
  int line_ = 1;
  int column_ = 1;
};

}  // namespace

Result<Query> ParseQuery(std::string_view text) {
  Parser parser(text);
  NIMBLE_ASSIGN_OR_RETURN(Program program, parser.ParseAll());
  if (program.branches.size() != 1) {
    return Status::ParseError(
        "UNION program passed where a single query was expected");
  }
  return std::move(program.branches[0]);
}

Result<Program> ParseProgram(std::string_view text) {
  Parser parser(text);
  return parser.ParseAll();
}

}  // namespace xmlql
}  // namespace nimble
