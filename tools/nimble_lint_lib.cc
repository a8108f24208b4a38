#include "tools/nimble_lint.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

/// Implementation of the nimble-lint analysis (see nimble_lint.h for the
/// rule catalog). Pipeline per file (Linter::Analyze — pure, runs on a
/// pool thread):
///
///   1. Lex: a real C++ token scanner (comments, string/char literals, raw
///      strings, preprocessor lines, identifiers, punctuation), each token
///      stamped with its line. Comments are collected per line separately —
///      they carry the suppression directives.
///   2. Lexical rules (NL001–NL005): token passes with lexical scope
///      tracking (brace depth, RAII-guard lifetimes, class bodies).
///   3. Function finder + per-function CFG (CfgBuilder): statement-level
///      control-flow graph over the token stream — if/else, while, for,
///      range-for, do-while, switch, break/continue, return/throw. The
///      forward fixpoint framework on top of it runs NL007 (reaching
///      Status definitions) and NL008 (move taint), and records the
///      responsiveness facts (loops, calls, polls) that NL006 checks in
///      Finish() once every translation unit's callee summaries merged.
///   4. Suppression resolution: inline directives, file directives, and
///      the checked-in list. Every resolution is recorded so Finish() can
///      flag the suppressions that earned nothing (NL009).
///
/// Cross-file state (NL002 member declarations awaiting a constructor
/// initializer in a sibling .cc, the rank doc-sync check, NL006 with
/// merged one-level callee summaries, NL009 staleness) resolves in
/// Finish().
namespace nimble_lint {
namespace {

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

struct RuleInfo {
  const char* id;
  const char* name;
  /// Extra aliases accepted in inline directives.
  const char* alias;
};

constexpr RuleInfo kRules[] = {
    {"NL001", "raw-sync", ""},
    {"NL002", "mutex-rank", ""},
    {"NL003", "blocking-under-lock", "blocking"},
    {"NL004", "guarded-member", "unguarded"},
    {"NL005", "frozen-mutation", "frozen"},
    {"NL006", "cancellation-responsiveness", "responsive"},
    {"NL007", "status-path", "status"},
    {"NL008", "use-after-move", "moved"},
    {"NL009", "stale-suppression", "stale"},
};

std::string RuleName(const std::string& id) {
  for (const RuleInfo& r : kRules) {
    if (id == r.id) return r.name;
  }
  return "";
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokKind { kIdent, kNumber, kString, kChar, kPunct };

struct Tok {
  TokKind kind;
  std::string text;
  int line;
};

struct LexedFile {
  std::vector<Tok> toks;
  /// line number -> comment texts that *end* on that line (a multi-line
  /// block comment registers on every line it spans, so directives inside
  /// it attach where they are written).
  std::map<int, std::vector<std::string>> comments;
  std::vector<std::string> lines;  ///< raw source, for suppression matching
};

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

LexedFile Lex(const std::string& src) {
  LexedFile out;
  {
    std::string cur;
    for (char c : src) {
      if (c == '\n') {
        out.lines.push_back(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
    out.lines.push_back(cur);
  }

  size_t i = 0;
  const size_t n = src.size();
  int line = 1;
  auto advance = [&](size_t k) {
    for (size_t j = 0; j < k && i < n; ++j, ++i) {
      if (src[i] == '\n') ++line;
    }
  };

  while (i < n) {
    char c = src[i];
    if (c == '\n' || std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      size_t start = i;
      while (i < n && src[i] != '\n') ++i;
      out.comments[line].push_back(src.substr(start, i - start));
      continue;  // newline handled by the loop
    }
    // Block comment: register its text on every line it spans.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      size_t start = i;
      int first_line = line;
      advance(2);
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) advance(1);
      advance(2);
      std::string text = src.substr(start, i - start);
      for (int l = first_line; l <= line; ++l) out.comments[l].push_back(text);
      continue;
    }
    // Preprocessor directive: skip whole (continued) line. Only when `#`
    // starts the line (ignoring whitespace) — otherwise it's a stray token.
    if (c == '#') {
      bool line_start = true;
      for (size_t j = i; j-- > 0;) {
        if (src[j] == '\n') break;
        if (!std::isspace(static_cast<unsigned char>(src[j]))) {
          line_start = false;
          break;
        }
      }
      if (line_start) {
        while (i < n) {
          if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
            advance(2);
            continue;
          }
          if (src[i] == '\n') break;
          // Comments may open inside a directive; treat // as end-of-logic.
          if (src[i] == '/' && i + 1 < n && src[i + 1] == '/') {
            while (i < n && src[i] != '\n') ++i;
            break;
          }
          advance(1);
        }
        continue;
      }
      out.toks.push_back({TokKind::kPunct, "#", line});
      advance(1);
      continue;
    }
    // Raw string literal: R"delim( ... )delim"
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      size_t d = i + 2;
      std::string delim;
      while (d < n && src[d] != '(') delim += src[d++];
      std::string closer = ")" + delim + "\"";
      size_t end = src.find(closer, d);
      int tok_line = line;
      if (end == std::string::npos) {
        advance(n - i);
        out.toks.push_back({TokKind::kString, "<raw>", tok_line});
        continue;
      }
      advance(end + closer.size() - i);
      out.toks.push_back({TokKind::kString, "<raw>", tok_line});
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      char quote = c;
      int tok_line = line;
      advance(1);
      std::string text;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) {
          text += src[i];
          advance(1);
        }
        if (i < n) {
          text += src[i];
          advance(1);
        }
      }
      advance(1);
      out.toks.push_back(
          {quote == '"' ? TokKind::kString : TokKind::kChar, text, tok_line});
      continue;
    }
    if (IsIdentStart(c)) {
      size_t start = i;
      int tok_line = line;
      while (i < n && IsIdentChar(src[i])) ++i;
      out.toks.push_back(
          {TokKind::kIdent, src.substr(start, i - start), tok_line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      int tok_line = line;
      while (i < n && (IsIdentChar(src[i]) || src[i] == '.')) ++i;
      out.toks.push_back(
          {TokKind::kNumber, src.substr(start, i - start), tok_line});
      continue;
    }
    // Multi-char punctuation we care about: :: -> (others single).
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      out.toks.push_back({TokKind::kPunct, "::", line});
      advance(2);
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      out.toks.push_back({TokKind::kPunct, "->", line});
      advance(2);
      continue;
    }
    out.toks.push_back({TokKind::kPunct, std::string(1, c), line});
    advance(1);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Small helpers over the token stream
// ---------------------------------------------------------------------------

bool Is(const std::vector<Tok>& t, size_t i, const char* text) {
  return i < t.size() && t[i].text == text;
}

/// Index of the matching closer for the opener at `open` (returns t.size()
/// when unbalanced).
size_t MatchForward(const std::vector<Tok>& t, size_t open,
                    const char* open_text, const char* close_text) {
  int depth = 0;
  for (size_t i = open; i < t.size(); ++i) {
    if (t[i].text == open_text) ++depth;
    if (t[i].text == close_text && --depth == 0) return i;
  }
  return t.size();
}

std::string JoinTokens(const std::vector<Tok>& t, size_t begin, size_t end) {
  std::string out;
  for (size_t i = begin; i < end && i < t.size(); ++i) out += t[i].text;
  return out;
}

/// Walks backwards from `i` (exclusive) over a postfix expression
/// (identifiers, ::, ., ->, balanced () and []) and returns its text — the
/// receiver of a member call, e.g. "flight->cv" for `flight->cv.Wait(...)`.
std::string ReceiverBefore(const std::vector<Tok>& t, size_t i) {
  std::vector<std::string> parts;
  size_t j = i;
  bool expect_primary = true;  // next (leftwards) should be a name or ()/[]
  while (j > 0) {
    const Tok& tok = t[j - 1];
    if (expect_primary) {
      if (tok.text == ")" || tok.text == "]") {
        const char* open = tok.text == ")" ? "(" : "[";
        int depth = 0;
        size_t k = j;
        while (k > 0) {
          if (t[k - 1].text == tok.text) ++depth;
          if (t[k - 1].text == open && --depth == 0) break;
          --k;
        }
        if (k == 0) break;
        for (size_t m = k - 1; m < j; ++m) parts.push_back(t[m].text);
        std::reverse(parts.end() - (j - (k - 1)), parts.end());
        j = k - 1;
        expect_primary = false;
        continue;
      }
      if (tok.kind == TokKind::kIdent) {
        parts.push_back(tok.text);
        --j;
        expect_primary = false;
        continue;
      }
      break;
    }
    if (tok.text == "." || tok.text == "->" || tok.text == "::") {
      parts.push_back(tok.text);
      --j;
      expect_primary = true;
      continue;
    }
    break;
  }
  std::reverse(parts.begin(), parts.end());
  std::string out;
  for (const std::string& p : parts) out += p;
  return out;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string FileStem(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

/// Keywords that can precede `(` without being a call / function name.
bool IsControlKeyword(const std::string& s) {
  static const std::set<std::string> kw = {
      "if",       "for",      "while",   "switch",   "catch",  "return",
      "sizeof",   "alignof",  "decltype", "noexcept", "new",    "delete",
      "operator", "throw",    "static_assert", "co_return", "co_await",
      "co_yield", "typeid",   "else",    "do",       "case",   "default",
  };
  return kw.count(s) > 0;
}

/// Keywords that cannot be the *type* of a same-name redeclaration (NL008
/// declaration-kill) — `return run;` must not look like `ShardRun run;`.
bool IsCppKeyword(const std::string& s) {
  static const std::set<std::string> kw = {
      "return", "if",     "else",   "while",  "for",      "do",      "switch",
      "case",   "break",  "continue", "goto", "new",      "delete",  "throw",
      "const",  "static", "public", "private", "protected", "using", "typedef",
      "struct", "class",  "enum",   "union",  "template", "typename", "sizeof",
      "co_return", "co_await", "co_yield",
  };
  return kw.count(s) > 0;
}

}  // namespace
// ---------------------------------------------------------------------------
// Internal state shared between the per-file phase and Finish(). Named (not
// anonymous) namespace: these are member types of the pimpl structs declared
// in the header, and anonymous-namespace members there would trip GCC's
// -Wsubobject-linkage.
// ---------------------------------------------------------------------------

namespace detail {

/// Per-file data retained for Finish()-stage suppression resolution.
struct FileData {
  std::map<int, std::vector<std::string>> comments;
  std::vector<std::string> lines;
  /// rule id -> reason, from a file-scope directive comment.
  std::map<std::string, std::string> file_suppressions;
};

/// Which suppressions earned their keep (consumed by the NL009 pass).
struct UsageTracker {
  std::set<size_t> used_list;  ///< indices into LintOptions::suppressions
  std::set<std::pair<int, std::string>> inline_uses;  ///< (line, rule id)
  std::set<std::string> file_rules;                   ///< rule ids
};

/// One suppression directive found in a file (the NL009 inventory).
struct DirectiveSite {
  int line = 0;
  std::string rule;  ///< rule id
  bool file_scope = false;
};

/// NL002: Mutex members declared without an initializer, waiting for a
/// constructor-initializer-list site.
struct PendingInit {
  std::string file;
  int line = 0;
  std::string member;
  std::string type;  ///< Mutex / SharedMutex
};

/// NL006 facts: one CFG node boiled down to what the responsiveness check
/// needs once the callee summaries from every TU are merged.
struct RespNode {
  int line = 0;
  std::vector<size_t> succs;
  std::vector<std::string> calls;  ///< unqualified call names in the node
  bool direct_poll = false;        ///< calls a poll function directly
  bool producer = false;           ///< calls a streaming producer
};

struct RespLoop {
  size_t head = 0;
  size_t first = 0;  ///< node index range of the loop, inclusive
  size_t last = 0;
  std::vector<size_t> back_srcs;
  bool always_true = false;
  bool range_for = false;
  int line = 0;
};

struct RespFunc {
  std::string file;
  std::string display;  ///< qualified name, for messages
  std::vector<RespNode> nodes;
  std::vector<RespLoop> loops;
};

}  // namespace detail

namespace {

// ---------------------------------------------------------------------------
// Control-flow graph
// ---------------------------------------------------------------------------

struct CfgNode {
  const char* kind;  ///< "entry" "exit" "stmt" "cond" "join"
  size_t begin = 0;  ///< token range [begin, end)
  size_t end = 0;
  int line = 0;
  std::vector<size_t> succs;
};

struct CfgLoop {
  size_t head = 0;
  size_t first = 0;  ///< node index range of the loop, inclusive
  size_t last = 0;
  std::vector<size_t> back_srcs;  ///< nodes whose edge to `head` closes it
  bool always_true = false;       ///< `while (true)`, `for (;;)`
  bool range_for = false;         ///< bounded by the range — never unbounded
  int line = 0;
};

struct Cfg {
  std::vector<CfgNode> nodes;  ///< node 0 = entry, node 1 = exit
  std::vector<CfgLoop> loops;
};

/// Builds a statement-level CFG over a function body's token range by
/// recursive descent on the matched-delimiter structure. Every statement is
/// one node; if/while/for/switch conditions are "cond" nodes; lambdas and
/// aggregate initializers collapse into the enclosing statement node.
class CfgBuilder {
 public:
  explicit CfgBuilder(const std::vector<Tok>& t) : t_(t) {
    NewNode("entry", 0, 0, 0);
    NewNode("exit", 0, 0, 0);
  }

  Cfg Build(size_t begin, size_t end) {
    std::vector<size_t> tails = Seq(begin, end, {kEntry});
    for (size_t n : tails) Edge(n, kExit);
    return std::move(cfg_);
  }

 private:
  static constexpr size_t kEntry = 0;
  static constexpr size_t kExit = 1;

  struct LoopFrame {
    size_t continue_target;
    std::vector<size_t>* continues;
  };

  size_t NewNode(const char* kind, size_t begin, size_t end, int line) {
    cfg_.nodes.push_back({kind, begin, end, line, {}});
    return cfg_.nodes.size() - 1;
  }

  void Edge(size_t from, size_t to) {
    std::vector<size_t>& s = cfg_.nodes[from].succs;
    if (std::find(s.begin(), s.end(), to) == s.end()) s.push_back(to);
  }

  int LineAt(size_t i, size_t end) const {
    return i < end && i < t_.size() ? t_[i].line : 0;
  }

  static bool AlwaysTrue(const std::string& cond) {
    return cond.empty() || cond == "true" || cond == "1";
  }

  /// Index of the `;` ending the statement starting at `i` (delimiter depth
  /// 0 — lambdas and brace initializers are skipped whole). Stops before an
  /// unbalanced closer.
  size_t SkipToSemi(size_t i, size_t end) const {
    int depth = 0;
    while (i < end) {
      const std::string& x = t_[i].text;
      if (x == "(" || x == "{" || x == "[") {
        ++depth;
      } else if (x == ")" || x == "]" || x == "}") {
        if (depth == 0) return i;
        --depth;
      } else if (x == ";" && depth == 0) {
        return i;
      }
      ++i;
    }
    return end;
  }

  std::vector<size_t> Seq(size_t begin, size_t end,
                          std::vector<size_t> preds) {
    size_t i = begin;
    while (i < end) preds = Stmt(&i, end, std::move(preds));
    return preds;
  }

  /// Consumes one statement at *ip, wiring it after `preds`; returns the
  /// live tails (empty after return/throw/break/continue).
  std::vector<size_t> Stmt(size_t* ip, size_t end, std::vector<size_t> preds) {
    size_t i = *ip;
    if (i >= end) {
      *ip = end;
      return preds;
    }
    const std::string& x = t_[i].text;
    if (x == ";") {
      *ip = i + 1;
      return preds;
    }
    if (x == "{") {
      size_t close = std::min(MatchForward(t_, i, "{", "}"), end);
      std::vector<size_t> tails = Seq(i + 1, close, std::move(preds));
      *ip = close + 1;
      return tails;
    }
    if (x == "if") return IfStmt(ip, end, std::move(preds));
    if (x == "while") return WhileStmt(ip, end, std::move(preds));
    if (x == "for") return ForStmt(ip, end, std::move(preds));
    if (x == "do") return DoStmt(ip, end, std::move(preds));
    if (x == "switch") return SwitchStmt(ip, end, std::move(preds));
    if (x == "try") {
      *ip = i + 1;
      return TryStmt(ip, end, std::move(preds));
    }
    if (x == "return" || x == "throw") {
      size_t semi = SkipToSemi(i, end);
      size_t n = NewNode("stmt", i, std::min(semi + 1, end), t_[i].line);
      for (size_t p : preds) Edge(p, n);
      Edge(n, kExit);
      *ip = semi < end ? semi + 1 : end;
      return {};
    }
    if (x == "break" || x == "continue") {
      size_t semi = SkipToSemi(i, end);
      size_t n = NewNode("stmt", i, std::min(semi + 1, end), t_[i].line);
      for (size_t p : preds) Edge(p, n);
      if (x == "break") {
        if (!breakables_.empty()) {
          breakables_.back()->push_back(n);
        } else {
          Edge(n, kExit);
        }
      } else if (!loop_frames_.empty()) {
        Edge(n, loop_frames_.back().continue_target);
        loop_frames_.back().continues->push_back(n);
      } else {
        Edge(n, kExit);
      }
      *ip = semi < end ? semi + 1 : end;
      return {};
    }
    if (x == "else") {  // stray else (shouldn't happen) — skip the token
      *ip = i + 1;
      return preds;
    }
    // Plain statement up to `;`. A zero-length unit means the scan hit an
    // unbalanced closer — step over it so the walk always advances.
    size_t semi = SkipToSemi(i, end);
    if (semi == i) {
      *ip = i + 1;
      return preds;
    }
    size_t n = NewNode("stmt", i, std::min(semi + 1, end), t_[i].line);
    for (size_t p : preds) Edge(p, n);
    *ip = semi < end ? semi + 1 : end;
    return {n};
  }

  std::vector<size_t> IfStmt(size_t* ip, size_t end,
                             std::vector<size_t> preds) {
    size_t kw = *ip;
    size_t i = kw + 1;
    if (Is(t_, i, "constexpr")) ++i;
    if (!Is(t_, i, "(")) {
      *ip = i;
      return preds;
    }
    size_t close = std::min(MatchForward(t_, i, "(", ")"), end);
    size_t cond = NewNode("cond", kw, std::min(close + 1, end), t_[kw].line);
    for (size_t p : preds) Edge(p, cond);
    size_t j = close + 1;
    std::vector<size_t> tails = Stmt(&j, end, {cond});
    if (j < end && Is(t_, j, "else")) {
      size_t k = j + 1;
      std::vector<size_t> etails = Stmt(&k, end, {cond});
      j = k;
      tails.insert(tails.end(), etails.begin(), etails.end());
    } else {
      tails.push_back(cond);  // branch-not-taken falls through
    }
    *ip = j;
    return tails;
  }

  std::vector<size_t> WhileStmt(size_t* ip, size_t end,
                                std::vector<size_t> preds) {
    size_t kw = *ip;
    size_t i = kw + 1;
    if (!Is(t_, i, "(")) {
      *ip = i;
      return preds;
    }
    size_t close = std::min(MatchForward(t_, i, "(", ")"), end);
    size_t head = NewNode("cond", kw, std::min(close + 1, end), t_[kw].line);
    for (size_t p : preds) Edge(p, head);
    CfgLoop loop;
    loop.head = loop.first = head;
    loop.always_true = AlwaysTrue(JoinTokens(t_, i + 1, close));
    loop.line = t_[kw].line;
    std::vector<size_t> breaks;
    std::vector<size_t> continues;
    breakables_.push_back(&breaks);
    loop_frames_.push_back({head, &continues});
    size_t j = close + 1;
    std::vector<size_t> tails = Stmt(&j, end, {head});
    loop_frames_.pop_back();
    breakables_.pop_back();
    for (size_t n : tails) {
      Edge(n, head);
      loop.back_srcs.push_back(n);
    }
    for (size_t n : continues) loop.back_srcs.push_back(n);
    loop.last = cfg_.nodes.size() - 1;
    std::vector<size_t> out = std::move(breaks);
    if (!loop.always_true) out.push_back(head);
    cfg_.loops.push_back(std::move(loop));
    *ip = j;
    return out;
  }

  std::vector<size_t> ForStmt(size_t* ip, size_t end,
                              std::vector<size_t> preds) {
    size_t kw = *ip;
    size_t i = kw + 1;
    if (!Is(t_, i, "(")) {
      *ip = i;
      return preds;
    }
    size_t close = std::min(MatchForward(t_, i, "(", ")"), end);
    // Classic for has `;` at paren depth 1; range-for has none.
    size_t semi1 = t_.size();
    size_t semi2 = t_.size();
    int depth = 0;
    for (size_t j = i; j < close; ++j) {
      const std::string& x = t_[j].text;
      if (x == "(" || x == "{" || x == "[") {
        ++depth;
      } else if (x == ")" || x == "}" || x == "]") {
        --depth;
      } else if (x == ";" && depth == 1) {
        if (semi1 == t_.size()) {
          semi1 = j;
        } else if (semi2 == t_.size()) {
          semi2 = j;
        }
      }
    }
    CfgLoop loop;
    loop.line = t_[kw].line;
    size_t head = 0;
    size_t continue_target = 0;
    if (semi1 == t_.size()) {
      // Range-for: one head node covering `for (decl : range)`.
      head = NewNode("cond", kw, std::min(close + 1, end), t_[kw].line);
      for (size_t p : preds) Edge(p, head);
      loop.head = loop.first = head;
      loop.range_for = true;
      continue_target = head;
    } else {
      if (semi1 > i + 1) {
        size_t init = NewNode("stmt", i + 1, semi1, LineAt(i + 1, end));
        for (size_t p : preds) Edge(p, init);
        preds = {init};
      }
      size_t cond_end = semi2 == t_.size() ? close : semi2;
      head = NewNode("cond", semi1 + 1, cond_end, t_[semi1].line);
      loop.always_true = AlwaysTrue(JoinTokens(t_, semi1 + 1, cond_end));
      for (size_t p : preds) Edge(p, head);
      loop.head = loop.first = head;
      // The increment node is created before the body so that `continue`
      // can target it; its edge to the head is the loop's one back edge.
      size_t inc_begin = semi2 == t_.size() ? close : semi2 + 1;
      size_t inc = NewNode("stmt", inc_begin, close, t_[kw].line);
      Edge(inc, head);
      loop.back_srcs.push_back(inc);
      continue_target = inc;
    }
    std::vector<size_t> breaks;
    std::vector<size_t> continues;
    breakables_.push_back(&breaks);
    loop_frames_.push_back({continue_target, &continues});
    size_t j = close + 1;
    std::vector<size_t> tails = Stmt(&j, end, {head});
    loop_frames_.pop_back();
    breakables_.pop_back();
    if (loop.range_for) {
      for (size_t n : tails) {
        Edge(n, head);
        loop.back_srcs.push_back(n);
      }
      for (size_t n : continues) loop.back_srcs.push_back(n);
    } else {
      for (size_t n : tails) Edge(n, continue_target);
    }
    loop.last = cfg_.nodes.size() - 1;
    std::vector<size_t> out = std::move(breaks);
    if (!loop.always_true) out.push_back(head);
    cfg_.loops.push_back(std::move(loop));
    *ip = j;
    return out;
  }

  std::vector<size_t> DoStmt(size_t* ip, size_t end,
                             std::vector<size_t> preds) {
    size_t kw = *ip;
    int line = t_[kw].line;
    size_t join = NewNode("join", kw, kw, line);
    for (size_t p : preds) Edge(p, join);
    CfgLoop loop;
    loop.first = join;
    loop.line = line;
    // The cond node index is the continue target, needed before the body is
    // built; its token range is patched in once `while (...)` is parsed.
    size_t cond = NewNode("cond", kw, kw, line);
    loop.head = cond;
    std::vector<size_t> breaks;
    std::vector<size_t> continues;
    breakables_.push_back(&breaks);
    loop_frames_.push_back({cond, &continues});
    size_t j = kw + 1;
    std::vector<size_t> tails = Stmt(&j, end, {join});
    loop_frames_.pop_back();
    breakables_.pop_back();
    for (size_t n : tails) Edge(n, cond);
    if (Is(t_, j, "while") && Is(t_, j + 1, "(")) {
      size_t close = std::min(MatchForward(t_, j + 1, "(", ")"), end);
      cfg_.nodes[cond].begin = j;
      cfg_.nodes[cond].end = std::min(close + 1, end);
      cfg_.nodes[cond].line = t_[j].line;
      loop.always_true = AlwaysTrue(JoinTokens(t_, j + 2, close));
      j = close + 1;
      if (Is(t_, j, ";")) ++j;
    }
    Edge(cond, join);  // back edge
    loop.back_srcs.push_back(cond);
    loop.last = cfg_.nodes.size() - 1;
    std::vector<size_t> out = std::move(breaks);
    if (!loop.always_true) out.push_back(cond);
    cfg_.loops.push_back(std::move(loop));
    *ip = j;
    return out;
  }

  std::vector<size_t> SwitchStmt(size_t* ip, size_t end,
                                 std::vector<size_t> preds) {
    size_t kw = *ip;
    size_t i = kw + 1;
    if (!Is(t_, i, "(")) {
      *ip = i;
      return preds;
    }
    size_t close = std::min(MatchForward(t_, i, "(", ")"), end);
    size_t sel = NewNode("cond", kw, std::min(close + 1, end), t_[kw].line);
    for (size_t p : preds) Edge(p, sel);
    size_t j = close + 1;
    if (!Is(t_, j, "{")) {  // degenerate single-statement body
      std::vector<size_t> tails = Stmt(&j, end, {sel});
      tails.push_back(sel);
      *ip = j;
      return tails;
    }
    size_t body_close = std::min(MatchForward(t_, j, "{", "}"), end);
    std::vector<size_t> breaks;
    breakables_.push_back(&breaks);
    std::vector<size_t> cur;  // fallthrough preds of the next statement
    bool has_default = false;
    size_t k = j + 1;
    while (k < body_close) {
      if (Is(t_, k, "case")) {
        while (k < body_close && !Is(t_, k, ":")) ++k;  // `::` is one token
        ++k;
        cur.push_back(sel);
        continue;
      }
      if (Is(t_, k, "default") && Is(t_, k + 1, ":")) {
        k += 2;
        has_default = true;
        cur.push_back(sel);
        continue;
      }
      cur = Stmt(&k, body_close, std::move(cur));
    }
    breakables_.pop_back();
    std::vector<size_t> out = std::move(cur);
    out.insert(out.end(), breaks.begin(), breaks.end());
    if (!has_default) out.push_back(sel);
    *ip = body_close + 1;
    return out;
  }

  std::vector<size_t> TryStmt(size_t* ip, size_t end,
                              std::vector<size_t> preds) {
    std::vector<size_t> entry = preds;
    std::vector<size_t> tails = Stmt(ip, end, std::move(preds));
    while (Is(t_, *ip, "catch")) {
      size_t i = *ip + 1;
      size_t close = i;
      if (Is(t_, i, "(")) close = std::min(MatchForward(t_, i, "(", ")"), end);
      size_t j = close + 1;
      // A handler can be entered from anywhere in the try block; branching
      // it off the try entry is conservative for the forward analyses.
      std::vector<size_t> ctails = Stmt(&j, end, entry);
      tails.insert(tails.end(), ctails.begin(), ctails.end());
      *ip = j;
    }
    return tails;
  }

  const std::vector<Tok>& t_;
  Cfg cfg_;
  std::vector<std::vector<size_t>*> breakables_;  ///< loops and switches
  std::vector<LoopFrame> loop_frames_;            ///< loops only
};

}  // namespace
// ---------------------------------------------------------------------------
// Public helpers
// ---------------------------------------------------------------------------

std::string ResolveRule(const std::string& id_or_name) {
  for (const RuleInfo& r : kRules) {
    if (id_or_name == r.id || id_or_name == r.name ||
        (r.alias[0] != '\0' && id_or_name == r.alias)) {
      return r.id;
    }
  }
  return "";
}

std::set<std::string> ParseLockRankRegistry(const std::string& content) {
  std::set<std::string> ranks;
  LexedFile lexed = Lex(content);
  const std::vector<Tok>& t = lexed.toks;
  for (size_t i = 0; i + 3 < t.size(); ++i) {
    if (Is(t, i, "enum") && Is(t, i + 1, "class") && Is(t, i + 2, "LockRank")) {
      size_t open = i + 3;
      while (open < t.size() && t[open].text != "{") ++open;
      size_t close = MatchForward(t, open, "{", "}");
      for (size_t j = open + 1; j < close; ++j) {
        if (t[j].kind == TokKind::kIdent && t[j].text.size() > 1 &&
            t[j].text[0] == 'k' &&
            std::isupper(static_cast<unsigned char>(t[j].text[1]))) {
          ranks.insert(t[j].text);
        }
      }
      break;
    }
  }
  return ranks;
}

std::set<std::string> ParseDocumentedRanks(const std::string& content) {
  // Only markdown *table rows* count — a line starting with `|` whose
  // first backticked token is a kName. Prose mentions ("...the registry
  // lock (rank `kShardFragments`)...") do not document where a rank sits
  // in the hierarchy, so they must not satisfy the doc-sync check.
  std::set<std::string> ranks;
  std::istringstream in(content);
  std::string line;
  while (std::getline(in, line)) {
    size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] != '|') continue;
    size_t tick = line.find('`');
    if (tick == std::string::npos) continue;
    size_t end = line.find('`', tick + 1);
    if (end == std::string::npos) continue;
    std::string name = line.substr(tick + 1, end - tick - 1);
    if (name.size() > 1 && name[0] == 'k' &&
        std::isupper(static_cast<unsigned char>(name[1])) &&
        name.find_first_not_of(
            "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789") ==
            std::string::npos) {
      ranks.insert(name);
    }
  }
  return ranks;
}

std::vector<SuppressionEntry> ParseSuppressionList(const std::string& content) {
  std::vector<SuppressionEntry> entries;
  std::istringstream in(content);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    std::istringstream fields(line);
    SuppressionEntry e;
    fields >> e.rule >> e.path_substr;
    std::getline(fields, e.line_substr);
    size_t s = e.line_substr.find_first_not_of(" \t");
    e.line_substr = s == std::string::npos ? "*" : e.line_substr.substr(s);
    e.line = lineno;
    if (!e.rule.empty() && !e.path_substr.empty()) entries.push_back(e);
  }
  return entries;
}

// ---------------------------------------------------------------------------
// Suppression machinery (shared by the per-file phase and Finish())
// ---------------------------------------------------------------------------

namespace {

/// True when `comment` carries a directive for `rule_id`; `*reason` gets
/// the parenthesised text. Directive grammar:
///   nimble-lint: [file] alias(reason)[, alias2(reason2)...]
/// A reason containing '<' is a documentation placeholder (the rule catalog
/// and messages quote the directive syntax with "<reason>" stand-ins), not
/// a real directive — otherwise NL009 would flag the docs as stale.
bool DirectiveFor(const std::string& comment, const std::string& rule_id,
                  bool want_file_scope, std::string* reason) {
  size_t pos = comment.find("nimble-lint:");
  if (pos == std::string::npos) return false;
  std::string rest = comment.substr(pos + 12);
  size_t s = rest.find_first_not_of(" \t");
  if (s == std::string::npos) return false;
  rest = rest.substr(s);
  bool file_scope = rest.rfind("file", 0) == 0 &&
                    (rest.size() == 4 || !IsIdentChar(rest[4]));
  if (file_scope != want_file_scope) return false;
  if (file_scope) rest = rest.substr(4);
  // Scan alias(reason) groups.
  size_t i = 0;
  while (i < rest.size()) {
    while (i < rest.size() && !IsIdentStart(rest[i])) ++i;
    size_t start = i;
    while (i < rest.size() && (IsIdentChar(rest[i]) || rest[i] == '-')) ++i;
    if (i == start) break;
    std::string alias = rest.substr(start, i - start);
    std::string r;
    if (i < rest.size() && rest[i] == '(') {
      size_t close = rest.find(')', i);
      if (close == std::string::npos) close = rest.size();
      r = rest.substr(i + 1, close - i - 1);
      i = close + 1;
    }
    if (ResolveRule(alias) == rule_id && r.find('<') == std::string::npos) {
      *reason = r;
      return true;
    }
  }
  return false;
}

/// Collects the file-scope suppressions and the full directive inventory
/// (for NL009) out of a file's comments.
void CollectDirectives(detail::FileData* fd,
                       std::vector<detail::DirectiveSite>* sites) {
  std::set<std::pair<int, std::string>> seen_inline;
  std::set<std::string> seen_file;
  for (const auto& [line, comments] : fd->comments) {
    for (const std::string& comment : comments) {
      for (const RuleInfo& r : kRules) {
        std::string reason;
        if (DirectiveFor(comment, r.id, /*want_file_scope=*/true, &reason)) {
          fd->file_suppressions.emplace(r.id, reason);
          if (seen_file.insert(r.id).second) {
            sites->push_back({line, r.id, true});
          }
        }
        if (DirectiveFor(comment, r.id, /*want_file_scope=*/false, &reason) &&
            seen_inline.insert({line, r.id}).second) {
          sites->push_back({line, r.id, false});
        }
      }
    }
  }
}

bool RuleEnabledIn(const LintOptions& options, const std::string& id) {
  if (options.enabled_rules.empty()) return true;
  for (const std::string& r : options.enabled_rules) {
    if (ResolveRule(r) == id) return true;
  }
  return false;
}

/// Applies the three suppression mechanisms to `f`, recording which one
/// fired in `usage` so NL009 can flag the ones that never fire. `fd` may be
/// null for findings located in files outside the scanned set (the
/// suppression list itself, lock_rank.h doc-sync).
void ResolveSuppressionFor(const LintOptions& options,
                           const detail::FileData* fd, Finding* f,
                           detail::UsageTracker* usage) {
  if (!options.honor_suppressions) return;
  if (fd != nullptr) {
    auto fs = fd->file_suppressions.find(f->rule);
    if (fs != fd->file_suppressions.end()) {
      f->suppressed = true;
      f->suppress_reason = "file directive: " + fs->second;
      if (usage != nullptr) usage->file_rules.insert(f->rule);
      return;
    }
    // A directive suppresses its own line always, and the line below only
    // when the directive stands on a comment-only line — a trailing
    // comment must not leak onto the next statement.
    auto comment_only_line = [fd](int line) {
      if (line < 1 || static_cast<size_t>(line) > fd->lines.size()) {
        return false;
      }
      const std::string& s = fd->lines[line - 1];
      size_t i = s.find_first_not_of(" \t");
      return i != std::string::npos && s.compare(i, 2, "//") == 0;
    };
    for (int line : {f->line, f->line - 1}) {
      if (line == f->line - 1 && !comment_only_line(line)) continue;
      auto c = fd->comments.find(line);
      if (c == fd->comments.end()) continue;
      for (const std::string& comment : c->second) {
        std::string reason;
        if (DirectiveFor(comment, f->rule, /*want_file_scope=*/false,
                         &reason)) {
          f->suppressed = true;
          f->suppress_reason = "inline: " + reason;
          if (usage != nullptr) usage->inline_uses.insert({line, f->rule});
          return;
        }
      }
    }
  }
  for (size_t e = 0; e < options.suppressions.size(); ++e) {
    const SuppressionEntry& entry = options.suppressions[e];
    if (ResolveRule(entry.rule) != f->rule) continue;
    if (!Contains(f->file, entry.path_substr)) continue;
    if (entry.line_substr != "*") {
      if (fd == nullptr || f->line < 1 ||
          static_cast<size_t>(f->line) > fd->lines.size() ||
          !Contains(fd->lines[f->line - 1], entry.line_substr)) {
        continue;
      }
    }
    f->suppressed = true;
    f->suppress_reason = "suppression list";
    if (usage != nullptr) usage->used_list.insert(e);
    return;
  }
}

}  // namespace
// ---------------------------------------------------------------------------
// Per-file lexical rules (NL001–NL005)
// ---------------------------------------------------------------------------

namespace {

/// Everything a per-file check needs to report a finding.
struct FileCtx {
  const LintOptions* options;
  const std::string* path;
  detail::FileData* fd;
  detail::UsageTracker* usage;
  std::vector<Finding>* findings;

  void Report(const std::string& rule_id, int line,
              std::string message) const {
    if (!RuleEnabledIn(*options, rule_id)) return;
    Finding f;
    f.rule = rule_id;
    f.rule_name = RuleName(rule_id);
    f.file = *path;
    f.line = line;
    f.message = std::move(message);
    ResolveSuppressionFor(*options, fd, &f, usage);
    findings->push_back(std::move(f));
  }
};

// NL001 — raw std:: synchronisation primitives.
void CheckRawSync(const FileCtx& ctx, const std::vector<Tok>& t) {
  if (EndsWith(*ctx.path, "common/mutex.h")) return;  // the one legal home
  static const std::set<std::string> kBanned = {
      "mutex",          "timed_mutex",
      "recursive_mutex", "recursive_timed_mutex",
      "shared_mutex",   "shared_timed_mutex",
      "lock_guard",     "unique_lock",
      "scoped_lock",    "shared_lock",
      "condition_variable", "condition_variable_any",
  };
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (Is(t, i, "std") && Is(t, i + 1, "::") &&
        kBanned.count(t[i + 2].text) > 0) {
      ctx.Report("NL001", t[i + 2].line,
                 "raw std::" + t[i + 2].text +
                     "; use the annotated layer in common/mutex.h (Mutex/"
                     "SharedMutex/MutexLock/CondVar) so thread-safety "
                     "analysis and lock-rank checking see it");
    }
  }
}

// NL002 — Mutex construction must carry a registered LockRank.
void CheckRankArgs(const FileCtx& ctx, const std::vector<Tok>& t, size_t begin,
                   size_t end, const std::string& member, int line) {
  for (size_t j = begin; j < end; ++j) {
    if (Is(t, j, "static_cast") && j + 2 < end && Is(t, j + 2, "LockRank")) {
      ctx.Report("NL002", line,
                 "Mutex '" + member +
                     "' constructed with an ad-hoc static_cast<LockRank> — "
                     "register a rank in common/lock_rank.h instead");
      return;
    }
    if (Is(t, j, "LockRank") && Is(t, j + 1, "::") && j + 2 < end) {
      const std::string& rank = t[j + 2].text;
      if (ctx.options->known_ranks.count(rank) == 0) {
        ctx.Report("NL002", line,
                   "Mutex '" + member + "' uses LockRank::" + rank +
                       " which is not in the common/lock_rank.h registry");
      }
      return;
    }
  }
  ctx.Report("NL002", line,
             "Mutex '" + member +
                 "' constructed without a LockRank from common/lock_rank.h");
}

void CheckMutexRank(const FileCtx& ctx, const std::vector<Tok>& t,
                    std::vector<detail::PendingInit>* pending,
                    std::map<std::string, std::set<std::string>>* init_sites) {
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].text != "Mutex" && t[i].text != "SharedMutex") continue;
    // Qualified nimble::Mutex is fine; skip the qualifier, not the check.
    if (i > 0 && t[i - 1].text == "::") {
      if (i < 2 || t[i - 2].text != "nimble") continue;  // std::? other ns
    }
    // Not a declaration: class/struct/friend heads, template parameters.
    if (i > 0 && (t[i - 1].text == "class" || t[i - 1].text == "struct" ||
                  t[i - 1].text == "friend" || t[i - 1].text == "typename")) {
      continue;
    }
    if (i + 1 >= t.size()) continue;
    const Tok& next = t[i + 1];
    if (next.text == "&" || next.text == "*" || next.text == "::" ||
        next.kind != TokKind::kIdent) {
      continue;  // reference/pointer param, qualifier, or not a declarator
    }
    // Declarator: Mutex NAME {init} | (init) | ;
    const std::string member = next.text;
    size_t after = i + 2;
    if (after >= t.size()) continue;
    if (t[after].text == "{" || t[after].text == "(") {
      const char* open = t[after].text == "{" ? "{" : "(";
      const char* close = t[after].text == "{" ? "}" : ")";
      size_t end = MatchForward(t, after, open, close);
      CheckRankArgs(ctx, t, after + 1, end, member, t[i].line);
      (*init_sites)[member].insert(FileStem(*ctx.path));
    } else if (t[after].text == ";") {
      pending->push_back({*ctx.path, t[i].line, member, t[i].text});
    }
  }
  // Constructor-initializer-list sites: NAME ( LockRank :: kX  /
  // NAME { LockRank :: kX — resolves pending member declarations and
  // validates the rank they chose.
  for (size_t i = 0; i + 4 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    if (t[i + 1].text != "(" && t[i + 1].text != "{") continue;
    // Only actual rank expressions: `LockRank::` or an ad-hoc
    // `static_cast<LockRank>` — not functions with a LockRank parameter.
    const bool rank_expr = Is(t, i + 2, "LockRank") && Is(t, i + 3, "::");
    const bool cast_expr = Is(t, i + 2, "static_cast") && Is(t, i + 3, "<") &&
                           Is(t, i + 4, "LockRank");
    if (!rank_expr && !cast_expr) continue;
    if (t[i].text == "Mutex" || t[i].text == "SharedMutex") continue;
    // Declaration-with-initializer sites were validated by the pass
    // above; re-checking them here would double-report.
    if (i > 0 &&
        (t[i - 1].text == "Mutex" || t[i - 1].text == "SharedMutex")) {
      (*init_sites)[t[i].text].insert(FileStem(*ctx.path));
      continue;
    }
    const char* open = t[i + 1].text == "(" ? "(" : "{";
    const char* close = t[i + 1].text == "(" ? ")" : "}";
    size_t end = MatchForward(t, i + 1, open, close);
    CheckRankArgs(ctx, t, i + 2, end, t[i].text, t[i].line);
    (*init_sites)[t[i].text].insert(FileStem(*ctx.path));
  }
}

// NL003 — blocking calls in a scope that holds a mutex.
void CheckBlockingUnderLock(const FileCtx& ctx, const std::vector<Tok>& t) {
  if (EndsWith(*ctx.path, "common/mutex.h")) return;  // CondVar internals
  struct Guard {
    int depth;
    std::string mutex_expr;
    std::string how;  ///< guard class or REQUIRES, for the message
  };
  std::vector<Guard> guards;
  std::vector<std::string> pending_requires;  // attach at next `{`
  int depth = 0;

  // Calls that block the thread: waiting on another query/handle/shard,
  // executing a query synchronously, sleeping, singleflight waits and
  // fan-out joins. `Wait`/`WaitFor` get the CondVar carve-out below.
  static const std::set<std::string> kBlocking = {
      "ExecuteText", "ExecuteBatch", "RunParallel",
      "LookupOrCompute", "sleep_for", "sleep_until", "SleepFor",
  };

  for (size_t i = 0; i < t.size(); ++i) {
    const Tok& tok = t[i];
    if (tok.text == "{") {
      ++depth;
      if (!pending_requires.empty()) {
        for (std::string& mu : pending_requires) {
          guards.push_back({depth, std::move(mu), "NIMBLE_REQUIRES"});
        }
        pending_requires.clear();
      }
      continue;
    }
    if (tok.text == "}") {
      while (!guards.empty() && guards.back().depth >= depth) {
        guards.pop_back();
      }
      --depth;
      continue;
    }
    if (tok.text == ";" && !pending_requires.empty()) {
      pending_requires.clear();  // pure declaration, no body
      continue;
    }
    if (tok.text == "NIMBLE_REQUIRES" ||
        tok.text == "NIMBLE_REQUIRES_SHARED") {
      if (Is(t, i + 1, "(")) {
        size_t end = MatchForward(t, i + 1, "(", ")");
        pending_requires.push_back(JoinTokens(t, i + 2, end));
        i = end;
      }
      continue;
    }
    // RAII guard declaration: MutexLock NAME(expr); etc.
    if ((tok.text == "MutexLock" || tok.text == "ReaderMutexLock" ||
         tok.text == "WriterMutexLock") &&
        i + 2 < t.size() && t[i + 1].kind == TokKind::kIdent &&
        (t[i + 2].text == "(" || t[i + 2].text == "{")) {
      const char* open = t[i + 2].text == "(" ? "(" : "{";
      const char* close = t[i + 2].text == "(" ? ")" : "}";
      size_t end = MatchForward(t, i + 2, open, close);
      guards.push_back({depth, JoinTokens(t, i + 3, end), tok.text});
      i = end;
      continue;
    }
    if (guards.empty()) continue;
    if (tok.kind != TokKind::kIdent || !Is(t, i + 1, "(")) continue;

    const bool is_wait = tok.text == "Wait" || tok.text == "WaitFor";
    const bool is_blocking = kBlocking.count(tok.text) > 0;
    if (!is_wait && !is_blocking) continue;
    // Only calls — `X.Wait(` / `X->Wait(` / free `sleep_for(` — not
    // declarations (`void Wait(...)`): a declaration's name is preceded
    // by a type identifier or `&`/`*`, a call by . -> :: ( , = etc.
    if (i > 0 && (t[i - 1].kind == TokKind::kIdent || t[i - 1].text == "&" ||
                  t[i - 1].text == "*" || t[i - 1].text == ">")) {
      continue;
    }

    size_t args_end = MatchForward(t, i + 1, "(", ")");
    if (is_wait) {
      // CondVar carve-out: waiting on the mutex you hold is the one legal
      // blocking call — but only when no *other* lock is also held
      // (sleeping while holding an outer lock stalls every contender).
      std::string first_arg;
      for (size_t j = i + 2; j < args_end; ++j) {
        if (t[j].text == ",") break;
        first_arg += t[j].text;
      }
      bool matches_innermost = !first_arg.empty() && !guards.empty() &&
                               guards.back().mutex_expr == first_arg;
      if (matches_innermost && guards.size() == 1) {
        i = args_end;
        continue;
      }
      if (matches_innermost && guards.size() > 1) {
        ctx.Report("NL003", tok.line,
                   "CondVar wait on '" + first_arg + "' while '" +
                       guards[guards.size() - 2].mutex_expr +
                       "' is also held (" + guards[guards.size() - 2].how +
                       ") — the outer lock stays locked for the whole sleep");
        i = args_end;
        continue;
      }
      ctx.Report("NL003", tok.line,
                 "blocking " + tok.text + "() while holding '" +
                     guards.back().mutex_expr + "' (" + guards.back().how +
                     ") — release the lock before waiting");
      i = args_end;
      continue;
    }
    ctx.Report("NL003", tok.line,
               "blocking call " + tok.text + "() while holding '" +
                   guards.back().mutex_expr + "' (" + guards.back().how +
                   ") — blocking work must run after release");
    i = args_end;
  }

  // Pool submissions under a lock deadlock when pool workers are the ones
  // trying to acquire it, and stall dispatch either way; the scheduler
  // collects entries under its mutex and submits after release. Detect
  // `<pool-ish>->Submit(` / `.Submit(` with a held guard.
  guards.clear();
  depth = 0;
  for (size_t i = 0; i < t.size(); ++i) {
    const Tok& tok = t[i];
    if (tok.text == "{") {
      ++depth;
      continue;
    }
    if (tok.text == "}") {
      while (!guards.empty() && guards.back().depth >= depth) {
        guards.pop_back();
      }
      --depth;
      continue;
    }
    if ((tok.text == "MutexLock" || tok.text == "ReaderMutexLock" ||
         tok.text == "WriterMutexLock") &&
        i + 2 < t.size() && t[i + 1].kind == TokKind::kIdent &&
        t[i + 2].text == "(") {
      size_t end = MatchForward(t, i + 2, "(", ")");
      guards.push_back({depth, JoinTokens(t, i + 3, end), tok.text});
      i = end;
      continue;
    }
    if (guards.empty() || tok.text != "Submit" || !Is(t, i + 1, "(")) {
      continue;
    }
    if (i == 0 || (t[i - 1].text != "." && t[i - 1].text != "->")) continue;
    std::string receiver = ReceiverBefore(t, i - 1);
    std::string lowered;
    for (char c : receiver) {
      lowered +=
          static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (!Contains(lowered, "pool")) continue;
    ctx.Report("NL003", tok.line,
               "pool submit through '" + receiver + "' while holding '" +
                   guards.back().mutex_expr +
                   "' — collect work under the lock, submit after release");
  }
}

// NL004 — guarded-member coverage in mutex-owning classes.

/// One data-member declaration unit inside a class body.
struct MemberDecl {
  std::string name;
  int line;
  bool guarded = false;   ///< NIMBLE_GUARDED_BY / NIMBLE_PT_GUARDED_BY
  bool is_mutex = false;  ///< Mutex / SharedMutex by value
  bool exempt = false;    ///< const, reference, atomic, CondVar, ...
};

void AnalyzeClassBody(const FileCtx& ctx, const std::vector<Tok>& t,
                      const std::string& class_name, size_t open,
                      size_t close) {
  std::vector<MemberDecl> members;
  size_t i = open + 1;
  while (i < close) {
    // Access specifiers.
    if ((t[i].text == "public" || t[i].text == "private" ||
         t[i].text == "protected") &&
        Is(t, i + 1, ":")) {
      i += 2;
      continue;
    }
    // Nested class/struct with a body: recurse, then skip past it.
    if ((t[i].text == "class" || t[i].text == "struct") && i + 1 < close &&
        t[i + 1].kind == TokKind::kIdent) {
      size_t j = i + 2;
      while (j < close && t[j].text != "{" && t[j].text != ";") ++j;
      if (j < close && t[j].text == "{") {
        size_t body_close = MatchForward(t, j, "{", "}");
        AnalyzeClassBody(ctx, t, t[i + 1].text, j, body_close);
        i = body_close + 1;
        if (i < close && t[i].text == ";") ++i;
        continue;
      }
      i = j + 1;
      continue;
    }
    // Collect one declaration unit.
    size_t unit_begin = i;
    bool paren_before_brace = false;
    int template_depth = 0;
    bool in_decl_part = true;  // before '=' / init '{'
    size_t name_tok = t.size();
    bool skip_unit = false;
    while (i < close) {
      const Tok& tok = t[i];
      if (tok.text == "template" && Is(t, i + 1, "<")) {
        // Skip the template parameter list wholesale.
        int d = 0;
        ++i;
        while (i < close) {
          if (t[i].text == "<") ++d;
          if (t[i].text == ">" && --d == 0) break;
          ++i;
        }
        ++i;
        continue;
      }
      if (in_decl_part) {
        if (tok.text == "operator") {
          // operator<, operator(), ... — function for sure.
          paren_before_brace = true;
          ++i;
          if (i < close) ++i;
          continue;
        }
        if (tok.text == "<") ++template_depth;
        if (tok.text == ">") template_depth = std::max(0, template_depth - 1);
        if (tok.text == "(" && template_depth == 0) {
          paren_before_brace = true;
          i = MatchForward(t, i, "(", ")") + 1;
          continue;
        }
        if (tok.text == "=") in_decl_part = false;
        if (tok.kind == TokKind::kIdent && template_depth == 0) {
          name_tok = i;
        }
      }
      if (tok.text == "{") {
        size_t body_close = MatchForward(t, i, "{", "}");
        in_decl_part = false;
        i = body_close + 1;
        // Function definition bodies end without ';'.
        if (paren_before_brace) {
          if (i < close && t[i].text == ";") ++i;
          skip_unit = true;
          break;
        }
        continue;
      }
      if (tok.text == ";") {
        ++i;
        break;
      }
      ++i;
    }
    if (skip_unit || name_tok >= t.size()) continue;

    MemberDecl m;
    m.name = t[name_tok].text;
    m.line = t[name_tok].line;
    bool has_star = false;
    bool has_amp = false;
    bool has_const_before_name = false;
    bool has_const_anywhere = false;
    bool is_static = false;
    size_t unit_end = std::min(i, close);
    for (size_t j = unit_begin; j < unit_end && j <= name_tok; ++j) {
      const std::string& x = t[j].text;
      if (x == "*") has_star = true;
      if (x == "&") has_amp = true;
      if (x == "const") {
        has_const_anywhere = true;
        if (j + 1 == name_tok) has_const_before_name = true;
      }
      if (x == "static" || x == "constexpr" || x == "using" ||
          x == "typedef" || x == "friend" || x == "enum") {
        is_static = true;
      }
      if (x == "atomic" || x == "CondVar" || x == "once_flag" ||
          x == "Notification") {
        m.exempt = true;
      }
      if (x == "Mutex" || x == "SharedMutex") m.is_mutex = true;
    }
    // By-value mutex member only: a pointer/reference to someone else's
    // mutex is just unguarded config, not ownership. Decided after the
    // scan because the * / & tokens follow the type name.
    if (has_star || has_amp) m.is_mutex = false;
    for (size_t j = unit_begin; j < unit_end; ++j) {
      if (t[j].text == "NIMBLE_GUARDED_BY" ||
          t[j].text == "NIMBLE_PT_GUARDED_BY") {
        m.guarded = true;
      }
    }
    if (is_static) continue;
    if (paren_before_brace) continue;  // function declaration
    if (has_amp) m.exempt = true;      // references bind at construction
    if (has_const_before_name) m.exempt = true;  // T* const / const T name
    if (has_const_anywhere && !has_star) m.exempt = true;  // const T name
    if (m.is_mutex) m.exempt = true;
    members.push_back(std::move(m));
  }

  bool owns_mutex = false;
  for (const MemberDecl& m : members) {
    if (m.is_mutex) owns_mutex = true;
  }
  if (!owns_mutex) return;
  for (const MemberDecl& m : members) {
    if (m.guarded || m.exempt) continue;
    ctx.Report("NL004", m.line,
               "member '" + m.name + "' of mutex-owning " + class_name +
                   " is neither NIMBLE_GUARDED_BY, std::atomic, nor const — "
                   "annotate it, or suppress with "
                   "`// nimble-lint: unguarded(<why it is safe>)`");
  }
}

void CheckGuardedMembers(const FileCtx& ctx, const std::vector<Tok>& t) {
  if (EndsWith(*ctx.path, "common/mutex.h")) return;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if ((t[i].text == "class" || t[i].text == "struct") &&
        t[i + 1].kind == TokKind::kIdent) {
      // Find the body '{' (skip base-class list); stop at ';' (forward
      // declaration) or '(' (function returning class type — not here).
      size_t j = i + 2;
      while (j < t.size() && t[j].text != "{" && t[j].text != ";") ++j;
      if (j >= t.size() || t[j].text == ";") continue;
      AnalyzeClassBody(ctx, t, t[i + 1].text, j, MatchForward(t, j, "{", "}"));
    }
  }
}

// NL005 — frozen-snapshot immutability.
void CheckFrozenMutation(const FileCtx& ctx, const std::vector<Tok>& t) {
  static const std::set<std::string> kMutators = {
      "AddChild",    "AddScalarChild", "SetAttribute",
      "RemoveChild", "TakeChildren",
  };
  // Tainted expression text -> brace depth it was tainted at.
  std::map<std::string, int> tainted;
  int depth = 0;
  // A handle is tainted together with its dereference: a fetched
  // Result<NodePtr> `r` is mutated through `(*r)->`.
  auto taint = [&](const std::string& name) {
    tainted[name] = depth;
    tainted["(*" + name + ")"] = depth;
  };
  auto untaint = [&](const std::string& name) {
    tainted.erase(name);
    tainted.erase("(*" + name + ")");
  };
  // What an initializer hands out: a frozen tree (Freeze(), a const-cast
  // snapshot, or a FetchCollection result — fetched trees are frozen by
  // the connector contract) unless a Clone() thaws it.
  auto yields_frozen = [&](size_t begin, size_t end) {
    bool saw_freeze = false;
    bool saw_clone = false;
    for (size_t j = begin; j < end && j < t.size(); ++j) {
      if ((t[j].text == "Freeze" || t[j].text == "FetchCollection") &&
          Is(t, j + 1, "(")) {
        saw_freeze = true;
      }
      // A const-cast RHS is a frozen snapshot too: the cast site itself
      // is reported (and typically suppressed at the documented seam),
      // but mutations through the result must still flag.
      if (t[j].text == "const_pointer_cast") saw_freeze = true;
      if (t[j].text == "Clone" && Is(t, j + 1, "(")) saw_clone = true;
    }
    return saw_freeze && !saw_clone;
  };
  for (size_t i = 0; i < t.size(); ++i) {
    const Tok& tok = t[i];
    if (tok.text == "{") {
      ++depth;
      continue;
    }
    if (tok.text == "}") {
      for (auto it = tainted.begin(); it != tainted.end();) {
        if (it->second >= depth) {
          it = tainted.erase(it);
        } else {
          ++it;
        }
      }
      --depth;
      continue;
    }
    // const casts that strip a snapshot's constness re-expose the shared
    // tree to mutation; legal only at the documented copy-on-write seams
    // (suppress there, citing MutableDocument()/Clone()).
    if ((tok.text == "const_pointer_cast" || tok.text == "const_cast") &&
        Is(t, i + 1, "<")) {
      for (size_t j = i + 2; j < t.size() && t[j].text != ">"; ++j) {
        if (t[j].text == "Node") {
          ctx.Report("NL005", tok.line,
                     "std::" + tok.text +
                         "<Node> strips a frozen snapshot's constness — "
                         "mutate via Clone()/MutableDocument() instead");
          break;
        }
        if (t[j].text == ";") break;
      }
    }
    // Taint assignments: LHS = ...Freeze()... ;  LHS = ...Clone()... clears.
    if (tok.text == "=" && i > 0 &&
        (t[i - 1].kind == TokKind::kIdent || t[i - 1].text == ")")) {
      if (Is(t, i + 1, "=") || t[i - 1].text == "!" || t[i - 1].text == "<" ||
          t[i - 1].text == ">") {
        continue;  // ==, !=, <=, >=
      }
      std::string lhs = ReceiverBefore(t, i);
      if (lhs.empty()) continue;
      size_t end = i + 1;
      while (end < t.size() && t[end].text != ";") ++end;
      if (yields_frozen(i + 1, end)) {
        taint(lhs);
      } else {
        untaint(lhs);
      }
      continue;
    }
    // The same through NIMBLE_ASSIGN_OR_RETURN(<decl or lvalue>, <expr>):
    // the target is the name before the first top-level comma.
    if (tok.text == "NIMBLE_ASSIGN_OR_RETURN" && Is(t, i + 1, "(")) {
      size_t close = MatchForward(t, i + 1, "(", ")");
      size_t comma = i + 2;
      for (int nest = 0; comma < close; ++comma) {
        const std::string& x = t[comma].text;
        if (x == "(" || x == "[" || x == "{" || x == "<") ++nest;
        if (x == ")" || x == "]" || x == "}" || x == ">") --nest;
        if (x == "," && nest == 0) break;
      }
      if (comma < close && t[comma - 1].kind == TokKind::kIdent) {
        if (yields_frozen(comma + 1, close)) {
          taint(t[comma - 1].text);
        } else {
          untaint(t[comma - 1].text);
        }
      }
      continue;
    }
    // Mutator through a tainted handle, or chained straight off Freeze().
    if (kMutators.count(tok.text) > 0 && Is(t, i + 1, "(") && i > 0 &&
        (t[i - 1].text == "." || t[i - 1].text == "->")) {
      std::string receiver = ReceiverBefore(t, i - 1);
      bool receiver_tainted = tainted.count(receiver) > 0;
      bool chained_off_freeze = Contains(receiver, "Freeze()");
      if (receiver_tainted || chained_off_freeze) {
        ctx.Report("NL005", tok.line,
                   "mutation " + tok.text + "() through frozen snapshot '" +
                       receiver + "' — a frozen tree is shared with every "
                       "concurrent reader; Clone() first");
      }
    }
  }
}

}  // namespace
// ---------------------------------------------------------------------------
// Function finder + CFG-based dataflow rules (NL007, NL008) and the NL006
// fact collection
// ---------------------------------------------------------------------------

namespace {

struct FuncDef {
  std::string name;     ///< unqualified
  std::string display;  ///< qualified, as written
  size_t body_open = 0;
  size_t body_close = 0;
  int line = 0;
  bool returns_status = false;  ///< return type mentions Status / Result
};

/// Finds function *definitions* by structure: `name ( params ) [qualifiers]
/// [ctor-init-list] {`. Control keywords and lambdas are excluded; macro
/// bodies like `TEST_F(Suite, Name) { ... }` match on purpose (their bodies
/// deserve the dataflow rules too). Functions do not nest, so the scan
/// skips each matched body.
std::vector<FuncDef> FindFunctions(const std::vector<Tok>& t) {
  std::vector<FuncDef> out;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || !Is(t, i + 1, "(")) continue;
    if (IsControlKeyword(t[i].text)) continue;
    if (i > 0 && (t[i - 1].text == "]" || t[i - 1].text == "operator")) {
      continue;  // lambda intro / operator name
    }
    size_t params_close = MatchForward(t, i + 1, "(", ")");
    if (params_close >= t.size()) continue;
    size_t j = params_close + 1;
    bool gave_up = false;
    while (j < t.size()) {
      const std::string& x = t[j].text;
      if (x == "const" || x == "override" || x == "final" || x == "mutable" ||
          x == "&" || x == "&&") {
        ++j;
        continue;
      }
      if (x == "noexcept") {
        ++j;
        if (Is(t, j, "(")) j = MatchForward(t, j, "(", ")") + 1;
        continue;
      }
      if (x == "->") {  // trailing return type
        ++j;
        while (j < t.size() && t[j].text != "{" && t[j].text != ";") ++j;
        continue;
      }
      if (x == ":") {  // constructor initializer list
        ++j;
        while (j < t.size()) {
          while (j < t.size() &&
                 (t[j].kind == TokKind::kIdent || t[j].text == "::")) {
            ++j;
          }
          if (Is(t, j, "<")) {
            int d = 0;
            while (j < t.size()) {
              if (t[j].text == "<") ++d;
              if (t[j].text == ">" && --d == 0) break;
              ++j;
            }
            ++j;
          }
          if (Is(t, j, "(")) {
            j = MatchForward(t, j, "(", ")") + 1;
          } else if (Is(t, j, "{")) {
            j = MatchForward(t, j, "{", "}") + 1;
          } else {
            gave_up = true;
            break;
          }
          if (Is(t, j, ",")) {
            ++j;
            continue;
          }
          break;
        }
        if (gave_up) break;
        continue;
      }
      break;
    }
    if (gave_up || !Is(t, j, "{")) continue;
    FuncDef f;
    f.name = t[i].text;
    f.line = t[i].line;
    f.body_open = j;
    f.body_close = MatchForward(t, j, "{", "}");
    // Qualified display name: walk back over `Outer::` chains.
    size_t q = i;
    while (q >= 2 && t[q - 1].text == "::" &&
           t[q - 2].kind == TokKind::kIdent) {
      q -= 2;
    }
    if (q >= 1 && t[q - 1].text == "~") --q;
    f.display = JoinTokens(t, q, i + 1);
    // Return type: scan backwards from the name for Status / Result.
    size_t limit = q > 12 ? q - 12 : 0;
    for (size_t b = q; b-- > limit;) {
      const std::string& x = t[b].text;
      if (x == ";" || x == "}" || x == "{" || x == ")" || x == "(" ||
          x == "," || x == ":" || x == "#") {
        break;
      }
      if (x == "Status" || x == "Result") {
        f.returns_status = true;
        break;
      }
    }
    i = f.body_close;  // skip the body before the struct is moved out
    out.push_back(std::move(f));
  }
  return out;
}

/// Unqualified names of calls in token range [begin, end).
void CollectCalls(const std::vector<Tok>& t, size_t begin, size_t end,
                  std::vector<std::string>* out) {
  for (size_t i = begin; i + 1 < end && i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || !Is(t, i + 1, "(")) continue;
    if (IsControlKeyword(t[i].text)) continue;
    out->push_back(t[i].text);
  }
}

/// Predecessor lists from the CFG's successor lists.
std::vector<std::vector<size_t>> Preds(const Cfg& cfg) {
  std::vector<std::vector<size_t>> preds(cfg.nodes.size());
  for (size_t n = 0; n < cfg.nodes.size(); ++n) {
    for (size_t s : cfg.nodes[n].succs) preds[s].push_back(n);
  }
  return preds;
}

// ---------------------------------------------------------------------------
// NL007 — status-path: reaching-definitions over Status/Result locals
// ---------------------------------------------------------------------------

void CheckStatusPaths(const FileCtx& ctx, const std::vector<Tok>& t,
                      const FuncDef& fn, const Cfg& cfg) {
  const size_t begin = fn.body_open + 1;
  const size_t end = fn.body_close;

  // Tracked locals: `[const] Status v` / `Result<...> v` followed by
  // `= | { | ;`. Paren initializers are skipped wholesale — `Status F();`
  // inside a body is a declaration, not a definition, and the house style
  // initializes with `=` anyway.
  std::set<std::string> tracked;
  std::map<size_t, bool> decl_at;  // var-name token index -> has initializer
  for (size_t i = begin; i + 1 < end; ++i) {
    if (t[i].text != "Status" && t[i].text != "Result") continue;
    size_t j = i + 1;
    if (t[i].text == "Result") {
      if (!Is(t, j, "<")) continue;
      int d = 0;
      while (j < end) {
        if (t[j].text == "<") ++d;
        if (t[j].text == ">" && --d == 0) break;
        ++j;
      }
      ++j;
    }
    if (j + 1 >= end || t[j].kind != TokKind::kIdent ||
        IsCppKeyword(t[j].text)) {
      continue;
    }
    const std::string& nx = t[j + 1].text;
    if (nx == "=") {
      tracked.insert(t[j].text);
      decl_at[j] = true;
    } else if (nx == "{") {
      tracked.insert(t[j].text);
      decl_at[j] = !Is(t, j + 2, "}");  // empty braces: no value to drop
    } else if (nx == ";") {
      tracked.insert(t[j].text);
      decl_at[j] = false;
    }
  }
  // Address-taken locals escape the analysis entirely.
  for (size_t i = begin; i + 1 < end; ++i) {
    if (t[i].text == "&" && t[i + 1].kind == TokKind::kIdent) {
      tracked.erase(t[i + 1].text);
    }
  }
  if (tracked.empty() && !fn.returns_status) return;

  struct Ev {
    bool is_def;
    std::string var;
    int def_id;  // -1 for uses
    bool weak;   // def inside nested braces (a lambda body): the statement
                 // may execute the assignment zero times, so it must not
                 // kill the definitions that reach it
  };
  struct DefInfo {
    std::string var;
    int line;
    bool is_decl;
  };
  std::vector<DefInfo> defs;
  std::vector<std::vector<Ev>> events(cfg.nodes.size());
  for (size_t n = 0; n < cfg.nodes.size(); ++n) {
    int bdepth = 0;  // brace depth relative to the node start
    for (size_t k = cfg.nodes[n].begin; k < cfg.nodes[n].end; ++k) {
      if (t[k].text == "{") {
        ++bdepth;
        continue;
      }
      if (t[k].text == "}") {
        if (bdepth > 0) --bdepth;
        continue;
      }
      auto it = decl_at.find(k);
      if (it != decl_at.end()) {
        if (tracked.count(t[k].text) == 0) continue;
        if (it->second) {
          defs.push_back({t[k].text, t[k].line, /*is_decl=*/true});
          events[n].push_back(
              {true, t[k].text, static_cast<int>(defs.size()) - 1, false});
        }
        continue;
      }
      if (t[k].kind != TokKind::kIdent || tracked.count(t[k].text) == 0) {
        continue;
      }
      if (k > 0 && (t[k - 1].text == "." || t[k - 1].text == "->" ||
                    t[k - 1].text == "::")) {
        continue;  // member of some other object that shares the name
      }
      if (Is(t, k + 1, "=") && !Is(t, k + 2, "=")) {
        defs.push_back({t[k].text, t[k].line, /*is_decl=*/false});
        events[n].push_back(
            {true, t[k].text, static_cast<int>(defs.size()) - 1, bdepth > 0});
        continue;
      }
      events[n].push_back({false, t[k].text, -1, false});
    }
  }

  // Forward fixpoint: which definitions reach each node entry.
  using State = std::map<std::string, std::set<int>>;
  std::vector<std::vector<size_t>> preds = Preds(cfg);
  std::vector<State> in(cfg.nodes.size());
  std::vector<State> out_state(cfg.nodes.size());
  bool changed = true;
  size_t rounds = 0;
  while (changed && rounds++ < cfg.nodes.size() + 8) {
    changed = false;
    for (size_t n = 0; n < cfg.nodes.size(); ++n) {
      State s;
      for (size_t p : preds[n]) {
        for (const auto& [var, ids] : out_state[p]) {
          s[var].insert(ids.begin(), ids.end());
        }
      }
      in[n] = s;
      for (const Ev& e : events[n]) {
        if (!e.is_def) continue;
        if (e.weak) {
          s[e.var].insert(e.def_id);
        } else {
          s[e.var] = {e.def_id};
        }
      }
      if (s != out_state[n]) {
        out_state[n] = std::move(s);
        changed = true;
      }
    }
  }

  // Mark the definitions each use can observe; unobserved ones are dropped
  // errors.
  std::vector<bool> used(defs.size(), false);
  for (size_t n = 0; n < cfg.nodes.size(); ++n) {
    State s = in[n];
    for (const Ev& e : events[n]) {
      if (e.is_def) {
        if (e.weak) {
          s[e.var].insert(e.def_id);
        } else {
          s[e.var] = {e.def_id};
        }
      } else {
        for (int id : s[e.var]) used[id] = true;
      }
    }
  }
  for (size_t d = 0; d < defs.size(); ++d) {
    if (used[d]) continue;
    if (defs[d].is_decl) {
      ctx.Report("NL007", defs[d].line,
                 "Status/Result value '" + defs[d].var + "' in '" +
                     fn.display +
                     "' is constructed but never consulted on any path — a "
                     "dropped error; check/propagate it or remove it");
    } else {
      ctx.Report("NL007", defs[d].line,
                 "value assigned to '" + defs[d].var + "' in '" + fn.display +
                     "' is overwritten or goes out of scope on every path "
                     "before being read — a dropped error");
    }
  }

  // Fall-off-the-end: a Status-returning function whose CFG reaches the
  // exit from a node that is not a return/throw.
  if (fn.returns_status) {
    std::set<int> reported;
    for (size_t n = 2; n < cfg.nodes.size(); ++n) {
      const CfgNode& node = cfg.nodes[n];
      if (std::find(node.succs.begin(), node.succs.end(),
                    static_cast<size_t>(1)) == node.succs.end()) {
        continue;
      }
      const std::string first =
          node.begin < node.end && node.begin < t.size() ? t[node.begin].text
                                                         : "";
      if (first == "return" || first == "throw") continue;
      if (first == "switch") continue;  // exhaustive-enum switches
      std::string text = JoinTokens(t, node.begin, node.end);
      if (Contains(text, "abort") || Contains(text, "Unreachable") ||
          Contains(text, "unreachable") || Contains(text, "terminate")) {
        continue;
      }
      int line = node.line != 0 ? node.line : fn.line;
      if (reported.insert(line).second) {
        ctx.Report("NL007", line,
                   "Status-returning function '" + fn.display +
                       "' can fall off the end from here without returning "
                       "a value — every path must return or propagate");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// NL008 — use-after-move: forward may-analysis of move taint
// ---------------------------------------------------------------------------

void CheckUseAfterMove(const FileCtx& ctx, const std::vector<Tok>& t,
                       const FuncDef& fn, const Cfg& cfg) {
  const size_t begin = fn.body_open + 1;
  const size_t end = fn.body_close;
  // Candidates: simple identifiers that are std::move()d in this body.
  std::set<std::string> moved_vars;
  for (size_t i = begin; i + 3 < end; ++i) {
    if (t[i].text == "move" && Is(t, i + 1, "(") &&
        t[i + 2].kind == TokKind::kIdent && Is(t, i + 3, ")")) {
      moved_vars.insert(t[i + 2].text);
    }
  }
  if (moved_vars.empty()) return;

  static const std::set<std::string> kReinit = {
      "reset", "clear", "assign", "emplace", "swap", "Reset", "Clear",
  };
  enum class Kind { kMove, kKill, kUse };
  struct Ev {
    Kind kind;
    std::string var;
    int line;
  };
  std::vector<std::vector<Ev>> events(cfg.nodes.size());
  for (size_t n = 0; n < cfg.nodes.size(); ++n) {
    // Statement boundary tracking within the node: `;` and braces delimit
    // statements (braces inside a plain statement are lambda bodies).
    size_t stmt_begin = cfg.nodes[n].begin;
    std::set<std::string> stmt_moved;
    for (size_t k = cfg.nodes[n].begin;
         k < cfg.nodes[n].end && k < t.size(); ++k) {
      if (t[k].text == ";" || t[k].text == "{" || t[k].text == "}") {
        stmt_begin = k + 1;
        stmt_moved.clear();
        continue;
      }
      if (t[k].text == "move" && Is(t, k + 1, "(") && k + 3 < end &&
          t[k + 2].kind == TokKind::kIdent && Is(t, k + 3, ")") &&
          moved_vars.count(t[k + 2].text) > 0) {
        const std::string& v = t[k + 2].text;
        // `v = f(std::move(v))`: the assignment completes after the RHS is
        // evaluated, so the statement's net effect is a reassignment — the
        // idiomatic fold pattern (`lhs = Binary(op, std::move(lhs), rhs)`),
        // not a dangling move.
        bool self_assign = false;
        for (size_t p = stmt_begin; p + 1 < k; ++p) {
          if (t[p].kind == TokKind::kIdent && t[p].text == v &&
              Is(t, p + 1, "=") && !Is(t, p + 2, "=") &&
              (p == 0 || (t[p - 1].text != "." && t[p - 1].text != "->" &&
                          t[p - 1].text != "::"))) {
            self_assign = true;
            break;
          }
        }
        // A second move of the same var in a `?:` statement sits in the
        // other arm — the arms are exclusive, not sequential.
        bool ternary_arm = false;
        if (!self_assign && stmt_moved.count(v) > 0) {
          for (size_t p = stmt_begin; p < k; ++p) {
            if (t[p].text == "?") {
              ternary_arm = true;
              break;
            }
          }
        }
        if (self_assign) {
          events[n].push_back({Kind::kKill, v, t[k].line});
        } else if (!ternary_arm) {
          events[n].push_back({Kind::kMove, v, t[k].line});
          stmt_moved.insert(v);
        }
        k += 3;  // consume `( var )`
        continue;
      }
      if (t[k].kind != TokKind::kIdent || moved_vars.count(t[k].text) == 0) {
        continue;
      }
      const std::string prev = k > 0 ? t[k - 1].text : "";
      if (prev == "." || prev == "->" || prev == "::") continue;
      const std::string next = k + 1 < t.size() ? t[k + 1].text : "";
      // Reassignment re-establishes a value.
      if (next == "=" && !Is(t, k + 2, "=")) {
        events[n].push_back({Kind::kKill, t[k].text, t[k].line});
        continue;
      }
      // v.reset() / v.clear() / v.assign(...) / v.swap(...) do too.
      if ((next == "." || next == "->") && k + 3 < t.size() &&
          kReinit.count(t[k + 2].text) > 0 && Is(t, k + 3, "(")) {
        events[n].push_back({Kind::kKill, t[k].text, t[k].line});
        continue;
      }
      // Out-parameter: F(&v) — assume the callee re-initializes it.
      if (prev == "&" && k >= 2 &&
          (t[k - 2].text == "(" || t[k - 2].text == "," ||
           t[k - 2].text == "=")) {
        events[n].push_back({Kind::kKill, t[k].text, t[k].line});
        continue;
      }
      // Structured binding (`auto& [name, v] : ...`, `auto [a, v] = ...`)
      // introduces a fresh binding, not the moved-from object.
      if ((prev == "[" || prev == ",") && (next == "," || next == "]")) {
        size_t p = k;
        while (p > begin &&
               (t[p - 1].kind == TokKind::kIdent || t[p - 1].text == ",")) {
          --p;
        }
        if (p >= 2 && t[p - 1].text == "[" &&
            (t[p - 2].text == "auto" || t[p - 2].text == "&" ||
             t[p - 2].text == "&&")) {
          events[n].push_back({Kind::kKill, t[k].text, t[k].line});
          continue;
        }
      }
      // Fresh declaration of the same name (loop-scoped `ShardRun run;`,
      // shadowing) — a new object, not the moved-from one.
      const bool type_before =
          (k > 0 && t[k - 1].kind == TokKind::kIdent &&
           !IsCppKeyword(t[k - 1].text)) ||
          prev == "&" || prev == "*" || prev == ">";
      const bool declarator_after = next == ";" || next == "=" ||
                                    next == "{" || next == "(" ||
                                    next == ":" || next == ")" || next == ",";
      if (type_before && declarator_after) {
        events[n].push_back({Kind::kKill, t[k].text, t[k].line});
        continue;
      }
      events[n].push_back({Kind::kUse, t[k].text, t[k].line});
    }
  }

  // Forward may-analysis: var -> line of the move that tainted it.
  using State = std::map<std::string, int>;
  auto merge_into = [](const State& from, State* into) {
    for (const auto& [var, line] : from) {
      auto it = into->find(var);
      if (it == into->end()) {
        (*into)[var] = line;
      } else {
        it->second = std::min(it->second, line);
      }
    }
  };
  std::vector<std::vector<size_t>> preds = Preds(cfg);
  std::vector<State> in(cfg.nodes.size());
  std::vector<State> out_state(cfg.nodes.size());
  bool changed = true;
  size_t rounds = 0;
  while (changed && rounds++ < cfg.nodes.size() + 8) {
    changed = false;
    for (size_t n = 0; n < cfg.nodes.size(); ++n) {
      State s;
      for (size_t p : preds[n]) merge_into(out_state[p], &s);
      in[n] = s;
      for (const Ev& e : events[n]) {
        if (e.kind == Kind::kMove) {
          s[e.var] = e.line;
        } else if (e.kind == Kind::kKill) {
          s.erase(e.var);
        }
      }
      if (s != out_state[n]) {
        out_state[n] = std::move(s);
        changed = true;
      }
    }
  }

  std::set<std::pair<int, std::string>> reported;
  for (size_t n = 0; n < cfg.nodes.size(); ++n) {
    State s = in[n];
    for (const Ev& e : events[n]) {
      if (e.kind == Kind::kKill) {
        s.erase(e.var);
        continue;
      }
      auto it = s.find(e.var);
      if (it != s.end() && reported.insert({e.line, e.var}).second) {
        ctx.Report(
            "NL008", e.line,
            "'" + e.var + "' in '" + fn.display + "' is " +
                (e.kind == Kind::kMove ? "moved again" : "used") +
                " after std::move on line " + std::to_string(it->second) +
                " with no reassignment in between — a moved-from value is "
                "unspecified; reassign/reset it first");
      }
      if (e.kind == Kind::kMove) s[e.var] = e.line;
    }
  }
}

// ---------------------------------------------------------------------------
// NL006 fact collection (checked in Finish() with merged callee summaries)
// ---------------------------------------------------------------------------

detail::RespFunc BuildRespFunc(const LintOptions& options,
                               const std::string& path,
                               const std::vector<Tok>& t, const FuncDef& fn,
                               const Cfg& cfg) {
  detail::RespFunc rf;
  rf.file = path;
  rf.display = fn.display;
  for (const CfgNode& n : cfg.nodes) {
    detail::RespNode rn;
    rn.line = n.line;
    rn.succs = n.succs;
    CollectCalls(t, n.begin, n.end, &rn.calls);
    for (const std::string& c : rn.calls) {
      if (options.poll_functions.count(c) > 0) rn.direct_poll = true;
      if (options.producer_functions.count(c) > 0) rn.producer = true;
    }
    rf.nodes.push_back(std::move(rn));
  }
  for (const CfgLoop& l : cfg.loops) {
    rf.loops.push_back({l.head, l.first, l.last, l.back_srcs, l.always_true,
                        l.range_for, l.line});
  }
  return rf;
}

}  // namespace
// ---------------------------------------------------------------------------
// FileAnalysis — opaque result of the pure per-file phase
// ---------------------------------------------------------------------------

struct FileAnalysis::Impl {
  std::string path;
  detail::FileData data;
  detail::UsageTracker usage;
  std::vector<Finding> findings;
  std::vector<detail::DirectiveSite> directives;
  std::vector<detail::PendingInit> pending_inits;
  std::map<std::string, std::set<std::string>> init_sites;
  std::map<std::string, bool> fn_polls;  ///< one-level callee summaries
  std::vector<detail::RespFunc> responsive;
};

FileAnalysis::FileAnalysis() : impl_(new Impl) {}
FileAnalysis::~FileAnalysis() { delete impl_; }

// ---------------------------------------------------------------------------
// Linter
// ---------------------------------------------------------------------------

struct Linter::Impl {
  LintOptions options;
  std::vector<Finding> findings;
  bool finished = false;

  std::map<std::string, detail::FileData> files;
  std::map<std::string, detail::UsageTracker> usage;
  std::map<std::string, std::vector<detail::DirectiveSite>> directives;
  std::vector<detail::PendingInit> pending_inits;
  /// member name -> file stems where an initializer site was seen.
  std::map<std::string, std::set<std::string>> init_sites;
  /// unqualified function name -> body calls a poll function directly, in
  /// any TU (merged with logical or).
  std::map<std::string, bool> fn_polls;
  std::vector<detail::RespFunc> responsive;

  void Report(const std::string& rule_id, const std::string& file, int line,
              std::string message) {
    if (!RuleEnabledIn(options, rule_id)) return;
    Finding f;
    f.rule = rule_id;
    f.rule_name = RuleName(rule_id);
    f.file = file;
    f.line = line;
    f.message = std::move(message);
    auto it = files.find(file);
    const detail::FileData* fd = it != files.end() ? &it->second : nullptr;
    ResolveSuppressionFor(options, fd, &f, &usage[file]);
    findings.push_back(std::move(f));
  }

  // NL006 — cancellation-responsiveness, with the merged callee summaries.
  void CheckResponsiveness() {
    auto node_polls = [this](const detail::RespNode& n) {
      if (n.direct_poll) return true;
      for (const std::string& c : n.calls) {
        auto it = fn_polls.find(c);
        if (it != fn_polls.end() && it->second) return true;
      }
      return false;
    };
    for (const detail::RespFunc& rf : responsive) {
      for (const detail::RespLoop& loop : rf.loops) {
        // A loop must stay responsive when it can iterate unboundedly:
        // constant-true condition, or it is the innermost loop around a
        // streaming-producer call (it runs for as long as the producer
        // keeps producing, whatever its own condition looks like).
        bool constant_true = loop.always_true && !loop.range_for;
        bool around_producer = false;
        if (!constant_true) {
          for (size_t idx = loop.first;
               idx <= loop.last && idx < rf.nodes.size(); ++idx) {
            if (!rf.nodes[idx].producer) continue;
            const detail::RespLoop* inner = nullptr;
            for (const detail::RespLoop& l2 : rf.loops) {
              if (l2.first <= idx && idx <= l2.last &&
                  (inner == nullptr || l2.first > inner->first)) {
                inner = &l2;
              }
            }
            if (inner == &loop) {
              around_producer = true;
              break;
            }
          }
        }
        if (!constant_true && !around_producer) continue;
        if (loop.head < rf.nodes.size() && node_polls(rf.nodes[loop.head])) {
          continue;
        }
        // DFS from the head's in-loop successors through non-polling
        // nodes; reaching a back-edge source means one full iteration can
        // complete without a poll.
        std::set<size_t> back(loop.back_srcs.begin(), loop.back_srcs.end());
        std::vector<size_t> stack;
        std::set<size_t> visited;
        for (size_t s : rf.nodes[loop.head].succs) {
          if (s >= loop.first && s <= loop.last) stack.push_back(s);
        }
        bool bad = false;
        while (!stack.empty()) {
          size_t n = stack.back();
          stack.pop_back();
          if (!visited.insert(n).second) continue;
          if (node_polls(rf.nodes[n])) continue;
          if (back.count(n) > 0) {
            bad = true;
            break;
          }
          for (size_t s : rf.nodes[n].succs) {
            if (s >= loop.first && s <= loop.last) stack.push_back(s);
          }
        }
        if (!bad) continue;
        Report("NL006", rf.file, loop.line,
               "loop in '" + rf.display + "' can iterate unboundedly (" +
                   (constant_true ? "constant-true condition"
                                  : "innermost loop around a streaming "
                                    "producer call") +
                   ") and has a path from one iteration to the next that "
                   "never reaches a deadline/cancel poll — call PollCancel()"
                   " / ExecutionContext::Check() at the top of the loop");
      }
    }
  }

  // NL009 — stale suppressions. Runs last: every other rule (including the
  // Finish()-stage ones) has already recorded which suppressions fired.
  // Only meaningful on a full-rule run with suppressions honored; a
  // --rule/--no-suppressions invocation leaves most suppressions unused by
  // construction.
  void CheckStaleSuppressions() {
    if (!options.honor_suppressions || !options.enabled_rules.empty()) return;
    std::set<size_t> used_list;
    for (const auto& [path, u] : usage) {
      (void)path;
      used_list.insert(u.used_list.begin(), u.used_list.end());
    }
    for (size_t e = 0; e < options.suppressions.size(); ++e) {
      if (used_list.count(e) > 0) continue;
      const SuppressionEntry& entry = options.suppressions[e];
      // Entries whose path never entered this scan can't be judged (the
      // test harness and --rule runs feed partial file sets).
      bool matches_scanned = false;
      for (const auto& [path, fd] : files) {
        (void)fd;
        if (Contains(path, entry.path_substr)) {
          matches_scanned = true;
          break;
        }
      }
      if (!matches_scanned) continue;
      Report("NL009", options.suppressions_path, entry.line,
             "suppression-list entry '" + entry.rule + " " +
                 entry.path_substr +
                 "' no longer suppresses any finding — remove the stale "
                 "entry");
    }
    for (const auto& [path, sites] : directives) {
      auto uit = usage.find(path);
      const detail::UsageTracker* u =
          uit != usage.end() ? &uit->second : nullptr;
      for (const detail::DirectiveSite& d : sites) {
        bool used = false;
        if (u != nullptr) {
          used = d.file_scope ? u->file_rules.count(d.rule) > 0
                              : u->inline_uses.count({d.line, d.rule}) > 0;
        }
        if (used) continue;
        Report("NL009", path, d.line,
               std::string(d.file_scope ? "file-scope" : "inline") +
                   " suppression for " + d.rule + " (" + RuleName(d.rule) +
                   ") no longer suppresses any finding — remove the stale "
                   "directive");
      }
    }
  }
};

Linter::Linter(LintOptions options) : impl_(new Impl) {
  impl_->options = std::move(options);
}

Linter::~Linter() { delete impl_; }

std::unique_ptr<FileAnalysis> Linter::Analyze(const std::string& path,
                                              const std::string& content)
    const {
  std::unique_ptr<FileAnalysis> fa(new FileAnalysis);
  FileAnalysis::Impl* a = fa->impl_;
  a->path = path;
  LexedFile lexed = Lex(content);
  a->data.comments = lexed.comments;
  a->data.lines = std::move(lexed.lines);
  CollectDirectives(&a->data, &a->directives);
  const LintOptions& options = impl_->options;
  FileCtx ctx{&options, &a->path, &a->data, &a->usage, &a->findings};
  const std::vector<Tok>& t = lexed.toks;
  CheckRawSync(ctx, t);
  CheckMutexRank(ctx, t, &a->pending_inits, &a->init_sites);
  CheckBlockingUnderLock(ctx, t);
  CheckGuardedMembers(ctx, t);
  CheckFrozenMutation(ctx, t);
  // Function-level CFG + dataflow rules, and the cross-file facts.
  for (const FuncDef& fn : FindFunctions(t)) {
    if (fn.body_close >= t.size() || fn.body_close <= fn.body_open) continue;
    Cfg cfg = CfgBuilder(t).Build(fn.body_open + 1, fn.body_close);
    CheckStatusPaths(ctx, t, fn, cfg);
    CheckUseAfterMove(ctx, t, fn, cfg);
    std::vector<std::string> calls;
    CollectCalls(t, fn.body_open + 1, fn.body_close, &calls);
    bool polls = false;
    for (const std::string& c : calls) {
      if (options.poll_functions.count(c) > 0) polls = true;
    }
    auto [pit, inserted] = a->fn_polls.emplace(fn.name, polls);
    if (!inserted) pit->second = pit->second || polls;
    if (options.responsive_functions.count(fn.name) > 0) {
      a->responsive.push_back(BuildRespFunc(options, path, t, fn, cfg));
    }
  }
  return fa;
}

void Linter::Merge(std::unique_ptr<FileAnalysis> analysis) {
  FileAnalysis::Impl* a = analysis->impl_;
  impl_->files[a->path] = std::move(a->data);
  detail::UsageTracker& u = impl_->usage[a->path];
  u.used_list.insert(a->usage.used_list.begin(), a->usage.used_list.end());
  u.inline_uses.insert(a->usage.inline_uses.begin(),
                       a->usage.inline_uses.end());
  u.file_rules.insert(a->usage.file_rules.begin(), a->usage.file_rules.end());
  impl_->directives[a->path] = std::move(a->directives);
  for (Finding& f : a->findings) {
    impl_->findings.push_back(std::move(f));
  }
  for (detail::PendingInit& p : a->pending_inits) {
    impl_->pending_inits.push_back(std::move(p));
  }
  for (auto& [member, stems] : a->init_sites) {
    impl_->init_sites[member].insert(stems.begin(), stems.end());
  }
  for (const auto& [name, polls] : a->fn_polls) {
    auto [pit, inserted] = impl_->fn_polls.emplace(name, polls);
    if (!inserted) pit->second = pit->second || polls;
  }
  for (detail::RespFunc& rf : a->responsive) {
    impl_->responsive.push_back(std::move(rf));
  }
}

void Linter::AddFile(const std::string& path, const std::string& content) {
  Merge(Analyze(path, content));
}

void Linter::Finish() {
  if (impl_->finished) return;
  impl_->finished = true;
  // NL002: member declarations that never met a constructor-initializer.
  for (const detail::PendingInit& p : impl_->pending_inits) {
    auto it = impl_->init_sites.find(p.member);
    bool resolved = false;
    if (it != impl_->init_sites.end()) {
      resolved = it->second.count(FileStem(p.file)) > 0;
    }
    if (!resolved) {
      impl_->Report("NL002", p.file, p.line,
                    p.type + " member '" + p.member +
                        "' declared without a LockRank initializer and no "
                        "constructor initializes it with one");
    }
  }
  // Rank doc-sync: every registered rank needs its DESIGN.md §2e row.
  if (!impl_->options.documented_ranks.empty()) {
    for (const std::string& rank : impl_->options.known_ranks) {
      if (impl_->options.documented_ranks.count(rank) == 0) {
        impl_->Report("NL002", impl_->options.lock_rank_path, 1,
                      "LockRank::" + rank +
                          " has no row in the DESIGN.md section 2e rank "
                          "table — document where it sits and why");
      }
    }
  }
  impl_->CheckResponsiveness();
  impl_->CheckStaleSuppressions();  // last: needs every usage recorded
  std::stable_sort(impl_->findings.begin(), impl_->findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
}

const std::vector<Finding>& Linter::findings() const {
  return impl_->findings;
}

int Linter::unsuppressed_count() const {
  int count = 0;
  for (const Finding& f : impl_->findings) {
    if (!f.suppressed) ++count;
  }
  return count;
}

std::string DescribeCfgForTest(const std::string& source,
                               const std::string& function_name) {
  LexedFile lexed = Lex(source);
  const std::vector<Tok>& t = lexed.toks;
  for (const FuncDef& fn : FindFunctions(t)) {
    if (fn.name != function_name) continue;
    if (fn.body_close >= t.size()) break;
    Cfg cfg = CfgBuilder(t).Build(fn.body_open + 1, fn.body_close);
    std::ostringstream out;
    for (size_t n = 0; n < cfg.nodes.size(); ++n) {
      const CfgNode& node = cfg.nodes[n];
      out << n << " " << node.kind << " line=" << node.line << " ->";
      for (size_t s = 0; s < node.succs.size(); ++s) {
        out << (s == 0 ? " " : ",") << node.succs[s];
      }
      out << "\n";
    }
    for (const CfgLoop& l : cfg.loops) {
      out << "loop head=" << l.head << " back=";
      for (size_t s = 0; s < l.back_srcs.size(); ++s) {
        if (s != 0) out << ",";
        out << l.back_srcs[s];
      }
      out << " true=" << (l.always_true ? 1 : 0)
          << " range_for=" << (l.range_for ? 1 : 0) << "\n";
    }
    return out.str();
  }
  return "";
}

}  // namespace nimble_lint
