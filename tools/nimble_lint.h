#ifndef NIMBLE_TOOLS_NIMBLE_LINT_H_
#define NIMBLE_TOOLS_NIMBLE_LINT_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

/// nimble-lint — project-specific static analysis for the Nimble tree
/// (DESIGN.md §2j). Enforces the concurrency, status and immutability
/// contracts that -Wthread-safety and the lock-rank runtime checker cannot
/// see on their own:
///
///   NL001 raw-sync             no raw std:: synchronisation primitives
///                              outside src/common/mutex.h — everything
///                              goes through the annotated Mutex layer.
///   NL002 mutex-rank           every Mutex/SharedMutex is constructed
///                              with a LockRank from the lock_rank.h
///                              registry (no ad-hoc static_cast ranks,
///                              no unregistered names), and every
///                              registered rank has its DESIGN.md §2e row.
///   NL003 blocking-under-lock  no blocking call (CondVar waits on a
///                              *different* mutex, Engine::ExecuteText,
///                              handle Wait, sleep_for, pool submits) in
///                              a scope holding a mutex via a RAII guard
///                              or NIMBLE_REQUIRES.
///   NL004 guarded-member       mutable members of a class that owns a
///                              Mutex are NIMBLE_GUARDED_BY, atomic,
///                              const, or carry an explicit
///                              `// nimble-lint: unguarded(<reason>)`.
///   NL005 frozen-mutation      no mutation of nodes obtained from
///                              Freeze() or FetchCollection() (fetched
///                              trees are frozen snapshots, whether held
///                              as a Result or unwrapped by
///                              NIMBLE_ASSIGN_OR_RETURN), and no
///                              const_pointer_cast / const_cast that
///                              strips a frozen snapshot's constness,
///                              without Clone().
///   NL006 cancellation-responsiveness
///                              every loop in a responsiveness-checked
///                              function (Operator::DoOpen/DoNextBatch,
///                              Drain, ExecuteScattered) that can iterate
///                              unboundedly — constant-true condition, or
///                              the innermost loop around a streaming
///                              producer call (NextBatch/Wait/WaitFor) —
///                              must reach a deadline/cancel poll
///                              (PollCancel, ExecutionContext::Check, or
///                              a one-level callee that polls) on *every*
///                              path from the loop body to the back edge.
///   NL007 status-path          a Status/Result local that is constructed
///                              or assigned but never consulted on any
///                              path before it is overwritten or goes out
///                              of scope is a dropped error; a
///                              Status-returning function whose CFG can
///                              fall off the end without returning is the
///                              same bug in another coat.
///   NL008 use-after-move       a variable read on any path after
///                              std::move()d away, before reassignment /
///                              reset()/clear()/assign() re-establishes a
///                              value (catches moved-from TupleBatch and
///                              column reuse, including loop-carried
///                              moves a lexical scan cannot see).
///   NL009 stale-suppression    suppression-list entries and inline /
///                              file directives that no longer suppress
///                              any finding fail the gate, so the
///                              suppression surface cannot rot.
///
/// NL001–NL005 are lexical/scope-based token passes. NL006–NL008 run on a
/// per-function control-flow graph (branches, loops, early returns) built
/// over the same token stream, with a forward fixpoint dataflow framework
/// and one-level callee summaries merged across translation units. The
/// analysis stays a self-contained C++ lexer + structural parser (no
/// LibTooling dependency — the tool must build and gate CI with nothing
/// but the project toolchain). The driver (nimble_lint.cc) discovers the
/// file set from the compile_commands.json every build exports and fans
/// the per-file phase out over common/thread_pool (--jobs N).
namespace nimble_lint {

/// One diagnostic. `suppressed` findings are reported but do not fail the
/// run; the gate is unsuppressed findings == 0.
struct Finding {
  std::string rule;       ///< "NL001".."NL009"
  std::string rule_name;  ///< "raw-sync", ...
  std::string file;
  int line = 0;
  std::string message;
  bool suppressed = false;
  std::string suppress_reason;  ///< how it was suppressed (for the report)
};

/// One row of the checked-in suppression list
/// (tools/nimble_lint_suppressions.txt):
///   <rule-id-or-name> <path-substring> <line-substring-or-*>
struct SuppressionEntry {
  std::string rule;         ///< id ("NL001") or name ("raw-sync")
  std::string path_substr;  ///< finding suppressed when file contains this
  std::string line_substr;  ///< and the source line contains this ("*"=any)
  int line = 0;             ///< 1-based line in the list file (for NL009)
};

struct LintOptions {
  /// LockRank enumerators parsed from common/lock_rank.h ("kThreadPool"...).
  std::set<std::string> known_ranks;
  /// Ranks with a DESIGN.md §2e table row. When non-empty, every known
  /// rank must appear here (keeps the doc table in sync with the enum).
  std::set<std::string> documented_ranks;
  /// Path (for diagnostics) of the registry header, used as the location
  /// of doc-sync findings.
  std::string lock_rank_path = "src/common/lock_rank.h";
  std::vector<SuppressionEntry> suppressions;
  /// Path (for diagnostics) of the suppression list, used as the location
  /// of NL009 stale-entry findings.
  std::string suppressions_path = "tools/nimble_lint_suppressions.txt";
  /// false = report every finding as unsuppressed, ignoring inline and
  /// file directives too (the driver's --no-suppressions audit mode).
  bool honor_suppressions = true;
  /// Empty = all rules; otherwise rule ids ("NL002") or names.
  std::set<std::string> enabled_rules;
  /// NL006: unqualified function names whose loops must stay responsive.
  std::set<std::string> responsive_functions = {"DoOpen", "DoNextBatch",
                                                "Drain", "ExecuteScattered"};
  /// NL006: call names that count as a deadline/cancel poll on their own
  /// (the one-level callee summaries extend this set with any function
  /// whose body calls one of these directly).
  std::set<std::string> poll_functions = {"PollCancel", "Check",
                                          "CheckCancelled"};
  /// NL006: streaming/blocking producer calls — the innermost loop around
  /// one can iterate for as long as the producer keeps producing, so it
  /// must poll even when its condition is bounded-looking.
  std::set<std::string> producer_functions = {"NextBatch", "Wait", "WaitFor"};
};

/// Returns the rule id for an id-or-name string ("raw-sync" -> "NL001"),
/// or "" if unknown. Inline-directive aliases ("unguarded", "blocking",
/// "frozen", "responsive", "status", "moved", "stale") resolve too.
std::string ResolveRule(const std::string& id_or_name);

/// Parses `enum class LockRank { ... }` out of lock_rank.h content.
std::set<std::string> ParseLockRankRegistry(const std::string& content);

/// Parses `| <rank> | \`kName\` | ...` table rows out of DESIGN.md content.
std::set<std::string> ParseDocumentedRanks(const std::string& content);

/// Parses the suppression list format (# comments, blank lines ignored).
std::vector<SuppressionEntry> ParseSuppressionList(const std::string& content);

/// Opaque result of the per-file analysis phase. Produced by
/// Linter::Analyze (pure, thread-safe) and consumed by Linter::Merge.
class FileAnalysis {
 public:
  ~FileAnalysis();
  FileAnalysis(const FileAnalysis&) = delete;
  FileAnalysis& operator=(const FileAnalysis&) = delete;

 private:
  friend class Linter;
  FileAnalysis();
  struct Impl;
  Impl* impl_;
};

/// The analysis engine. Feed every file (AddFile, or Analyze + Merge for
/// the parallel driver), then call Finish() for the cross-file passes:
/// constructor-initializer resolution for NL002, the rank doc-sync check,
/// NL006 with the merged callee summaries, and NL009 staleness.
/// findings() is stable-ordered by (file, line, rule).
class Linter {
 public:
  explicit Linter(LintOptions options);
  ~Linter();

  Linter(const Linter&) = delete;
  Linter& operator=(const Linter&) = delete;

  /// Pure per-file phase: lexing, CFG construction, the per-file rules
  /// (NL001–NL005, NL007, NL008) with local suppression resolution.
  /// Thread-safe — does not touch Linter state beyond reading the
  /// immutable options, so the driver calls it from a thread pool.
  std::unique_ptr<FileAnalysis> Analyze(const std::string& path,
                                        const std::string& content) const;

  /// Folds one Analyze result into the cross-file state. NOT thread-safe;
  /// call from one thread, in sorted path order for deterministic output.
  void Merge(std::unique_ptr<FileAnalysis> analysis);

  /// Analyze + Merge in one step (the serial convenience path; `path`
  /// should be repo-relative — exemptions and suppression-list paths
  /// match on substrings of it).
  void AddFile(const std::string& path, const std::string& content);

  /// Runs the cross-file passes and sorts findings. Call exactly once,
  /// after the last AddFile/Merge.
  void Finish();

  const std::vector<Finding>& findings() const;
  int unsuppressed_count() const;

 private:
  struct Impl;
  Impl* impl_;
};

/// Test hook: lexes `source`, finds the function named `function_name`
/// (unqualified), builds its CFG and renders it as one line per node:
///   `<idx> <kind> line=<L> -> <succ,...>` followed by one
///   `loop head=<n> back=<n,...> true=<0|1> range_for=<0|1>` per loop.
/// Returns "" when the function is not found.
std::string DescribeCfgForTest(const std::string& source,
                               const std::string& function_name);

}  // namespace nimble_lint

#endif  // NIMBLE_TOOLS_NIMBLE_LINT_H_
