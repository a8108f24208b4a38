// Fixture tests for nimble-lint (DESIGN.md §2j): every rule gets a
// positive fixture (the violation fires, with the exact rule id) and a
// negative fixture (the compliant idiom stays clean), plus round-trips for
// all three suppression mechanisms. The fixtures are the executable
// specification of the rule surface — when a rule's matcher changes, the
// exact-id assertions here are what notices.

#include "tools/nimble_lint.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace nimble_lint {
namespace {

LintOptions DefaultOptions() {
  LintOptions options;
  options.known_ranks = {"kScheduler", "kThreadPool", "kPlanCache"};
  // Leave documented_ranks empty: the doc-sync check is opt-in and tested
  // explicitly below.
  return options;
}

std::vector<Finding> Analyze(const std::string& path, const std::string& src,
                         LintOptions options = DefaultOptions()) {
  Linter linter(std::move(options));
  linter.AddFile(path, src);
  linter.Finish();
  return linter.findings();
}

/// Unsuppressed findings with the given rule id.
int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(), [&](const Finding& f) {
        return f.rule == rule && !f.suppressed;
      }));
}

int CountUnsuppressed(const std::vector<Finding>& findings) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [](const Finding& f) { return !f.suppressed; }));
}

// ---------------------------------------------------------------------------
// NL001 raw-sync
// ---------------------------------------------------------------------------

TEST(LintNL001, RawMutexOutsideMutexHeaderFires) {
  const std::string src = R"cc(
    #include <mutex>
    struct Worker {
      std::mutex mu_;
      void Tick() { std::lock_guard<std::mutex> lock(mu_); }
    };
  )cc";
  std::vector<Finding> findings = Analyze("src/foo/worker.h", src);
  EXPECT_GE(CountRule(findings, "NL001"), 2);  // member + guard
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].rule_name, "raw-sync");
}

TEST(LintNL001, SharedMutexAndUniqueLockFireToo) {
  const std::string src = R"cc(
    std::shared_mutex rw_;
    void F() { std::unique_lock<std::shared_mutex> l(rw_); }
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/a.cc", src), "NL001"), 3);
}

TEST(LintNL001, AnnotatedMutexLayerIsClean) {
  const std::string src = R"cc(
    struct Worker {
      mutable Mutex mu_{LockRank::kScheduler, "worker.mu"};
      int x_ NIMBLE_GUARDED_BY(mu_) = 0;
      void Tick() { MutexLock lock(mu_); ++x_; }
    };
  )cc";
  EXPECT_EQ(CountUnsuppressed(Analyze("src/foo/worker.h", src)), 0);
}

TEST(LintNL001, MutexHeaderItselfIsExempt) {
  const std::string src = R"cc(
    class Mutex { std::mutex raw_; };
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/common/mutex.h", src), "NL001"), 0);
}

// ---------------------------------------------------------------------------
// NL002 mutex-rank
// ---------------------------------------------------------------------------

TEST(LintNL002, UnregisteredRankFires) {
  const std::string src = R"cc(
    struct S {
      Mutex mu_{LockRank::kMadeUpRank, "s.mu"};
    };
  )cc";
  std::vector<Finding> findings = Analyze("src/foo/s.h", src);
  ASSERT_EQ(CountRule(findings, "NL002"), 1);
  EXPECT_NE(findings[0].message.find("kMadeUpRank"), std::string::npos);
}

TEST(LintNL002, AdHocStaticCastRankFires) {
  const std::string src = R"cc(
    Mutex mu_{static_cast<LockRank>(123), "adhoc"};
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/s.h", src), "NL002"), 1);
}

TEST(LintNL002, MissingRankFires) {
  const std::string src = R"cc(
    struct S { Mutex mu_; };
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/s.h", src), "NL002"), 1);
}

TEST(LintNL002, RegisteredRankIsClean) {
  const std::string src = R"cc(
    struct S {
      mutable SharedMutex mu_{LockRank::kPlanCache, "s.mu"};
    };
  )cc";
  EXPECT_EQ(CountUnsuppressed(Analyze("src/foo/s.h", src)), 0);
}

TEST(LintNL002, CtorInitListResolvesAcrossFiles) {
  // Declaration without an initializer in the header, rank supplied by the
  // constructor's init-list in the matching .cc — no finding.
  LintOptions options = DefaultOptions();
  Linter linter(std::move(options));
  linter.AddFile("src/foo/s.h", R"cc(
    struct S { S(); Mutex mu_; };
  )cc");
  linter.AddFile("src/foo/s.cc", R"cc(
    S::S() : mu_(LockRank::kScheduler, "s.mu") {}
  )cc");
  linter.Finish();
  EXPECT_EQ(CountUnsuppressed(linter.findings()), 0);
}

TEST(LintNL002, DocSyncFiresForUndocumentedRank) {
  LintOptions options = DefaultOptions();
  options.documented_ranks = {"kScheduler", "kThreadPool"};  // kPlanCache missing
  std::vector<Finding> findings = Analyze("src/foo/empty.cc", "int x;", options);
  ASSERT_EQ(CountRule(findings, "NL002"), 1);
  EXPECT_NE(findings[0].message.find("kPlanCache"), std::string::npos);
  EXPECT_EQ(findings[0].file, "src/common/lock_rank.h");
}

TEST(LintNL002, ParseLockRankRegistry) {
  const std::string header = R"cc(
    enum class LockRank : int {
      kLoadBalancer = 100,
      kThreadPool = 1200,
    };
  )cc";
  std::set<std::string> ranks = ParseLockRankRegistry(header);
  EXPECT_EQ(ranks.size(), 2u);
  EXPECT_TRUE(ranks.count("kLoadBalancer"));
  EXPECT_TRUE(ranks.count("kThreadPool"));
}

TEST(LintNL002, ParseDocumentedRanksOnlyCountsTableRows) {
  const std::string design =
      "Prose mentioning `kThreadPool` does not count.\n"
      "| 100 | `kLoadBalancer` | dispatch |\n";
  std::set<std::string> ranks = ParseDocumentedRanks(design);
  EXPECT_EQ(ranks.size(), 1u);
  EXPECT_TRUE(ranks.count("kLoadBalancer"));
}

// ---------------------------------------------------------------------------
// NL003 blocking-under-lock
// ---------------------------------------------------------------------------

TEST(LintNL003, BlockingCallUnderGuardFires) {
  const std::string src = R"cc(
    void F(Mutex& mu, Engine* engine) {
      MutexLock lock(mu);
      engine->ExecuteText("query");
    }
  )cc";
  std::vector<Finding> findings = Analyze("src/foo/f.cc", src);
  ASSERT_EQ(CountRule(findings, "NL003"), 1);
  EXPECT_EQ(findings[0].rule_name, "blocking-under-lock");
}

TEST(LintNL003, SleepAndPoolSubmitUnderGuardFire) {
  const std::string src = R"cc(
    void F(Mutex& mu, ThreadPool* pool) {
      MutexLock lock(mu);
      std::this_thread::sleep_for(std::chrono::seconds(1));
      pool->Submit([] {});
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/f.cc", src), "NL003"), 2);
}

TEST(LintNL003, BlockingAfterScopeExitIsClean) {
  const std::string src = R"cc(
    void F(Mutex& mu, Engine* engine) {
      { MutexLock lock(mu); }
      engine->ExecuteText("query");
    }
  )cc";
  EXPECT_EQ(CountUnsuppressed(Analyze("src/foo/f.cc", src)), 0);
}

TEST(LintNL003, CondVarWaitOnOwnGuardMutexIsExempt) {
  const std::string src = R"cc(
    void F(Mutex& mu, CondVar& cv) {
      MutexLock lock(mu);
      cv.Wait(mu);
    }
  )cc";
  EXPECT_EQ(CountUnsuppressed(Analyze("src/foo/f.cc", src)), 0);
}

TEST(LintNL003, CondVarWaitWithSecondLockHeldFires) {
  const std::string src = R"cc(
    void F(Mutex& a, Mutex& b, CondVar& cv) {
      MutexLock outer(a);
      MutexLock inner(b);
      cv.Wait(b);
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/f.cc", src), "NL003"), 1);
}

TEST(LintNL003, RequiresAnnotationCountsAsHeld) {
  const std::string src = R"cc(
    void F(Engine* engine) NIMBLE_REQUIRES(mu_) {
      engine->ExecuteText("query");
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/f.cc", src), "NL003"), 1);
}

// ---------------------------------------------------------------------------
// NL004 guarded-member
// ---------------------------------------------------------------------------

TEST(LintNL004, UnguardedMutableMemberFires) {
  const std::string src = R"cc(
    class Cache {
     public:
      void Tick();
     private:
      mutable Mutex mu_{LockRank::kPlanCache, "cache.mu"};
      int hits_ = 0;
    };
  )cc";
  std::vector<Finding> findings = Analyze("src/foo/cache.h", src);
  ASSERT_EQ(CountRule(findings, "NL004"), 1);
  EXPECT_EQ(findings[0].rule_name, "guarded-member");
  EXPECT_NE(findings[0].message.find("hits_"), std::string::npos);
}

TEST(LintNL004, GuardedAtomicAndConstMembersAreClean) {
  const std::string src = R"cc(
    class Cache {
      mutable Mutex mu_{LockRank::kPlanCache, "cache.mu"};
      int hits_ NIMBLE_GUARDED_BY(mu_) = 0;
      std::atomic<int> lookups_{0};
      const size_t max_entries_;
      Clock* const clock_;
      Engine& engine_;
      CondVar cv_;
    };
  )cc";
  EXPECT_EQ(CountUnsuppressed(Analyze("src/foo/cache.h", src)), 0);
}

TEST(LintNL004, ClassWithoutOwnMutexIsOutOfScope) {
  const std::string src = R"cc(
    class Plain {
      int hits_ = 0;
      Mutex* someone_elses_;
    };
  )cc";
  EXPECT_EQ(CountUnsuppressed(Analyze("src/foo/plain.h", src)), 0);
}

// ---------------------------------------------------------------------------
// NL005 frozen-mutation
// ---------------------------------------------------------------------------

TEST(LintNL005, MutatingFrozenSnapshotFires) {
  const std::string src = R"cc(
    void F(NodePtr doc) {
      ConstNodePtr snap = doc->Freeze();
      auto alias = std::const_pointer_cast<Node>(snap);
      alias->AddChild(Node::Element("x"));
    }
  )cc";
  std::vector<Finding> findings = Analyze("src/foo/f.cc", src);
  // The const_pointer_cast itself + the mutation through the tainted alias.
  EXPECT_EQ(CountRule(findings, "NL005"), 2);
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].rule_name, "frozen-mutation");
}

TEST(LintNL005, CloneBeforeMutationIsClean) {
  const std::string src = R"cc(
    void F(NodePtr doc) {
      ConstNodePtr snap = doc->Freeze();
      NodePtr copy = snap->Clone();
      copy->AddChild(Node::Element("x"));
    }
  )cc";
  EXPECT_EQ(CountUnsuppressed(Analyze("src/foo/f.cc", src)), 0);
}

TEST(LintNL005, TaintDoesNotEscapeItsScope) {
  const std::string src = R"cc(
    void F(NodePtr doc, NodePtr other) {
      { ConstNodePtr snap = doc->Freeze(); }
      NodePtr snap = other;
      snap->AddChild(Node::Element("x"));
    }
  )cc";
  EXPECT_EQ(CountUnsuppressed(Analyze("src/foo/f.cc", src)), 0);
}

// Fetched trees are frozen snapshots (connector.h), whether held as a
// Result or unwrapped by NIMBLE_ASSIGN_OR_RETURN.
TEST(LintNL005, MutatingFetchedTreeFires) {
  const std::string src = R"cc(
    Status F(connector::Connector* source) {
      Result<NodePtr> r = source->FetchCollection("c");
      if (!r.ok()) return r.status();
      (*r)->AddChild(Node::Element("x"));
      NIMBLE_ASSIGN_OR_RETURN(NodePtr tree, source->FetchCollection("c"));
      tree->SetAttribute("k", Value::Int(1));
      return Status::OK();
    }
  )cc";
  std::vector<Finding> findings = Analyze("src/foo/f.cc", src);
  EXPECT_EQ(CountRule(findings, "NL005"), 2);
}

TEST(LintNL005, CloneOfFetchedTreeIsClean) {
  const std::string src = R"cc(
    Status F(connector::Connector* source) {
      Result<NodePtr> r = source->FetchCollection("c");
      if (!r.ok()) return r.status();
      NodePtr copy = (*r)->Clone();
      copy->AddChild(Node::Element("x"));
      NIMBLE_ASSIGN_OR_RETURN(NodePtr tree, source->FetchCollection("c"));
      tree = tree->Clone();
      tree->AddChild(Node::Element("y"));
      NIMBLE_ASSIGN_OR_RETURN(NodePtr built, BuildTree());
      built->AddChild(Node::Element("z"));
      return Status::OK();
    }
  )cc";
  EXPECT_EQ(CountUnsuppressed(Analyze("src/foo/f.cc", src)), 0);
}

// ---------------------------------------------------------------------------
// Suppression mechanisms
// ---------------------------------------------------------------------------

TEST(LintSuppression, InlineSameLineAndLineAbove) {
  const std::string src = R"cc(
    std::mutex a_;  // nimble-lint: raw-sync(measurement helper)
    // nimble-lint: raw-sync(measurement helper)
    std::mutex b_;
    std::mutex c_;
  )cc";
  std::vector<Finding> findings = Analyze("src/foo/s.h", src);
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_TRUE(findings[0].suppressed);
  EXPECT_NE(findings[0].suppress_reason.find("measurement helper"),
            std::string::npos);
  EXPECT_TRUE(findings[1].suppressed);
  EXPECT_FALSE(findings[2].suppressed);  // no directive reaches c_
}

TEST(LintSuppression, InlineAliasOnlySuppressesItsRule) {
  // An unguarded() directive must not silence an NL001 finding — and since
  // it then suppresses nothing at all, NL009 flags it as stale.
  const std::string src = R"cc(
    std::mutex a_;  // nimble-lint: unguarded(wrong alias)
  )cc";
  std::vector<Finding> findings = Analyze("src/foo/s.h", src);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(CountRule(findings, "NL001"), 1);
  EXPECT_FALSE(findings[0].suppressed);
  EXPECT_EQ(CountRule(findings, "NL009"), 1);
}

TEST(LintSuppression, FileLevelDirective) {
  const std::string src = R"cc(
    // nimble-lint: file raw-sync(whole file exercises raw primitives)
    std::mutex a_;
    std::mutex b_;
  )cc";
  std::vector<Finding> findings = Analyze("src/foo/s.h", src);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_TRUE(findings[0].suppressed);
  EXPECT_TRUE(findings[1].suppressed);
}

TEST(LintSuppression, CheckedInListRoundTrip) {
  const std::string list =
      "# comment\n"
      "\n"
      "NL001 tests/helper *\n"
      "raw-sync tests/other lock_guard\n";
  std::vector<SuppressionEntry> entries = ParseSuppressionList(list);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].rule, "NL001");
  EXPECT_EQ(entries[0].path_substr, "tests/helper");
  EXPECT_EQ(entries[0].line_substr, "*");

  LintOptions options = DefaultOptions();
  options.suppressions = entries;
  std::vector<Finding> findings =
      Analyze("tests/helper_util.h", "std::mutex mu_;\n", options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].suppressed);

  // Same content in a path the list does not cover stays fatal.
  findings = Analyze("src/foo/s.h", "std::mutex mu_;\n", DefaultOptions());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_FALSE(findings[0].suppressed);
}

TEST(LintSuppression, UnsuppressedCountDrivesTheGate) {
  LintOptions options = DefaultOptions();
  Linter linter(std::move(options));
  linter.AddFile("src/foo/s.h",
                 "std::mutex a_;  // nimble-lint: raw-sync(ok)\n"
                 "std::mutex b_;\n");
  linter.Finish();
  EXPECT_EQ(linter.unsuppressed_count(), 1);
  EXPECT_EQ(linter.findings().size(), 2u);
}

TEST(LintSuppression, AuditModeIgnoresEveryMechanism) {
  // honor_suppressions=false (the driver's --no-suppressions): inline,
  // file-level and list suppressions are all ignored.
  LintOptions options = DefaultOptions();
  options.honor_suppressions = false;
  options.suppressions = {{"NL001", "src/foo", "*"}};
  const std::string src = R"cc(
    // nimble-lint: file raw-sync(whole file)
    std::mutex a_;  // nimble-lint: raw-sync(inline)
  )cc";
  std::vector<Finding> findings = Analyze("src/foo/s.h", src, options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_FALSE(findings[0].suppressed);
}

// ---------------------------------------------------------------------------
// Rule selection / resolution
// ---------------------------------------------------------------------------

TEST(LintRules, ResolveRuleAcceptsIdsNamesAndAliases) {
  EXPECT_EQ(ResolveRule("NL001"), "NL001");
  EXPECT_EQ(ResolveRule("raw-sync"), "NL001");
  EXPECT_EQ(ResolveRule("mutex-rank"), "NL002");
  EXPECT_EQ(ResolveRule("blocking"), "NL003");
  EXPECT_EQ(ResolveRule("unguarded"), "NL004");
  EXPECT_EQ(ResolveRule("frozen"), "NL005");
  EXPECT_EQ(ResolveRule("cancellation-responsiveness"), "NL006");
  EXPECT_EQ(ResolveRule("responsive"), "NL006");
  EXPECT_EQ(ResolveRule("status-path"), "NL007");
  EXPECT_EQ(ResolveRule("status"), "NL007");
  EXPECT_EQ(ResolveRule("use-after-move"), "NL008");
  EXPECT_EQ(ResolveRule("moved"), "NL008");
  EXPECT_EQ(ResolveRule("stale-suppression"), "NL009");
  EXPECT_EQ(ResolveRule("stale"), "NL009");
  EXPECT_EQ(ResolveRule("no-such-rule"), "");
}

// ---------------------------------------------------------------------------
// CFG builder (the substrate for NL006–NL008)
// ---------------------------------------------------------------------------

TEST(LintCfg, IfElseDiamond) {
  const std::string cfg = DescribeCfgForTest(
      "void F(bool c) { int x = 0; if (c) { A(); } else { B(); } C(); }", "F");
  EXPECT_EQ(cfg,
            "0 entry line=0 -> 2\n"
            "1 exit line=0 ->\n"
            "2 stmt line=1 -> 3\n"
            "3 cond line=1 -> 4,5\n"
            "4 stmt line=1 -> 6\n"
            "5 stmt line=1 -> 6\n"
            "6 stmt line=1 -> 1\n");
}

TEST(LintCfg, LoopBackEdgeAndConstantTrueFlag) {
  const std::string cfg =
      DescribeCfgForTest("void G() { while (true) { A(); } }", "G");
  EXPECT_EQ(cfg,
            "0 entry line=0 -> 2\n"
            "1 exit line=0 ->\n"
            "2 cond line=1 -> 3\n"
            "3 stmt line=1 -> 2\n"
            "loop head=2 back=3 true=1 range_for=0\n");
}

TEST(LintCfg, EarlyReturnGoesStraightToExit) {
  const std::string cfg =
      DescribeCfgForTest("int H(bool c) { if (c) return 1; return 2; }", "H");
  EXPECT_EQ(cfg,
            "0 entry line=0 -> 2\n"
            "1 exit line=0 ->\n"
            "2 cond line=1 -> 3,4\n"
            "3 stmt line=1 -> 1\n"
            "4 stmt line=1 -> 1\n");
}

TEST(LintCfg, RangeForIsABoundedLoop) {
  const std::string cfg = DescribeCfgForTest(
      "void R(std::vector<int> v) { for (int x : v) { A(x); } }", "R");
  EXPECT_NE(cfg.find("loop head=2 back=3 true=0 range_for=1"),
            std::string::npos);
}

TEST(LintCfg, UnknownFunctionYieldsEmpty) {
  EXPECT_EQ(DescribeCfgForTest("void F() {}", "NoSuchFn"), "");
}

// ---------------------------------------------------------------------------
// NL006 cancellation-responsiveness
// ---------------------------------------------------------------------------

TEST(LintNL006, UnboundedProducerLoopWithoutPollFires) {
  const std::string src = R"cc(
    Status DoNextBatch() {
      while (true) {
        auto b = child_->NextBatch();
        if (!b) break;
        Emit(b);
      }
      return Status::OK();
    }
  )cc";
  std::vector<Finding> findings = Analyze("src/foo/op.cc", src);
  EXPECT_EQ(CountRule(findings, "NL006"), 1);
}

TEST(LintNL006, PollAtLoopTopIsClean) {
  const std::string src = R"cc(
    Status DoNextBatch() {
      while (true) {
        NIMBLE_RETURN_IF_ERROR(PollCancel());
        auto b = child_->NextBatch();
        if (!b) break;
        Emit(b);
      }
      return Status::OK();
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/op.cc", src), "NL006"), 0);
}

TEST(LintNL006, PollOnOnlyOneBranchStillFires) {
  // Path-sensitive: a structural "does the loop body mention PollCancel"
  // scan would pass this, but the else-path never polls.
  const std::string src = R"cc(
    Status DoNextBatch() {
      while (true) {
        if (ready_) {
          NIMBLE_RETURN_IF_ERROR(PollCancel());
        } else {
          Shuffle();
        }
        auto b = child_->NextBatch();
        if (!b) break;
      }
      return Status::OK();
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/op.cc", src), "NL006"), 1);
}

TEST(LintNL006, PollOnBothBranchesIsClean) {
  const std::string src = R"cc(
    Status DoNextBatch() {
      while (true) {
        if (ready_) {
          NIMBLE_RETURN_IF_ERROR(PollCancel());
        } else {
          NIMBLE_RETURN_IF_ERROR(ctx_->Check());
        }
        auto b = child_->NextBatch();
        if (!b) break;
      }
      return Status::OK();
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/op.cc", src), "NL006"), 0);
}

TEST(LintNL006, PollingHelperSummarySatisfiesTheLoop) {
  // One-level callee summary: CheckSlice has no poll name, but its body
  // polls, and the summary carries that fact into the loop — even when the
  // helper lives in another translation unit.
  const std::string helper = R"cc(
    Status CheckSlice() { return PollCancel(); }
  )cc";
  const std::string op = R"cc(
    Status DoNextBatch() {
      while (true) {
        NIMBLE_RETURN_IF_ERROR(CheckSlice());
        auto b = child_->NextBatch();
        if (!b) break;
      }
      return Status::OK();
    }
  )cc";
  Linter linter(DefaultOptions());
  linter.AddFile("src/foo/helper.cc", helper);
  linter.AddFile("src/foo/op.cc", op);
  linter.Finish();
  EXPECT_EQ(CountRule(linter.findings(), "NL006"), 0);

  // Without the helper's definition the summary says nothing, so the
  // unknown call must not count as a poll.
  EXPECT_EQ(CountRule(Analyze("src/foo/op.cc", op), "NL006"), 1);
}

TEST(LintNL006, BoundedLoopAndNonEntryPointAreExempt) {
  // A plain counted loop is not flagged, and functions outside the
  // operator entry-point set are not checked at all.
  const std::string src = R"cc(
    Status DoNextBatch() {
      for (size_t i = 0; i < n_; ++i) Emit(i);
      return Status::OK();
    }
    Status Helper() {
      while (true) {
        auto b = child_->NextBatch();
        if (!b) break;
      }
      return Status::OK();
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/op.cc", src), "NL006"), 0);
}

// ---------------------------------------------------------------------------
// NL007 status-path
// ---------------------------------------------------------------------------

TEST(LintNL007, DroppedStatusFires) {
  const std::string src = R"cc(
    Status F() {
      Status s = Fallible();
      return Status::OK();
    }
  )cc";
  std::vector<Finding> findings = Analyze("src/foo/a.cc", src);
  EXPECT_EQ(CountRule(findings, "NL007"), 1);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings[0].message.find("never consulted"), std::string::npos);
}

TEST(LintNL007, ConsultedOnOnePathIsClean) {
  // Path-sensitive: the value is only read on the c==true path, but one
  // observing path is enough — it is not dropped.
  const std::string src = R"cc(
    Status F(bool c) {
      Status s = Fallible();
      if (c) return s;
      return Status::OK();
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/a.cc", src), "NL007"), 0);
}

TEST(LintNL007, OverwrittenBeforeReadFires) {
  const std::string src = R"cc(
    Status F() {
      Status s;
      s = First();
      s = Second();
      return s;
    }
  )cc";
  std::vector<Finding> findings = Analyze("src/foo/a.cc", src);
  EXPECT_EQ(CountRule(findings, "NL007"), 1);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings[0].message.find("overwritten"), std::string::npos);
}

TEST(LintNL007, LambdaAssignmentIsAWeakUpdate) {
  // The callback may run zero times, so the assignment inside it must not
  // kill the OK() definition — and the return consults both.
  const std::string src = R"cc(
    Status F() {
      Status err = Status::OK();
      items_.ForEach([&](int v) {
        if (v < 0) err = Reject(v);
      });
      return err;
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/a.cc", src), "NL007"), 0);
}

TEST(LintNL007, StatusFunctionFallingOffTheEndFires) {
  const std::string src = R"cc(
    Status F(bool c) {
      if (c) return Status::OK();
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/a.cc", src), "NL007"), 1);
}

TEST(LintNL007, AllPathsReturningIsClean) {
  const std::string src = R"cc(
    Status F(bool c) {
      if (c) return Status::OK();
      return Fallible();
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/a.cc", src), "NL007"), 0);
}

// ---------------------------------------------------------------------------
// NL008 use-after-move
// ---------------------------------------------------------------------------

TEST(LintNL008, UseAfterMoveFires) {
  const std::string src = R"cc(
    void F() {
      std::string v = Name();
      Consume(std::move(v));
      Log(v);
    }
  )cc";
  std::vector<Finding> findings = Analyze("src/foo/a.cc", src);
  EXPECT_EQ(CountRule(findings, "NL008"), 1);
}

TEST(LintNL008, ReassignmentClearsTheTaint) {
  const std::string src = R"cc(
    void F() {
      std::string v = Name();
      Consume(std::move(v));
      v = Fresh();
      Log(v);
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/a.cc", src), "NL008"), 0);
}

TEST(LintNL008, LoopCarriedMoveFires) {
  // The move taints `item` across the back edge: iteration 2's Prepare()
  // reads a moved-from value, and its Consume() moves one. Only the
  // fixpoint sees either.
  const std::string src = R"cc(
    void F() {
      Item item = Make();
      while (More()) {
        Prepare(item);
        Consume(std::move(item));
      }
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/a.cc", src), "NL008"), 2);
}

TEST(LintNL008, MoveOnOneBranchTaintsTheJoin) {
  const std::string src = R"cc(
    void F(bool c) {
      Buf b = Make();
      if (c) {
        Sink(std::move(b));
      }
      Use(b);
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/a.cc", src), "NL008"), 1);
}

TEST(LintNL008, ReassignedOnTheMovingBranchIsClean) {
  // Path-sensitive negative of the join test: the only branch that moves
  // also re-establishes a value before the join.
  const std::string src = R"cc(
    void F(bool c) {
      Buf b = Make();
      if (c) {
        Sink(std::move(b));
        b = Make();
      }
      Use(b);
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/a.cc", src), "NL008"), 0);
}

TEST(LintNL008, SelfReassignmentFoldIsClean) {
  // The idiomatic fold: the assignment lands after the RHS consumes the
  // old value, so the statement's net effect is a fresh value.
  const std::string src = R"cc(
    void F() {
      Expr lhs = First();
      while (More()) {
        lhs = Combine(std::move(lhs), Next());
      }
      Use(lhs);
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/a.cc", src), "NL008"), 0);
}

TEST(LintNL008, TernaryArmsAreExclusive) {
  const std::string src = R"cc(
    void F(bool c) {
      Buf v = Make();
      Out r = c ? First(std::move(v)) : Second(std::move(v));
      Use(r);
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/a.cc", src), "NL008"), 0);
}

TEST(LintNL008, StructuredBindingIsAFreshObject) {
  const std::string src = R"cc(
    void F(std::map<std::string, Buf>& m) {
      for (auto& [k, b] : m) {
        Sink(std::move(b));
      }
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze("src/foo/a.cc", src), "NL008"), 0);
}

// ---------------------------------------------------------------------------
// NL009 stale-suppression
// ---------------------------------------------------------------------------

TEST(LintNL009, StaleListEntryFlaggedAtItsOwnLine) {
  LintOptions options = DefaultOptions();
  options.suppressions =
      ParseSuppressionList("# header\nNL001 src/foo no-such-line\n");
  std::vector<Finding> findings = Analyze("src/foo/s.h", "int x = 0;\n", options);
  ASSERT_EQ(CountRule(findings, "NL009"), 1);
  const Finding& f = findings.front();
  EXPECT_EQ(f.rule, "NL009");
  EXPECT_EQ(f.file, options.suppressions_path);
  EXPECT_EQ(f.line, 2);  // the entry's own line in the list
}

TEST(LintNL009, UsedListEntryIsNotStale) {
  LintOptions options = DefaultOptions();
  options.suppressions = ParseSuppressionList("NL001 src/foo *\n");
  std::vector<Finding> findings =
      Analyze("src/foo/s.h", "std::mutex mu_;\n", options);
  EXPECT_EQ(CountRule(findings, "NL009"), 0);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].suppressed);
}

TEST(LintNL009, EntryForUnscannedPathIsLeftAlone) {
  // Partial scans must not declare entries for other directories stale.
  LintOptions options = DefaultOptions();
  options.suppressions = ParseSuppressionList("NL001 tests/other *\n");
  std::vector<Finding> findings =
      Analyze("src/foo/s.h", "std::mutex mu_;\n", options);
  EXPECT_EQ(CountRule(findings, "NL009"), 0);
}

// ---------------------------------------------------------------------------
// Parallel analysis: Analyze/Merge equals sequential AddFile
// ---------------------------------------------------------------------------

TEST(LintParallel, MergeInSortedOrderMatchesSequential) {
  const std::string f1 = "std::mutex a_;\n";
  const std::string f2 = "std::shared_mutex b_;\nvoid G() { sleep(1); }\n";

  Linter seq(DefaultOptions());
  seq.AddFile("src/a.cc", f1);
  seq.AddFile("src/b.cc", f2);
  seq.Finish();

  // Analyze out of order (as a thread pool would), merge in sorted order.
  Linter par(DefaultOptions());
  auto rb = par.Analyze("src/b.cc", f2);
  auto ra = par.Analyze("src/a.cc", f1);
  par.Merge(std::move(ra));
  par.Merge(std::move(rb));
  par.Finish();

  ASSERT_EQ(seq.findings().size(), par.findings().size());
  for (size_t i = 0; i < seq.findings().size(); ++i) {
    EXPECT_EQ(seq.findings()[i].file, par.findings()[i].file);
    EXPECT_EQ(seq.findings()[i].line, par.findings()[i].line);
    EXPECT_EQ(seq.findings()[i].rule, par.findings()[i].rule);
    EXPECT_EQ(seq.findings()[i].message, par.findings()[i].message);
  }
}

TEST(LintRules, EnabledRulesFilter) {
  LintOptions options = DefaultOptions();
  options.enabled_rules = {"NL001"};
  // Raw mutex (NL001) + unregistered rank (NL002): only NL001 reports.
  const std::string src = R"cc(
    std::mutex raw_;
    Mutex mu_{LockRank::kMadeUpRank, "s.mu"};
  )cc";
  std::vector<Finding> findings = Analyze("src/foo/s.h", src, options);
  EXPECT_GE(CountRule(findings, "NL001"), 1);
  EXPECT_EQ(CountRule(findings, "NL002"), 0);
}

}  // namespace
}  // namespace nimble_lint
