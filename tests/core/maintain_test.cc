// Tests for incremental maintenance through the commit pipeline and the
// session caches (PR 9): the writer-side extent cache surviving commits
// and rollbacks, sessions walking the published delta chain on re-pin,
// Decker-style delta-specialized integrity checking, and the
// affected-component-only invalidation on rule extensions.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/error.h"
#include "core/engine.h"
#include "core/session.h"
#include "data/tuple.h"
#include "data/value.h"

namespace rel {
namespace {

Value I(int64_t v) { return Value::Int(v); }

const char kTc[] =
    "def tc(x, y) : edge(x, y)\n"
    "def tc(x, z) : exists((y) | edge(x, y) and tc(y, z))";

TEST(WriterMaintain, ExtentsCarryAcrossCommits) {
  Engine engine;
  engine.Define(kTc);
  engine.Insert("edge", {Tuple({I(1), I(2)}), Tuple({I(2), I(3)})});

  // First transaction lowers tc against the pre-state and caches its
  // fixpoint; the commit's maintain step moves it to the post-version.
  EXPECT_EQ(engine.Exec("def output(x, y) : tc(x, y)\n"
                        "def insert(:edge, x, y) : x = 3 and y = 4")
                .output.size(),
            3u);
  EXPECT_GT(engine.writer_cache().size(), 0u);
  EXPECT_GT(engine.writer_cache().maintained() +
                engine.writer_cache().restamped(),
            0u);

  // The next transaction's pre-state evaluation hits the maintained entry —
  // no recomputation — and sees the new edge.
  uint64_t hits_before = engine.writer_cache().hits();
  TxnResult r = engine.Exec("def output(x, y) : tc(x, y)");
  EXPECT_EQ(r.output.size(), 6u);
  EXPECT_GT(engine.writer_cache().hits(), hits_before);
}

TEST(WriterMaintain, WriterCacheMaintainsDemandedCones) {
  Engine engine;
  engine.Define(kTc);
  engine.Define("ic no_big() requires forall((x, y) | edge(x, y) implies x < 100)");
  engine.Insert("edge", {Tuple({I(1), I(2)}), Tuple({I(2), I(3)})});
  engine.options().demand_transform = true;

  // The pre-state derives the cone tc(1, Y) and caches it; the commit's
  // maintain step moves it to the post-version.
  EXPECT_EQ(engine.Exec("def output(y) : tc(1, y)\n"
                        "def insert(:edge, x, y) : x = 3 and y = 4")
                .output.ToString(),
            "{(2); (3)}");
  EXPECT_GT(engine.last_lowering_stats().components_demanded, 0);
  EXPECT_GT(engine.writer_cache().maintained(), 0u);

  // The next transaction answers from the maintained cone.
  EXPECT_EQ(engine.Exec("def output(y) : tc(1, y)").output.ToString(),
            "{(2); (3); (4)}");
  EXPECT_GT(engine.last_lowering_stats().demand_cache_hits, 0);

  // An aborted transaction maintains the cone to its working version;
  // rollback must drop it, and a different commit re-issuing that version
  // number must not see (4, 500) or (500, 5).
  EXPECT_THROW(engine.Exec("def output(y) : tc(1, y)\n"
                           "def insert(:edge, x, y) : x = 4 and y = 500\n"
                           "def insert(:edge, x, y) : x = 500 and y = 5"),
               ConstraintViolation);
  engine.Exec("def insert(:edge, x, y) : x = 4 and y = 6");
  EXPECT_EQ(engine.Exec("def output(y) : tc(1, y)").output.ToString(),
            "{(2); (3); (4); (6)}");
}

TEST(WriterMaintain, RollbackDiscardsAbortedEntriesOnly) {
  Engine engine;
  engine.Define(kTc);
  engine.Define("ic no_big() requires forall((x, y) | edge(x, y) implies x < 100)");
  engine.Insert("edge", {Tuple({I(1), I(2)})});

  // Warm the writer cache and pass a full integrity check.
  engine.Exec("def output(x, y) : tc(x, y)");

  // This transaction evaluates tc (maintained to its working version),
  // then aborts on the constraint — the rollback must drop the aborted
  // version's entries so the next commit cannot see (500, 501) in tc.
  EXPECT_THROW(engine.Exec("def output(x, y) : tc(x, y)\n"
                           "def insert(:edge, x, y) : x = 500 and y = 501"),
               ConstraintViolation);
  EXPECT_GT(engine.writer_cache().dropped(), 0u);

  // A different commit re-issues the same working version numbers with
  // different content; cached extents must match it, not the abort.
  engine.Exec("def insert(:edge, x, y) : x = 2 and y = 3");
  EXPECT_EQ(engine.Exec("def output(x, y) : tc(x, y)").output.ToString(),
            "{(1, 2); (1, 3); (2, 3)}");
}

TEST(SessionMaintain, ExtentCacheWalksTheDeltaChain) {
  Engine engine;
  engine.Define(kTc);
  engine.Insert("edge", {Tuple({I(1), I(2)}), Tuple({I(2), I(3)})});

  std::unique_ptr<Session> reader = engine.OpenSession();
  EXPECT_EQ(reader->Query("def output(x, y) : tc(x, y)").size(), 3u);
  EXPECT_GT(reader->cache().size(), 0u);

  // Two commits land elsewhere; the reader re-pins across both and its
  // cached tc fixpoint follows the delta chain instead of being dropped.
  engine.Exec("def insert(:edge, x, y) : x = 3 and y = 4");
  engine.Exec("def insert(:edge, x, y) : x = 4 and y = 5");
  reader->Refresh();
  EXPECT_GT(reader->cache().maintained(), 0u);

  uint64_t hits_before = reader->cache().hits();
  EXPECT_EQ(reader->Query("def output(x, y) : tc(x, y)").size(), 10u);
  EXPECT_GT(reader->cache().hits(), hits_before);
  EXPECT_GT(reader->last_lowering_stats().extent_cache_hits, 0);
}

TEST(SessionMaintain, StalePinBeyondTheWindowFallsBackToRecompute) {
  Engine engine;
  engine.Define(kTc);
  engine.Insert("edge", {Tuple({I(0), I(1)})});

  std::unique_ptr<Session> reader = engine.OpenSession();
  reader->Query("def output(x, y) : tc(x, y)");

  // Push far more commits than the published delta window holds.
  for (int i = 1; i < 14; ++i) {
    engine.Insert("edge", {Tuple({I(i), I(i + 1)})});
  }
  reader->Refresh();
  // Correctness is unconditional: the chain no longer reaches the old pin,
  // so the cache was dropped and the query recomputes.
  EXPECT_EQ(reader->Query("def output(x, y) : tc(x, y)").size(),
            14u * 15u / 2u);
}

TEST(SessionMaintain, DeleteMaintainsThroughDRed) {
  Engine engine;
  engine.Define(kTc);
  // Diamond: deleting (0,1) over-deletes tc(0,3); the 0->2->3 path
  // re-derives it.
  engine.Insert("edge", {Tuple({I(0), I(1)}), Tuple({I(1), I(3)}),
                         Tuple({I(0), I(2)}), Tuple({I(2), I(3)})});

  std::unique_ptr<Session> reader = engine.OpenSession();
  EXPECT_EQ(reader->Query("def output(x, y) : tc(x, y)").size(), 5u);

  engine.Exec("def delete(:edge, x, y) : x = 0 and y = 1");
  reader->Refresh();
  EXPECT_GT(reader->cache().maintained(), 0u);
  EXPECT_EQ(reader->Query("def output(x, y) : tc(x, y)").ToString(),
            "{(0, 2); (0, 3); (1, 3); (2, 3)}");
  EXPECT_GT(reader->cache().maintain_stats().rederived, 0u);
}

TEST(SessionMaintain, MaintainedAnswersMatchFreshSessionByteForByte) {
  Engine engine;
  engine.Define(kTc);
  engine.Insert("edge", {Tuple({I(1), I(2)}), Tuple({I(2), I(3)}),
                         Tuple({I(3), I(4)})});

  std::unique_ptr<Session> warm = engine.OpenSession();
  warm->Query("def output(x, y) : tc(x, y)");

  const char* updates[] = {
      "def insert(:edge, x, y) : x = 4 and y = 5",
      "def delete(:edge, x, y) : x = 2 and y = 3",
      "def insert(:edge, x, y) : x = 2 and y = 5",
  };
  for (const char* update : updates) {
    engine.Exec(update);
    warm->Refresh();
    std::unique_ptr<Session> cold = engine.OpenSession();
    EXPECT_EQ(warm->Query("def output(x, y) : tc(x, y)").ToString(),
              cold->Query("def output(x, y) : tc(x, y)").ToString())
        << "after update: " << update;
  }
}

TEST(DeckerIc, UnrelatedCommitsSkipTheConstraint) {
  Engine engine;
  engine.Define("ic positive(x) requires R(x) implies x > 0");
  engine.Insert("R", {Tuple({I(5)})});

  // First Exec runs the full pass that establishes the verified base.
  engine.Exec("def insert(:other, x) : x = 1");
  uint64_t skipped_before = engine.ic_stats().skipped;
  uint64_t checked_before = engine.ic_stats().checked;

  // This commit never touches R or anything the constraint reads: skipped.
  engine.Exec("def insert(:other, x) : x = 2");
  EXPECT_GT(engine.ic_stats().skipped, skipped_before);
  EXPECT_EQ(engine.ic_stats().checked, checked_before);

  // Touching R re-checks — and still catches the violation.
  EXPECT_THROW(engine.Exec("def insert(:R, x) : x = 0 - 3"),
               ConstraintViolation);
  EXPECT_GT(engine.ic_stats().checked, checked_before);
  EXPECT_TRUE(engine.Base("R").Contains(Tuple({I(5)})));
  EXPECT_FALSE(engine.Base("R").Contains(Tuple({I(-3)})));
}

TEST(DeckerIc, ConstraintOverDerivedRelationSeesBaseChanges) {
  // The constraint reads tc, not edge — the read-set closure must chase
  // through the rules so an edge change still re-checks it.
  Engine engine;
  engine.Define(kTc);
  engine.Define(
      "ic no_loop() requires forall((x, y) | tc(x, y) implies x != y)");
  engine.Insert("edge", {Tuple({I(1), I(2)})});
  engine.Exec("def insert(:other, x) : x = 1");  // full pass

  uint64_t checked_before = engine.ic_stats().checked;
  // Closing the cycle makes tc(1,1) derivable; the commit must abort.
  EXPECT_THROW(engine.Exec("def insert(:edge, x, y) : x = 2 and y = 1"),
               ConstraintViolation);
  EXPECT_GT(engine.ic_stats().checked, checked_before);
  EXPECT_FALSE(engine.Base("edge").Contains(Tuple({I(2), I(1)})));
}

TEST(DeckerIc, DefineForcesAFullPass) {
  Engine engine;
  engine.Define("ic positive(x) requires R(x) implies x > 0");
  engine.Insert("R", {Tuple({I(5)})});
  engine.Exec("def insert(:other, x) : x = 1");  // full pass
  engine.Exec("def insert(:other, x) : x = 2");  // skips
  uint64_t skipped_after_warm = engine.ic_stats().skipped;
  ASSERT_GT(skipped_after_warm, 0u);

  // A new constraint must be evaluated against pre-existing data, so the
  // next commit checks everything even though it touches nothing related.
  engine.Define("ic small(x) requires R(x) implies x < 100");
  uint64_t checked_before = engine.ic_stats().checked;
  engine.Exec("def insert(:other, x) : x = 3");
  EXPECT_GE(engine.ic_stats().checked, checked_before + 2);

  // And the delta regime resumes afterwards.
  engine.Exec("def insert(:other, x) : x = 4");
  EXPECT_GT(engine.ic_stats().skipped, skipped_after_warm);
}

TEST(DeckerIc, TransactionLocalConstraintsAlwaysRun) {
  Engine engine;
  engine.Insert("R", {Tuple({I(1)})});
  engine.Exec("def insert(:other, x) : x = 1");  // full pass (no ics: trivial)
  EXPECT_THROW(engine.Exec("ic none() requires empty(R)\n"
                           "def insert(:other, x) : x = 2"),
               ConstraintViolation);
  EXPECT_FALSE(engine.Base("other").Contains(Tuple({I(2)})));
}

TEST(RuleExtension, OnlyAffectedComponentsAreInvalidated) {
  // Two independent recursive components; a Define extending only `edge`
  // must not evict the cached fixpoint of the link component.
  Engine engine;
  engine.Define(kTc);
  engine.Define(
      "def lc(x, y) : link(x, y)\n"
      "def lc(x, z) : exists((y) | link(x, y) and lc(y, z))");
  engine.Insert("edge", {Tuple({I(1), I(2)})});
  engine.Insert("link", {Tuple({I(7), I(8)}), Tuple({I(8), I(9)})});

  std::unique_ptr<Session> reader = engine.OpenSession();
  reader->Query("def output(x, y) : tc(x, y)");
  reader->Query("def output(x, y) : lc(x, y)");
  size_t cached = reader->cache().size();
  ASSERT_GE(cached, 2u);

  // The new rule feeds `edge` (hence tc) only.
  engine.Define("def edge(x, y) : extra_edge(x, y)");
  reader->Refresh();
  // The lc entry survived; the tc entry is gone.
  EXPECT_LT(reader->cache().size(), cached);
  EXPECT_GT(reader->cache().size(), 0u);

  uint64_t hits_before = reader->cache().hits();
  EXPECT_EQ(reader->Query("def output(x, y) : lc(x, y)").size(), 3u);
  EXPECT_GT(reader->cache().hits(), hits_before);

  // tc reflects the new rule once extra_edge has content.
  engine.Insert("extra_edge", {Tuple({I(2), I(3)})});
  reader->Refresh();
  EXPECT_EQ(reader->Query("def output(x, y) : tc(x, y)").size(), 3u);
}

TEST(RuleExtension, DemandConesFollowTheSamePolicy) {
  Engine engine;
  engine.Define(kTc);
  engine.Define(
      "def lc(x, y) : link(x, y)\n"
      "def lc(x, z) : exists((y) | link(x, y) and lc(y, z))");
  engine.Insert("edge", {Tuple({I(1), I(2)})});
  engine.Insert("link", {Tuple({I(7), I(8)})});

  std::unique_ptr<Session> reader = engine.OpenSession();
  reader->options().demand_transform = true;
  reader->Query("def output(y) : tc(1, y)");
  reader->Query("def output(y) : lc(7, y)");
  size_t cached = reader->cache().size();
  ASSERT_GE(cached, 2u);

  engine.Define("def edge(x, y) : extra_edge(x, y)");
  reader->Refresh();
  EXPECT_LT(reader->cache().size(), cached);
  EXPECT_GT(reader->cache().size(), 0u);
  EXPECT_EQ(reader->Query("def output(y) : lc(7, y)").ToString(), "{(8)}");
}

}  // namespace
}  // namespace rel
