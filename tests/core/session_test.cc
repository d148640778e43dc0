// Session/snapshot-isolation tests: pinned readers see byte-identical
// answers no matter what commits around them, writes serialize through the
// commit pipeline with rollback invisible to readers, and the per-session
// extent cache serves demanded cones across read-only transactions and
// never across database timelines. The concurrent tests run under TSan in
// CI — they are the data-race proof of the serving layer.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/error.h"
#include "core/engine.h"
#include "storage/file.h"

namespace rel {
namespace {

Value I(int64_t v) { return Value::Int(v); }

TEST(Session, PinnedReaderIsIsolatedFromCommits) {
  Engine engine;
  engine.Insert("R", {Tuple({I(1)}), Tuple({I(2)})});

  std::unique_ptr<Session> reader = engine.OpenSession();
  const std::string before = reader->Eval("R").ToString();

  engine.OpenSession()->Exec("def insert(:R, x) : x = 3");
  // The pin still answers from the pre-commit snapshot...
  EXPECT_EQ(reader->Eval("R").ToString(), before);
  EXPECT_EQ(reader->Base("R").size(), 2u);
  // ... and Refresh() adopts the commit.
  reader->Refresh();
  EXPECT_EQ(reader->Eval("R").ToString(), "{(1); (2); (3)}");
}

TEST(Session, ExecRePinsForReadYourWrites) {
  Engine engine;
  std::unique_ptr<Session> session = engine.OpenSession();
  uint64_t v0 = session->snapshot_version();
  TxnResult txn = session->Exec("def insert(:R, x) : x = 7");
  EXPECT_EQ(txn.inserted, 1u);
  EXPECT_GT(txn.snapshot_version, v0);
  EXPECT_EQ(session->snapshot_version(), txn.snapshot_version);
  EXPECT_EQ(session->Eval("R").ToString(), "{(7)}");
}

TEST(Session, SessionsAreIsolatedUntilRefresh) {
  Engine engine;
  engine.Insert("R", {Tuple({I(1)})});
  std::unique_ptr<Session> a = engine.OpenSession();
  std::unique_ptr<Session> b = engine.OpenSession();

  a->Exec("def insert(:R, x) : x = 2");
  EXPECT_EQ(a->Base("R").size(), 2u);   // writer sees its own commit
  EXPECT_EQ(b->Base("R").size(), 1u);   // b still pinned pre-commit
  b->Refresh();
  EXPECT_EQ(b->Base("R").size(), 2u);
}

TEST(Session, DefineIsEngineWideOnRefresh) {
  Engine engine;
  std::unique_ptr<Session> a = engine.OpenSession();
  std::unique_ptr<Session> b = engine.OpenSession();
  a->Define("def ten : 10");
  EXPECT_EQ(a->Eval("ten").ToString(), "{(10)}");
  // b's pinned snapshot predates the define: `ten` has no rules there and
  // evaluates to the empty relation.
  EXPECT_EQ(b->Eval("ten").size(), 0u);
  b->Refresh();
  EXPECT_EQ(b->Eval("ten").ToString(), "{(10)}");
}

TEST(Session, RolledBackTransactionPublishesNothing) {
  Engine engine;
  engine.Define("ic small(x) requires R(x) implies x < 10");
  engine.Insert("R", {Tuple({I(5)})});

  std::unique_ptr<Session> writer = engine.OpenSession();
  std::unique_ptr<Session> reader = engine.OpenSession();
  uint64_t pinned = reader->snapshot_version();

  EXPECT_THROW(writer->Exec("def insert(:R, x) : x = 50"),
               ConstraintViolation);
  // Nothing was published: a refresh adopts the same version and the same
  // contents.
  reader->Refresh();
  EXPECT_EQ(reader->snapshot_version(), pinned);
  EXPECT_EQ(reader->Base("R").ToString(), "{(5)}");
  // And the writer can commit cleanly afterwards.
  writer->Exec("def insert(:R, x) : x = 6");
  EXPECT_EQ(writer->Base("R").ToString(), "{(5); (6)}");
}

TEST(Session, DemandCacheServesConesAcrossReadOnlyTransactions) {
  Engine engine;
  engine.Define(
      "def tc(x, y) : edge(x, y)\n"
      "def tc(x, z) : exists((y) | edge(x, y) and tc(y, z))");
  engine.Insert("edge", {Tuple({I(1), I(2)}), Tuple({I(2), I(3)}),
                         Tuple({I(3), I(4)})});

  std::unique_ptr<Session> session = engine.OpenSession();
  session->options().demand_transform = true;

  EXPECT_EQ(session->Query("def output(y) : tc(1, y)").ToString(),
            "{(2); (3); (4)}");
  EXPECT_GT(session->last_lowering_stats().components_demanded, 0);
  ASSERT_GT(session->cache().size(), 0u);

  // Same cone, new transaction: served from the session cache — no cone
  // fixpoint runs at all in the second transaction.
  EXPECT_EQ(session->Query("def output(y) : tc(1, y)").ToString(),
            "{(2); (3); (4)}");
  EXPECT_GT(session->last_lowering_stats().demand_cache_hits, 0);
  EXPECT_EQ(session->last_lowering_stats().components_demanded, 0);

  // A commit re-pins to a new version; the cached cone follows it
  // incrementally (delta maintenance, PR 9) instead of being dropped: the
  // fresh answer reflects the new edge with no cone re-derivation at all.
  session->Exec("def insert(:edge, x, y) : x = 4 and y = 5");
  EXPECT_EQ(session->Query("def output(y) : tc(1, y)").ToString(),
            "{(2); (3); (4); (5)}");
  EXPECT_EQ(session->last_lowering_stats().components_demanded, 0);
  EXPECT_GT(session->last_lowering_stats().demand_cache_hits, 0);
  EXPECT_GT(session->cache().maintained(), 0u);
}

TEST(Session, ExtentCacheHitsServeTheCachedExtentInPlace) {
  Engine engine;
  engine.Define(
      "def tc(x, y) : edge(x, y)\n"
      "def tc(x, z) : exists((y) | edge(x, y) and tc(y, z))\n"
      "ic acyclic() requires forall((x, y) | tc(x, y) implies x != y)");
  engine.Insert("edge", {Tuple({I(1), I(2)}), Tuple({I(2), I(3)}),
                         Tuple({I(3), I(4)})});
  const std::string all = "def output(x, y) : tc(x, y)";
  auto fresh = [&] { return engine.OpenSession()->Query(all).ToString(); };

  std::unique_ptr<Session> session = engine.OpenSession();
  EXPECT_EQ(session->Query(all).ToString(), fresh());  // warms the cache
  {
    // A hit hands out the entry's own arena: a copy would get a fresh id.
    const Snapshot& snap = session->snapshot();
    InterpOptions opts = session->options();
    opts.shared_defs = snap.rules->size();
    opts.extent_cache = &session->cache();
    opts.shared_analysis = snap.rules_analysis.get();
    Interp interp(snap.db.get(), *snap.rules, opts);
    const ColumnArena* served = interp.EvalInstance("tc", 0, {}).ArenaOfArity(2);
    EXPECT_EQ(interp.lowering_stats().extent_cache_hits, 1);

    ExtentCache::Key key;
    key.component = ExtentCache::KeyFor({"tc"});
    const ExtentCache::Entry* entry =
        session->cache().Lookup(key, session->snapshot_version());
    ASSERT_NE(entry, nullptr);
    ASSERT_NE(served, nullptr);
    EXPECT_EQ(served->id(), entry->ext.extents.at("tc").ArenaOfArity(2)->id());
  }

  // Maintain edits the borrowed entry in place across an insert commit and
  // a delete commit; every later hit must still match a cold session.
  engine.OpenSession()->Exec("def insert(:edge, x, y) : x = 4 and y = 5");
  session->Refresh();
  EXPECT_EQ(session->Query(all).ToString(), fresh());
  engine.OpenSession()->Exec("def delete(:edge, x, y) : x = 1 and y = 2");
  session->Refresh();
  EXPECT_EQ(session->Query(all).ToString(), fresh());
  EXPECT_GT(session->cache().maintained(), 0u);

  // A writer transaction that reads tc, maintains the writer cache's entry
  // to its working version, checks the constraint against it and aborts:
  // DropAbove discards the entry, and the next reads are still right.
  EXPECT_THROW(session->Exec("def insert(:edge, x, y) : tc(x, 5) and y = x"),
               ConstraintViolation);
  EXPECT_EQ(session->Exec(all).output.ToString(), fresh());
  EXPECT_EQ(session->Query(all).ToString(), fresh());
  EXPECT_EQ(fresh(), "{(2, 3); (2, 4); (2, 5); (3, 4); (3, 5); (4, 5)}");
}

TEST(Session, DemandCacheIsNotPoisonedByTransactionLocalRules) {
  // A query-source def that feeds the cone must not produce a cacheable
  // entry a later plain query would wrongly reuse.
  Engine engine;
  engine.Define(
      "def tc(x, y) : edge(x, y)\n"
      "def tc(x, z) : exists((y) | edge(x, y) and tc(y, z))");
  engine.Insert("edge", {Tuple({I(1), I(2)})});

  std::unique_ptr<Session> session = engine.OpenSession();
  session->options().demand_transform = true;

  // This transaction extends `edge` with a local rule: tc(1, *) = {2, 9}.
  EXPECT_EQ(session
                ->Query("def edge(x, y) : x = 2 and y = 9\n"
                        "def output(y) : tc(1, y)")
                .ToString(),
            "{(2); (9)}");
  // The plain cone afterwards must not see 9.
  EXPECT_EQ(session->Query("def output(y) : tc(1, y)").ToString(), "{(2)}");
}

TEST(Session, DefineClearsDemandCache) {
  Engine engine;
  engine.Define(
      "def tc(x, y) : edge(x, y)\n"
      "def tc(x, z) : exists((y) | edge(x, y) and tc(y, z))");
  engine.Insert("edge", {Tuple({I(1), I(2)})});

  std::unique_ptr<Session> session = engine.OpenSession();
  session->options().demand_transform = true;
  session->Query("def output(y) : tc(1, y)");
  ASSERT_GT(session->cache().size(), 0u);

  // New rules change what any cone means: the cache must empty.
  session->Define("def tc(x, y) : x = 1 and y = 100");
  EXPECT_EQ(session->cache().size(), 0u);
  EXPECT_EQ(session->Query("def output(y) : tc(1, y)").ToString(),
            "{(2); (100)}");
}

TEST(Session, RecoveredDatabaseDropsCachedConesAtAnAliasedVersion) {
  // AttachStorage starts a new version timeline, so the recovered head can
  // carry the same version number as the session's pin. No delta leads
  // into it: every cached cone must go, whatever its version stamp.
  auto fs = std::make_shared<storage::MemFileSystem>();
  {
    Engine a;
    ASSERT_TRUE(a.AttachStorage("db", {}, fs).status.ok());
    a.OpenSession()->Exec("def insert(:edge, x, y) : x = 1 and y = 7");
  }

  Engine b;
  b.Define(
      "def tc(x, y) : edge(x, y)\n"
      "def tc(x, z) : exists((y) | edge(x, y) and tc(y, z))");
  b.Insert("edge", {Tuple({I(1), I(2)})});
  std::unique_ptr<Session> session = b.OpenSession();
  session->options().demand_transform = true;
  EXPECT_EQ(session->Query("def output(y) : tc(1, y)").ToString(), "{(2)}");
  const uint64_t pinned = session->snapshot_version();

  auto image = std::make_shared<storage::MemFileSystem>(fs->FilesAsIs());
  ASSERT_TRUE(b.AttachStorage("db", {}, image).status.ok());
  session->Refresh();
  ASSERT_EQ(session->snapshot_version(), pinned);  // the aliased version
  EXPECT_EQ(session->Query("def output(y) : tc(1, y)").ToString(), "{(7)}");
}

// --- concurrency (the TSan targets) ---------------------------------------

TEST(SessionConcurrency, PinnedReadersSeeByteIdenticalAnswersDuringWrites) {
  // The PR's acceptance bar: 8 reader sessions pin a snapshot, an active
  // writer commits transaction after transaction underneath them, and every
  // reader's answers stay byte-identical to its pre-commit expectation.
  Engine engine;
  engine.Define(
      "def tc(x, y) : edge(x, y)\n"
      "def tc(x, z) : exists((y) | edge(x, y) and tc(y, z))");
  std::vector<Tuple> chain;
  for (int i = 0; i < 24; ++i) chain.push_back(Tuple({I(i), I(i + 1)}));
  engine.Insert("edge", chain);

  constexpr int kReaders = 8;
  constexpr int kQueriesPerReader = 20;

  // Pin all readers to the pre-write snapshot and record the expected
  // answers sequentially, before any concurrency starts.
  std::vector<std::unique_ptr<Session>> readers;
  std::vector<std::string> expected_tc, expected_count;
  for (int r = 0; r < kReaders; ++r) {
    readers.push_back(engine.OpenSession());
    expected_tc.push_back(
        readers.back()->Query("def output(y) : tc(0, y)").ToString());
    expected_count.push_back(
        readers.back()->Eval("count[edge]").ToString());
  }

  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (int q = 0; q < kQueriesPerReader && !mismatch; ++q) {
        if (readers[r]->Query("def output(y) : tc(0, y)").ToString() !=
                expected_tc[r] ||
            readers[r]->Eval("count[edge]").ToString() != expected_count[r]) {
          mismatch = true;
        }
      }
    });
  }
  // The writer churns: grows the graph one commit at a time, with a
  // rollback mixed in every few transactions.
  threads.emplace_back([&] {
    std::unique_ptr<Session> writer = engine.OpenSession();
    for (int i = 0; i < 30; ++i) {
      int base = 100 + i;
      writer->Exec("def insert(:edge, x, y) : x = " + std::to_string(base) +
                   " and y = " + std::to_string(base + 1));
      if (i % 5 == 0) {
        try {
          writer->Exec(
              "def insert(:edge, x, y) : x = 0 and y = 0\n"
              "ic no_loop() requires forall((a, b) | edge(a, b) "
              "implies a != b)");
          ADD_FAILURE() << "constraint should have fired";
        } catch (const ConstraintViolation&) {
        }
      }
    }
  });
  for (std::thread& t : threads) t.join();

  EXPECT_FALSE(mismatch) << "a pinned reader observed a concurrent commit";
  // Post-state sanity: all 30 writer commits (and no rolled-back loop edge)
  // are in the final snapshot.
  std::unique_ptr<Session> check = engine.OpenSession();
  EXPECT_EQ(check->Base("edge").size(), chain.size() + 30);
  EXPECT_FALSE(check->Base("edge").Contains(Tuple({I(0), I(0)})));
}

TEST(SessionConcurrency, ConcurrentWritersSerializeWithoutLostUpdates) {
  Engine engine;
  constexpr int kWriters = 4;
  constexpr int kCommitsPerWriter = 10;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&engine, w] {
      std::unique_ptr<Session> session = engine.OpenSession();
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        int v = w * 1000 + i;
        session->Exec("def insert(:R, x) : x = " + std::to_string(v));
        // Read-your-writes holds under contention.
        if (!session->Base("R").Contains(Tuple({I(v)}))) {
          ADD_FAILURE() << "lost own write " << v;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(engine.Base("R").size(),
            static_cast<size_t>(kWriters * kCommitsPerWriter));
}

TEST(SessionConcurrency, ReadersRunWhileTransactionRollsBack) {
  Engine engine;
  engine.Define("ic cap() requires count[R] < 100");
  engine.Insert("R", {Tuple({I(1)}), Tuple({I(2)})});

  std::unique_ptr<Session> reader = engine.OpenSession();
  const std::string expected = reader->Eval("R").ToString();

  std::atomic<bool> stop{false};
  std::thread churn([&engine, &stop] {
    std::unique_ptr<Session> writer = engine.OpenSession();
    while (!stop) {
      try {
        // Violates `cap` after applying 200 inserts: the whole delta rolls
        // back while readers keep evaluating against their pins.
        writer->Exec("def insert(:R, x) : range(3, 202, 1, x)");
      } catch (const ConstraintViolation&) {
      }
    }
  });
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(reader->Eval("R").ToString(), expected);
  }
  stop = true;
  churn.join();
  // Rollbacks published nothing: even a fresh pin sees the original state.
  reader->Refresh();
  EXPECT_EQ(reader->Eval("R").ToString(), expected);
}

}  // namespace
}  // namespace rel
