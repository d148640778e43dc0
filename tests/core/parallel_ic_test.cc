// Tests for the engine's parallel integrity-constraint checking
// (InterpOptions::num_threads > 1): same accept/reject decisions and the
// same deterministic first-failure as the sequential checker, including
// transaction rollback.

#include <gtest/gtest.h>

#include <string>

#include "base/error.h"
#include "core/engine.h"

namespace rel {
namespace {

void SetUpConstraints(Engine& engine, int num_threads) {
  engine.options().num_threads = num_threads;
  engine.Define(
      "ic positive(x) requires R(x) implies x > 0\n"
      "ic small(x) requires R(x) implies x < 100\n"
      "ic named() requires count[R] < 50\n"
      "ic even_pairs(x, y) requires P(x, y) implies x < y");
}

TEST(ParallelConstraints, PassingStateAcceptedAcrossThreadCounts) {
  for (int threads : {1, 2, 8}) {
    Engine engine;
    SetUpConstraints(engine, threads);
    auto session = engine.OpenSession();
    session->Exec("def insert : {(:R, 1); (:R, 2); (:R, 3)}");
    session->Exec("def insert : {(:P, 1, 2); (:P, 2, 9)}");
    EXPECT_NO_THROW(engine.CheckConstraints()) << "threads=" << threads;
    EXPECT_EQ(engine.Base("R").size(), 3u);
  }
}

TEST(ParallelConstraints, FirstViolationInOrderMatchesSequential) {
  // Both `positive` and `small` are violated; every thread count must
  // report `positive` (the first in declaration order), like the
  // sequential checker does.
  for (int threads : {1, 2, 8}) {
    Engine engine;
    SetUpConstraints(engine, threads);
    engine.Insert("R", {Tuple({Value::Int(-5)}), Tuple({Value::Int(500)})});
    try {
      engine.CheckConstraints();
      FAIL() << "constraints should have failed (threads=" << threads << ")";
    } catch (const ConstraintViolation& v) {
      EXPECT_NE(std::string(v.what()).find("positive"), std::string::npos)
          << "threads=" << threads << " reported: " << v.what();
    }
  }
}

TEST(ParallelConstraints, ViolatingTransactionRollsBack) {
  for (int threads : {1, 4}) {
    Engine engine;
    SetUpConstraints(engine, threads);
    auto session = engine.OpenSession();
    session->Exec("def insert : {(:R, 7)}");
    EXPECT_THROW(session->Exec("def insert : {(:R, -1); (:R, 8)}"),
                 ConstraintViolation)
        << "threads=" << threads;
    // The violating transaction left nothing behind.
    EXPECT_EQ(engine.Base("R").size(), 1u) << "threads=" << threads;
    EXPECT_TRUE(engine.Base("R").Contains(Tuple({Value::Int(7)})));
  }
}

TEST(ParallelConstraints, TransactionLocalConstraintsStillApply) {
  Engine engine;
  engine.options().num_threads = 4;
  engine.Insert("R", {Tuple({Value::Int(1)})});
  // The ic arrives with the transaction; with several installed plus the
  // transaction-local one, the parallel path still sees all of them.
  EXPECT_THROW(engine.OpenSession()->Exec("ic nonempty() requires empty(R)\n"
                                          "def insert : {(:S, 1)}"),
               ConstraintViolation);
  EXPECT_TRUE(engine.Base("S").empty());
}

}  // namespace
}  // namespace rel
