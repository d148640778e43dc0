// Safety analysis tests (Section 3.2): unsafe expressions are rejected,
// unsafe subexpressions inside safe expressions evaluate.

#include <gtest/gtest.h>

#include "base/error.h"
#include "core/engine.h"

namespace rel {
namespace {

class Safety : public ::testing::Test {
 protected:
  Safety() {
    session_->Define("def Fin {(1) ; (2) ; (3)}\n"
                     "def Pairs {(1, -1) ; (2, 3)}");
  }

  void ExpectUnsafe(const std::string& expr) {
    try {
      session_->Eval(expr);
      FAIL() << expr << " should be unsafe";
    } catch (const RelError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kSafety) << e.what();
    }
  }

  Engine engine_;
  std::unique_ptr<Session> session_ = engine_.OpenSession();
};

TEST_F(Safety, BareInfiniteRelationsAreUnsafe) {
  ExpectUnsafe("Int");
  ExpectUnsafe("add");
  ExpectUnsafe("{(x) : Int(x)}");
  ExpectUnsafe("{(x, y) : x = y}");
}

TEST_F(Safety, NegationAloneIsUnsafe) {
  // def NotP1Price(x) : not ProductPrice("P1", x) — Section 3.1.
  session_->Define("def PP {(\"P1\", 10)}");
  ExpectUnsafe("{(x) : not PP(\"P1\", x)}");
}

TEST_F(Safety, NegationGuardedIsSafe) {
  session_->Define("def PP {(\"P1\", 10)}");
  EXPECT_EQ(session_->Eval("{(x) : Fin(x) and not PP(\"P1\", x)}").size(), 3u);
}

TEST_F(Safety, UnsafeDefUsableWhenGuarded) {
  session_->Define(
      "def AdditiveInverse(x,y) : Int(x) and Int(y) and add(x,y,0)");
  ExpectUnsafe("AdditiveInverse");
  EXPECT_EQ(
      session_->Eval("{(x,y) : Pairs(x,y) and AdditiveInverse(x,y)}")
          .ToString(),
      "{(1, -1)}");
}

TEST_F(Safety, InfiniteConditionInSelect) {
  session_->Define("def Cond(x, y, rest...) : x = y");
  ExpectUnsafe("Cond");
  EXPECT_EQ(session_->Eval("Select[(Fin, Fin), Cond]").ToString(),
            "{(1, 1); (2, 2); (3, 3)}");
}

TEST_F(Safety, ArithmeticNeedsOneBoundSide) {
  EXPECT_EQ(session_->Eval("{(x) : Fin(x) and x + 1 = 3}").ToString(), "{(2)}");
  // y unbound on both sides of the addition.
  ExpectUnsafe("{(y) : y + 1 = y}");
}

TEST_F(Safety, WildcardOutputsAreInfinite) {
  ExpectUnsafe("_");
  ExpectUnsafe("(_, 1)");
  ExpectUnsafe("_...");
}

TEST_F(Safety, AggregationOverInfiniteInput) {
  ExpectUnsafe("sum[Int]");
  ExpectUnsafe("count[add]");
}

TEST_F(Safety, SafetyErrorListsConstraints) {
  try {
    session_->Eval("{(x) : Int(x)}");
    FAIL();
  } catch (const RelError& e) {
    EXPECT_NE(std::string(e.what()).find("no safe evaluation order"),
              std::string::npos);
  }
}

TEST_F(Safety, GuardedByDomainBinding) {
  // `x in Fin` provides the guard that Int(x) cannot.
  EXPECT_EQ(session_->Eval("{[x in Fin] : x * 10}").ToString(),
            "{(1, 10); (2, 20); (3, 30)}");
}

TEST_F(Safety, ComparisonChainsGuardedLeftToRight) {
  EXPECT_EQ(
      session_->Eval("{(x,y) : Fin(x) and y = x + 1 and y < 3}").ToString(),
      "{(1, 2)}");
}

TEST_F(Safety, RangeGuardsItsVariable) {
  EXPECT_EQ(session_->Eval("{(i) : range(1, 4, 1, i)}").size(), 4u);
  ExpectUnsafe("{(a, i) : range(1, a, 1, i)}");
}

}  // namespace
}  // namespace rel
