// E1: golden tests for (nearly) every worked example in the paper, run
// against the Figure 1 database. Expected answers are the ones stated in
// the paper's text (Sections 3-5).
//
// The whole suite is parameterized over InterpOptions::lower_recursion
// {off, on}: every example pins BOTH evaluation pipelines — the classic
// tuple-at-a-time saturation loop and the path where qualifying recursive
// components lower onto the indexed Datalog evaluator. Examples without
// recursion are unaffected by the toggle (the lowering only changes how
// recursive fixpoints are computed), so identical expectations apply.

#include <gtest/gtest.h>

#include "base/error.h"
#include "core/engine.h"

namespace rel {
namespace {

Value S(const char* s) { return Value::String(s); }
Value I(int64_t i) { return Value::Int(i); }

/// The Figure 1 database.
void LoadFigure1(Session& session) {
  session.Insert("PaymentOrder", {
                     Tuple({S("Pmt1"), S("O1")}),
                     Tuple({S("Pmt2"), S("O2")}),
                     Tuple({S("Pmt3"), S("O1")}),
                     Tuple({S("Pmt4"), S("O3")}),
                 });
  session.Insert("PaymentAmount", {
                     Tuple({S("Pmt1"), I(20)}),
                     Tuple({S("Pmt2"), I(10)}),
                     Tuple({S("Pmt3"), I(10)}),
                     Tuple({S("Pmt4"), I(90)}),
                 });
  session.Insert("OrderProductQuantity", {
                     Tuple({S("O1"), S("P1"), I(2)}),
                     Tuple({S("O1"), S("P2"), I(1)}),
                     Tuple({S("O2"), S("P1"), I(1)}),
                     Tuple({S("O3"), S("P3"), I(4)}),
                 });
  session.Insert("ProductPrice", {
                     Tuple({S("P1"), I(10)}),
                     Tuple({S("P2"), I(20)}),
                     Tuple({S("P3"), I(30)}),
                     Tuple({S("P4"), I(40)}),
                 });
}

class PaperExamples : public ::testing::TestWithParam<bool> {
 protected:
  PaperExamples() {
    session_->options().lower_recursion = GetParam();
    LoadFigure1(*session_);
  }

  std::string Query(const std::string& source) {
    return session_->Query(source).ToString();
  }

  Engine engine_;
  std::unique_ptr<Session> session_ = engine_.OpenSession();
};

INSTANTIATE_TEST_SUITE_P(Pipelines, PaperExamples, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "lowered" : "interp";
                         });

// --- Section 3.1: Datalog as a starting point ---

TEST_P(PaperExamples, OrderWithPayment) {
  EXPECT_EQ(Query("def OrderWithPayment(y) : exists((x) | PaymentOrder(x,y))\n"
                  "def output(y) : OrderWithPayment(y)"),
            R"({("O1"); ("O2"); ("O3")})");
}

TEST_P(PaperExamples, OrderWithPaymentWildcard) {
  EXPECT_EQ(Query("def OrderWithPayment(y) : PaymentOrder(_,y)\n"
                  "def output(y) : OrderWithPayment(y)"),
            R"({("O1"); ("O2"); ("O3")})");
}

TEST_P(PaperExamples, OrderedProducts) {
  EXPECT_EQ(Query("def OrderedProducts(y) : OrderProductQuantity(_,y,_)\n"
                  "def output(y) : OrderedProducts(y)"),
            R"({("P1"); ("P2"); ("P3")})");
}

TEST_P(PaperExamples, OrderedProductPrice) {
  EXPECT_EQ(
      Query("def OrderedProductPrice(x,y) :\n"
            "  OrderProductQuantity(_,x,_) and ProductPrice(x,y)\n"
            "def output(x,y) : OrderedProductPrice(x,y)"),
      R"({("P1", 10); ("P2", 20); ("P3", 30)})");
}

TEST_P(PaperExamples, NotOrderedViaNegation) {
  EXPECT_EQ(Query("def NotOrdered(x) : ProductPrice(x,_) and\n"
                  "  not exists ((y1,y2) | OrderProductQuantity(y1,x,y2))\n"
                  "def output(x) : NotOrdered(x)"),
            R"({("P4")})");
}

TEST_P(PaperExamples, NotOrderedViaForall) {
  EXPECT_EQ(Query("def NotOrdered(x) : ProductPrice(x,_) and\n"
                  "  forall ((y1,y2) | not OrderProductQuantity(y1,x,y2))\n"
                  "def output(x) : NotOrdered(x)"),
            R"({("P4")})");
}

TEST_P(PaperExamples, NotOrderedViaWildcards) {
  EXPECT_EQ(Query("def NotOrdered(x) :\n"
                  "  ProductPrice(x,_) and not OrderProductQuantity(_,x,_)\n"
                  "def output(x) : NotOrdered(x)"),
            R"({("P4")})");
}

TEST_P(PaperExamples, AlwaysOrderedRestrictedForall) {
  // V = {"O1", "O2"}; products in every order of V: P1 (in O1 and O2).
  EXPECT_EQ(Query("def V {(\"O1\") ; (\"O2\")}\n"
                  "def AlwaysOrdered(x) : ProductPrice(x,_) and\n"
                  "  forall ((o in V) | OrderProductQuantity(o,x,_))\n"
                  "def output(x) : AlwaysOrdered(x)"),
            R"({("P1")})");
}

// --- Section 3.2: infinite relations ---

TEST_P(PaperExamples, DiscountedProductPrice) {
  EXPECT_EQ(
      Query("def DiscountedproductPrice(x,y) :\n"
            "  exists ((z) | ProductPrice(x,z) and add(y,5,z))\n"
            "def output(x,y) : DiscountedproductPrice(x,y)"),
      R"({("P1", 5); ("P2", 15); ("P3", 25); ("P4", 35)})");
}

TEST_P(PaperExamples, UnsafeAloneIsError) {
  EXPECT_THROW(
      Query("def AdditiveInverse(x,y) : Int(x) and Int(y) and add(x,y,0)\n"
            "def output(x,y) : AdditiveInverse(x,y)"),
      RelError);
}

TEST_P(PaperExamples, UnsafeIntersectedWithFiniteIsFine) {
  // The paper: "an expression that intersects AdditiveInverse with a finite
  // set will be seen as safe and thus evaluated to produce a finite result".
  EXPECT_EQ(
      Query("def AdditiveInverse(x,y) : Int(x) and Int(y) and add(x,y,0)\n"
            "def Fin {(1,-1) ; (2,3) ; (-4,4)}\n"
            "def output(x,y) : Fin(x,y) and AdditiveInverse(x,y)"),
      "{(-4, 4); (1, -1)}");
}

TEST_P(PaperExamples, PsychologicallyPriced) {
  session_->Insert("ProductPrice", {Tuple({S("P9"), I(199)})});
  EXPECT_EQ(Query("def PsychologicallyPriced(x) :\n"
                  "  exists ((y) | ProductPrice(x,y) and y % 100 = 99)\n"
                  "def output(x) : PsychologicallyPriced(x)"),
            R"({("P9")})");
}

// --- Section 3.3: code flow and recursion ---

TEST_P(PaperExamples, BoughtWithExpensiveProduct) {
  const char* program =
      "def SameOrder(p1, p2) :\n"
      "  exists((o) | OrderProductQuantity(o, p1, _)\n"
      "               and OrderProductQuantity(o, p2, _))\n"
      "def SameOrderDiffProduct(p1, p2) : SameOrder(p1, p2) and p1 != p2\n"
      "def Expensive(p) :\n"
      "  exists ((price) | ProductPrice(p,price) and price > 15)\n"
      "def BoughtWithExpensiveProduct(p) :\n"
      "  exists((x in Expensive) | SameOrderDiffProduct(x, p))\n"
      "def output(p) : BoughtWithExpensiveProduct(p)";
  EXPECT_EQ(Query(program), R"({("P1")})");
}

TEST_P(PaperExamples, RuleOrderIrrelevant) {
  const char* reversed =
      "def output(p) : BoughtWithExpensiveProduct(p)\n"
      "def BoughtWithExpensiveProduct(p) :\n"
      "  exists((x in Expensive) | SameOrderDiffProduct(x, p))\n"
      "def Expensive(p) :\n"
      "  exists ((price) | ProductPrice(p,price) and price > 15)\n"
      "def SameOrderDiffProduct(p1, p2) : SameOrder(p1, p2) and p1 != p2\n"
      "def SameOrder(p1, p2) :\n"
      "  exists((o) | OrderProductQuantity(o, p1, _)\n"
      "               and OrderProductQuantity(o, p2, _))";
  EXPECT_EQ(Query(reversed), R"({("P1")})");
}

TEST_P(PaperExamples, SameOrderDiffProductPairs) {
  EXPECT_EQ(
      Query("def SameOrder(p1, p2) :\n"
            "  exists((o) | OrderProductQuantity(o, p1, _)\n"
            "               and OrderProductQuantity(o, p2, _))\n"
            "def output(p1,p2) : SameOrder(p1,p2) and p1 != p2"),
      R"({("P1", "P2"); ("P2", "P1")})");
}

TEST_P(PaperExamples, TransitiveClosureNonLinear) {
  Engine engine;
  auto session = engine.OpenSession();
  session->options().lower_recursion = GetParam();
  session->Insert("E", {Tuple({I(1), I(2)}), Tuple({I(2), I(3)}),
                        Tuple({I(3), I(4)}), Tuple({I(10), I(11)})});
  // Non-linear recursion: TC_E occurs twice on the right-hand side.
  Relation out = session->Query(
      "def TC_E(x,y) : E(x,y)\n"
      "def TC_E(x,y) : exists((z) | TC_E(x,z) and TC_E(z,y))\n"
      "def output(x,y) : TC_E(x,y)");
  EXPECT_EQ(out.size(), 7u);
  EXPECT_TRUE(out.Contains(Tuple({I(1), I(4)})));
  EXPECT_TRUE(out.Contains(Tuple({I(10), I(11)})));
}

TEST_P(PaperExamples, MultipleRulesAreUnion) {
  EXPECT_EQ(Query("def R(x) : x = 1\n"
                  "def R(x) : x = 2\n"
                  "def output(x) : R(x)"),
            "{(1); (2)}");
}

// --- Section 3.4: output and updates ---

TEST_P(PaperExamples, OutputControlRelation) {
  EXPECT_EQ(Query("def output (x) : exists( (y) | ProductPrice(x,y) and y > "
                  "30)"),
            R"({("P4")})");
}

TEST_P(PaperExamples, InsertAndDeleteControlRelations) {
  // OrderTotal / OrderPaid via aggregation (Section 5.2), then close fully
  // paid orders: O1 has total 2*10+1*20=40 and payments 20+10=30 (open);
  // O2 total 10, paid 10 (closed); O3 total 120, paid 90 (open).
  session_->Define(
      "def Ord(x) : OrderProductQuantity(x,_,_)\n"
      "def OrderLineAmount(o, p, a) :\n"
      "  exists((q, pr) | OrderProductQuantity(o, p, q) and\n"
      "                   ProductPrice(p, pr) and a = q * pr)\n"
      "def OrderTotal[x in Ord] : sum[OrderLineAmount[x]]\n"
      "def OrderPaymentAmount(x,y,z) :\n"
      "  PaymentOrder(y,x) and PaymentAmount(y,z)\n"
      "def OrderPaid[x in Ord] : sum[OrderPaymentAmount[x]]");

  TxnResult txn = session_->Exec(
      "def delete (:OrderProductQuantity,x,y,z) :\n"
      "  OrderProductQuantity(x,y,z) and\n"
      "  exists( (u) | OrderPaid(x,u) and OrderTotal(x,u) )\n"
      "def insert (:ClosedOrders,x) :\n"
      "  exists( (u) | OrderPaid(x,u) and OrderTotal(x,u))");
  EXPECT_EQ(txn.inserted, 1u);
  EXPECT_EQ(txn.deleted, 1u);
  EXPECT_EQ(session_->Base("ClosedOrders").ToString(), R"({("O2")})");
  EXPECT_FALSE(session_->Base("OrderProductQuantity")
                     .Contains(Tuple({S("O2"), S("P1"), I(1)})));
  EXPECT_TRUE(session_->Base("OrderProductQuantity")
                    .Contains(Tuple({S("O1"), S("P1"), I(2)})));
}

// --- Section 3.5: integrity constraints ---

TEST_P(PaperExamples, TypeConstraintHolds) {
  session_->Define(
      "ic integer_quantities() requires\n"
      "  forall((x) | OrderProductQuantity(_,_,x) implies Int(x))");
  EXPECT_NO_THROW(session_->Exec("def insert(:Dummy, x) : x = 1"));
}

TEST_P(PaperExamples, ViolatedConstraintAbortsTransaction) {
  session_->Define(
      "ic valid_products(x) requires\n"
      "  OrderProductQuantity(_,x,_) implies ProductPrice(x,_)");
  // Inserting an order line for an unpriced product violates the ic;
  // the transaction must roll back.
  EXPECT_THROW(
      session_->Exec("def insert(:OrderProductQuantity, o, p, q) :\n"
                     "  o = \"O9\" and p = \"Phantom\" and q = 1"),
      ConstraintViolation);
  EXPECT_FALSE(session_->Base("OrderProductQuantity")
                     .Contains(Tuple({S("O9"), S("Phantom"), I(1)})));
}

// --- Section 4.1: tuple variables ---

TEST_P(PaperExamples, CartesianProductFixedArity) {
  EXPECT_EQ(Query("def R {(1,2) ; (3,4)}\n"
                  "def S {(5,6)}\n"
                  "def ProductRS(a,b,c,d) : R(a,b) and S(c,d)\n"
                  "def output(a,b,c,d) : ProductRS(a,b,c,d)"),
            "{(1, 2, 5, 6); (3, 4, 5, 6)}");
}

TEST_P(PaperExamples, CartesianProductTupleVariables) {
  EXPECT_EQ(Query("def R {(1,2,3)}\n"
                  "def S {(5,6)}\n"
                  "def ProductRS(x..., y...) : R(x...) and S(y...)\n"
                  "def output : ProductRS"),
            "{(1, 2, 3, 5, 6)}");
}

TEST_P(PaperExamples, PrefixesOfTuples) {
  EXPECT_EQ(Query("def R {(1,2)}\n"
                  "def Prefix(x...) : R(x..., _...)\n"
                  "def output : Prefix"),
            "{(); (1); (1, 2)}");
}

TEST_P(PaperExamples, PermutationsViaTranspositions) {
  Relation out = session_->Query(
      "def R {(1,2,3)}\n"
      "def Perm(x...) : R(x...)\n"
      "def Perm(x...,a,y...,b,z...) : Perm(x...,b,y...,a,z...)\n"
      "def output : Perm");
  EXPECT_EQ(out.size(), 6u);  // 3! permutations
  EXPECT_TRUE(out.Contains(Tuple({I(3), I(2), I(1)})));
  EXPECT_TRUE(out.Contains(Tuple({I(2), I(3), I(1)})));
}

// --- Sections 4.2/4.3: relation variables and relational application ---

TEST_P(PaperExamples, ProductAsSecondOrderRelationFullApplication) {
  session_->Define("def R {(1,2) ; (3,4)}\ndef S {(5,6)}");
  EXPECT_EQ(Query("def output : Product(R, S, 1, 2, 5, 6)"), "{()}");
  EXPECT_EQ(Query("def output : Product(R, S, 1, 2, 5, 7)"), "{}");
}

TEST_P(PaperExamples, ProductPartialApplication) {
  session_->Define("def R {(1,2) ; (3,4)}\ndef S {(5,6)}");
  EXPECT_EQ(Query("def output : Product[R, S]"),
            "{(1, 2, 5, 6); (3, 4, 5, 6)}");
}

TEST_P(PaperExamples, CommaIsCartesianProduct) {
  EXPECT_EQ(Query("def output : (\"P4\", 40)"), R"({("P4", 40)})");
  EXPECT_EQ(session_->Eval("(PaymentOrder, ProductPrice)").size(), 16u);
}

TEST_P(PaperExamples, PartialApplicationSuffixes) {
  EXPECT_EQ(Query("def output : OrderProductQuantity[\"O1\"]"),
            R"({("P1", 2); ("P2", 1)})");
}

TEST_P(PaperExamples, FullEqualsPartialWhenAllArgsGiven) {
  EXPECT_EQ(Query("def output : OrderProductQuantity[\"O1\",\"P1\",2]"),
            "{()}");
  EXPECT_EQ(Query("def output : OrderProductQuantity(\"O1\",\"P1\",2)"),
            "{()}");
}

// --- Section 4.4: abstraction ---

TEST_P(PaperExamples, RoundAbstractionSetComprehension) {
  EXPECT_EQ(Query("def output : {(x,y) : OrderProductQuantity(x,\"P1\",y)}"),
            R"({("O1", 2); ("O2", 1)})");
}

TEST_P(PaperExamples, SquareAbstractionExample4) {
  // {[x,y] : (OrderProductQuantity[x], PaymentOrder(y,x))}
  Relation out = session_->Eval(
      "{[x,y] : (OrderProductQuantity[x], PaymentOrder(y,x)) }");
  EXPECT_TRUE(out.Contains(Tuple({S("O1"), S("Pmt1"), S("P1"), I(2)})));
  EXPECT_TRUE(out.Contains(Tuple({S("O1"), S("Pmt1"), S("P2"), I(1)})));
  EXPECT_TRUE(out.Contains(Tuple({S("O1"), S("Pmt3"), S("P1"), I(2)})));
  // O1 has 2 payments x 2 lines, O2 and O3 one payment x one line each.
  EXPECT_EQ(out.size(), 6u);
}

TEST_P(PaperExamples, SquareAbstractionRestrictedRange) {
  session_->Define("def V {(\"Pmt2\") ; (\"Pmt4\")}");
  EXPECT_EQ(
      Query("def output : {[x, y in V] :\n"
            "  (OrderProductQuantity[x], PaymentOrder(y,x)) }"),
      R"({("O2", "Pmt2", "P1", 1); ("O3", "Pmt4", "P3", 4)})");
}

TEST_P(PaperExamples, WhereIsSugarForConditioning) {
  Relation a = session_->Eval(
      "{[x,y] : OrderProductQuantity[x] where PaymentOrder(y,x)}");
  Relation b = session_->Eval(
      "{[x,y] : (OrderProductQuantity[x], PaymentOrder(y,x))}");
  EXPECT_EQ(a, b);
}

// --- Section 5.1: standard library ---

TEST_P(PaperExamples, DotJoin) {
  EXPECT_EQ(Query("def output : PaymentOrder.OrderProductQuantity"),
            Query("def output(p, pr, q) : exists((o) | "
                  "PaymentOrder(p,o) and OrderProductQuantity(o,pr,q))"));
}

TEST_P(PaperExamples, LeftOverride) {
  EXPECT_EQ(Query("def A {(1, 10)}\n"
                  "def B {(1, 99) ; (2, 20)}\n"
                  "def output : left_override[A, B]"),
            "{(1, 10); (2, 20)}");
}

// --- Section 5.2: aggregation and reduce ---

TEST_P(PaperExamples, BasicAggregates) {
  Engine engine;
  auto session = engine.OpenSession();
  session->options().lower_recursion = GetParam();
  EXPECT_EQ(session->Eval("sum[{(1);(2);(3)}]").ToString(), "{(6)}");
  EXPECT_EQ(session->Eval("count[{(5);(7);(9)}]").ToString(), "{(3)}");
  EXPECT_EQ(session->Eval("min[{(5);(7);(9)}]").ToString(), "{(5)}");
  EXPECT_EQ(session->Eval("max[{(5);(7);(9)}]").ToString(), "{(9)}");
  EXPECT_EQ(session->Eval("avg[{(2);(4)}]").ToString(), "{(3)}");
}

TEST_P(PaperExamples, SumIsOverWholeRelationNotLastColumn) {
  // sum of {(1,12),(2,12)} is 24 even though the value 12 repeats.
  EXPECT_EQ(Query("def output : sum[{(1,12) ; (2,12)}]"), "{(24)}");
}

TEST_P(PaperExamples, Argmin) {
  EXPECT_EQ(Query("def output : Argmin[{(\"a\", 2) ; (\"b\", 1) ; "
                  "(\"c\", 1)}]"),
            R"({("b"); ("c")})");
}

TEST_P(PaperExamples, GroupedAggregationOrderPaid) {
  const char* program =
      "def Ord(x) : OrderProductQuantity(x,_,_)\n"
      "def OrderPaymentAmount(x,y,z) :\n"
      "  PaymentOrder(y,x) and PaymentAmount(y,z)\n"
      "def OrderPaid[x in Ord] : sum[OrderPaymentAmount[x]]\n"
      "def output : OrderPaid";
  EXPECT_EQ(Query(program), R"({("O1", 30); ("O2", 10); ("O3", 90)})");
}

TEST_P(PaperExamples, GroupedAggregationWithDefault) {
  // Orders without payments get 0 via left override.
  session_->Insert("OrderProductQuantity", {Tuple({S("O4"), S("P4"), I(1)})});
  const char* program =
      "def Ord(x) : OrderProductQuantity(x,_,_)\n"
      "def OrderPaymentAmount(x,y,z) :\n"
      "  PaymentOrder(y,x) and PaymentAmount(y,z)\n"
      "def OrderPaid[x in Ord] : sum[OrderPaymentAmount[x]] <++ 0\n"
      "def output : OrderPaid";
  EXPECT_EQ(Query(program),
            R"({("O1", 30); ("O2", 10); ("O3", 90); ("O4", 0)})");
}

// --- Section 5.3.1: point-free relational algebra ---

TEST_P(PaperExamples, PointFreeSelectUnion) {
  // sigma_{A1=A2}(R x S) ∪ B
  const char* program =
      "def R {(1) ; (2)}\n"
      "def S {(1) ; (3)}\n"
      "def B {(7, 7)}\n"
      "def Cond12(x1,x2,x...) : {x1=x2}\n"
      "def output : Union[Select[Product[R,S],Cond12],B]";
  EXPECT_EQ(Query(program), "{(1, 1); (7, 7)}");
}

TEST_P(PaperExamples, ProjectionViaAbstraction) {
  EXPECT_EQ(Query("def R {(1,2,3,4) ; (5,6,7,8)}\n"
                  "def output : {(x,y) : R(x,_,y,_...)}"),
            "{(1, 3); (5, 7)}");
}

// --- Section 5.3.2: linear algebra ---

TEST_P(PaperExamples, ScalarProduct) {
  // u=(4,2), v=(3,6): u.v = 24.
  EXPECT_EQ(Query("def U {(1,4) ; (2,2)}\n"
                  "def V {(1,3) ; (2,6)}\n"
                  "def output : ScalarProd[U, V]"),
            "{(24)}");
}

TEST_P(PaperExamples, MatrixMult) {
  // [[1,2],[3,4]] * [[5,6],[7,8]] = [[19,22],[43,50]]
  const char* program =
      "def A {(1,1,1) ; (1,2,2) ; (2,1,3) ; (2,2,4)}\n"
      "def B {(1,1,5) ; (1,2,6) ; (2,1,7) ; (2,2,8)}\n"
      "def output : MatrixMult[A, B]";
  EXPECT_EQ(Query(program),
            "{(1, 1, 19); (1, 2, 22); (2, 1, 43); (2, 2, 50)}");
}

TEST_P(PaperExamples, MatrixVector) {
  // [[1,2],[3,4]] * (5,6) = (17, 39)
  EXPECT_EQ(Query("def A {(1,1,1) ; (1,2,2) ; (2,1,3) ; (2,2,4)}\n"
                  "def V {(1,5) ; (2,6)}\n"
                  "def output : MatrixVector[A, V]"),
            "{(1, 17); (2, 39)}");
}

// --- Section 5.4: graph library ---

TEST_P(PaperExamples, ApspTeaser) {
  // Path graph 1 -> 2 -> 3.
  session_->Define("def N {(1);(2);(3)}\n"
                   "def NN {(1,2) ; (2,3)}");
  EXPECT_EQ(Query("def output : APSP[N, NN, 1, 3]"), "{(2)}");
  EXPECT_EQ(Query("def output : APSP[N, NN]"),
            "{(1, 1, 0); (1, 2, 1); (1, 3, 2); (2, 2, 0); (2, 3, 1); "
            "(3, 3, 0)}");
}

TEST_P(PaperExamples, ApspBothFormulationsAgree) {
  session_->Define("def N {(1);(2);(3);(4)}\n"
                   "def NN {(1,2) ; (2,3) ; (3,4) ; (1,3)}");
  EXPECT_EQ(session_->Query("def output : APSP[N, NN]"),
            session_->Query("def output : APSP_guarded[N, NN]"));
}

TEST_P(PaperExamples, PageRankConverges) {
  // A 3-cycle: column-stochastic matrix; PageRank converges to uniform.
  session_->Define(
      "def G {(1,3,1.0) ; (2,1,1.0) ; (3,2,1.0)}");
  Relation out = session_->Query("def output : PageRank[G]");
  EXPECT_EQ(out.size(), 3u);
  for (const Tuple& t : out.SortedTuples()) {
    ASSERT_EQ(t.arity(), 2u);
    EXPECT_NEAR(t[1].AsDouble(), 1.0 / 3.0, 1e-9);
  }
}

// --- Addendum A: ?/& disambiguation ---

TEST_P(PaperExamples, AddUpDisambiguation) {
  // The paper's listing writes the digit-sum rule with `where x >= 0` and
  // no base case, which has an empty least fixpoint (addUp[0] would require
  // addUp[0]); we add the intended base case addUp[0] = 0.
  session_->Define(
      "def addUp[{A}] : sum[A]\n"
      "def addUp[x in Int] : 0 where x = 0\n"
      "def addUp[x in Int] : x%10 + addUp[(x-x%10)/10] where x > 0");
  EXPECT_EQ(Query("def output : addUp[?{11;22}]"), "{(2); (4)}");
  EXPECT_EQ(Query("def output : addUp[&{11;22}]"), "{(33)}");
  EXPECT_THROW(Query("def output : addUp[{11;22}]"), RelError);
}

}  // namespace
}  // namespace rel
