// Tests for every relation in the standard library (src/core/stdlib_rel.cc),
// beyond the paper-example coverage.

#include <gtest/gtest.h>

#include "base/error.h"
#include "core/engine.h"

namespace rel {
namespace {

class Stdlib : public ::testing::Test {
 protected:
  std::string Eval(const std::string& expr) {
    return session_->Eval(expr).ToString();
  }
  Engine engine_;
  std::unique_ptr<Session> session_ = engine_.OpenSession();
};

// --- arithmetic wrappers ---

TEST_F(Stdlib, ArithmeticWrappers) {
  EXPECT_EQ(Eval("add[2, 3]"), "{(5)}");
  EXPECT_EQ(Eval("subtract[2, 3]"), "{(-1)}");
  EXPECT_EQ(Eval("multiply[4, 3]"), "{(12)}");
  EXPECT_EQ(Eval("divide[9, 3]"), "{(3)}");
  EXPECT_EQ(Eval("modulo[9, 4]"), "{(1)}");
  EXPECT_EQ(Eval("power[3, 3]"), "{(27)}");
  EXPECT_EQ(Eval("minimum[4, 9]"), "{(4)}");
  EXPECT_EQ(Eval("maximum[4, 9]"), "{(9)}");
  EXPECT_EQ(Eval("abs_value[-7]"), "{(7)}");
  EXPECT_EQ(Eval("floor[2.9]"), "{(2)}");
  EXPECT_EQ(Eval("sqrt[16.0]"), "{(4.0)}");
}

TEST_F(Stdlib, ArithmeticWrappersInvertLikePrimitives) {
  // The inlined wrapper supports the same binding patterns as the builtin.
  EXPECT_EQ(Eval("{(x) : add(x, 3, 10)}"), "{(7)}");
  EXPECT_EQ(Eval("{(y) : multiply(4, y, 12)}"), "{(3)}");
}

TEST_F(Stdlib, InfixOperatorsWorkWithoutStdlib) {
  // The infix operators desugar to primitives, independent of the library
  // (the stdlib's `def (+)` forms are parsed for fidelity; see parser_test).
  Engine engine(/*load_stdlib=*/false);
  auto session = engine.OpenSession();
  EXPECT_EQ(session->Eval("2 + 3").ToString(), "{(5)}");
  EXPECT_EQ(session->Eval("2 < 3").ToString(), "{()}");
}

TEST_F(Stdlib, StringWrappers) {
  EXPECT_EQ(Eval("concat[\"ab\", \"cd\"]"), "{(\"abcd\")}");
  EXPECT_EQ(Eval("string_length[\"hello\"]"), "{(5)}");
  EXPECT_EQ(Eval("uppercase[\"aB\"]"), "{(\"AB\")}");
  EXPECT_EQ(Eval("lowercase[\"aB\"]"), "{(\"ab\")}");
  EXPECT_EQ(Eval("substring[\"hello\", 1, 3]"), "{(\"hel\")}");
  EXPECT_EQ(Eval("parse_int[\"17\"]"), "{(17)}");
  EXPECT_EQ(Eval("string[42]"), "{(\"42\")}");
}

// --- core relational operators ---

TEST_F(Stdlib, Empty) {
  EXPECT_EQ(Eval("empty({})"), "{()}");
  EXPECT_EQ(Eval("empty({(1)})"), "{}");
  // empty of an empty *derived* relation.
  session_->Define("def none(x) : x = 1 and x = 2");
  EXPECT_EQ(Eval("empty(none)"), "{()}");
}

TEST_F(Stdlib, DotJoinArities) {
  session_->Define("def A {(1, 2) ; (1, 3)}\n"
                   "def B {(2, \"two\") ; (3, \"three\") ; (9, \"nine\")}\n"
                   "def C3 {(1, 2, 3)}");
  EXPECT_EQ(Eval("A.B"), R"({(1, "three"); (1, "two")})");
  // Dot join of a ternary with a binary: joins last-to-first.
  EXPECT_EQ(Eval("C3.{(3, 33)}"), "{(1, 2, 33)}");
  // Unary RHS acts as a filter on the last column.
  EXPECT_EQ(Eval("A.{(3)}"), "{(1)}");
}

TEST_F(Stdlib, LeftOverrideKeyedDefaults) {
  session_->Define("def A {(1, 10) ; (2, 20)}\n"
                   "def B {(2, 99) ; (3, 30)}");
  EXPECT_EQ(Eval("A <++ B"), "{(1, 10); (2, 20); (3, 30)}");
  EXPECT_EQ(Eval("B <++ A"), "{(1, 10); (2, 99); (3, 30)}");
  EXPECT_EQ(Eval("{} <++ A"), "{(1, 10); (2, 20)}");
  // Scalar default for an empty aggregate (the Section 5.2 idiom).
  EXPECT_EQ(Eval("sum[{}] <++ 0"), "{(0)}");
  EXPECT_EQ(Eval("sum[{(5)}] <++ 0"), "{(5)}");
}

TEST_F(Stdlib, RelationalAlgebra) {
  session_->Define("def A {(1) ; (2)}\n"
                   "def B {(2) ; (3)}");
  EXPECT_EQ(Eval("Union[A, B]"), "{(1); (2); (3)}");
  EXPECT_EQ(Eval("Intersect[A, B]"), "{(2)}");
  EXPECT_EQ(Eval("Minus[A, B]"), "{(1)}");
  EXPECT_EQ(Eval("Product[A, B]"), "{(1, 2); (1, 3); (2, 2); (2, 3)}");
  // Mixed arities in a union.
  EXPECT_EQ(Eval("Union[A, {(7, 8)}]"), "{(1); (2); (7, 8)}");
}

TEST_F(Stdlib, SelectWithFiniteAndInfiniteConditions) {
  session_->Define("def A {(1, 1) ; (1, 2) ; (3, 3)}");
  EXPECT_EQ(Eval("Select[A, {(1, 1)}]"), "{(1, 1)}");
  session_->Define("def Diag(x, y) : x = y");
  EXPECT_EQ(Eval("Select[A, Diag]"), "{(1, 1); (3, 3)}");
}

// --- aggregates ---

TEST_F(Stdlib, Aggregates) {
  EXPECT_EQ(Eval("sum[{(1);(2);(3)}]"), "{(6)}");
  EXPECT_EQ(Eval("prod[{(2);(3);(4)}]"), "{(24)}");
  EXPECT_EQ(Eval("count[{(\"a\");(\"b\")}]"), "{(2)}");
  EXPECT_EQ(Eval("min[{(3.5);(2)}]"), "{(2)}");
  EXPECT_EQ(Eval("max[{(3.5);(2)}]"), "{(3.5)}");
  EXPECT_EQ(Eval("avg[{(1);(2);(3);(6)}]"), "{(3)}");
}

TEST_F(Stdlib, AggregatesOverLastColumn) {
  // Keyed tuples: the aggregate folds the last column across all tuples.
  EXPECT_EQ(Eval("sum[{(\"a\", 1) ; (\"b\", 1) ; (\"c\", 2)}]"), "{(4)}");
  EXPECT_EQ(Eval("count[{(\"a\", 1) ; (\"b\", 1)}]"), "{(2)}");
}

TEST_F(Stdlib, ArgminArgmax) {
  session_->Define("def Score {(\"a\", 3) ; (\"b\", 1) ; (\"c\", 3)}");
  EXPECT_EQ(Eval("Argmin[Score]"), R"({("b")})");
  EXPECT_EQ(Eval("Argmax[Score]"), R"({("a"); ("c")})");
}

// --- linear algebra ---

TEST_F(Stdlib, LinearAlgebra) {
  session_->Define("def M {(1,1,2.0) ; (2,2,3.0)}\n"
                   "def X {(1,1.0) ; (2,1.0)}");
  EXPECT_EQ(Eval("dimension[M]"), "{(2)}");
  EXPECT_EQ(Eval("MatrixVector[M, X]"), "{(1, 2.0); (2, 3.0)}");
  EXPECT_EQ(Eval("Transpose[{(1,2,5.0)}]"), "{(2, 1, 5.0)}");
  // Multiplying by the identity is the identity.
  session_->Define("def I2 {(1,1,1.0) ; (2,2,1.0)}");
  EXPECT_EQ(Eval("MatrixMult[M, I2]"), "{(1, 1, 2.0); (2, 2, 3.0)}");
}

// --- graph library ---

TEST_F(Stdlib, GraphBasics) {
  session_->Define("def E {(1,2) ; (2,3) ; (3,1) ; (3,4)}");
  EXPECT_EQ(Eval("Nodes[E]"), "{(1); (2); (3); (4)}");
  EXPECT_EQ(Eval("outdegree[E]"), "{(1, 1); (2, 1); (3, 2); (4, 0)}");
  EXPECT_EQ(Eval("indegree[E]"), "{(1, 1); (2, 1); (3, 1); (4, 1)}");
  EXPECT_EQ(Eval("triangle_count[E]"), "{(1)}");
  EXPECT_EQ(Eval("triangle_count[{(1,2)}]"), "{(0)}");
}

TEST_F(Stdlib, TCOnCycle) {
  session_->Define("def E {(1,2) ; (2,3) ; (3,1)}");
  Relation tc = session_->Query("def output : TC[E]");
  EXPECT_EQ(tc.size(), 9u);  // complete: every node reaches every node
}

TEST_F(Stdlib, TCMemoizedAcrossUses) {
  session_->Define("def E {(1,2) ; (2,3)}");
  // Two uses of TC[E] in one query share the instance.
  Relation out = session_->Query(
      "def output(x) : TC[E](1, x) and TC[E](x, 3)");
  EXPECT_EQ(out.ToString(), "{(2)}");
}

TEST_F(Stdlib, ApspDisconnected) {
  session_->Define("def V {(1);(2);(3)}\n"
                   "def E {(1,2)}");
  Relation apsp = session_->Query("def output : APSP_guarded[V, E]");
  // 3 self-distances + one edge; node 3 unreachable from 1 and 2.
  EXPECT_EQ(apsp.size(), 4u);
}

TEST_F(Stdlib, UndirectedEdgeAndReachable) {
  session_->Define("def E {(1,2) ; (3,2)}");
  EXPECT_EQ(Eval("UndirectedEdge[E]"),
            "{(1, 2); (2, 1); (2, 3); (3, 2)}");
  // Reachable is reflexive on the node set.
  Relation reach = session_->Query("def output : Reachable[E]");
  EXPECT_TRUE(reach.Contains(Tuple({Value::Int(1), Value::Int(1)})));
  EXPECT_TRUE(reach.Contains(Tuple({Value::Int(1), Value::Int(2)})));
  EXPECT_FALSE(reach.Contains(Tuple({Value::Int(1), Value::Int(3)})));
}

TEST_F(Stdlib, ConnectedComponents) {
  // Two components: {1,2,3} (via undirected edges) and {7,8}.
  session_->Define("def E {(1,2) ; (3,2) ; (7,8)}");
  EXPECT_EQ(Eval("connected_component[E]"),
            "{(1, 1); (2, 1); (3, 1); (7, 7); (8, 7)}");
  // Distinct component labels = number of components.
  EXPECT_EQ(Eval("count[(l) : connected_component[E](_, l)]"), "{(2)}");
}

TEST_F(Stdlib, ConnectedComponentsSingletonAndCycle) {
  session_->Define("def E {(1,1) ; (5,6) ; (6,5)}");
  EXPECT_EQ(Eval("connected_component[E]"), "{(1, 1); (5, 5); (6, 5)}");
}

TEST_F(Stdlib, PageRankOnTwoCycle) {
  session_->Define("def G {(1,2,1.0) ; (2,1,1.0)}");
  Relation pr = session_->Query("def output : PageRank[G]");
  ASSERT_EQ(pr.size(), 2u);
  for (const Tuple& t : pr.TuplesOfArity(2)) {
    EXPECT_NEAR(t[1].AsDouble(), 0.5, 1e-9);
  }
}

}  // namespace
}  // namespace rel
