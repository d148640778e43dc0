// E3: the denotational semantics of Figures 3 and 4, equation by equation.
// Each test evaluates an expression form and checks the defined result.

#include <gtest/gtest.h>

#include "base/error.h"
#include "core/engine.h"

namespace rel {
namespace {

Value I(int64_t v) { return Value::Int(v); }
Value S(const char* s) { return Value::String(s); }

class Semantics : public ::testing::Test {
 protected:
  Semantics() : engine_(/*load_stdlib=*/true) {
    session_->Define("def R {(1,2) ; (3,4)}\n"
                     "def S {(5,6)}\n"
                     "def U {(1) ; (2)}");
  }

  std::string Eval(const std::string& expr) {
    return session_->Eval(expr).ToString();
  }

  Engine engine_;
  std::unique_ptr<Session> session_ = engine_.OpenSession();
};

// J c K = {<c>}
TEST_F(Semantics, Constant) {
  EXPECT_EQ(Eval("42"), "{(42)}");
  EXPECT_EQ(Eval("\"x\""), "{(\"x\")}");
  EXPECT_EQ(Eval("2.5"), "{(2.5)}");
}

// J x K = mu(x): an identifier denotes the relation it is bound to.
TEST_F(Semantics, IdentifierDenotesRelation) {
  EXPECT_EQ(Eval("S"), "{(5, 6)}");
}

// J {E1; E2} K = union.
TEST_F(Semantics, Union) {
  EXPECT_EQ(Eval("{S ; (7,8)}"), "{(5, 6); (7, 8)}");
  // Mixed arities may coexist.
  EXPECT_EQ(Eval("{(1) ; (2,3)}"), "{(1); (2, 3)}");
}

// J (E1, E2) K = Cartesian product.
TEST_F(Semantics, Product) {
  EXPECT_EQ(Eval("(U, S)"), "{(1, 5, 6); (2, 5, 6)}");
  // Product with TRUE {()} is identity; with FALSE {} it is empty.
  EXPECT_EQ(Eval("(S, ())"), "{(5, 6)}");
  EXPECT_EQ(Eval("(S, {})"), "{}");
}

// J E where F K = E x F.
TEST_F(Semantics, Where) {
  EXPECT_EQ(Eval("S where 1 = 1"), "{(5, 6)}");
  EXPECT_EQ(Eval("S where 1 = 2"), "{}");
}

// J [c]:E K = {<c>} x E.
TEST_F(Semantics, AbstractionConstBinding) {
  EXPECT_EQ(Eval("{[9] : S}"), "{(9, 5, 6)}");
}

// J [x]:E K with a guarded variable.
TEST_F(Semantics, AbstractionVarBinding) {
  EXPECT_EQ(Eval("{[x] : U(x)}"), "{(1); (2)}");
  EXPECT_EQ(Eval("{[x in U] : (x, 10)}"), "{(1, 1, 10); (2, 2, 10)}");
}

// J [x...]:E K: tuple-variable bindings.
TEST_F(Semantics, AbstractionTupleVarBinding) {
  EXPECT_EQ(Eval("{[t...] : R(t...)}"), "{(1, 2); (3, 4)}");
}

// J (Bindings):Formula K = J [Bindings]:Formula K.
TEST_F(Semantics, RoundAbstractionEqualsSquareOnFormulas) {
  EXPECT_EQ(Eval("{(x) : U(x)}"), Eval("{[x] : U(x)}"));
}

// J {E}[_] K: wildcard application projects away the first column.
TEST_F(Semantics, WildcardApplication) {
  EXPECT_EQ(Eval("R[_]"), "{(2); (4)}");
  EXPECT_EQ(Eval("R[_, _]"), "{()}");
}

// J {E}[_...] K: drops any-length prefixes.
TEST_F(Semantics, WildcardTupleApplication) {
  // Suffixes after a prefix of any length: full tuples, 1-suffixes, <>.
  EXPECT_EQ(Eval("S[_...]"), "{(); (6); (5, 6)}");
}

// J {E1}[?{E2}] K: join on the first column.
TEST_F(Semantics, FirstOrderAnnotatedApplication) {
  EXPECT_EQ(Eval("R[?{U}]"), "{(2)}");  // only (1,2) has its head in U
}

// J {E1}[&{E2}] K: the whole relation E2 as one argument.
TEST_F(Semantics, SecondOrderAnnotatedApplication) {
  session_->Define("def f[{A}] : count[A]");
  EXPECT_EQ(Eval("f[&{R}]"), "{(2)}");
}

// Figure 4: {()} and {} are TRUE and FALSE.
TEST_F(Semantics, BooleanLiterals) {
  EXPECT_EQ(Eval("true"), "{()}");
  EXPECT_EQ(Eval("false"), "{}");
  EXPECT_EQ(Eval("{()}"), "{()}");
}

// J {E}(args) K = J {E}[args] K ∩ {()}.
TEST_F(Semantics, FullApplicationIsBoolean) {
  EXPECT_EQ(Eval("R(1, 2)"), "{()}");
  EXPECT_EQ(Eval("R(1, 3)"), "{}");
  EXPECT_EQ(Eval("R(1)"), "{}");  // wrong arity: not in the relation
}

// and = intersection, or = union, not = complement on booleans.
TEST_F(Semantics, Connectives) {
  EXPECT_EQ(Eval("R(1,2) and S(5,6)"), "{()}");
  EXPECT_EQ(Eval("R(1,2) and S(5,7)"), "{}");
  EXPECT_EQ(Eval("R(1,3) or S(5,6)"), "{()}");
  EXPECT_EQ(Eval("not R(1,3)"), "{()}");
  EXPECT_EQ(Eval("not R(1,2)"), "{}");
}

// exists / forall with binding forms.
TEST_F(Semantics, Quantifiers) {
  EXPECT_EQ(Eval("exists((x) | R(x, 2))"), "{()}");
  EXPECT_EQ(Eval("exists((x) | R(x, 9))"), "{}");
  EXPECT_EQ(Eval("forall((x in U) | exists((y) | R(x,y) or x = 2))"), "{()}");
  EXPECT_EQ(Eval("exists((t...) | R(t...))"), "{()}");
  EXPECT_EQ(Eval("forall((x in U) | R(x, _))"), "{}");  // 2 has no R row
}

// reduce[&{op}, &{input}] and the full reduce(op, input, v) formula form.
TEST_F(Semantics, Reduce) {
  EXPECT_EQ(Eval("reduce[rel_primitive_add, U]"), "{(3)}");
  EXPECT_EQ(Eval("reduce(rel_primitive_add, U, 3)"), "{()}");
  EXPECT_EQ(Eval("reduce(rel_primitive_add, U, 4)"), "{}");
  // Aggregation over the last column of higher-arity tuples.
  EXPECT_EQ(Eval("reduce[rel_primitive_add, R]"), "{(6)}");
  // reduce over {} is {} (the basis of the <++ 0 idiom).
  EXPECT_EQ(Eval("reduce[rel_primitive_add, {}]"), "{}");
}

// Non-functional reduce operators are a type error.
TEST_F(Semantics, ReduceRejectsNonFunctionalOperator) {
  // The fold applies the operator to (1, 2); two results for that key.
  session_->Define("def multi {(1, 2, 10) ; (1, 2, 20)}");
  EXPECT_THROW(Eval("reduce[multi, U]"), RelError);
}

// Defined relations can be used as reduce operators.
TEST_F(Semantics, ReduceWithDefinedOperator) {
  session_->Define("def clamped_add[x, y] : minimum[add[x, y], 10]");
  EXPECT_EQ(Eval("reduce[clamped_add, {(7);(8);(9)}]"), "{(10)}");
}

// Output is always first-order: relation variables cannot escape.
TEST_F(Semantics, SecondOrderTupleMembership) {
  // Product is second-order: testing membership of a second-order tuple.
  EXPECT_EQ(Eval("Product(R, S, 1, 2, 5, 6)"), "{()}");
  EXPECT_EQ(Eval("Product(R, S, 1, 2, 6, 5)"), "{}");
}

TEST_F(Semantics, EmptyRelationVsEmptyTuple) {
  EXPECT_EQ(Eval("count[{}] <++ 0"), "{(0)}");
  EXPECT_EQ(Eval("count[{()}]"), "{(1)}");  // one (empty) tuple
}

TEST_F(Semantics, EntityValues) {
  Engine engine(/*load_stdlib=*/false);
  auto session = engine.OpenSession();
  session->Insert("Owner", {Tuple({Value::Entity("person", "p1"), S("Ann")})});
  EXPECT_EQ(session->Query("def output(x) : Owner(_, x)").ToString(),
            "{(\"Ann\")}");
}

TEST_F(Semantics, DeepRecursionThroughInlinedDefs) {
  session_->Define(
      "def digits[x in Int] : 1 where x >= 0 and x < 10\n"
      "def digits[x in Int] : 1 + digits[(x - x % 10)/10] where x >= 10");
  EXPECT_EQ(Eval("digits[905617]"), "{(6)}");
}

}  // namespace
}  // namespace rel
