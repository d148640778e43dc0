// End-to-end smoke tests: the engine evaluates the simplest programs.

#include <gtest/gtest.h>

#include "core/engine.h"

namespace rel {
namespace {

std::string Eval(Engine& engine, const std::string& expr) {
  return engine.OpenSession()->Eval(expr).ToString();
}

TEST(Smoke, ConstantOutput) {
  Engine engine(/*load_stdlib=*/false);
  EXPECT_EQ(engine.OpenSession()->Query("def output(x) : x = 1").ToString(),
            "{(1)}");
}

TEST(Smoke, RelationLiteral) {
  Engine engine(/*load_stdlib=*/false);
  EXPECT_EQ(Eval(engine, "{(1,2,3) ; (4,5,6) ; (7,8,9)}"),
            "{(1, 2, 3); (4, 5, 6); (7, 8, 9)}");
}

TEST(Smoke, Arithmetic) {
  Engine engine(/*load_stdlib=*/false);
  EXPECT_EQ(Eval(engine, "1 + 2 * 3"), "{(7)}");
  EXPECT_EQ(Eval(engine, "2 ^ 10"), "{(1024)}");
  EXPECT_EQ(Eval(engine, "7 % 3"), "{(1)}");
}

TEST(Smoke, BaseRelationJoin) {
  Engine engine(/*load_stdlib=*/false);
  engine.Insert("E", {Tuple({Value::Int(1), Value::Int(2)}),
                      Tuple({Value::Int(2), Value::Int(3)})});
  Relation out = engine.OpenSession()->Query(
      "def output(x, z) : exists((y) | E(x, y) and E(y, z))");
  EXPECT_EQ(out.ToString(), "{(1, 3)}");
}

TEST(Smoke, StdlibLoads) {
  Engine engine;  // loads and parses the standard library
  EXPECT_GT(engine.installed_rules(), 20u);
  EXPECT_EQ(Eval(engine, "sum[{(1);(2);(3)}]"), "{(6)}");
}

TEST(Smoke, TransitiveClosure) {
  Engine engine;
  engine.Insert("E", {Tuple({Value::Int(1), Value::Int(2)}),
                      Tuple({Value::Int(2), Value::Int(3)}),
                      Tuple({Value::Int(3), Value::Int(4)})});
  Relation out = engine.OpenSession()->Query(
      "def tc(x,y) : E(x,y)\n"
      "def tc(x,y) : exists((z) | E(x,z) and tc(z,y))\n"
      "def output(x,y) : tc(x,y)");
  EXPECT_EQ(out.size(), 6u);
  EXPECT_TRUE(out.Contains(Tuple({Value::Int(1), Value::Int(4)})));
}

}  // namespace
}  // namespace rel
