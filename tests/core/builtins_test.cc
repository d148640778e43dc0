#include "core/builtins.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "base/error.h"

namespace rel {
namespace {

/// Runs a builtin under a binding pattern; returns all completions.
std::vector<std::vector<Value>> Invoke(const std::string& name,
                                    std::vector<std::optional<Value>> args) {
  const Builtin* b = FindBuiltin(name);
  EXPECT_NE(b, nullptr) << name;
  std::vector<bool> bound;
  for (const auto& a : args) bound.push_back(a.has_value());
  EXPECT_TRUE(b->Supports(bound)) << name;
  std::vector<std::vector<Value>> out;
  b->Eval(args, [&out](const std::vector<Value>& t) { out.push_back(t); });
  return out;
}

bool Supports(const std::string& name, std::vector<bool> bound) {
  return FindBuiltin(name)->Supports(bound);
}

Value I(int64_t v) { return Value::Int(v); }
Value F(double v) { return Value::Float(v); }
Value S(const char* v) { return Value::String(v); }

TEST(Builtins, AddForwardAndInverses) {
  EXPECT_EQ(Invoke("add", {I(2), I(3), std::nullopt}),
            (std::vector<std::vector<Value>>{{I(2), I(3), I(5)}}));
  // Inverse: y from (x, z).
  EXPECT_EQ(Invoke("add", {I(2), std::nullopt, I(5)}),
            (std::vector<std::vector<Value>>{{I(2), I(3), I(5)}}));
  // Inverse: x from (y, z).
  EXPECT_EQ(Invoke("add", {std::nullopt, I(3), I(5)}),
            (std::vector<std::vector<Value>>{{I(2), I(3), I(5)}}));
  // Test pattern.
  EXPECT_EQ(Invoke("add", {I(2), I(3), I(6)}).size(), 0u);
  // All-free unsupported.
  EXPECT_FALSE(Supports("add", {false, false, false}));
  EXPECT_FALSE(Supports("add", {true, false, false}));
}

TEST(Builtins, TypePromotion) {
  EXPECT_EQ(Invoke("add", {I(1), F(0.5), std::nullopt})[0][2], F(1.5));
  EXPECT_EQ(Invoke("multiply", {F(2.0), I(3), std::nullopt})[0][2], F(6.0));
}

TEST(Builtins, DivideIntStaysIntWhenExact) {
  EXPECT_EQ(Invoke("divide", {I(10), I(5), std::nullopt})[0][2], I(2));
  EXPECT_EQ(Invoke("divide", {I(1), I(2), std::nullopt})[0][2], F(0.5));
  // Division by zero: no tuple, not an error.
  EXPECT_EQ(Invoke("divide", {I(1), I(0), std::nullopt}).size(), 0u);
}

TEST(Builtins, ModuloAndPower) {
  EXPECT_EQ(Invoke("modulo", {I(7), I(3), std::nullopt})[0][2], I(1));
  EXPECT_EQ(Invoke("modulo", {I(7), I(0), std::nullopt}).size(), 0u);
  EXPECT_EQ(Invoke("power", {I(2), I(10), std::nullopt})[0][2], I(1024));
  EXPECT_EQ(Invoke("power", {F(4.0), F(0.5), std::nullopt})[0][2], F(2.0));
  // Exact Int powers take O(log exponent) checked multiplies.
  const Value kMaxExp = I(INT64_MAX);
  EXPECT_EQ(Invoke("power", {I(1), kMaxExp, std::nullopt})[0][2], I(1));
  EXPECT_EQ(Invoke("power", {I(-1), kMaxExp, std::nullopt})[0][2], I(-1));
  EXPECT_EQ(Invoke("power", {I(0), kMaxExp, std::nullopt})[0][2], I(0));
  EXPECT_EQ(Invoke("power", {I(2), I(62), std::nullopt})[0][2],
            I(int64_t{1} << 62));
  EXPECT_EQ(Invoke("power", {I(-2), I(63), std::nullopt})[0][2],
            I(INT64_MIN));
  try {
    Invoke("power", {I(2), I(63), std::nullopt});
    ADD_FAILURE() << "2^63 must overflow";
  } catch (const RelError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kType);
  }
}

TEST(Builtins, NegateIsChecked) {
  EXPECT_EQ(Invoke("negate", {I(5), std::nullopt})[0][1], I(-5));
  EXPECT_EQ(Invoke("negate", {std::nullopt, F(2.5)})[0][0], F(-2.5));
  EXPECT_EQ(Invoke("abs", {I(-INT64_MAX), std::nullopt})[0][1], I(INT64_MAX));
  // -INT64_MIN is outside int64: the same kType error as +, - and *.
  EXPECT_THROW(Invoke("negate", {I(INT64_MIN), std::nullopt}), RelError);
  EXPECT_THROW(Invoke("abs", {I(INT64_MIN), std::nullopt}), RelError);
}

TEST(Builtins, MultiplyInverseVerified) {
  // y = z / x must verify x * y == z: 0 * y = 5 has no solution.
  EXPECT_EQ(Invoke("multiply", {I(0), std::nullopt, I(5)}).size(), 0u);
  EXPECT_EQ(Invoke("multiply", {I(2), std::nullopt, I(5)})[0][1], F(2.5));
}

TEST(Builtins, EqBindsEitherSide) {
  EXPECT_EQ(Invoke("eq", {I(4), std::nullopt}),
            (std::vector<std::vector<Value>>{{I(4), I(4)}}));
  EXPECT_EQ(Invoke("eq", {std::nullopt, S("x")})[0][0], S("x"));
  EXPECT_EQ(Invoke("eq", {I(1), F(1.0)}).size(), 1u);  // numeric equality
  EXPECT_FALSE(Supports("eq", {false, false}));
}

TEST(Builtins, Comparisons) {
  EXPECT_EQ(Invoke("lt", {I(1), I(2)}).size(), 1u);
  EXPECT_EQ(Invoke("lt", {I(2), I(2)}).size(), 0u);
  EXPECT_EQ(Invoke("lt_eq", {I(2), I(2)}).size(), 1u);
  EXPECT_EQ(Invoke("gt", {F(2.5), I(2)}).size(), 1u);
  EXPECT_EQ(Invoke("neq", {I(1), I(2)}).size(), 1u);
  EXPECT_EQ(Invoke("neq", {I(1), F(1.0)}).size(), 0u);
  // Strings compare lexicographically.
  EXPECT_EQ(Invoke("lt", {S("a"), S("b")}).size(), 1u);
  // Mixed kinds are unordered: no tuple.
  EXPECT_EQ(Invoke("lt", {I(1), S("b")}).size(), 0u);
}

TEST(Builtins, TypePredicates) {
  EXPECT_EQ(Invoke("Int", {I(1)}).size(), 1u);
  EXPECT_EQ(Invoke("Int", {F(1.0)}).size(), 0u);
  EXPECT_EQ(Invoke("Float", {F(1.0)}).size(), 1u);
  EXPECT_EQ(Invoke("String", {S("s")}).size(), 1u);
  EXPECT_EQ(Invoke("Number", {I(1)}).size(), 1u);
  EXPECT_EQ(Invoke("Number", {S("1")}).size(), 0u);
  EXPECT_FALSE(Supports("Int", {false}));  // cannot enumerate all integers
}

TEST(Builtins, RangeEnumerates) {
  auto out = Invoke("range", {I(1), I(5), I(2), std::nullopt});
  ASSERT_EQ(out.size(), 3u);  // 1, 3, 5 (inclusive upper bound)
  EXPECT_EQ(out[0][3], I(1));
  EXPECT_EQ(out[2][3], I(5));
  EXPECT_EQ(Invoke("range", {I(1), I(5), I(2), I(4)}).size(), 0u);
  EXPECT_EQ(Invoke("range", {I(1), I(5), I(2), I(3)}).size(), 1u);
  EXPECT_FALSE(Supports("range", {true, true, false, true}));
  // Near the int64 limit: enumeration stops before stepping past
  // INT64_MAX, and membership is exact over the widest range.
  out = Invoke("range", {I(INT64_MAX - 7), I(INT64_MAX), I(5), std::nullopt});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0][3], I(INT64_MAX - 7));
  EXPECT_EQ(out[1][3], I(INT64_MAX - 2));
  EXPECT_EQ(Invoke("range", {I(-INT64_MAX), I(INT64_MAX), I(INT64_MAX),
                             I(INT64_MAX)})
                .size(),
            1u);
}

TEST(Builtins, UnaryMath) {
  EXPECT_EQ(Invoke("sqrt", {F(9.0), std::nullopt})[0][1], F(3.0));
  EXPECT_EQ(Invoke("sqrt", {F(-1.0), std::nullopt}).size(), 0u);
  EXPECT_EQ(Invoke("abs", {I(-5), std::nullopt})[0][1], I(5));
  EXPECT_EQ(Invoke("floor", {F(2.7), std::nullopt})[0][1], I(2));
  EXPECT_EQ(Invoke("ceil", {F(2.1), std::nullopt})[0][1], I(3));
  EXPECT_EQ(Invoke("round", {F(2.5), std::nullopt})[0][1], I(3));
}

TEST(Builtins, FloatToIntIsChecked) {
  // One in-range case per builtin; Ints pass through exactly.
  EXPECT_EQ(Invoke("floor", {F(-2.5), std::nullopt})[0][1], I(-3));
  EXPECT_EQ(Invoke("ceil", {F(-2.5), std::nullopt})[0][1], I(-2));
  EXPECT_EQ(Invoke("round", {F(-2.5), std::nullopt})[0][1], I(-3));
  EXPECT_EQ(Invoke("int", {F(-2.7), std::nullopt})[0][1], I(-2));
  EXPECT_EQ(Invoke("int", {I(INT64_MAX), std::nullopt})[0][1], I(INT64_MAX));
  EXPECT_EQ(Invoke("floor", {F(-9223372036854775808.0), std::nullopt})[0][1],
            I(INT64_MIN));
  // Outside [-2^63, 2^63), or NaN/inf: no int64 value, a kType error.
  auto expect_type_error = [](const char* name, double d) {
    try {
      Invoke(name, {F(d), std::nullopt});
      ADD_FAILURE() << name << "[" << d << "] did not throw";
    } catch (const RelError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kType) << name << "[" << d << "]";
    }
  };
  expect_type_error("floor", 1e300);
  expect_type_error("ceil", -1e300);
  expect_type_error("int", 1e19);
  expect_type_error("round", 1e300);
  expect_type_error("floor", 9223372036854775808.0);
  expect_type_error("int", std::nan(""));
  expect_type_error("ceil", std::numeric_limits<double>::infinity());
}

TEST(Builtins, Strings) {
  EXPECT_EQ(Invoke("concat", {S("ab"), S("cd"), std::nullopt})[0][2], S("abcd"));
  EXPECT_EQ(Invoke("string_length", {S("hello"), std::nullopt})[0][1], I(5));
  EXPECT_EQ(Invoke("uppercase", {S("aBc"), std::nullopt})[0][1], S("ABC"));
  EXPECT_EQ(Invoke("substring", {S("hello"), I(2), I(4), std::nullopt})[0][3],
            S("ell"));
  EXPECT_EQ(Invoke("substring", {S("hi"), I(1), I(5), std::nullopt}).size(), 0u);
  EXPECT_EQ(Invoke("contains", {S("hello"), S("ell")}).size(), 1u);
  EXPECT_EQ(Invoke("starts_with", {S("hello"), S("he")}).size(), 1u);
  EXPECT_EQ(Invoke("ends_with", {S("hello"), S("lo")}).size(), 1u);
  EXPECT_EQ(Invoke("regex_match", {S("a+b"), S("aaab")}).size(), 1u);
  EXPECT_EQ(Invoke("regex_match", {S("a+b"), S("ba")}).size(), 0u);
  EXPECT_EQ(Invoke("parse_int", {S("42"), std::nullopt})[0][1], I(42));
  EXPECT_EQ(Invoke("parse_int", {S("4x"), std::nullopt}).size(), 0u);
}

TEST(Builtins, PrimitiveAliases) {
  EXPECT_EQ(FindBuiltin("rel_primitive_add"), FindBuiltin("add"));
  EXPECT_EQ(FindBuiltin("rel_primitive_eq"), FindBuiltin("eq"));
  EXPECT_EQ(FindBuiltin("no_such_builtin"), nullptr);
}

TEST(Builtins, ApplyAsFunction) {
  const Builtin* add = FindBuiltin("add");
  EXPECT_EQ(*ApplyAsFunction(*add, {I(1), I(2)}), I(3));
  const Builtin* min = FindBuiltin("minimum");
  EXPECT_EQ(*ApplyAsFunction(*min, {I(5), I(2)}), I(2));
  EXPECT_FALSE(ApplyAsFunction(*add, {I(1)}).has_value());  // arity mismatch
}

}  // namespace
}  // namespace rel
