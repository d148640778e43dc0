// Scalar semantics of the Rel language: the one definition of arithmetic,
// comparison, min/max, power and range over Values.
//
// In Rel these are ordinary relations (`add`, `minimum`, `lt`, `range`, ...),
// so the interpreter's builtins (core/builtins.cc) and the Datalog
// evaluator's assign, filter and range steps and aggregate folds
// (datalog/eval.cc) must answer identically for every value; both call the
// kernels below. The contract is written out once, in src/data/README.md
// ("Scalar semantics").
//
// The per-row kernels are inline so the evaluator's steps make no cross-TU
// call; only cold code lives in scalar.cc.

#ifndef REL_DATA_SCALAR_H_
#define REL_DATA_SCALAR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "data/value.h"

namespace rel {
namespace scalar {

/// Comparison operators: the `eq`, `neq`, `lt`, `lt_eq`, `gt`, `gt_eq`
/// builtins and the Datalog filter literal.
enum class CmpOp { kEq, kNeq, kLt, kLe, kGt, kGe };

/// Binary arithmetic: the `add` ... `maximum` builtins and the Datalog
/// assignment literal target := op(a, b).
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod, kMin, kMax };

/// Infix spelling shared by Rel and Datalog text ("+", "<=", ...). Null for
/// kMin/kMax, which have no infix form.
const char* OpSymbol(ArithOp op);
const char* OpSymbol(CmpOp op);

/// The op behind a canonical Rel builtin name ("add", "lt_eq", ... without
/// the rel_primitive_ prefix), or nullopt.
std::optional<ArithOp> ArithOpOfBuiltin(std::string_view name);
std::optional<CmpOp> CmpOpOfBuiltin(std::string_view name);

/// Raises RelError(kType) "integer overflow: a op b exceeds the int64 range".
[[noreturn]] void ThrowIntOverflow(int64_t a, const char* op, int64_t b);
/// The same error for any expression text: "integer overflow: <expr> ...".
[[noreturn]] void ThrowIntOverflow(const std::string& expr);

/// The float→int builtins (`floor`, `ceil`, `round`, `int`): an Int is
/// returned unchanged; a Float is rounded by `rounding` and converted. NaN,
/// ±inf and rounded values outside [-2^63, 2^63) have no int64 value and
/// raise kType through ThrowIntOverflow, naming `fn`. Non-numbers have no
/// value.
std::optional<Value> ToInt(const Value& v, double (*rounding)(double),
                           const char* fn);

inline std::optional<Value> Add(const Value& a, const Value& b) {
  if (!a.is_number() || !b.is_number()) return std::nullopt;
  if (a.is_int() && b.is_int()) {
    int64_t r = 0;
    if (__builtin_add_overflow(a.AsInt(), b.AsInt(), &r)) {
      ThrowIntOverflow(a.AsInt(), "+", b.AsInt());
    }
    return Value::Int(r);
  }
  return Value::Float(a.AsDouble() + b.AsDouble());
}

inline std::optional<Value> Sub(const Value& a, const Value& b) {
  if (!a.is_number() || !b.is_number()) return std::nullopt;
  if (a.is_int() && b.is_int()) {
    int64_t r = 0;
    if (__builtin_sub_overflow(a.AsInt(), b.AsInt(), &r)) {
      ThrowIntOverflow(a.AsInt(), "-", b.AsInt());
    }
    return Value::Int(r);
  }
  return Value::Float(a.AsDouble() - b.AsDouble());
}

inline std::optional<Value> Mul(const Value& a, const Value& b) {
  if (!a.is_number() || !b.is_number()) return std::nullopt;
  if (a.is_int() && b.is_int()) {
    int64_t r = 0;
    if (__builtin_mul_overflow(a.AsInt(), b.AsInt(), &r)) {
      ThrowIntOverflow(a.AsInt(), "*", b.AsInt());
    }
    return Value::Int(r);
  }
  return Value::Float(a.AsDouble() * b.AsDouble());
}

/// An exact Int quotient stays Int (so integer recursions keep recursing
/// over Int); an inexact one is Float. INT64_MIN / -1 is the one exact
/// quotient outside int64 and becomes Float.
inline std::optional<Value> Div(const Value& a, const Value& b) {
  if (!a.is_number() || !b.is_number() || b.AsDouble() == 0.0) {
    return std::nullopt;
  }
  if (a.is_int() && b.is_int()) {
    int64_t x = a.AsInt();
    int64_t y = b.AsInt();
    if (y == -1) {
      if (x == INT64_MIN) return Value::Float(-static_cast<double>(x));
      return Value::Int(-x);
    }
    if (x % y == 0) return Value::Int(x / y);
  }
  return Value::Float(a.AsDouble() / b.AsDouble());
}

/// Int operands only; the result has the dividend's sign.
inline std::optional<Value> Mod(const Value& a, const Value& b) {
  if (!a.is_int() || !b.is_int() || b.AsInt() == 0) return std::nullopt;
  // x % -1 is 0 for all x, but the instruction traps on INT64_MIN.
  if (b.AsInt() == -1) return Value::Int(0);
  return Value::Int(a.AsInt() % b.AsInt());
}

/// -a; Int negation of INT64_MIN overflows.
std::optional<Value> Neg(const Value& a);

/// a ^ b. An Int base with a non-negative Int exponent is exact
/// (square-and-multiply, O(log b), overflow raises kType); otherwise Float
/// std::pow.
std::optional<Value> Pow(const Value& a, const Value& b);

inline std::optional<Value> Min(const Value& a, const Value& b) {
  Value::Ordering c = a.NumericCompare(b);
  if (c == Value::Ordering::kUnordered) return std::nullopt;
  return c == Value::Ordering::kGreater ? b : a;
}

inline std::optional<Value> Max(const Value& a, const Value& b) {
  Value::Ordering c = a.NumericCompare(b);
  if (c == Value::Ordering::kUnordered) return std::nullopt;
  return c == Value::Ordering::kLess ? b : a;
}

inline std::optional<Value> Apply(ArithOp op, const Value& a, const Value& b) {
  switch (op) {
    case ArithOp::kAdd: return Add(a, b);
    case ArithOp::kSub: return Sub(a, b);
    case ArithOp::kMul: return Mul(a, b);
    case ArithOp::kDiv: return Div(a, b);
    case ArithOp::kMod: return Mod(a, b);
    case ArithOp::kMin: return Min(a, b);
    case ArithOp::kMax: return Max(a, b);
  }
  return std::nullopt;
}

/// True iff `a op b`. Unordered operands (mixed kinds, NaN) satisfy no
/// comparison, kNeq included.
inline bool Compare(CmpOp op, const Value& a, const Value& b) {
  Value::Ordering o = a.NumericCompare(b);
  if (o == Value::Ordering::kUnordered) return false;
  switch (op) {
    case CmpOp::kEq: return o == Value::Ordering::kEqual;
    case CmpOp::kNeq: return o != Value::Ordering::kEqual;
    case CmpOp::kLt: return o == Value::Ordering::kLess;
    case CmpOp::kLe: return o != Value::Ordering::kGreater;
    case CmpOp::kGt: return o == Value::Ordering::kGreater;
    case CmpOp::kGe: return o != Value::Ordering::kLess;
  }
  return false;
}

/// range(lo, hi, step, x): yields x = lo, lo+step, ..., <= hi for Int
/// bounds with step > 0; a present `x` is a membership test (yields it or
/// nothing). Other bounds yield nothing, never an error. Membership runs
/// in uint64, so the widest int64 range stays exact; enumeration stops
/// before a step past INT64_MAX.
template <typename Fn>
void Range(const Value& lo_v, const Value& hi_v, const Value& step_v,
           const std::optional<Value>& x, Fn&& yield) {
  if (!lo_v.is_int() || !hi_v.is_int() || !step_v.is_int()) return;
  int64_t lo = lo_v.AsInt();
  int64_t hi = hi_v.AsInt();
  int64_t step = step_v.AsInt();
  if (step <= 0) return;
  if (x) {
    if (!x->is_int()) return;
    int64_t v = x->AsInt();
    if (v >= lo && v <= hi &&
        (static_cast<uint64_t>(v) - static_cast<uint64_t>(lo)) %
                static_cast<uint64_t>(step) ==
            0) {
      yield(*x);
    }
    return;
  }
  for (int64_t v = lo; v <= hi;) {
    yield(Value::Int(v));
    if (__builtin_add_overflow(v, step, &v)) break;
  }
}

}  // namespace scalar
}  // namespace rel

#endif  // REL_DATA_SCALAR_H_
