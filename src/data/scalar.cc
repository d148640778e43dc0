#include "data/scalar.h"

#include <cmath>
#include <cstdio>
#include <string>

#include "base/error.h"

namespace rel {
namespace scalar {

const char* OpSymbol(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "/";
    case ArithOp::kMod: return "%";
    case ArithOp::kMin:
    case ArithOp::kMax:
      break;
  }
  return nullptr;
}

const char* OpSymbol(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNeq: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "=";
}

std::optional<ArithOp> ArithOpOfBuiltin(std::string_view name) {
  if (name == "add") return ArithOp::kAdd;
  if (name == "subtract") return ArithOp::kSub;
  if (name == "multiply") return ArithOp::kMul;
  if (name == "divide") return ArithOp::kDiv;
  if (name == "modulo") return ArithOp::kMod;
  if (name == "minimum") return ArithOp::kMin;
  if (name == "maximum") return ArithOp::kMax;
  return std::nullopt;
}

std::optional<CmpOp> CmpOpOfBuiltin(std::string_view name) {
  if (name == "eq") return CmpOp::kEq;
  if (name == "neq") return CmpOp::kNeq;
  if (name == "lt") return CmpOp::kLt;
  if (name == "lt_eq") return CmpOp::kLe;
  if (name == "gt") return CmpOp::kGt;
  if (name == "gt_eq") return CmpOp::kGe;
  return std::nullopt;
}

void ThrowIntOverflow(int64_t a, const char* op, int64_t b) {
  ThrowIntOverflow(std::to_string(a) + " " + op + " " + std::to_string(b));
}

void ThrowIntOverflow(const std::string& expr) {
  throw RelError(ErrorKind::kType,
                 "integer overflow: " + expr + " exceeds the int64 range");
}

std::optional<Value> ToInt(const Value& v, double (*rounding)(double),
                           const char* fn) {
  if (v.is_int()) return v;
  if (!v.is_float()) return std::nullopt;
  // -2^63 and 2^63 are exact doubles; the negated test also rejects NaN.
  constexpr double kLimit = 9223372036854775808.0;
  double r = rounding(v.AsFloat());
  if (!(r >= -kLimit && r < kLimit)) {
    char operand[32];
    std::snprintf(operand, sizeof operand, "%g", v.AsFloat());
    ThrowIntOverflow(std::string(fn) + "[" + operand + "]");
  }
  return Value::Int(static_cast<int64_t>(r));
}

std::optional<Value> Neg(const Value& a) {
  if (a.is_float()) return Value::Float(-a.AsFloat());
  return Sub(Value::Int(0), a);
}

std::optional<Value> Pow(const Value& a, const Value& b) {
  if (!a.is_number() || !b.is_number()) return std::nullopt;
  if (!a.is_int() || !b.is_int() || b.AsInt() < 0) {
    return Value::Float(std::pow(a.AsDouble(), b.AsDouble()));
  }
  // Square-and-multiply. The base is squared only while a higher exponent
  // bit remains, so the exact result is at least as large in magnitude:
  // an overflowing square means an overflowing result.
  int64_t result = 1;
  int64_t base = a.AsInt();
  for (int64_t e = b.AsInt(); e > 0; e >>= 1) {
    if ((e & 1) && __builtin_mul_overflow(result, base, &result)) {
      ThrowIntOverflow(a.AsInt(), "^", b.AsInt());
    }
    if (e > 1 && __builtin_mul_overflow(base, base, &base)) {
      ThrowIntOverflow(a.AsInt(), "^", b.AsInt());
    }
  }
  return Value::Int(result);
}

}  // namespace scalar
}  // namespace rel
