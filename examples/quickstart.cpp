// Quickstart: the paper's Figure 1 database, queried end to end — rules,
// negation, aggregation with grouping, and a transaction with integrity
// constraints (Sections 3 and 5.2 of the paper).
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "base/error.h"
#include "core/engine.h"

using rel::Engine;
using rel::Relation;
using rel::Tuple;
using rel::TxnResult;
using rel::Value;

namespace {

Value S(const char* s) { return Value::String(s); }
Value I(int64_t i) { return Value::Int(i); }

void Show(const char* title, const Relation& r) {
  std::printf("%-28s %s\n", title, r.ToString().c_str());
}

}  // namespace

int main() {
  Engine engine;  // loads the Rel standard library
  auto session = engine.OpenSession();

  // --- the Figure 1 database -------------------------------------------------
  session->Insert("PaymentOrder", {Tuple({S("Pmt1"), S("O1")}),
                                 Tuple({S("Pmt2"), S("O2")}),
                                 Tuple({S("Pmt3"), S("O1")}),
                                 Tuple({S("Pmt4"), S("O3")})});
  session->Insert("PaymentAmount",
                {Tuple({S("Pmt1"), I(20)}), Tuple({S("Pmt2"), I(10)}),
                 Tuple({S("Pmt3"), I(10)}), Tuple({S("Pmt4"), I(90)})});
  session->Insert("OrderProductQuantity",
                {Tuple({S("O1"), S("P1"), I(2)}), Tuple({S("O1"), S("P2"), I(1)}),
                 Tuple({S("O2"), S("P1"), I(1)}), Tuple({S("O3"), S("P3"), I(4)})});
  session->Insert("ProductPrice",
                {Tuple({S("P1"), I(10)}), Tuple({S("P2"), I(20)}),
                 Tuple({S("P3"), I(30)}), Tuple({S("P4"), I(40)})});

  // --- basic queries (Section 3.1) -------------------------------------------
  Show("orders with payments",
       session->Query("def output(y) : PaymentOrder(_, y)"));
  Show("unordered products",
       session->Query("def output(x) : ProductPrice(x,_) and "
                    "not OrderProductQuantity(_,x,_)"));
  Show("expensive products",
       session->Query("def output(x) : exists((p) | ProductPrice(x, p) "
                    "and p > 15)"));

  // --- persistent model: business logic as rules (Section 5.2) ---------------
  session->Define(
      "def Ord(x) : OrderProductQuantity(x,_,_)\n"
      "def OrderLineAmount(o, p, a) :\n"
      "  exists((q, pr) | OrderProductQuantity(o, p, q) and\n"
      "                   ProductPrice(p, pr) and a = q * pr)\n"
      "def OrderTotal[x in Ord] : sum[OrderLineAmount[x]]\n"
      "def OrderPaymentAmount(x,y,z) : PaymentOrder(y,x) and "
      "PaymentAmount(y,z)\n"
      "def OrderPaid[x in Ord] : sum[OrderPaymentAmount[x]] <++ 0");

  Show("order totals", session->Query("def output : OrderTotal"));
  Show("order payments", session->Query("def output : OrderPaid"));
  Show("open balance",
       session->Query("def output(o, b) : exists((t, p) | OrderTotal(o, t) and "
                    "OrderPaid(o, p) and b = t - p and b > 0)"));

  // --- integrity constraints (Section 3.5) -----------------------------------
  session->Define(
      "ic valid_products(x) requires\n"
      "  OrderProductQuantity(_,x,_) implies ProductPrice(x,_)");

  // --- a transaction: close fully paid orders (Section 3.4) ------------------
  TxnResult txn = session->Exec(
      "def delete (:OrderProductQuantity,x,y,z) :\n"
      "  OrderProductQuantity(x,y,z) and\n"
      "  exists( (u) | OrderPaid(x,u) and OrderTotal(x,u) )\n"
      "def insert (:ClosedOrders,x) :\n"
      "  exists( (u) | OrderPaid(x,u) and OrderTotal(x,u))");
  std::printf("transaction: +%zu / -%zu tuples\n", txn.inserted, txn.deleted);
  Show("closed orders", session->Base("ClosedOrders"));

  // --- a violating transaction aborts and rolls back -------------------------
  try {
    session->Exec(
        "def insert(:OrderProductQuantity, o, p, q) :\n"
        "  o = \"O9\" and p = \"NoSuchProduct\" and q = 1");
  } catch (const rel::ConstraintViolation& v) {
    std::printf("aborted as expected: %s\n", v.what());
  }
  Show("O9 not inserted",
       session->Query("def output(p) : OrderProductQuantity(\"O9\", p, _)"));
  return 0;
}
