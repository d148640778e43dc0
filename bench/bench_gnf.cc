// E10 — GNF vs wide-record modeling (Section 2).
//
// Workload: "total payments per order" over the Figure-1-shaped schema.
// In GNF the answer is a join of two small relations; in the denormalized
// wide table the same payment row is fanned out across order lines and must
// be de-duplicated first (the classic record-model hazard GNF avoids by
// construction). Shape: GNF competitive while also being update-friendly.

#include <benchmark/benchmark.h>

#include <set>

#include "benchutil/generators.h"
#include "benchutil/reference.h"

namespace rel {
namespace {

void ApplyArgs(benchmark::internal::Benchmark* b) {
  b->Arg(200)->Arg(400)->Arg(800)->ArgName("orders");
}

benchutil::OrdersWorkload Workload(const benchmark::State& state) {
  int orders = static_cast<int>(state.range(0));
  return benchutil::MakeOrders(orders, orders / 2 + 5, 4, 3, 321);
}

void BM_OrderTotals_GNF(benchmark::State& state) {
  benchutil::OrdersWorkload w = Workload(state);
  for (auto _ : state) {
    // join PaymentOrder(payment, order) with PaymentAmount(payment, amount),
    // group by order.
    std::vector<Tuple> joined =
        benchutil::HashJoin(w.payment_order, {0}, w.payment_amount, {0});
    // joined: (payment, order, amount) -> group on column 1.
    std::map<Value, int64_t> totals;
    for (const Tuple& t : joined) totals[t[1]] += t[2].AsInt();
    benchmark::DoNotOptimize(totals.size());
    state.counters["groups"] = static_cast<double>(totals.size());
  }
}
BENCHMARK(BM_OrderTotals_GNF)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);

void BM_OrderTotals_WideTable(benchmark::State& state) {
  benchutil::OrdersWorkload w = Workload(state);
  std::vector<Tuple> wide = benchutil::OrdersWideTable(w);
  state.counters["wide_rows"] = static_cast<double>(wide.size());
  for (auto _ : state) {
    // The wide table repeats each payment once per order line: de-duplicate
    // (order, payment) pairs before summing or the totals are wrong.
    std::set<std::pair<Value, Value>> seen;
    std::map<Value, int64_t> totals;
    for (const Tuple& t : wide) {
      if (t[4] == Value::String("")) continue;  // the NULL sentinel row
      if (seen.emplace(t[0], t[4]).second) {
        totals[t[0]] += t[5].AsInt();
      }
    }
    benchmark::DoNotOptimize(totals.size());
  }
}
BENCHMARK(BM_OrderTotals_WideTable)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);

void BM_PriceUpdate_GNF(benchmark::State& state) {
  // Updating one product's price touches one GNF tuple...
  benchutil::OrdersWorkload w = Workload(state);
  for (auto _ : state) {
    std::vector<Tuple> prices = w.product_price;
    for (Tuple& t : prices) {
      if (t[0] == Value::String("P1")) t = Tuple({t[0], Value::Int(99)});
    }
    benchmark::DoNotOptimize(prices.size());
  }
}
BENCHMARK(BM_PriceUpdate_GNF)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);

void BM_PriceUpdate_WideTable(benchmark::State& state) {
  // ...but every wide row carrying the product in the record model.
  benchutil::OrdersWorkload w = Workload(state);
  std::vector<Tuple> wide = benchutil::OrdersWideTable(w);
  for (auto _ : state) {
    std::vector<Tuple> updated = wide;
    for (Tuple& t : updated) {
      if (t[1] == Value::String("P1")) {
        t = Tuple({t[0], t[1], t[2], Value::Int(99), t[4], t[5]});
      }
    }
    benchmark::DoNotOptimize(updated.size());
  }
}
BENCHMARK(BM_PriceUpdate_WideTable)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rel

BENCHMARK_MAIN();
