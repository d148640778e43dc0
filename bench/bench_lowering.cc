// Recursion lowering — recursive Rel workloads through the full Engine,
// before/after the Datalog-lowering pass (src/core/lowering.h).
//
// Series: transitive closure over chain and random graphs, written as
// first-order recursive Rel rules and evaluated end to end by Session::Query
// with the lowering disabled (the tuple-at-a-time Interp saturation loop)
// and enabled (the planned, indexed semi-naive Datalog evaluator),
// sequentially and on a 4-worker pool. The acceptance shape: at n=128 the
// lowered path is well over 2x the Interp fallback single-threaded, with
// further scaling from threads on the random graphs (the chain shape stays
// barrier-dominated, as in bench_par).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "benchutil/generators.h"

namespace rel {
namespace {

constexpr char kTCProgram[] =
    "def tc(x,y) : E(x,y)\n"
    "def tc(x,z) : exists((y) | E(x,y) and tc(y,z))\n"
    "def output : tc";

std::vector<Tuple> GraphFor(const benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  bool chain = state.range(1) == 0;
  return chain ? benchutil::ChainGraph(n)
               : benchutil::RandomGraph(n, 3 * n, /*seed=*/42);
}

void ApplyInterpArgs(benchmark::internal::Benchmark* b) {
  // The saturation loop re-derives the whole extent every iteration
  // (O(n^2) tuples x O(n) rounds on the chain), so the fallback series
  // stops at 128 — already seconds there.
  for (int64_t shape : {0, 1}) {
    for (int64_t n : {16, 32, 64, 128}) {
      b->Args({n, shape});
    }
  }
  b->ArgNames({"n", "random"});
}

void ApplyLoweredArgs(benchmark::internal::Benchmark* b) {
  // The lowered path keeps going: 256 shows the asymptotic separation.
  for (int64_t shape : {0, 1}) {
    for (int64_t n : {16, 32, 64, 128, 256}) {
      b->Args({n, shape});
    }
  }
  b->ArgNames({"n", "random"});
}

void RunRelTC(benchmark::State& state, bool lower_recursion,
              int num_threads) {
  std::vector<Tuple> edges = GraphFor(state);
  for (auto _ : state) {
    Engine engine;
    bench::LoadEngine(engine, {{"E", &edges}});
    engine.options().lower_recursion = lower_recursion;
    engine.options().num_threads = num_threads;
    auto session = engine.OpenSession();
    Relation out = session->Query(kTCProgram);
    benchmark::DoNotOptimize(out.size());
    state.counters["tuples"] = static_cast<double>(out.size());
    state.counters["lowered"] = static_cast<double>(
        session->last_lowering_stats().components_lowered);
  }
}

void BM_LowerTC_Interp(benchmark::State& state) {
  // Before: the tuple-at-a-time fixpoint (lowering disabled).
  RunRelTC(state, /*lower_recursion=*/false, /*num_threads=*/1);
}
BENCHMARK(BM_LowerTC_Interp)
    ->Apply(ApplyInterpArgs)
    ->Unit(benchmark::kMillisecond);

void BM_LowerTC_Lowered(benchmark::State& state) {
  // After: the same program, recursion lowered onto the Datalog engine.
  RunRelTC(state, /*lower_recursion=*/true, /*num_threads=*/1);
}
BENCHMARK(BM_LowerTC_Lowered)
    ->Apply(ApplyLoweredArgs)
    ->Unit(benchmark::kMillisecond);

void BM_LowerTC_LoweredPar4(benchmark::State& state) {
  // After, on a 4-worker pool (EvalOptions::num_threads inherited from
  // InterpOptions::num_threads through the lowering).
  RunRelTC(state, /*lower_recursion=*/true, /*num_threads=*/4);
}
BENCHMARK(BM_LowerTC_LoweredPar4)
    ->Apply(ApplyLoweredArgs)
    ->Unit(benchmark::kMillisecond);

void BM_LowerSameGen_Interp(benchmark::State& state) {
  // A second recursive shape (same-generation): two probes per recursive
  // step, quadratic extent.
  std::vector<Tuple> edges = GraphFor(state);
  for (auto _ : state) {
    Engine engine;
    bench::LoadEngine(engine, {{"par", &edges}});
    engine.options().lower_recursion = state.range(2) != 0;
    auto session = engine.OpenSession();
    Relation out = session->Query(
        "def sg(x,y) : exists((p) | par(p,x) and par(p,y) and x != y)\n"
        "def sg(x,y) : exists((a,b) | par(a,x) and par(b,y) and sg(a,b))\n"
        "def output : sg");
    benchmark::DoNotOptimize(out.size());
    state.counters["tuples"] = static_cast<double>(out.size());
  }
}
BENCHMARK(BM_LowerSameGen_Interp)
    ->Args({32, 1, 0})
    ->Args({32, 1, 1})
    ->Args({64, 1, 0})
    ->Args({64, 1, 1})
    ->ArgNames({"n", "random", "lowered"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rel

BENCHMARK_MAIN();
