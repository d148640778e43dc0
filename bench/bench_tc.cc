// E6 — transitive closure (Section 3.3's recursion workload).
//
// Series: the Rel engine, the baseline Datalog engine (semi-naive, also on a
// 4-worker pool, and naive — both strategies run the same planned, indexed
// joins), and the handwritten BFS reference, over chain and random graphs.
// Expected shape: handwritten < datalog semi-naive < datalog naive; the Rel
// engine pays its generality (tuple-at-a-time solving, higher-order
// machinery) but follows the same asymptotics. The PR-gated 5x criterion is
// semi-naive-vs-naive (~15x random, ~140x chain at n=64): the gap isolates
// the delta discipline.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "benchutil/generators.h"
#include "benchutil/reference.h"
#include "datalog/eval.h"

namespace rel {
namespace {

std::vector<Tuple> GraphFor(const benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  bool chain = state.range(1) == 0;
  return chain ? benchutil::ChainGraph(n)
               : benchutil::RandomGraph(n, 3 * n, /*seed=*/42);
}

void ApplyGraphArgs(benchmark::internal::Benchmark* b) {
  // 128 exceeds the seed sizes to make the semi-naive vs naive asymptotic
  // gap visible; the Rel-engine series keeps the smaller sizes only.
  for (int64_t shape : {0, 1}) {
    for (int64_t n : {16, 32, 64, 128}) {
      b->Args({n, shape});
    }
  }
  b->ArgNames({"n", "random"});
}

void ApplyRelGraphArgs(benchmark::internal::Benchmark* b) {
  for (int64_t shape : {0, 1}) {
    for (int64_t n : {16, 32, 64}) {
      b->Args({n, shape});
    }
  }
  b->ArgNames({"n", "random"});
}

void BM_TC_Rel(benchmark::State& state) {
  std::vector<Tuple> edges = GraphFor(state);
  for (auto _ : state) {
    Engine engine;
    bench::LoadEngine(engine, {{"E", &edges}});
    auto session = engine.OpenSession();
    Relation out = session->Query(
        "def tc(x,y) : E(x,y)\n"
        "def tc(x,y) : exists((z) | E(x,z) and tc(z,y))\n"
        "def output : tc");
    benchmark::DoNotOptimize(out.size());
    state.counters["tuples"] = static_cast<double>(out.size());
  }
}
BENCHMARK(BM_TC_Rel)->Apply(ApplyRelGraphArgs)->Unit(benchmark::kMillisecond);

void BM_TC_RelStdlibTC(benchmark::State& state) {
  // The same closure through the stdlib's second-order TC[E].
  std::vector<Tuple> edges = GraphFor(state);
  for (auto _ : state) {
    Engine engine;
    bench::LoadEngine(engine, {{"E", &edges}});
    auto session = engine.OpenSession();
    Relation out = session->Query("def output : TC[E]");
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_TC_RelStdlibTC)
    ->Apply(ApplyRelGraphArgs)
    ->Unit(benchmark::kMillisecond);

void RunDatalogTC(benchmark::State& state, datalog::Strategy strategy,
                  int num_threads = 1) {
  std::vector<Tuple> edges = GraphFor(state);
  for (auto _ : state) {
    datalog::Program program = datalog::ParseDatalog(
        "tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z).");
    for (const Tuple& e : edges) program.AddFact("edge", e);
    datalog::EvalOptions options;
    options.strategy = strategy;
    options.num_threads = num_threads;
    datalog::EvalStats stats;
    Relation tc =
        datalog::EvaluatePredicate(program, "tc", options, &stats);
    benchmark::DoNotOptimize(tc.size());
    state.counters["derived"] = static_cast<double>(stats.tuples_derived);
    state.counters["probes"] = static_cast<double>(stats.index_probes);
  }
}

void BM_TC_DatalogSemiNaive(benchmark::State& state) {
  RunDatalogTC(state, datalog::Strategy::kSemiNaive);
}
BENCHMARK(BM_TC_DatalogSemiNaive)
    ->Apply(ApplyGraphArgs)
    ->Unit(benchmark::kMillisecond);

void BM_TC_DatalogNaive(benchmark::State& state) {
  RunDatalogTC(state, datalog::Strategy::kNaive);
}
BENCHMARK(BM_TC_DatalogNaive)
    ->Apply(ApplyGraphArgs)
    ->Unit(benchmark::kMillisecond);

void BM_TC_DatalogSemiNaivePar4(benchmark::State& state) {
  // The indexed evaluator on a 4-worker pool (chunked delta drivers,
  // per-thread staging). The full thread-scaling matrix lives in
  // bench_par; this series keeps one parallel point in the tc trajectory.
  RunDatalogTC(state, datalog::Strategy::kSemiNaive, /*num_threads=*/4);
}
BENCHMARK(BM_TC_DatalogSemiNaivePar4)
    ->Apply(ApplyGraphArgs)
    ->Unit(benchmark::kMillisecond);

void BM_TC_HandwrittenBFS(benchmark::State& state) {
  std::vector<Tuple> edges = GraphFor(state);
  for (auto _ : state) {
    auto closure = benchutil::TransitiveClosureRef(edges);
    benchmark::DoNotOptimize(closure.size());
  }
}
BENCHMARK(BM_TC_HandwrittenBFS)
    ->Apply(ApplyGraphArgs)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rel

BENCHMARK_MAIN();
