// E9 — worst-case optimal joins (Sections 2 and 7): the triangle query on
// hub-skewed graphs, binary hash-join plan vs Leapfrog Triejoin.
//
// Expected shape: on skewed graphs the binary plan materializes a quadratic
// intermediate (E ⋈ E) and loses by a growing factor; LFTJ stays within the
// AGM bound. This is the toolbox the paper says makes GNF's join-heavy
// modeling viable.

#include <benchmark/benchmark.h>

#include "benchutil/generators.h"
#include "benchutil/reference.h"
#include "datalog/eval.h"
#include "joins/leapfrog.h"

namespace rel {
namespace {

void ApplyArgs(benchmark::internal::Benchmark* b) {
  for (int64_t n : {100, 200, 400, 800}) b->Args({n, 24});
  b->ArgNames({"n", "hubs"});
}

std::vector<Tuple> GraphFor(const benchmark::State& state) {
  return benchutil::SkewedTriangleGraph(static_cast<int>(state.range(0)),
                                        static_cast<int>(state.range(1)), 3);
}

void BM_Triangles_BinaryHashJoin(benchmark::State& state) {
  std::vector<Tuple> edges = GraphFor(state);
  for (auto _ : state) {
    size_t count = benchutil::CountTrianglesBinaryJoin(edges);
    benchmark::DoNotOptimize(count);
    state.counters["triangles"] = static_cast<double>(count);
  }
  state.counters["edges"] = static_cast<double>(edges.size());
}
BENCHMARK(BM_Triangles_BinaryHashJoin)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);

void BM_Triangles_Leapfrog(benchmark::State& state) {
  std::vector<Tuple> edges = GraphFor(state);
  for (auto _ : state) {
    size_t count = joins::CountTrianglesLeapfrog(edges);
    benchmark::DoNotOptimize(count);
    state.counters["triangles"] = static_cast<double>(count);
  }
  state.counters["edges"] = static_cast<double>(edges.size());
}
BENCHMARK(BM_Triangles_Leapfrog)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);

void BM_Triangles_DatalogIndexed(benchmark::State& state) {
  // The same triangle query through the Datalog engine: the planner detects
  // the all-free self-join shape and routes it through LeapfrogJoin, so the
  // declarative rule inherits the worst-case-optimal bound (plus tuple
  // materialization cost for the 3-ary head).
  std::vector<Tuple> edges = GraphFor(state);
  for (auto _ : state) {
    datalog::Program program = datalog::ParseDatalog(
        "tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).");
    for (const Tuple& e : edges) program.AddFact("e", e);
    datalog::EvalStats stats;
    Relation tri = datalog::EvaluatePredicate(program, "tri",
                                              datalog::Strategy::kSemiNaive,
                                              &stats);
    benchmark::DoNotOptimize(tri.size());
    state.counters["triangles"] = static_cast<double>(tri.size()) / 3.0;
    state.counters["lftj"] = static_cast<double>(stats.leapfrog_joins);
  }
  state.counters["edges"] = static_cast<double>(edges.size());
}
BENCHMARK(BM_Triangles_DatalogIndexed)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);

void BM_TwoWayJoin_Hash(benchmark::State& state) {
  // Sanity series: on a plain 2-way join the binary plan is fine — the gap
  // is specific to cyclic queries.
  std::vector<Tuple> edges = GraphFor(state);
  for (auto _ : state) {
    auto out = benchutil::HashJoin(edges, {1}, edges, {0});
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_TwoWayJoin_Hash)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rel

BENCHMARK_MAIN();
