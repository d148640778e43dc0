// E5 — all-pairs shortest paths (the Section 1 teaser and Section 5.4).
//
// Series: the Rel stdlib APSP (aggregation formulation), the guarded
// formulation, the first-order recursive-min formulation on the lowered
// Datalog engine vs the same program on the interpreter, the baseline
// Datalog engine with bounded path derivation + post-hoc minimum, and the
// handwritten BFS.

#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"
#include "benchutil/generators.h"
#include "benchutil/reference.h"
#include "datalog/eval.h"

namespace rel {
namespace {

void ApplyArgs(benchmark::internal::Benchmark* b) {
  b->Arg(8)->Arg(12)->Arg(16)->ArgName("n");
}

void BM_APSP_Rel(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<Tuple> edges = benchutil::RandomGraph(n, 3 * n, 7);
  std::vector<Tuple> nodes = benchutil::NodeSet(n);
  for (auto _ : state) {
    Engine engine;
    bench::LoadEngine(engine, {{"E", &edges}, {"V", &nodes}});
    auto session = engine.OpenSession();
    Relation out = session->Query("def output : APSP[V, E]");
    benchmark::DoNotOptimize(out.size());
    state.counters["pairs"] = static_cast<double>(out.size());
  }
}
BENCHMARK(BM_APSP_Rel)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);

void BM_APSP_RelGuarded(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<Tuple> edges = benchutil::RandomGraph(n, 3 * n, 7);
  std::vector<Tuple> nodes = benchutil::NodeSet(n);
  for (auto _ : state) {
    Engine engine;
    bench::LoadEngine(engine, {{"E", &edges}, {"V", &nodes}});
    auto session = engine.OpenSession();
    Relation out = session->Query("def output : APSP_guarded[V, E]");
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_APSP_RelGuarded)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);

// The first-order recursive-aggregation formulation (Section 5.2): one
// disjunctive min over base edges and extension steps. This is the shape
// the aggregate lowering routes onto the Datalog engine's monotone
// semi-naive aggregate evaluation; the same source on the interpreter runs
// replacement iteration.
const char kApspAggSource[] =
    "def apsp(x, y, d) : d = min[(j) :\n"
    "    E(x, y, j) or\n"
    "    exists((z, j1, j2) | E(x, z, j1) and apsp(z, y, j2) and\n"
    "        j = j1 + j2)]\n"
    "def output : apsp";

std::vector<Tuple> WeightedEdges(int n) {
  std::vector<Tuple> edges;
  for (const Tuple& e : benchutil::RandomGraph(n, 3 * n, 7)) {
    int64_t w = (e[0].AsInt() * 7 + e[1].AsInt() * 3) % 5 + 1;
    edges.push_back(Tuple({e[0], e[1], Value::Int(w)}));
  }
  return edges;
}

void RunApspAgg(benchmark::State& state, bool lower) {
  int n = static_cast<int>(state.range(0));
  std::vector<Tuple> edges = WeightedEdges(n);
  for (auto _ : state) {
    Engine engine;
    engine.options().lower_recursion = lower;
    bench::LoadEngine(engine, {{"E", &edges}});
    auto session = engine.OpenSession();
    Relation out = session->Query(kApspAggSource);
    if (lower && session->last_lowering_stats().components_lowered < 1) {
      state.SkipWithError("recursive-min component did not lower");
      return;
    }
    benchmark::DoNotOptimize(out.size());
    state.counters["pairs"] = static_cast<double>(out.size());
  }
}

void BM_APSP_RelAggLowered(benchmark::State& state) {
  RunApspAgg(state, /*lower=*/true);
}
BENCHMARK(BM_APSP_RelAggLowered)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);

void BM_APSP_RelAggInterp(benchmark::State& state) {
  RunApspAgg(state, /*lower=*/false);
}
BENCHMARK(BM_APSP_RelAggInterp)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);

void BM_APSP_Datalog(benchmark::State& state) {
  // The classical encoding: derive bounded path lengths, then take the
  // minimum per pair outside the engine (classical Datalog lacks
  // aggregation — one of the gaps Rel closes, Section 5.2).
  int n = static_cast<int>(state.range(0));
  std::vector<Tuple> edges = benchutil::RandomGraph(n, 3 * n, 7);
  std::string bound = std::to_string(n);
  for (auto _ : state) {
    datalog::Program program = datalog::ParseDatalog(
        "path(X, Y, D) :- edge(X, Y), D = 1 + 0.\n"
        "path(X, Z, D) :- path(X, Y, E), edge(Y, Z), D = E + 1, E < " +
        bound + ".");
    for (const Tuple& e : edges) program.AddFact("edge", e);
    datalog::EvalStats stats;
    Relation paths = datalog::EvaluatePredicate(
        program, "path", datalog::Strategy::kSemiNaive, &stats);
    std::map<std::pair<int64_t, int64_t>, int64_t> best;
    for (const Tuple& t : paths.TuplesOfArity(3)) {
      auto key = std::make_pair(t[0].AsInt(), t[1].AsInt());
      auto it = best.find(key);
      if (it == best.end() || t[2].AsInt() < it->second) {
        best[key] = t[2].AsInt();
      }
    }
    benchmark::DoNotOptimize(best.size());
    state.counters["probes"] = static_cast<double>(stats.index_probes);
  }
}
BENCHMARK(BM_APSP_Datalog)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);

void BM_APSP_HandwrittenBFS(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<Tuple> edges = benchutil::RandomGraph(n, 3 * n, 7);
  for (auto _ : state) {
    auto dist = benchutil::ApspRef(n, edges);
    benchmark::DoNotOptimize(dist.size());
  }
}
BENCHMARK(BM_APSP_HandwrittenBFS)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rel

BENCHMARK_MAIN();
