// Demand transformation (magic sets) — point and cone queries against the
// full-closure baseline, at the Datalog layer and end to end through the
// Rel engine.
//
// Series: left-linear transitive closure over chain, random and grid
// graphs. The full-closure baseline evaluates the entire O(n^2)-ish
// extent and filters; the demanded series rewrite the program for the goal
// (EvalOptions::demand_goal / InterpOptions::demand_transform) and derive
// only the cone. The acceptance shape: the point query tc(0, Y) on the
// chain at n=256 derives >= 10x fewer tuples and runs >= 5x faster than
// the full closure, with the demanded extent byte-identical to the
// goal-filtered full fixpoint (the `identical` counter, checked once per
// series outside the timing loop).

#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "bench_common.h"
#include "benchutil/generators.h"
#include "datalog/eval.h"
#include "datalog/magic.h"

namespace rel {
namespace {

// Left-linear TC: demand on tc(0, Y) stays a single-source cone (the
// right-linear form would demand every reachable source).
constexpr char kTCDatalog[] =
    "tc(X,Y) :- edge(X,Y). tc(X,Z) :- tc(X,Y), edge(Y,Z).";

constexpr char kTCRelPoint[] =
    "def tc(x,y) : edge(x,y)\n"
    "def tc(x,z) : exists((y) | tc(x,y) and edge(y,z))\n"
    "def output(y) : tc(0, y)";

/// shape: 0 = chain, 1 = random (m = 3n), 2 = grid (floor(sqrt(n))^2).
std::vector<Tuple> GraphFor(const benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  switch (state.range(1)) {
    case 0:
      return benchutil::ChainGraph(n);
    case 1:
      return benchutil::RandomGraph(n, 3 * n, /*seed=*/42);
    default: {
      int k = 1;
      while ((k + 1) * (k + 1) <= n) ++k;
      return benchutil::GridGraph(k, k);
    }
  }
}

datalog::Program MakeProgram(const std::vector<Tuple>& edges) {
  datalog::Program p = datalog::ParseDatalog(kTCDatalog);
  for (const Tuple& e : edges) p.AddFact("edge", e);
  return p;
}

void ApplyShapes(benchmark::internal::Benchmark* b) {
  for (int64_t shape : {0, 1, 2}) {
    for (int64_t n : {64, 128, 256}) {
      b->Args({n, shape});
    }
  }
  b->ArgNames({"n", "shape"});
}

/// One-time differential check for a demanded series: the demanded extent
/// must equal the goal-filtered full fixpoint byte for byte.
double DemandIsIdentical(const std::vector<Tuple>& edges,
                         const std::vector<std::optional<Value>>& pattern) {
  Relation full =
      datalog::EvaluatePredicate(MakeProgram(edges), "tc",
                                 datalog::EvalOptions{});
  datalog::EvalOptions demand;
  demand.demand_goal = datalog::DemandGoal{"tc", pattern};
  Relation cone =
      datalog::EvaluatePredicate(MakeProgram(edges), "tc", demand);
  Relation filtered = datalog::FilterByPattern(full, pattern);
  return cone.ToString() == filtered.ToString() ? 1.0 : 0.0;
}

void BM_TCFullClosure(benchmark::State& state) {
  // Baseline: derive the whole closure, then filter for the point query.
  std::vector<Tuple> edges = GraphFor(state);
  std::vector<std::optional<Value>> pattern = {Value::Int(0), std::nullopt};
  for (auto _ : state) {
    datalog::Program p = MakeProgram(edges);
    datalog::EvalStats stats;
    Relation tc =
        datalog::EvaluatePredicate(p, "tc", datalog::EvalOptions{}, &stats);
    Relation answers = datalog::FilterByPattern(tc, pattern);
    benchmark::DoNotOptimize(answers.size());
    state.counters["derived"] = static_cast<double>(stats.tuples_derived);
    state.counters["tuples"] = static_cast<double>(answers.size());
  }
}
BENCHMARK(BM_TCFullClosure)->Apply(ApplyShapes)->Unit(benchmark::kMillisecond);

void BM_TCMagicPoint(benchmark::State& state) {
  // Demanded: tc(0, Y) through the magic-set rewrite.
  std::vector<Tuple> edges = GraphFor(state);
  std::vector<std::optional<Value>> pattern = {Value::Int(0), std::nullopt};
  state.counters["identical"] = DemandIsIdentical(edges, pattern);
  for (auto _ : state) {
    datalog::Program p = MakeProgram(edges);
    datalog::EvalOptions options;
    options.demand_goal = datalog::DemandGoal{"tc", pattern};
    datalog::EvalStats stats;
    Relation answers = datalog::EvaluatePredicate(p, "tc", options, &stats);
    benchmark::DoNotOptimize(answers.size());
    state.counters["derived"] = static_cast<double>(stats.tuples_derived);
    state.counters["magic_facts"] = static_cast<double>(stats.magic_facts);
    state.counters["tuples"] = static_cast<double>(answers.size());
  }
}
BENCHMARK(BM_TCMagicPoint)->Apply(ApplyShapes)->Unit(benchmark::kMillisecond);

void BM_TCMagicAllBound(benchmark::State& state) {
  // All-bound goal: tc(0, n-1) degenerates to a reachability check.
  std::vector<Tuple> edges = GraphFor(state);
  int64_t target = state.range(0) - 1;
  std::vector<std::optional<Value>> pattern = {Value::Int(0),
                                               Value::Int(target)};
  state.counters["identical"] = DemandIsIdentical(edges, pattern);
  for (auto _ : state) {
    datalog::Program p = MakeProgram(edges);
    datalog::EvalOptions options;
    options.demand_goal = datalog::DemandGoal{"tc", pattern};
    datalog::EvalStats stats;
    Relation answers = datalog::EvaluatePredicate(p, "tc", options, &stats);
    benchmark::DoNotOptimize(answers.size());
    state.counters["derived"] = static_cast<double>(stats.tuples_derived);
    state.counters["tuples"] = static_cast<double>(answers.size());
  }
}
BENCHMARK(BM_TCMagicAllBound)
    ->Apply(ApplyShapes)
    ->Unit(benchmark::kMillisecond);

void RunRelPointQuery(benchmark::State& state, bool demand_transform) {
  std::vector<Tuple> edges = GraphFor(state);
  for (auto _ : state) {
    Engine engine;
    bench::LoadEngine(engine, {{"edge", &edges}});
    engine.options().demand_transform = demand_transform;
    auto session = engine.OpenSession();
    Relation out = session->Query(kTCRelPoint);
    benchmark::DoNotOptimize(out.size());
    state.counters["tuples"] = static_cast<double>(out.size());
    state.counters["demanded"] = static_cast<double>(
        session->last_lowering_stats().components_demanded);
  }
}

void BM_RelPointQuery_Full(benchmark::State& state) {
  // End to end through the Rel engine, full extent (demand off).
  RunRelPointQuery(state, /*demand_transform=*/false);
}
BENCHMARK(BM_RelPointQuery_Full)
    ->Apply(ApplyShapes)
    ->Unit(benchmark::kMillisecond);

void BM_RelPointQuery_Demand(benchmark::State& state) {
  // Same query with InterpOptions::demand_transform on: the solver hands
  // the binding pattern of tc(0, y) to the interpreter, which evaluates
  // just the demanded cone.
  RunRelPointQuery(state, /*demand_transform=*/true);
}
BENCHMARK(BM_RelPointQuery_Demand)
    ->Apply(ApplyShapes)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rel

BENCHMARK_MAIN();
