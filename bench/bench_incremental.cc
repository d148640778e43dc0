// Incremental maintenance (PR 9): the cost of keeping derived state alive
// across updates versus recomputing it.
//
//   * BM_ColdRecompute_TC        — the pre-PR-9 regime: a fresh session per
//     iteration re-derives the tc fixpoint from scratch (plus the output
//     scan that serves the answer).
//   * BM_SingleTupleUpdate_TC    — one edge toggled per committed
//     transaction, derived state maintained forward (writer cache inside
//     Exec, session cache inside Refresh): EvaluateDelta resumes semi-naive
//     from the single-tuple delta. The headline claim (ISSUE 9): >= 10x
//     faster than the cold recompute at n >= 128.
//   * BM_SingleTupleUpdateServe_TC — the same update plus a query served
//     from the maintained cache: end-to-end latency. The serving scan
//     (evaluating the output rule over the cached extent) is identical in
//     both regimes and predates this PR, so it is kept out of the headline
//     pair and measured here.
//   * BM_BatchedUpdate_TC        — 8 edges per transaction, amortizing the
//     per-commit overhead across a batch delta.
//   * BM_MidChainDeleteDRed_TC   — toggling a load-bearing mid-chain edge:
//     the DRed over-delete cascade touches O(n^2/4) closure pairs, the
//     worst case for delete maintenance (no 10x claim here; this series
//     bounds the cost of the expensive path against full recompute).
//   * BM_RewireCyclic_TC /
//     BM_RewireCyclicRecompute_TC — a ring with a chord on every 7th node
//     (one strongly connected component), rewired per iteration: one
//     transaction deletes ring edge (3,4) and inserts (5, 5+n/3), the next
//     undoes it. The first series maintains a warm session (DRed on a
//     cycle: nearly all of tc is over-deleted, then re-derived through the
//     chords); the second answers from a fresh session, i.e. recomputes.
//     Both serve the same cone after the same commit, so their ratio is
//     maintenance against recompute on the shape DRed finds hardest.
//   * BM_ColdConeQuery /
//     BM_CachedConeQuery         — a demanded cone derived fresh per
//     iteration vs re-served and maintained in place across commits.
//   * BM_CachedPointQuery_TC     — a warm session answering tc(k, y) for a
//     rotating k with no commits: every query is an extent cache hit served
//     in place, so this is the read path's last mile alone (splice, output
//     scan over the cached extent, result).
//
// The update benchmarks alternate insert/delete of the same edge(s) so the
// database returns to its initial state every two iterations — steady
// state, no unbounded growth across benchmark iterations. The toggled
// edges leave a node outside the chain (kFresh), so both directions have a
// delta cone proportional to the batch, not to |tc|. Each update benchmark
// checks after the timed loop that the maintained answer matches a fresh
// session's recomputation.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "benchutil/generators.h"
#include "core/session.h"

namespace rel {
namespace {

constexpr char kTcRules[] =
    "def tc(x, y) : edge(x, y)\n"
    "def tc(x, z) : exists((y) | edge(x, y) and tc(y, z))";

constexpr int kFresh = 100000;  // a source node no ChainGraph ever contains

constexpr char kConeQuery[] = "def output(y) : tc(0, y)";

void ApplyArgs(benchmark::internal::Benchmark* b) {
  b->Arg(128)->Arg(256)->ArgName("n");
}

std::unique_ptr<Engine> ChainEngine(int n) {
  auto engine = std::make_unique<Engine>();
  engine->Define(kTcRules);
  engine->Insert("edge", benchutil::ChainGraph(n));
  return engine;
}

/// The ring 0 -> 1 -> ... -> n-1 -> 0 plus a chord i -> i + n/2 on every
/// 7th node.
std::unique_ptr<Engine> CyclicEngine(int n) {
  auto engine = std::make_unique<Engine>();
  engine->Define(kTcRules);
  std::vector<Tuple> edges = benchutil::CycleGraph(n);
  for (int i = 0; i < n; i += 7) {
    edges.push_back(Tuple({Value::Int(i), Value::Int((i + n / 2) % n)}));
  }
  engine->Insert("edge", edges);
  return engine;
}

/// The two transactions a rewire toggles between: `[0]` deletes ring edge
/// (3,4) and inserts the chord (5, 5+n/3), `[1]` undoes it.
std::vector<std::string> RewireTransactions(int n) {
  const std::string ring = "x = 3 and y = 4";
  const std::string chord = "x = 5 and y = " + std::to_string(5 + n / 3);
  return {"def delete(:edge, x, y) : " + ring +
              "\ndef insert(:edge, x, y) : " + chord,
          "def delete(:edge, x, y) : " + chord +
              "\ndef insert(:edge, x, y) : " + ring};
}

/// A counter total reported per iteration: totals grow with whatever
/// iteration count the harness picks, per-iteration values do not.
benchmark::Counter PerIteration(uint64_t total) {
  return benchmark::Counter(static_cast<double>(total),
                            benchmark::Counter::kAvgIterations);
}

/// Post-loop correctness gate: the maintained session and a fresh session
/// must serve the same cone of the final database state.
void CheckMaintainedAnswer(benchmark::State& state, Engine* engine,
                           Session* maintained) {
  Relation served = maintained->Query(kConeQuery);
  Relation fresh = engine->OpenSession()->Query(kConeQuery);
  if (served.ToString() != fresh.ToString()) {
    state.SkipWithError("maintained answer diverged from recomputation");
  }
}

/// Cold baseline: a fresh session per iteration, so every query re-derives
/// the full tc fixpoint (a new session's extent cache starts empty).
void BM_ColdRecompute_TC(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::unique_ptr<Engine> engine = ChainEngine(n);
  for (auto _ : state) {
    std::unique_ptr<Session> session = engine->OpenSession();
    Relation out = session->Query(kConeQuery);
    benchmark::DoNotOptimize(out);
  }
}

/// One edge(kFresh, n-1) toggled per transaction through the commit
/// pipeline, derived state maintained forward: Exec maintains the writer
/// cache, Refresh walks the snapshot's delta chain and maintains the
/// session cache. The delta cone is a single tc tuple in both directions
/// (kFresh has no other edges), so each iteration costs commit + O(1)
/// maintenance — against BM_ColdRecompute_TC's full re-derivation.
void BM_SingleTupleUpdate_TC(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::unique_ptr<Engine> engine = ChainEngine(n);
  std::unique_ptr<Session> writer = engine->OpenSession();
  std::unique_ptr<Session> session = engine->OpenSession();
  session->Query(kConeQuery);  // warm: populates the session extent cache
  const std::string src = std::to_string(kFresh);
  const std::string dst = std::to_string(n - 1);
  const std::string ins =
      "def insert(:edge, x, y) : x = " + src + " and y = " + dst;
  const std::string del =
      "def delete(:edge, x, y) : x = " + src + " and y = " + dst;
  bool inserting = true;
  for (auto _ : state) {
    writer->Exec(inserting ? ins : del);
    session->Refresh();
    inserting = !inserting;
  }
  state.counters["extent_maintained"] =
      PerIteration(session->cache().maintained());
  CheckMaintainedAnswer(state, engine.get(), session.get());
}

/// The same single-tuple update plus a query served from the maintained
/// cache — end-to-end latency including the (regime-independent) output
/// scan over the cached extent.
void BM_SingleTupleUpdateServe_TC(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::unique_ptr<Engine> engine = ChainEngine(n);
  std::unique_ptr<Session> writer = engine->OpenSession();
  std::unique_ptr<Session> session = engine->OpenSession();
  session->Query(kConeQuery);
  const std::string src = std::to_string(kFresh);
  const std::string dst = std::to_string(n - 1);
  const std::string ins =
      "def insert(:edge, x, y) : x = " + src + " and y = " + dst;
  const std::string del =
      "def delete(:edge, x, y) : x = " + src + " and y = " + dst;
  bool inserting = true;
  for (auto _ : state) {
    writer->Exec(inserting ? ins : del);
    session->Refresh();
    Relation out = session->Query(kConeQuery);
    benchmark::DoNotOptimize(out);
    inserting = !inserting;
  }
  state.counters["cache_hits"] = PerIteration(session->cache().hits());
}

/// Batched: 8 edges from kFresh into the chain interior per transaction
/// (then deleted), amortizing the commit and maintenance overhead. The
/// delta cone is tc(kFresh, *) — O(n/2) tuples — in both directions.
void BM_BatchedUpdate_TC(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::unique_ptr<Engine> engine = ChainEngine(n);
  std::unique_ptr<Session> writer = engine->OpenSession();
  std::unique_ptr<Session> session = engine->OpenSession();
  session->Query(kConeQuery);
  const std::string src = std::to_string(kFresh);
  const std::string lo = std::to_string(n / 2);
  const std::string hi = std::to_string(n / 2 + 7);
  const std::string ins = "def insert(:edge, x, y) : x = " + src +
                          " and range(" + lo + ", " + hi + ", 1, y)";
  const std::string del = "def delete(:edge, x, y) : x = " + src +
                          " and range(" + lo + ", " + hi + ", 1, y)";
  bool inserting = true;
  for (auto _ : state) {
    writer->Exec(inserting ? ins : del);
    session->Refresh();
    inserting = !inserting;
  }
  state.counters["extent_maintained"] =
      PerIteration(session->cache().maintained());
  CheckMaintainedAnswer(state, engine.get(), session.get());
}

/// Worst-case delete: toggling a mid-chain edge cuts the chain, so DRed
/// over-deletes every closure pair crossing the cut (~n^2/4 tuples) and the
/// restoring insert re-derives them. This bounds the expensive path; the
/// alternative is the full recompute BM_ColdRecompute_TC measures.
void BM_MidChainDeleteDRed_TC(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::unique_ptr<Engine> engine = ChainEngine(n);
  std::unique_ptr<Session> writer = engine->OpenSession();
  std::unique_ptr<Session> session = engine->OpenSession();
  session->Query(kConeQuery);
  const std::string a = std::to_string(n / 2);
  const std::string b = std::to_string(n / 2 + 1);
  const std::string del =
      "def delete(:edge, x, y) : x = " + a + " and y = " + b;
  const std::string ins =
      "def insert(:edge, x, y) : x = " + a + " and y = " + b;
  bool deleting = true;
  for (auto _ : state) {
    writer->Exec(deleting ? del : ins);
    session->Refresh();
    deleting = !deleting;
  }
  state.counters["delta_deletes"] =
      PerIteration(session->cache().maintain_stats().delta_deletes);
  CheckMaintainedAnswer(state, engine.get(), session.get());
}

/// A rewire of the cyclic graph maintained in a warm session: Refresh runs
/// DRed over the rewire's delta, then the cone is served from the cache.
void BM_RewireCyclic_TC(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::unique_ptr<Engine> engine = CyclicEngine(n);
  std::unique_ptr<Session> writer = engine->OpenSession();
  std::unique_ptr<Session> session = engine->OpenSession();
  session->Query(kConeQuery);
  const std::vector<std::string> rewire = RewireTransactions(n);
  size_t k = 0;
  for (auto _ : state) {
    writer->Exec(rewire[k]);
    session->Refresh();
    Relation out = session->Query(kConeQuery);
    benchmark::DoNotOptimize(out);
    k ^= 1;
  }
  const datalog::EvalStats& stats = session->cache().maintain_stats();
  state.counters["extent_maintained"] =
      PerIteration(session->cache().maintained());
  state.counters["delta_deletes"] = PerIteration(stats.delta_deletes);
  state.counters["rederived"] = PerIteration(stats.rederived);
  CheckMaintainedAnswer(state, engine.get(), session.get());
}

/// The same rewire answered by recomputing: a fresh session per iteration
/// derives the tc fixpoint of the rewired graph from scratch.
void BM_RewireCyclicRecompute_TC(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::unique_ptr<Engine> engine = CyclicEngine(n);
  std::unique_ptr<Session> writer = engine->OpenSession();
  const std::vector<std::string> rewire = RewireTransactions(n);
  size_t k = 0;
  for (auto _ : state) {
    writer->Exec(rewire[k]);
    std::unique_ptr<Session> session = engine->OpenSession();
    Relation out = session->Query(kConeQuery);
    benchmark::DoNotOptimize(out);
    k ^= 1;
  }
}

/// Demanded cone, cold: a fresh session derives tc(0, y) every iteration.
void BM_ColdConeQuery(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::unique_ptr<Engine> engine = ChainEngine(n);
  for (auto _ : state) {
    std::unique_ptr<Session> session = engine->OpenSession();
    session->options().demand_transform = true;
    Relation out = session->Query(kConeQuery);
    benchmark::DoNotOptimize(out);
  }
}

/// Demanded cone, maintained: one warm session re-serves tc(0, y) across
/// single-edge commits — in-place cone maintenance instead of
/// re-derivation. The toggled edge hangs off kFresh, outside the demanded
/// cone, so maintenance is O(|delta cone|), near zero.
void BM_CachedConeQuery(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::unique_ptr<Engine> engine = ChainEngine(n);
  std::unique_ptr<Session> writer = engine->OpenSession();
  std::unique_ptr<Session> session = engine->OpenSession();
  session->options().demand_transform = true;
  session->Query(kConeQuery);
  const std::string src = std::to_string(kFresh);
  const std::string dst = std::to_string(n - 1);
  const std::string ins =
      "def insert(:edge, x, y) : x = " + src + " and y = " + dst;
  const std::string del =
      "def delete(:edge, x, y) : x = " + src + " and y = " + dst;
  bool inserting = true;
  for (auto _ : state) {
    writer->Exec(inserting ? ins : del);
    session->Refresh();
    Relation out = session->Query(kConeQuery);
    benchmark::DoNotOptimize(out);
    inserting = !inserting;
  }
  state.counters["cone_maintained"] =
      PerIteration(session->cache().maintained());
}

/// Point queries against a warm session, no commits in between: each one
/// hits the session's cached tc extent, which the Interp serves in place
/// (no copy, and its sorted view built once, not per query).
void BM_CachedPointQuery_TC(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::unique_ptr<Engine> engine = ChainEngine(n);
  std::unique_ptr<Session> session = engine->OpenSession();
  session->Query(kConeQuery);  // warm: populates the session extent cache
  int k = 0;
  for (auto _ : state) {
    Relation out = session->Query("def output(y) : tc(" + std::to_string(k) +
                                  ", y)");
    benchmark::DoNotOptimize(out);
    k = (k + 1) % n;
  }
  state.counters["cache_hits"] = PerIteration(session->cache().hits());
  CheckMaintainedAnswer(state, engine.get(), session.get());
}

BENCHMARK(BM_ColdRecompute_TC)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SingleTupleUpdate_TC)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SingleTupleUpdateServe_TC)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BatchedUpdate_TC)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MidChainDeleteDRed_TC)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RewireCyclic_TC)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RewireCyclicRecompute_TC)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdConeQuery)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CachedConeQuery)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CachedPointQuery_TC)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rel

BENCHMARK_MAIN();
