// Tests for the parallel (multi-threaded) indexed evaluator: fixpoints must
// be byte-identical to the sequential ones across thread counts and across
// repeated runs, counters must aggregate coherently, errors must propagate,
// and the single-writer staging discipline must keep concurrent reads of
// frozen relations safe (the ForEach-during-parallel-round property).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/error.h"
#include "base/thread_pool.h"
#include "benchutil/generators.h"
#include "datalog/eval.h"
#include "datalog/program.h"

namespace rel {
namespace datalog {
namespace {

Value I(int64_t v) { return Value::Int(v); }

/// Renders every predicate extent into one deterministic string — the
/// byte-identity witness the determinism tests compare.
std::string Fingerprint(const std::map<std::string, Relation>& extents) {
  std::string out;
  for (const auto& [pred, rel] : extents) {
    out += pred;
    out += "=";
    out += rel.ToString();
    out += "\n";
  }
  return out;
}

/// Evaluates `source` (plus optional edge facts) under `threads` workers.
std::map<std::string, Relation> EvalWith(
    const std::string& source, int threads, EvalStats* stats = nullptr,
    const std::vector<Tuple>* edges = nullptr,
    const std::string& edge_pred = "edge") {
  Program p = ParseDatalog(source);
  if (edges != nullptr) {
    for (const Tuple& e : *edges) p.AddFact(edge_pred, e);
  }
  EvalOptions options;
  options.strategy = Strategy::kSemiNaive;
  options.num_threads = threads;
  return Evaluate(p, options, stats);
}

/// Asserts the program evaluates to byte-identical extents (and identical
/// derivation counts) for num_threads in {1, 2, 8}, each repeated 3 times.
void ExpectDeterministicAcrossThreads(
    const std::string& source, const std::vector<Tuple>* edges = nullptr,
    const std::string& edge_pred = "edge") {
  EvalStats base_stats;
  const std::string reference =
      Fingerprint(EvalWith(source, 1, &base_stats, edges, edge_pred));
  for (int threads : {1, 2, 8}) {
    for (int run = 0; run < 3; ++run) {
      EvalStats stats;
      std::string got =
          Fingerprint(EvalWith(source, threads, &stats, edges, edge_pred));
      EXPECT_EQ(got, reference)
          << "threads=" << threads << " run=" << run << " diverged";
      EXPECT_EQ(stats.tuples_derived, base_stats.tuples_derived)
          << "threads=" << threads << " run=" << run;
      EXPECT_EQ(stats.iterations, base_stats.iterations)
          << "threads=" << threads << " run=" << run;
    }
  }
}

TEST(ParallelDeterminism, TransitiveClosureChainAndRandom) {
  const std::string rules =
      "tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z).";
  std::vector<Tuple> chain = benchutil::ChainGraph(60);
  ExpectDeterministicAcrossThreads(rules, &chain);
  std::vector<Tuple> random = benchutil::RandomGraph(48, 144, /*seed=*/17);
  ExpectDeterministicAcrossThreads(rules, &random);
}

TEST(ParallelDeterminism, StratifiedNegation) {
  std::vector<Tuple> edges = benchutil::RandomGraph(32, 80, /*seed=*/5);
  ExpectDeterministicAcrossThreads(
      "node(X) :- edge(X, _). node(X) :- edge(_, X).\n"
      "reach(X) :- edge(0, X).\n"
      "reach(X) :- reach(Y), edge(Y, X).\n"
      "unreach(X) :- node(X), !reach(X), X != 0.\n"
      "island(X) :- unreach(X), !edge(X, 0).",
      &edges);
}

TEST(ParallelDeterminism, MixedArityProgram) {
  Program base;
  base.AddFact("r", Tuple({I(1)}));
  for (int64_t i = 0; i < 40; ++i) {
    base.AddFact("r", Tuple({I(i), I(i + 1)}));
    base.AddFact("r", Tuple({I(i), I(i + 1), I(i + 2)}));
  }
  Program rules = ParseDatalog(
      "unary(X) :- r(X).\n"
      "pair(X, Y) :- r(X, Y).\n"
      "chain(X, Z) :- r(X, Y), r(Y, Z).\n"
      "closure(X, Y) :- r(X, Y).\n"
      "closure(X, Z) :- r(X, Y), closure(Y, Z).\n"
      "wide(X) :- r(X, _, _).");
  EvalStats base_stats;
  std::string reference;
  for (int threads : {1, 2, 8}) {
    for (int run = 0; run < 3; ++run) {
      Program p = base;
      for (const Rule& r : rules.rules()) p.AddRule(r);
      EvalOptions options;
      options.num_threads = threads;
      EvalStats stats;
      std::string got = Fingerprint(Evaluate(p, options, &stats));
      if (reference.empty()) {
        reference = got;
        base_stats = stats;
      }
      EXPECT_EQ(got, reference) << "threads=" << threads << " run=" << run;
      EXPECT_EQ(stats.tuples_derived, base_stats.tuples_derived);
    }
  }
}

TEST(ParallelDeterminism, IndependentComponentsScheduleConcurrently) {
  // Two disjoint recursive components plus a stratum on top: the unit DAG
  // has real width, so threads > 1 actually runs units concurrently.
  std::vector<Tuple> a = benchutil::ChainGraph(40);
  Program p = ParseDatalog(
      "tca(X,Y) :- ea(X,Y). tca(X,Z) :- ea(X,Y), tca(Y,Z).\n"
      "tcb(X,Y) :- eb(X,Y). tcb(X,Z) :- eb(X,Y), tcb(Y,Z).\n"
      "meet(X) :- tca(X, _), tcb(X, _).\n"
      "lonely(X) :- tca(X, _), !meet(X).");
  for (const Tuple& e : a) {
    p.AddFact("ea", e);
    p.AddFact("eb", Tuple({I(e[0].AsInt() + 20), I(e[1].AsInt() + 20)}));
  }
  EvalOptions seq;
  seq.num_threads = 1;
  EvalStats seq_stats;
  std::string reference = Fingerprint(Evaluate(p, seq, &seq_stats));
  // tca/tcb/meet/lonely are four separate units.
  EXPECT_EQ(seq_stats.units, 4);
  for (int threads : {2, 8}) {
    EvalOptions par;
    par.num_threads = threads;
    EvalStats stats;
    EXPECT_EQ(Fingerprint(Evaluate(p, par, &stats)), reference)
        << "threads=" << threads;
    EXPECT_EQ(stats.units, 4);
    EXPECT_EQ(stats.threads, threads);
    EXPECT_EQ(stats.tuples_derived, seq_stats.tuples_derived);
  }
}

TEST(ParallelStats, AggregatedOnceAndStablePrinting) {
  // Big enough that rounds chunk across tasks: counters must be coherent
  // totals (no double counting), and invariant ones must match sequential.
  std::vector<Tuple> edges = benchutil::RandomGraph(64, 192, /*seed=*/23);
  const std::string rules =
      "tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z).";
  EvalStats seq;
  EvalWith(rules, 1, &seq, &edges);
  EvalStats par;
  EvalWith(rules, 4, &par, &edges);

  EXPECT_EQ(par.tuples_derived, seq.tuples_derived);
  EXPECT_EQ(par.index_probes, seq.index_probes);
  EXPECT_EQ(par.index_builds, seq.index_builds);
  EXPECT_EQ(par.iterations, seq.iterations);
  EXPECT_EQ(par.threads, 4);
  EXPECT_GT(par.par_tasks, 0u);
  EXPECT_GT(par.par_merges, 0u);
  EXPECT_EQ(seq.par_tasks, 0u);

  // ToString is one stable line mentioning every counter exactly once.
  std::string line = par.ToString();
  EXPECT_NE(line.find("tuples_derived="), std::string::npos);
  EXPECT_NE(line.find("par_tasks="), std::string::npos);
  EXPECT_EQ(line, par.ToString());
}

TEST(ParallelErrors, SafetyViolationPropagatesFromWorkers) {
  for (int threads : {2, 8}) {
    Program p = ParseDatalog("p(X, Y) :- q(X). q(1).");
    EvalOptions options;
    options.num_threads = threads;
    EXPECT_THROW(Evaluate(p, options), RelError) << "threads=" << threads;
    Program neg = ParseDatalog("p(X) :- q(X), !r(X, Y). q(1).");
    EXPECT_THROW(Evaluate(neg, options), RelError) << "threads=" << threads;
  }
}

TEST(ParallelSafety, ForEachDuringParallelRound) {
  // The single-writer contract from the evaluator's perspective: a frozen
  // relation may be iterated (ForEach / ForEachOfArityRange / Contains)
  // from many tasks at once while each task inserts into its own staging
  // relation. This is exactly what a parallel round does; here it runs
  // against the raw Relation API so a regression pinpoints the storage
  // layer rather than the evaluator.
  Relation frozen;
  constexpr int kRows = 4096;
  for (int64_t i = 0; i < kRows; ++i) {
    frozen.Insert(Tuple({I(i), I(i * 7 % kRows)}));
  }

  ThreadPool pool(8);
  std::vector<Relation> staging(pool.num_slots());
  std::vector<uint64_t> seen(pool.num_slots(), 0);
  {
    ThreadPool::TaskGroup group(&pool);
    constexpr int kChunks = 64;
    constexpr size_t kPer = kRows / kChunks;
    for (int c = 0; c < kChunks; ++c) {
      group.Run([&, c] {
        int slot = pool.CurrentSlot();
        frozen.ForEachOfArityRange(2, c * kPer, (c + 1) * kPer,
                                   [&](const TupleRef& t) {
                                     ++seen[slot];
                                     if (frozen.Contains(t)) {
                                       staging[slot].Insert(t);
                                     }
                                   });
      });
    }
    group.Wait();
  }
  Relation merged;
  uint64_t visited = 0;
  for (int s = 0; s < pool.num_slots(); ++s) {
    merged.InsertAll(staging[s]);
    visited += seen[s];
  }
  EXPECT_EQ(visited, static_cast<uint64_t>(kRows));
  EXPECT_EQ(merged, frozen);
}

}  // namespace
}  // namespace datalog
}  // namespace rel
