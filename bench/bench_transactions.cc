// E12 — transactions and integrity constraints (Sections 3.4 and 3.5):
// insert/delete throughput through the control relations, with and without
// installed constraints, plus the cost of an aborting transaction.

#include <benchmark/benchmark.h>

#include <memory>

#include "base/error.h"
#include "bench_common.h"
#include "benchutil/generators.h"
#include "storage/file.h"

namespace rel {
namespace {

void ApplyArgs(benchmark::internal::Benchmark* b) {
  b->Arg(32)->Arg(128)->Arg(512)->ArgName("tuples");
}

void BM_InsertTxn_NoConstraints(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    TxnResult txn = engine.OpenSession()->Exec(
        "def insert(:Numbers, x) : range(1, " + std::to_string(n) +
        ", 1, x)");
    benchmark::DoNotOptimize(txn.inserted);
  }
}
BENCHMARK(BM_InsertTxn_NoConstraints)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);

void BM_InsertTxn_WithConstraint(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    engine.Define(
        "ic positive_numbers() requires\n"
        "  forall((x) | Numbers(x) implies x > 0)");
    TxnResult txn = engine.OpenSession()->Exec(
        "def insert(:Numbers, x) : range(1, " + std::to_string(n) +
        ", 1, x)");
    benchmark::DoNotOptimize(txn.inserted);
  }
}
BENCHMARK(BM_InsertTxn_WithConstraint)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);

void BM_AbortingTxn(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    engine.Define(
        "ic small_numbers() requires\n"
        "  forall((x) | Numbers(x) implies x < " + std::to_string(n / 2) +
        ")");
    bool aborted = false;
    try {
      engine.OpenSession()->Exec("def insert(:Numbers, x) : range(1, " +
                                 std::to_string(n) + ", 1, x)");
    } catch (const ConstraintViolation&) {
      aborted = true;
    }
    benchmark::DoNotOptimize(aborted);
    // Rollback must leave the database empty.
    if (engine.Base("Numbers").size() != 0) state.SkipWithError("no rollback");
  }
}
BENCHMARK(BM_AbortingTxn)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);

// The same insert transaction as BM_InsertTxn_NoConstraints, but with a
// durable store attached (in-memory file system, so this series tracks the
// WAL encode/append overhead of the commit pipeline, not disk speed;
// bench_wal measures real fsync cost).
void BM_InsertTxn_Durable(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    auto fs = std::make_shared<storage::MemFileSystem>();
    if (!engine.AttachStorage("db", {}, fs).status.ok()) {
      state.SkipWithError("attach failed");
      return;
    }
    TxnResult txn = engine.OpenSession()->Exec(
        "def insert(:Numbers, x) : range(1, " + std::to_string(n) +
        ", 1, x)");
    benchmark::DoNotOptimize(txn.txn_id);
  }
}
BENCHMARK(BM_InsertTxn_Durable)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);

void BM_DeleteTxn(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<Tuple> numbers;
  for (int i = 1; i <= n; ++i) numbers.push_back(Tuple({Value::Int(i)}));
  for (auto _ : state) {
    Engine engine;
    bench::LoadEngine(engine, {{"Numbers", &numbers}});
    TxnResult txn = engine.OpenSession()->Exec(
        "def delete(:Numbers, x) : Numbers(x) and x % 2 = 0");
    benchmark::DoNotOptimize(txn.deleted);
  }
}
BENCHMARK(BM_DeleteTxn)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rel

BENCHMARK_MAIN();
