// E4 — the Section 1 teaser: MatrixMult as a library definition over
// relations, vs the handwritten sparse kernel.
//
// The paper's point is expressiveness with acceptable mechanics: the Rel
// definition is one line and arity/dimension independent. The handwritten
// kernel is the speed-of-light reference.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "benchutil/generators.h"
#include "benchutil/reference.h"

namespace rel {
namespace {

void ApplyArgs(benchmark::internal::Benchmark* b) {
  b->Arg(8)->Arg(16)->Arg(24)->ArgName("n");
}

void BM_MatMul_Rel(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<Tuple> a = benchutil::SparseMatrix(n, n, 0.3, 1);
  std::vector<Tuple> b = benchutil::SparseMatrix(n, n, 0.3, 2);
  for (auto _ : state) {
    Engine engine;
    bench::LoadEngine(engine, {{"A", &a}, {"B", &b}});
    auto session = engine.OpenSession();
    Relation out = session->Query("def output : MatrixMult[A, B]");
    benchmark::DoNotOptimize(out.size());
    state.counters["nnz"] = static_cast<double>(out.size());
  }
}
BENCHMARK(BM_MatMul_Rel)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);

void BM_MatMul_Handwritten(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<Tuple> a = benchutil::SparseMatrix(n, n, 0.3, 1);
  std::vector<Tuple> b = benchutil::SparseMatrix(n, n, 0.3, 2);
  for (auto _ : state) {
    std::vector<Tuple> out = benchutil::MatMulRef(a, b);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_MatMul_Handwritten)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);

void BM_ScalarProd_Rel(benchmark::State& state) {
  int n = static_cast<int>(state.range(0)) * 8;
  std::vector<Tuple> u, v;
  for (int i = 1; i <= n; ++i) {
    u.push_back(Tuple({Value::Int(i), Value::Float(i * 0.5)}));
    v.push_back(Tuple({Value::Int(i), Value::Float(i * 0.25)}));
  }
  for (auto _ : state) {
    Engine engine;
    bench::LoadEngine(engine, {{"U", &u}, {"V", &v}});
    auto session = engine.OpenSession();
    Relation out = session->Query("def output : ScalarProd[U, V]");
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_ScalarProd_Rel)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rel

BENCHMARK_MAIN();
