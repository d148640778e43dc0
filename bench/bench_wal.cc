// E13 — durability (src/storage): the price of the write-ahead log on the
// transaction commit path, how group commit amortizes fsync, and how fast
// recovery replays a WAL tail. The commit benchmarks run against real files
// (PosixFileSystem on a scratch directory) so fsync cost is the measured
// thing; replay runs on the in-memory file system so it measures decoding
// and application, not disk caches.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "bench_common.h"
#include "storage/file.h"
#include "storage/store.h"

namespace rel {
namespace {

/// A scratch directory that exists for one benchmark run.
class ScratchDir {
 public:
  ScratchDir() {
    char tmpl[] = "/tmp/rel_bench_wal_XXXXXX";
    char* made = mkdtemp(tmpl);
    dir_ = made != nullptr ? made : "/tmp/rel_bench_wal_fallback";
  }
  ~ScratchDir() {
    std::string cmd = "rm -rf '" + dir_ + "'";
    int rc = std::system(cmd.c_str());
    (void)rc;
  }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

std::string InsertOne(int64_t v) {
  return "def insert(:Numbers, x) : x = " + std::to_string(v);
}

/// Baseline: the same single-tuple transaction with no storage attached.
void BM_Commit_InMemory(benchmark::State& state) {
  Engine engine;
  std::unique_ptr<Session> session = engine.OpenSession();
  int64_t v = 0;
  for (auto _ : state) {
    TxnResult txn = session->Exec(InsertOne(++v));
    benchmark::DoNotOptimize(txn.inserted);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Commit_InMemory)->Unit(benchmark::kMicrosecond);

/// WAL-backed commit; arg 0 toggles fsync-on-commit.
void BM_Commit_Durable(benchmark::State& state) {
  ScratchDir scratch;
  storage::DurabilityOptions opts;
  opts.fsync_on_commit = state.range(0) != 0;
  Engine engine;
  if (!engine.AttachStorage(scratch.path() + "/db", opts).status.ok()) {
    state.SkipWithError("attach failed");
    return;
  }
  std::unique_ptr<Session> session = engine.OpenSession();
  int64_t v = 0;
  for (auto _ : state) {
    TxnResult txn = session->Exec(InsertOne(++v));
    benchmark::DoNotOptimize(txn.txn_id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Commit_Durable)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("fsync")
    ->Unit(benchmark::kMicrosecond);

/// fsync every Nth commit: the group-commit latency/durability dial.
void BM_Commit_GroupCommit(benchmark::State& state) {
  ScratchDir scratch;
  storage::DurabilityOptions opts;
  opts.group_commit = static_cast<int>(state.range(0));
  Engine engine;
  if (!engine.AttachStorage(scratch.path() + "/db", opts).status.ok()) {
    state.SkipWithError("attach failed");
    return;
  }
  std::unique_ptr<Session> session = engine.OpenSession();
  int64_t v = 0;
  for (auto _ : state) {
    TxnResult txn = session->Exec(InsertOne(++v));
    benchmark::DoNotOptimize(txn.txn_id);
  }
  Status s = engine.FlushWal();  // the tail group still becomes durable
  if (!s.ok()) state.SkipWithError("flush failed");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Commit_GroupCommit)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->ArgName("batch")
    ->Unit(benchmark::kMicrosecond);

/// Recovery throughput: replay a WAL of n single-tuple transactions into a
/// fresh engine. The disk image is built once, in memory; each iteration
/// recovers from a pristine copy.
void BM_RecoveryReplay(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::map<std::string, std::string> image;
  {
    auto fs = std::make_shared<storage::MemFileSystem>();
    Engine writer;
    if (!writer.AttachStorage("db", {}, fs).status.ok()) {
      state.SkipWithError("attach failed");
      return;
    }
    std::unique_ptr<Session> session = writer.OpenSession();
    for (int i = 1; i <= n; ++i) session->Exec(InsertOne(i));
    image = fs->FilesAsIs();
  }
  uint64_t replayed = 0;
  for (auto _ : state) {
    Engine engine;
    storage::RecoveryReport report = engine.AttachStorage(
        "db", {}, std::make_shared<storage::MemFileSystem>(image));
    if (!report.status.ok() || report.replayed_txns != uint64_t(n)) {
      state.SkipWithError("recovery mismatch");
      return;
    }
    replayed += report.replayed_txns;
    benchmark::DoNotOptimize(engine.Base("Numbers").size());
  }
  state.counters["txns"] =
      benchmark::Counter(static_cast<double>(replayed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RecoveryReplay)
    ->Arg(64)
    ->Arg(512)
    ->ArgName("n")
    ->Unit(benchmark::kMillisecond);

/// Recovery from a snapshot instead of a long WAL: what checkpointing buys.
void BM_RecoveryFromSnapshot(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::map<std::string, std::string> image;
  {
    auto fs = std::make_shared<storage::MemFileSystem>();
    Engine writer;
    if (!writer.AttachStorage("db", {}, fs).status.ok()) {
      state.SkipWithError("attach failed");
      return;
    }
    std::unique_ptr<Session> session = writer.OpenSession();
    for (int i = 1; i <= n; ++i) session->Exec(InsertOne(i));
    if (!writer.Checkpoint().ok()) {
      state.SkipWithError("checkpoint failed");
      return;
    }
    image = fs->FilesAsIs();
  }
  for (auto _ : state) {
    Engine engine;
    storage::RecoveryReport report = engine.AttachStorage(
        "db", {}, std::make_shared<storage::MemFileSystem>(image));
    if (!report.status.ok() || report.replayed_txns != 0) {
      state.SkipWithError("recovery mismatch");
      return;
    }
    benchmark::DoNotOptimize(engine.Base("Numbers").size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecoveryFromSnapshot)
    ->Arg(64)
    ->Arg(512)
    ->ArgName("n")
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rel

BENCHMARK_MAIN();
