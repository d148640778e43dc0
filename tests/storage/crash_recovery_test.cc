// The crash-point sweep: the durability subsystem's central correctness
// argument, run as a test.
//
// A fixed, deterministic workload (transactions over ints/floats/strings/
// entities, model Defines, an aborting constraint violation, checkpoints)
// is executed twice — once against a durable Engine on the in-memory file
// system, once against a plain in-memory "oracle" Engine. The oracle records
// the full database rendering and installed-rule count after every logged
// unit (data transaction or Define), giving the exact sequence of states a
// correct recovery is allowed to return.
//
// A dry run counts every Append the workload issues; the sweep then re-runs
// the workload once per (write index, fault kind) pair — fail-stop write
// failure, torn write, silent bit flip — captures the crash image (both
// with and without the page cache), recovers from it, and checks the
// invariant:
//
//   the recovered state is EXACTLY the oracle's state after some prefix of
//   k committed units, with k == acked for fail-stop faults (no committed
//   transaction lost, no partial transaction visible), and k <= acked for
//   silent bit flips (a corrupted suffix may be lost, never a torn state).
//
// After every recovery the store must still accept a new transaction and
// survive one more recovery — corruption degrades, it does not wedge.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "storage/file.h"
#include "storage/store.h"

namespace rel {
namespace {

using storage::DurabilityOptions;
using storage::FaultPlan;
using storage::MemFileSystem;
using storage::RecoveryReport;

// --- the workload ------------------------------------------------------------

struct Action {
  enum class Kind { kExec, kBulkInsert, kDefine, kCheckpoint, kAbortingExec };
  Kind kind;
  std::string source;  // kExec / kDefine / kAbortingExec
  /// kBulkInsert payload.
  std::string relation;
  std::vector<Tuple> tuples;
  /// True for actions that append to the WAL when they succeed (data
  /// transactions and Defines) — the oracle snapshots state after each.
  bool unit = false;
};

Action Exec(std::string source) {
  return {Action::Kind::kExec, std::move(source), "", {}, true};
}
Action Define(std::string source) {
  return {Action::Kind::kDefine, std::move(source), "", {}, true};
}

std::vector<Action> Workload() {
  Value nan = Value::Float(std::nan(""));
  std::vector<Action> actions;
  actions.push_back(Define(
      "def reach(x, y) : edge(x, y)\n"
      "def reach(x, z) : exists((y) | edge(x, y) and reach(y, z))\n"
      "ic marker_positive() requires forall((x) | marker(x) implies x > 0)"));
  actions.push_back(Exec(
      "def insert(:edge, x, y) : (x = 1 and y = 2) or (x = 2 and y = 3)\n"
      "def insert(:marker, x) : x = 1"));
  // Mixed value kinds, including NaN, via the programmatic path.
  actions.push_back({Action::Kind::kBulkInsert, "", "mix",
                     {Tuple({Value::Float(2.5), Value::String("alpha")}),
                      Tuple({Value::Entity("node", "n-1"), Value::Int(7)}),
                      Tuple({nan, Value::String("")})},
                     true});
  actions.push_back(Exec(
      "def delete(:edge, x, y) : edge(x, y) and x = 1\n"
      "def insert(:marker, x) : x = 2"));
  actions.push_back({Action::Kind::kCheckpoint, "", "", {}, false});
  actions.push_back(Define("ic has_edges() requires count[edge] > 0"));
  actions.push_back(Exec(
      "def insert(:edge, x, y) : x = 10 and y = 11\n"
      "def insert(:marker, x) : x = 3"));
  // Violates marker_positive: must roll back everywhere, durably included.
  actions.push_back(
      {Action::Kind::kAbortingExec, "def insert(:marker, x) : x = 0 - 5"});
  actions.push_back(Exec("def insert(:marker, x) : x = 4"));
  actions.push_back({Action::Kind::kCheckpoint, "", "", {}, false});
  actions.push_back(Exec("def insert(:marker, x) : x = 5"));
  return actions;
}

/// The state fingerprint recovery is judged against: every base relation's
/// rendering plus the installed-rule count (rules/ICs are durable state
/// too). Each workload unit changes the fingerprint, so oracle indices are
/// distinguishable.
struct Fingerprint {
  std::string db;
  size_t rules = 0;
  bool operator==(const Fingerprint& other) const {
    return db == other.db && rules == other.rules;
  }
};

Fingerprint FingerprintOf(const Engine& engine) {
  Fingerprint fp;
  std::shared_ptr<const Snapshot> head = engine.SnapshotNow();
  for (const std::string& name : head->db->Names()) {
    fp.db += name + "=" + head->db->Get(name).ToString() + "\n";
  }
  fp.rules = engine.installed_rules();
  return fp;
}

/// Runs the workload, tolerating I/O failures from injected faults (a dead
/// device makes every later durable action throw RelError — the workload
/// presses on, as a client with retries would). Returns the number of units
/// the engine ACKNOWLEDGED, i.e. whose call returned normally; if `oracle`
/// is non-null, appends the fingerprint after each acknowledged unit.
size_t RunWorkload(Engine* engine, std::vector<Fingerprint>* oracle) {
  size_t acked = 0;
  for (const Action& action : Workload()) {
    bool ok = true;
    try {
      switch (action.kind) {
        case Action::Kind::kExec:
          engine->OpenSession()->Exec(action.source);
          break;
        case Action::Kind::kBulkInsert:
          engine->Insert(action.relation, action.tuples);
          break;
        case Action::Kind::kDefine:
          engine->Define(action.source);
          break;
        case Action::Kind::kCheckpoint:
          engine->Checkpoint();  // failure keeps the previous epoch serving
          break;
        case Action::Kind::kAbortingExec:
          // Normally rejected by the marker_positive constraint. If an
          // earlier injected fault killed the Define that installs it, the
          // insert sails past the (absent) check and dies at the WAL
          // instead — the outer catch handles that; either way nothing may
          // be applied.
          try {
            engine->OpenSession()->Exec(action.source);
            ADD_FAILURE() << "negative marker was accepted";
          } catch (const ConstraintViolation&) {
          }
          break;
      }
    } catch (const RelError&) {
      ok = false;  // injected device failure; nothing was acknowledged
    }
    if (ok && action.unit) {
      ++acked;
      if (oracle != nullptr) oracle->push_back(FingerprintOf(*engine));
    }
  }
  return acked;
}

/// Index k such that `fp` equals the oracle state after k units, or -1.
int MatchOracle(const std::vector<Fingerprint>& states, const Fingerprint& fp) {
  for (size_t k = 0; k < states.size(); ++k) {
    if (states[k] == fp) return static_cast<int>(k);
  }
  return -1;
}

/// Recovers a fresh engine from `image`, asserts the recovered state is
/// some oracle prefix, proves the store still accepts and persists a new
/// transaction, and returns the matched prefix index.
int RecoverAndCheck(const std::map<std::string, std::string>& image,
                    const std::vector<Fingerprint>& states,
                    const std::string& context) {
  auto fs = std::make_shared<MemFileSystem>(image);
  Engine engine;
  RecoveryReport report = engine.AttachStorage("db", {}, fs);
  EXPECT_TRUE(report.status.ok()) << context << ": " << report.status.ToString();
  if (!report.status.ok()) return -1;

  Fingerprint fp = FingerprintOf(engine);
  int k = MatchOracle(states, fp);
  EXPECT_GE(k, 0) << context
                  << ": recovered state matches no committed prefix.\n"
                  << "recovered:\n"
                  << fp.db << "rules=" << fp.rules << "\n"
                  << "recovery: " << report.detail;
  // Recovered integrity constraints hold over recovered data.
  engine.CheckConstraints();

  // The store is live after recovery: one more commit, one more recovery.
  engine.OpenSession()->Exec("def insert(:marker, x) : x = 99");
  Engine again;
  RecoveryReport second = again.AttachStorage("db", {}, fs);
  EXPECT_TRUE(second.status.ok()) << context;
  EXPECT_TRUE(again.Base("marker").Contains(Tuple({Value::Int(99)})))
      << context << ": post-recovery commit lost";
  return k;
}

// --- the sweep ---------------------------------------------------------------

class CrashRecoverySweep : public ::testing::Test {
 protected:
  void SetUp() override {
    // The oracle: the same workload on a purely in-memory engine.
    Engine oracle;
    states_.push_back(FingerprintOf(oracle));  // k = 0: stdlib only
    size_t units = RunWorkload(&oracle, &states_);
    ASSERT_EQ(units + 1, states_.size());

    // Dry run on a fault-free durable engine: count the workload's writes
    // and pin that the no-fault path recovers the full final state.
    auto fs = std::make_shared<MemFileSystem>();
    Engine durable;
    ASSERT_TRUE(durable.AttachStorage("db", {}, fs).status.ok());
    size_t acked = RunWorkload(&durable, nullptr);
    ASSERT_EQ(acked, units);
    ASSERT_EQ(FingerprintOf(durable), states_.back());
    total_writes_ = fs->writes();
    ASSERT_GT(total_writes_, 20u) << "workload too small to be interesting";

    // Sanity: the fingerprint sequence is strictly distinguishing, so a
    // MatchOracle hit identifies a unique prefix.
    for (size_t a = 0; a < states_.size(); ++a) {
      for (size_t b = a + 1; b < states_.size(); ++b) {
        ASSERT_FALSE(states_[a] == states_[b]) << a << " vs " << b;
      }
    }
  }

  /// Runs the workload with `plan` armed, then recovers from the crash
  /// images. Returns the acked-unit count of the faulted run.
  void SweepPoint(FaultPlan plan, const std::string& context,
                  bool exact_prefix) {
    auto fs = std::make_shared<MemFileSystem>();
    Engine engine;
    ASSERT_TRUE(engine.AttachStorage("db", {}, fs).status.ok());
    fs->SetFault(plan);
    size_t acked = RunWorkload(&engine, nullptr);
    ASSERT_TRUE(fs->fault_fired()) << context;
    fs->SetFault({});  // the crash images are read without faults

    // Crash now: sweep both "OS flushed everything" and "page cache lost".
    // With fsync-on-commit, every acknowledged unit was synced, so both
    // images must satisfy the invariant.
    for (bool synced_only : {false, true}) {
      std::string where = context + (synced_only ? " [synced]" : " [as-is]");
      int k = RecoverAndCheck(
          synced_only ? fs->FilesSynced() : fs->FilesAsIs(), states_, where);
      if (k < 0) continue;  // already failed above with context
      if (exact_prefix) {
        EXPECT_EQ(static_cast<size_t>(k), acked)
            << where << ": fail-stop fault must lose nothing acknowledged "
            << "and expose nothing unacknowledged";
      } else {
        EXPECT_LE(static_cast<size_t>(k), acked)
            << where << ": recovery invented state beyond the ack horizon";
      }
    }
  }

  std::vector<Fingerprint> states_;
  uint64_t total_writes_ = 0;
};

TEST_F(CrashRecoverySweep, FailedWriteAtEveryPoint) {
  for (uint64_t i = 1; i <= total_writes_; ++i) {
    FaultPlan plan;
    plan.kind = FaultPlan::Kind::kFailWrite;
    plan.at_write = i;
    SweepPoint(plan, "fail-write at " + std::to_string(i),
               /*exact_prefix=*/true);
  }
}

TEST_F(CrashRecoverySweep, TornWriteAtEveryPoint) {
  for (uint64_t i = 1; i <= total_writes_; ++i) {
    FaultPlan plan;
    plan.kind = FaultPlan::Kind::kTornWrite;
    plan.at_write = i;
    plan.offset = i % 3;  // 0 = half the write, else keep i%3 bytes
    SweepPoint(plan, "torn-write at " + std::to_string(i),
               /*exact_prefix=*/true);
  }
}

TEST_F(CrashRecoverySweep, BitFlipAtEveryPoint) {
  for (uint64_t i = 1; i <= total_writes_; ++i) {
    FaultPlan plan;
    plan.kind = FaultPlan::Kind::kBitFlip;
    plan.at_write = i;
    plan.offset = i * 7;  // wander across byte positions (mod write size)
    // Silent corruption may cost a committed suffix, never consistency:
    // the recovered state is still an exact prefix, k <= acked.
    SweepPoint(plan, "bit-flip at " + std::to_string(i),
               /*exact_prefix=*/false);
  }
}

TEST_F(CrashRecoverySweep, GroupCommitCrashKeepsAPrefix) {
  // With group commit, acknowledged-but-unsynced transactions may be lost
  // when the page cache is — but what survives must still be an exact
  // oracle prefix, and the as-is image must keep everything acknowledged.
  DurabilityOptions opts;
  opts.group_commit = 4;
  auto fs = std::make_shared<MemFileSystem>();
  Engine engine;
  ASSERT_TRUE(engine.AttachStorage("db", opts, fs).status.ok());
  size_t acked = RunWorkload(&engine, nullptr);

  int k_asis = RecoverAndCheck(fs->FilesAsIs(), states_, "group-commit as-is");
  EXPECT_EQ(static_cast<size_t>(k_asis), acked);
  int k_synced =
      RecoverAndCheck(fs->FilesSynced(), states_, "group-commit synced");
  ASSERT_GE(k_synced, 0);
  EXPECT_LE(static_cast<size_t>(k_synced), acked);
}

TEST_F(CrashRecoverySweep, RepeatedCrashesConverge) {
  // Crash, recover, crash again mid-recovery-era commits: iterated partial
  // progress must never regress below what the previous recovery restored.
  auto fs = std::make_shared<MemFileSystem>();
  {
    Engine engine;
    ASSERT_TRUE(engine.AttachStorage("db", {}, fs).status.ok());
    FaultPlan plan;
    plan.kind = FaultPlan::Kind::kTornWrite;
    plan.at_write = 9;
    fs->SetFault(plan);
    RunWorkload(&engine, nullptr);
    fs->SetFault({});
  }
  int prev = -1;
  std::map<std::string, std::string> image = fs->FilesAsIs();
  for (int round = 0; round < 3; ++round) {
    auto crashed = std::make_shared<MemFileSystem>(image);
    Engine engine;
    RecoveryReport report = engine.AttachStorage("db", {}, crashed);
    ASSERT_TRUE(report.status.ok());
    int k = MatchOracle(states_, FingerprintOf(engine));
    ASSERT_GE(k, 0) << "round " << round;
    EXPECT_GE(k, prev) << "recovery lost ground on round " << round;
    prev = k;
    image = crashed->FilesAsIs();
  }
}

}  // namespace
}  // namespace rel
