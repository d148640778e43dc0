// Engine: the shared core of the Rel library — one engine per database,
// serving any number of concurrent Sessions (PR 7 redesign).
//
// State lives in two places:
//
//   * The published head: a `shared_ptr<const Snapshot>` (database +
//     persistent rules as of the last commit). Sessions pin it and run
//     Query/Eval lock-free against the pin — see core/session.h.
//
//   * The writer side: a working Database copy plus the durable store,
//     serialized by a single writer mutex. Every write
//     (Exec/Define/Insert/DeleteTuples, from any session) funnels through
//     the commit pipeline, whose ordering is unchanged from the durability
//     PR: evaluate against the pre-state → apply insert/delete →
//     check integrity constraints on the post-state → write ahead to the
//     WAL → only then acknowledge, by atomically publishing the next
//     snapshot. An abort at any stage rolls the working copy back to the
//     head (a cheap copy-on-write re-copy) and publishes nothing — readers
//     cannot observe a state that was not committed.
//
// Reads and transactions go through a Session (OpenSession()). Each
// Session::Exec/Query runs one *transaction* (Section 3.4): rules in the
// source are in effect for that transaction only; the computed `output`
// relation is returned; for Exec, the control relations `insert` and
// `delete` are applied and all integrity constraints are checked against
// the post-state — a violation aborts and rolls back (Section 3.5). The
// Engine itself keeps only the session-free writes (Define, Insert,
// DeleteTuples), constraint checking and durability.
//
// Lock order: writer_mu_ before head_mu_. head_mu_ guards only the head
// pointer swap/read; it is never held during evaluation.

#ifndef REL_CORE_ENGINE_H_
#define REL_CORE_ENGINE_H_

#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/ast.h"
#include "core/extent_cache.h"
#include "core/interp.h"
#include "core/session.h"
#include "data/database.h"
#include "storage/store.h"

namespace rel {

/// Result of one transaction.
struct TxnResult {
  Relation output;
  size_t inserted = 0;  // tuples added to base relations
  size_t deleted = 0;   // tuples removed from base relations
  /// WAL id of this transaction when durability is attached and the
  /// transaction changed base relations; 0 otherwise.
  uint64_t txn_id = 0;
  /// Database::version() of the snapshot published by this transaction —
  /// the version a session is pinned to after the ack. A transaction that
  /// changed nothing reports the version it committed against.
  uint64_t snapshot_version = 0;
};

class Engine {
 public:
  /// Constructs an engine with the standard library installed.
  Engine();

  /// `load_stdlib = false` gives a bare engine (used by language tests).
  explicit Engine(bool load_stdlib);

  ~Engine();

  // --- sessions & snapshots ---

  /// Opens a new session pinned to the current head snapshot, with a copy
  /// of options(). Sessions may be used concurrently with each other and
  /// with this engine's write methods; each individual session is
  /// single-threaded. The session must not outlive the engine.
  std::unique_ptr<Session> OpenSession();

  /// The currently-published snapshot. Pinning it (keeping the shared_ptr)
  /// guarantees the state stays readable and immutable regardless of later
  /// commits.
  std::shared_ptr<const Snapshot> SnapshotNow() const;

  // --- session-free writes ---

  /// Installs persistent rules and integrity constraints ("the model")
  /// engine-wide; all sessions see them on their next refresh/write.
  /// Throws ParseError on bad syntax.
  void Define(const std::string& source);

  /// Programmatic base-relation updates (bulk loading), through the same
  /// WAL-first pipeline. Integrity constraints are not checked here; call
  /// CheckConstraints() if desired.
  void Insert(const std::string& name, const std::vector<Tuple>& tuples);
  void DeleteTuples(const std::string& name, const std::vector<Tuple>& tuples);

  /// Verifies all installed integrity constraints against the newest
  /// snapshot; throws ConstraintViolation on the first failure.
  void CheckConstraints();

  // --- durability (src/storage) ---

  /// Attaches a durable store rooted at `dir` (created if needed). Existing
  /// state is recovered first: the latest valid snapshot is loaded, the WAL
  /// tail replayed (complete transactions only, truncating at the first
  /// torn or corrupt record), recovered model sources are re-installed, and
  /// the recovered database REPLACES this engine's database (published as
  /// the new head). Afterwards every Exec/Insert/DeleteTuples/Define is
  /// written ahead to the log — an Exec whose WAL write fails rolls back
  /// and throws RelError(kIo).
  ///
  /// Corruption is degradation, not death: the returned report carries the
  /// truncation point and recovered-transaction count; only an unusable
  /// store (unreadable directory, unopenable WAL) makes `report.status`
  /// non-ok, in which case the engine stays detached and in-memory.
  ///
  /// Rules Define'd before attaching (beyond the stdlib) are logged to the
  /// fresh store so the model round-trips; attach before Define when the
  /// exact install order matters. `fs` is the I/O seam for tests (fault
  /// injection); nullptr uses the real file system.
  storage::RecoveryReport AttachStorage(
      const std::string& dir, storage::DurabilityOptions opts = {},
      std::shared_ptr<storage::FileSystem> fs = nullptr);

  /// Serializes the full database + model into a snapshot checkpoint and
  /// rotates the WAL (see storage/store.h for the crash-safe protocol).
  /// On failure the previous snapshot and WAL stay intact and in use.
  Status Checkpoint();

  /// Makes any group-commit-buffered WAL tail durable now.
  Status FlushWal();

  /// True when a durable store is attached.
  bool durable() const { return store_ != nullptr; }

  /// Read access to a base relation of the newest snapshot ({} if absent).
  /// The reference stays valid until the next commit.
  const Relation& Base(const std::string& name) const;

  /// Evaluation limits and toggles (iteration caps, num_threads, the
  /// lower_recursion / demand_transform evaluation-path switches). Applied
  /// to Engine::CheckConstraints and the bulk writes' cache maintenance;
  /// sessions get a copy at OpenSession() and keep their own, so a change
  /// here does not reach an already-open session.
  InterpOptions& options() { return options_; }

  /// Number of installed persistent rules (stdlib + Define'd).
  size_t installed_rules() const;

  /// Counters for delta-specialized integrity checking (Decker-style): a
  /// committing transaction only re-evaluates constraints whose transitive
  /// read set intersects the relations it changed (or its own local defs);
  /// the rest are skipped, their validity carried over from the pre-state.
  struct IcStats {
    uint64_t checked = 0;
    uint64_t skipped = 0;
  };
  const IcStats& ic_stats() const { return ic_stats_; }

  /// The writer-side extent cache: lowered-component fixpoints maintained
  /// across the commit pipeline's pre-state and post-state evaluations.
  const ExtentCache& writer_cache() const { return writer_cache_; }

 private:
  friend class Session;

  /// The commit pipeline (see header comment). `opts` is the calling
  /// session's option set (its extent cache is NOT used — writer-side
  /// Interps use writer_cache_, which rolls back with aborted working
  /// versions).
  /// On success `*published` is the newly-published (or, for a no-op
  /// transaction, current) head.
  TxnResult ExecTxn(const std::string& source, const InterpOptions& opts,
                    LoweringStats* stats,
                    std::shared_ptr<const Snapshot>* published);

  /// Installs rules: WAL-log (unless internal) → extend the persistent rule
  /// vector → bump rules_version_ → publish.
  void DefineTxn(const std::string& source, bool internal,
                 std::shared_ptr<const Snapshot>* published);

  /// Bulk insert/delete: WAL-log first, then apply and publish.
  void ApplyBulk(const std::string& name, const std::vector<Tuple>& tuples,
                 bool is_insert, std::shared_ptr<const Snapshot>* published);

  /// Runs integrity constraints known to `interp`, parallelizing per
  /// `opts.num_threads`. Throws ConstraintViolation for the first failing
  /// constraint in declaration order. When `changed` is non-null (and the
  /// head state has passed a full check since the last rule change), the
  /// pass is specialized to the delta: a persistent constraint whose
  /// transitive read set misses both `changed` and the transaction's local
  /// defs (the first `shared_defs` entries of interp->defs() are
  /// persistent) is skipped. Returns true iff every constraint was
  /// evaluated (a full pass).
  bool CheckConstraintsWith(Interp* interp, const InterpOptions& opts,
                            const std::set<std::string>* changed = nullptr,
                            size_t shared_defs = 0);

  /// Requires writer_mu_. Parses and installs `source` into the rule
  /// vector; records it in model_sources_ (and WAL-logs it when attached)
  /// unless `internal` — the stdlib and recovery replay go through the
  /// internal path. Does not publish.
  void DefineLocked(const std::string& source, bool internal);

  /// Requires writer_mu_. Freezes the working database's lazy views, copies
  /// it (copy-on-write), and atomically swaps the head to a new Snapshot.
  std::shared_ptr<const Snapshot> Publish();

  /// Requires writer_mu_. Rolls the working database back to the published
  /// head (a shared copy-on-write copy — O(#relations)).
  void RollbackToHead();

  // Published head. head_mu_ guards only the pointer; never held during
  // evaluation or I/O.
  mutable std::mutex head_mu_;
  std::shared_ptr<const Snapshot> head_;

  // Writer state, serialized by writer_mu_ (lock order: writer_mu_ before
  // head_mu_). db_ is the working copy; between commits its content equals
  // *head_->db (sharing every relation copy-on-write).
  std::mutex writer_mu_;
  Database db_;
  std::shared_ptr<const std::vector<std::shared_ptr<Def>>> rules_;
  /// Dependency/SCC analysis of `rules_`, rebuilt on every Define and
  /// published with each snapshot; Interps extend it with their
  /// transaction-local defs instead of re-analyzing the prelude per
  /// transaction (see ProgramAnalysis's extension constructor).
  std::shared_ptr<const ProgramAnalysis> rules_analysis_;
  uint64_t rules_version_ = 0;
  uint64_t last_txn_id_ = 0;
  std::unique_ptr<storage::Store> store_;
  /// Post-stdlib Define history, in install order — what snapshots persist
  /// so rules and integrity constraints recover with the data.
  std::vector<std::string> model_sources_;

  /// Writer-side extent cache, stamped with working-database versions.
  /// Abort safety: Maintain() re-stamps every surviving entry to the
  /// transaction's post-version, so RollbackToHead()'s DropAbove(head
  /// version) discards exactly the aborted transaction's entries while the
  /// pre-state's survive (see core/extent_cache.h).
  ExtentCache writer_cache_;
  /// Bumped whenever db_ is replaced wholesale (AttachStorage recovery):
  /// deltas from different epochs must never be composed.
  uint64_t db_epoch_ = 0;
  /// The last few commit deltas, oldest first, published with each
  /// snapshot so sessions can maintain their caches across re-pins.
  std::deque<std::shared_ptr<const DatabaseDelta>> recent_deltas_;
  /// True until the current head state has passed a full constraint pass:
  /// set by construction, Define (new constraints see old data), bulk
  /// loads (unchecked by design), and recovery. While set, delta
  /// specialization is disabled — Decker's induction needs a verified base.
  bool ic_full_pass_needed_ = true;
  IcStats ic_stats_;

  InterpOptions options_;
};

/// The Rel source text of the standard library (aggregates, relational
/// algebra, linear algebra, graph algorithms — Section 5 of the paper).
const char* StdlibSource();

}  // namespace rel

#endif  // REL_CORE_ENGINE_H_
