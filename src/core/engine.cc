#include "core/engine.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "base/error.h"
#include "base/thread_pool.h"
#include "core/parser.h"

namespace rel {

namespace {

/// The synthetic rule whose solutions are the violating bindings of
/// `ic name(params) requires F`: the parameter bindings for which F fails
/// (with no parameters the constraint is simply the truth of F).
std::shared_ptr<Def> ViolationRule(const Def& ic) {
  auto rule = std::make_shared<Def>();
  rule->name = "$violations_" + ic.name;
  rule->params = ic.params;
  auto neg = MakeExpr(ExprKind::kNot, ic.line, 0);
  neg->children = {ic.body};
  rule->body = neg;
  rule->square_head = false;
  return rule;
}

/// Formats a non-empty violation set for the ConstraintViolation message.
std::string ViolationDetail(const Relation& violations) {
  return violations.size() <= 10
             ? violations.ToString()
             : std::to_string(violations.size()) + " violating bindings";
}

/// How many commit deltas each snapshot carries. Sessions more than this
/// many commits behind fall back to dropping their caches on re-pin.
constexpr size_t kRecentDeltaWindow = 8;

/// insert/delete control tuples are (:RName, v1, ..., vk).
bool SplitControlTuple(const Tuple& t, std::string* name, Tuple* payload) {
  if (t.arity() == 0) return false;
  const Value& head = t[0];
  if (!head.is_entity() || head.EntityConcept() != "rel") return false;
  *name = head.EntityId();
  *payload = t.Slice(1, t.arity());
  return true;
}

}  // namespace

Engine::Engine() : Engine(/*load_stdlib=*/true) {}

Engine::Engine(bool load_stdlib)
    : rules_(std::make_shared<std::vector<std::shared_ptr<Def>>>()),
      rules_analysis_(std::make_shared<const ProgramAnalysis>(*rules_)) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  if (load_stdlib) DefineLocked(StdlibSource(), /*internal=*/true);
  Publish();
}

Engine::~Engine() = default;

// --- sessions & snapshots ---

std::unique_ptr<Session> Engine::OpenSession() {
  return std::unique_ptr<Session>(new Session(this, SnapshotNow(), options_));
}

std::shared_ptr<const Snapshot> Engine::SnapshotNow() const {
  std::lock_guard<std::mutex> lock(head_mu_);
  return head_;
}

std::shared_ptr<const Snapshot> Engine::Publish() {
  // Freeze before copying: the snapshot shares the working copy's relation
  // objects, so forcing the lazy sorted views here makes every subsequent
  // const read on the published side write-free.
  db_.FreezeViews();
  auto snap = std::make_shared<Snapshot>();
  snap->db = std::make_shared<const Database>(db_);
  snap->rules = rules_;
  snap->rules_analysis = rules_analysis_;
  snap->rules_version = rules_version_;
  snap->txn_id = last_txn_id_;
  snap->db_epoch = db_epoch_;
  snap->recent_deltas.assign(recent_deltas_.begin(), recent_deltas_.end());
  std::shared_ptr<const Snapshot> out = std::move(snap);
  std::lock_guard<std::mutex> lock(head_mu_);
  head_ = out;
  return out;
}

void Engine::RollbackToHead() {
  std::shared_ptr<const Snapshot> head;
  {
    std::lock_guard<std::mutex> lock(head_mu_);
    head = head_;
  }
  // A copy-on-write re-copy: O(#relations) pointer copies, no tuple data.
  db_ = *head->db;
  // Discard writer-cache entries born of the aborted transaction. Maintain()
  // re-keys every surviving entry to the transaction's post-version, so
  // everything above the head version belongs to the abort; entries at the
  // head version describe the state we just rolled back to and stay.
  writer_cache_.DropAbove(head->version());
}

// --- model installation ---

void Engine::Define(const std::string& source) {
  DefineTxn(source, /*internal=*/false, nullptr);
}

void Engine::DefineTxn(const std::string& source, bool internal,
                       std::shared_ptr<const Snapshot>* published) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  DefineLocked(source, internal);
  std::shared_ptr<const Snapshot> snap = Publish();
  if (published != nullptr) *published = std::move(snap);
}

void Engine::DefineLocked(const std::string& source, bool internal) {
  std::vector<std::shared_ptr<Def>> defs = ParseToSharedDefs(source);
  // Write-ahead: a model change that cannot be made durable is not made.
  if (!internal && store_ != nullptr) {
    Status s = store_->LogDefine(source);
    if (!s.ok()) {
      throw RelError(s.kind(),
                     "define not installed (WAL append failed): " +
                         s.message());
    }
  }
  // The published vector is immutable (sessions hold it); extend a copy.
  auto next = std::make_shared<std::vector<std::shared_ptr<Def>>>(*rules_);
  next->insert(next->end(), defs.begin(), defs.end());
  rules_ = std::move(next);
  ++rules_version_;
  if (!internal) model_sources_.push_back(source);
  // New rules can extend relations cached extents were computed from — drop
  // exactly the components that can read one of the new names. New
  // constraints see pre-existing data, so the next commit must run a full
  // integrity pass before delta specialization resumes.
  std::set<std::string> defined;
  for (const auto& def : defs) defined.insert(def->name);
  writer_cache_.ClearAffected(defined);
  ic_full_pass_needed_ = true;
  // Re-analyze the (immutable) rule set once per Define; every transaction
  // and query extends this analysis with its own defs instead of paying a
  // full prelude analysis per Interp.
  rules_analysis_ = std::make_shared<const ProgramAnalysis>(*rules_);
}

void Engine::Insert(const std::string& name, const std::vector<Tuple>& tuples) {
  ApplyBulk(name, tuples, /*is_insert=*/true, nullptr);
}

void Engine::DeleteTuples(const std::string& name,
                          const std::vector<Tuple>& tuples) {
  ApplyBulk(name, tuples, /*is_insert=*/false, nullptr);
}

// --- the commit pipeline ---

TxnResult Engine::ExecTxn(const std::string& source, const InterpOptions& opts,
                          LoweringStats* stats,
                          std::shared_ptr<const Snapshot>* published) {
  std::lock_guard<std::mutex> writer(writer_mu_);

  std::vector<std::shared_ptr<Def>> combined = *rules_;
  for (auto& def : ParseToSharedDefs(source)) combined.push_back(std::move(def));

  // Writer-side Interps use the writer's own extent cache, never a
  // session's: an aborted transaction's working database versions can be
  // re-issued by a later commit with different content, and only the
  // writer cache is rolled back with them (RollbackToHead() drops every
  // above-head entry).
  InterpOptions writer_opts = opts;
  writer_opts.shared_defs = rules_->size();
  writer_opts.extent_cache = &writer_cache_;
  writer_opts.shared_analysis = rules_analysis_.get();

  Interp interp(&db_, combined, writer_opts);
  TxnResult result;
  if (interp.HasDefs("output")) {
    result.output = interp.EvalInstance("output", 0, {});
  }

  // Compute the updates against the pre-state...
  Relation inserts, deletes;
  if (interp.HasDefs("insert")) inserts = interp.EvalInstance("insert", 0, {});
  if (interp.HasDefs("delete")) deletes = interp.EvalInstance("delete", 0, {});
  if (stats != nullptr) *stats = interp.lowering_stats();

  if (inserts.empty() && deletes.empty()) {
    // Still check constraints: the transaction's ic rules apply to the
    // current state. Nothing changed, so the delta is empty — persistent
    // constraints validated for the head carry over; only the
    // transaction's own ic rules run. Nothing is published — the caller
    // re-pins the current head.
    const std::set<std::string> no_changes;
    bool full_pass = CheckConstraintsWith(&interp, writer_opts, &no_changes,
                                          writer_opts.shared_defs);
    if (full_pass) ic_full_pass_needed_ = false;
    result.snapshot_version = db_.version();
    if (published != nullptr) *published = SnapshotNow();
    return result;
  }

  // ... then apply them (deletes first, as both were computed against the
  // same snapshot) and validate the post-state. Mutations copy-on-write the
  // working copy only; pinned snapshots are untouched. The applied updates
  // are collected as WAL ops so the transaction can be logged after it
  // passes constraint checking.
  std::vector<storage::WalRecord> ops;
  auto delta = std::make_shared<DatabaseDelta>();
  delta->from_version = db_.version();
  delta->db_epoch = db_epoch_;
  for (const Tuple& t : deletes.SortedTuples()) {
    std::string name;
    Tuple payload;
    if (!SplitControlTuple(t, &name, &payload)) {
      RollbackToHead();
      throw RelError(ErrorKind::kType,
                     "delete tuples must start with a :RelationName");
    }
    if (db_.Delete(name, payload)) delta->RecordDelete(name, payload);
    if (store_ != nullptr) {
      ops.push_back(storage::WalRecord::Retract(name, payload));
    }
    ++result.deleted;
  }
  for (const Tuple& t : inserts.SortedTuples()) {
    std::string name;
    Tuple payload;
    if (!SplitControlTuple(t, &name, &payload)) {
      RollbackToHead();
      throw RelError(ErrorKind::kType,
                     "insert tuples must start with a :RelationName");
    }
    if (db_.Insert(name, payload)) delta->RecordInsert(name, payload);
    if (store_ != nullptr) {
      ops.push_back(storage::WalRecord::Fact(name, payload));
    }
    ++result.inserted;
  }
  delta->to_version = db_.version();

  // The maintain step: carry cached lowered-component fixpoints across the
  // commit instead of recomputing them — the post-state constraint check
  // (and every later transaction) resumes semi-naive evaluation from the
  // delta (insert) or runs DRed (delete); see core/extent_cache.h.
  // Maintain edits cached extents in place, and the pre-state `interp`
  // serves its cache hits by reference to them: it must not be read past
  // this line. Everything kept from it (output, inserts, deletes) was copied
  // out above.
  writer_cache_.Maintain(*delta, LoweredEvalOptions(writer_opts));

  // The effective net change, for Decker-style constraint specialization:
  // only constraints whose transitive read set intersects these relations
  // (or the transaction's own defs) can have changed their verdict.
  std::set<std::string> net_changed;
  for (const auto& [name, change] : delta->changes) {
    if (!change.inserted.empty() || !change.deleted.empty()) {
      net_changed.insert(name);
    }
  }

  bool full_pass = false;
  try {
    Interp post(&db_, combined, writer_opts);
    full_pass = CheckConstraintsWith(&post, writer_opts, &net_changed,
                                     writer_opts.shared_defs);
  } catch (...) {
    RollbackToHead();  // abort: roll back the transaction
    throw;
  }

  // Durability point: the transaction is acknowledged only after its WAL
  // records (commit included) are appended — and, per the fsync policy,
  // synced. A failed append aborts exactly like a constraint violation.
  if (store_ != nullptr && !ops.empty()) {
    Status s = store_->LogTransaction(ops, &result.txn_id);
    if (!s.ok()) {
      RollbackToHead();
      throw RelError(s.kind(), "transaction rolled back (WAL append failed): " +
                                   s.message());
    }
  }
  if (result.txn_id != 0) last_txn_id_ = result.txn_id;

  // Publish the commit's delta alongside the snapshot so sessions can
  // maintain their extent caches on re-pin instead of dropping them.
  if (delta->to_version != delta->from_version || !delta->empty()) {
    recent_deltas_.push_back(std::move(delta));
    while (recent_deltas_.size() > kRecentDeltaWindow) {
      recent_deltas_.pop_front();
    }
  }

  // The ack: atomically publish the post-state. From this point every new
  // pin (and every session that adopts `published`) sees the commit.
  std::shared_ptr<const Snapshot> snap = Publish();
  result.snapshot_version = snap->version();
  if (published != nullptr) *published = std::move(snap);
  if (full_pass) ic_full_pass_needed_ = false;
  return result;
}

void Engine::ApplyBulk(const std::string& name,
                       const std::vector<Tuple>& tuples, bool is_insert,
                       std::shared_ptr<const Snapshot>* published) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  if (store_ != nullptr && !tuples.empty()) {
    std::vector<storage::WalRecord> ops;
    ops.reserve(tuples.size());
    for (const Tuple& t : tuples) {
      ops.push_back(is_insert ? storage::WalRecord::Fact(name, t)
                              : storage::WalRecord::Retract(name, t));
    }
    uint64_t txn_id = 0;
    Status s = store_->LogTransaction(ops, &txn_id);
    if (!s.ok()) {
      throw RelError(s.kind(),
                     std::string(is_insert ? "bulk insert" : "bulk delete") +
                         " not applied (WAL append failed): " + s.message());
    }
    last_txn_id_ = txn_id;
  }
  auto delta = std::make_shared<DatabaseDelta>();
  delta->from_version = db_.version();
  delta->db_epoch = db_epoch_;
  for (const Tuple& t : tuples) {
    if (is_insert) {
      if (db_.Insert(name, t)) delta->RecordInsert(name, t);
    } else {
      if (db_.Delete(name, t)) delta->RecordDelete(name, t);
    }
  }
  delta->to_version = db_.version();
  writer_cache_.Maintain(*delta, LoweredEvalOptions(options_));
  if (delta->to_version != delta->from_version || !delta->empty()) {
    recent_deltas_.push_back(std::move(delta));
    while (recent_deltas_.size() > kRecentDeltaWindow) {
      recent_deltas_.pop_front();
    }
  }
  // Bulk loads skip constraint checking by design, so the resulting head
  // has no verified base for delta-specialized checks.
  ic_full_pass_needed_ = true;
  std::shared_ptr<const Snapshot> snap = Publish();
  if (published != nullptr) *published = std::move(snap);
}

// --- integrity constraints ---

void Engine::CheckConstraints() {
  std::shared_ptr<const Snapshot> snap = SnapshotNow();
  InterpOptions opts = options_;
  opts.extent_cache = nullptr;
  opts.shared_defs = 0;
  opts.shared_analysis = nullptr;
  Interp interp(snap->db.get(), *snap->rules, opts);
  CheckConstraintsWith(&interp, opts);
}

bool Engine::CheckConstraintsWith(Interp* interp, const InterpOptions& opts,
                                  const std::set<std::string>* changed,
                                  size_t shared_defs) {
  const std::vector<std::shared_ptr<Def>>& ics = interp->ics();
  if (ics.empty()) return true;

  // Decker-style delta specialization (callers passing `changed` hold
  // writer_mu_, which also guards ic_full_pass_needed_ and ic_stats_): a
  // constraint is checked iff it is transaction-local, or its transitive
  // read set reaches a changed relation or a transaction-local def. All
  // other persistent constraints kept their pre-state verdict — sound only
  // when the pre-state itself passed a full check since the last rule
  // change or bulk load, hence the ic_full_pass_needed_ gate.
  std::vector<size_t> to_check;
  to_check.reserve(ics.size());
  const bool prune = changed != nullptr && !ic_full_pass_needed_;
  if (!prune) {
    for (size_t i = 0; i < ics.size(); ++i) to_check.push_back(i);
  } else {
    const std::vector<std::shared_ptr<Def>>& defs = interp->defs();
    std::set<const Def*> persistent;
    for (size_t i = 0; i < shared_defs && i < defs.size(); ++i) {
      persistent.insert(defs[i].get());
    }
    std::set<std::string> txn_local;
    for (size_t i = shared_defs; i < defs.size(); ++i) {
      txn_local.insert(defs[i]->name);
    }
    for (size_t i = 0; i < ics.size(); ++i) {
      const Def& ic = *ics[i];
      bool must_check = persistent.count(&ic) == 0;
      if (!must_check) {
        for (const std::string& root : interp->analysis().DefReferences(ic)) {
          for (const std::string& name : interp->ReferencesClosure(root)) {
            if (changed->count(name) != 0 || txn_local.count(name) != 0) {
              must_check = true;
              break;
            }
          }
          if (must_check) break;
        }
      }
      if (must_check) {
        to_check.push_back(i);
      } else {
        ++ic_stats_.skipped;
      }
    }
  }
  if (changed != nullptr) ic_stats_.checked += to_check.size();
  const bool full_pass = to_check.size() == ics.size();
  if (to_check.empty()) return full_pass;

  int num_threads = opts.num_threads == 0 ? ThreadPool::HardwareThreads()
                                          : opts.num_threads;
  num_threads = std::min<int>(num_threads, static_cast<int>(to_check.size()));

  if (num_threads <= 1) {
    // The solver caches compiled rules by Def address; keep every synthetic
    // violation rule alive until the interp is done with them, or a freed
    // address could be reused by the next rule and hit a stale cache entry.
    std::vector<std::shared_ptr<Def>> keep_alive;
    for (size_t i : to_check) {
      const auto& ic = ics[i];
      keep_alive.push_back(ViolationRule(*ic));
      Relation violations =
          interp->solver().EvalRule(*keep_alive.back(), {}, nullptr);
      if (!violations.empty()) {
        throw ConstraintViolation(ic->name,
                                  "violated by " + ViolationDetail(violations));
      }
    }
    return full_pass;
  }

  // Parallel: constraints are independent reads of the same database, so
  // each one gets its own task and its own Interp (the solver's memo tables
  // are single-threaded). Two preparations make the shared reads pure:
  // the Interner is internally synchronized, and the base relations' lazy
  // sorted views are forced here, before the first task runs — at the
  // arena level, which caches the views without materializing the
  // relation-wide tuple copy Relation::SortedTuples() would build.
  for (const std::string& name : interp->db().Names()) {
    const Relation& rel = interp->db().Get(name);
    for (size_t arity : rel.Arities()) {
      rel.ArenaOfArity(arity)->SortedTuples();
    }
  }

  struct Outcome {
    bool violated = false;
    std::string detail;
    std::exception_ptr error;
  };
  std::vector<Outcome> outcomes(ics.size());
  {
    ThreadPool pool(num_threads);
    ThreadPool::TaskGroup group(&pool);
    // One task per worker over a strided constraint subset, not one per
    // constraint: each Interp construction re-runs analysis over the whole
    // def set, so build num_threads of them, not to_check.size().
    for (int worker = 0; worker < num_threads; ++worker) {
      group.Run([interp, worker, num_threads, opts, &outcomes, &to_check] {
        InterpOptions sequential = opts;
        sequential.num_threads = 1;
        // Worker Interps never share the writer's extent cache: it is
        // externally synchronized by writer_mu_, which these tasks do not
        // hold.
        sequential.extent_cache = nullptr;
        Interp local(&interp->db(), interp->defs(), sequential);
        // Same Def-address-reuse hazard as the sequential path: the solver
        // caches compiled rules by address, so every synthetic rule this
        // Interp saw must stay alive as long as the Interp does.
        std::vector<std::shared_ptr<Def>> keep_alive;
        for (size_t k = static_cast<size_t>(worker); k < to_check.size();
             k += static_cast<size_t>(num_threads)) {
          size_t i = to_check[k];
          try {
            keep_alive.push_back(ViolationRule(*interp->ics()[i]));
            Relation violations =
                local.solver().EvalRule(*keep_alive.back(), {}, nullptr);
            if (!violations.empty()) {
              outcomes[i].violated = true;
              outcomes[i].detail = ViolationDetail(violations);
            }
          } catch (...) {
            outcomes[i].error = std::current_exception();
          }
        }
      });
    }
    group.Wait();
  }
  // Deterministic report: the first failure in declaration order, exactly
  // what the sequential path would have thrown.
  for (size_t i : to_check) {
    if (outcomes[i].error) std::rethrow_exception(outcomes[i].error);
    if (outcomes[i].violated) {
      throw ConstraintViolation(ics[i]->name,
                                "violated by " + outcomes[i].detail);
    }
  }
  return full_pass;
}

// --- reads over the newest snapshot ---

const Relation& Engine::Base(const std::string& name) const {
  std::lock_guard<std::mutex> lock(head_mu_);
  return head_->db->Get(name);
}

size_t Engine::installed_rules() const { return SnapshotNow()->rules->size(); }

// --- durability ---

storage::RecoveryReport Engine::AttachStorage(
    const std::string& dir, storage::DurabilityOptions opts,
    std::shared_ptr<storage::FileSystem> fs) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  storage::RecoveryReport report;
  if (store_ != nullptr) {
    report.status =
        Status::Error(ErrorKind::kTransaction, "storage already attached");
    return report;
  }
  if (fs == nullptr) fs = std::make_shared<storage::PosixFileSystem>();
  auto store = std::make_unique<storage::Store>(std::move(fs), dir, opts);
  storage::SnapshotData data;
  report = store->Recover(&data);
  if (!report.status.ok()) return report;

  // Install the recovered model (snapshot sources + WAL define records),
  // then adopt the recovered database. Rules Define'd on this engine
  // before attaching stay installed; they are logged to the store below so
  // the next snapshot captures them.
  std::vector<std::string> pre_attach = std::move(model_sources_);
  model_sources_.clear();
  for (const std::string& source : data.model_sources) {
    DefineLocked(source, /*internal=*/true);
    model_sources_.push_back(source);
  }
  for (const std::string& source : pre_attach) {
    model_sources_.push_back(source);
  }
  db_ = std::move(data.db);
  // The recovered database starts a fresh version timeline: no delta ever
  // leads into it, and no cached extent or constraint verdict survives it.
  ++db_epoch_;
  recent_deltas_.clear();
  writer_cache_.Clear();
  ic_full_pass_needed_ = true;
  store_ = std::move(store);
  Status log_status = Status::Ok();
  for (const std::string& source : pre_attach) {
    Status s = store_->LogDefine(source);
    if (!s.ok()) {
      store_.reset();
      log_status = s;
      break;
    }
  }
  // The recovered state replaces the head even if re-logging failed (the
  // engine is then detached and in-memory, matching the report).
  Publish();
  if (!log_status.ok()) report.status = log_status;
  return report;
}

Status Engine::Checkpoint() {
  std::lock_guard<std::mutex> writer(writer_mu_);
  if (store_ == nullptr) {
    return Status::Error(ErrorKind::kTransaction, "no storage attached");
  }
  return store_->Checkpoint(db_, model_sources_);
}

Status Engine::FlushWal() {
  std::lock_guard<std::mutex> writer(writer_mu_);
  if (store_ == nullptr) return Status::Ok();
  return store_->Flush();
}

}  // namespace rel
