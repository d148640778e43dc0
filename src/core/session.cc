#include "core/session.h"

#include <set>
#include <utility>

#include "core/engine.h"
#include "core/parser.h"

namespace rel {

namespace {

/// True when `next` is a pure extension of `prev` (same shared defs, in
/// order, plus appended ones); fills `added` with the appended names.
bool RulesExtended(const std::vector<std::shared_ptr<Def>>& prev,
                   const std::vector<std::shared_ptr<Def>>& next,
                   std::set<std::string>* added) {
  if (next.size() < prev.size()) return false;
  for (size_t i = 0; i < prev.size(); ++i) {
    if (next[i] != prev[i]) return false;
  }
  for (size_t i = prev.size(); i < next.size(); ++i) {
    added->insert(next[i]->name);
  }
  return true;
}

}  // namespace

Session::Session(Engine* engine, std::shared_ptr<const Snapshot> snap,
                 InterpOptions options)
    : engine_(engine), snap_(std::move(snap)), options_(std::move(options)) {}

Session::~Session() = default;

void Session::Refresh() { Adopt(engine_->SnapshotNow()); }

void Session::Adopt(std::shared_ptr<const Snapshot> snap) {
  if (snap == nullptr || snap == snap_) return;

  if (snap->rules_version != snap_->rules_version) {
    std::set<std::string> added;
    if (RulesExtended(*snap_->rules, *snap->rules, &added)) {
      // Define only ever appends: a new rule invalidates exactly the cached
      // cones/extents whose closure can read one of the new names — the
      // rest were derived from relations the new rules cannot reach and
      // keep serving hits.
      cache_.ClearAffected(added);
    } else {
      cache_.Clear();
    }
  }

  // Database maintenance: walk the published commit-delta chain from the
  // pinned version to the new head, moving the cache along incrementally
  // (O(|delta cone|) per entry per commit). A pin that predates the chain
  // window — or a wholesale database swap (epoch bump), whose version
  // numbers may alias the pin's — clears the cache.
  if (snap->db_epoch != snap_->db_epoch) {
    cache_.Clear();
  } else if (snap->version() != snap_->version()) {
    const datalog::EvalOptions eval_opts = LoweredEvalOptions(options_);
    uint64_t at = snap_->version();
    // The chain is contiguous and ends at the new head: skip to the delta
    // leaving the pin, then follow it delta by delta.
    for (const auto& delta : snap->recent_deltas) {
      if (delta->db_epoch != snap->db_epoch || delta->from_version != at) {
        continue;
      }
      cache_.Maintain(*delta, eval_opts);
      at = delta->to_version;
    }
    if (at != snap->version()) cache_.Clear();
  }
  snap_ = std::move(snap);
}

Relation Session::Query(const std::string& source) {
  // The whole read runs against the pinned snapshot: parse the source as
  // transaction-local rules appended to the snapshot's persistent prefix,
  // evaluate `output`, and never look at the engine's live state.
  std::vector<std::shared_ptr<Def>> combined = *snap_->rules;
  for (auto& def : ParseToSharedDefs(source)) combined.push_back(std::move(def));

  InterpOptions opts = options_;
  opts.shared_defs = snap_->rules->size();
  opts.extent_cache = &cache_;
  opts.shared_analysis = snap_->rules_analysis.get();
  Interp interp(snap_->db.get(), std::move(combined), opts);
  Relation out;
  if (interp.HasDefs("output")) {
    out = interp.EvalInstance("output", 0, {});
  }
  lowering_stats_ = interp.lowering_stats();
  return out;
}

Relation Session::Eval(const std::string& expression) {
  return Query("def output : " + expression);
}

const Relation& Session::Base(const std::string& name) const {
  return snap_->db->Get(name);
}

TxnResult Session::Exec(const std::string& source) {
  std::shared_ptr<const Snapshot> published;
  TxnResult result =
      engine_->ExecTxn(source, options_, &lowering_stats_, &published);
  Adopt(std::move(published));  // read-your-writes
  return result;
}

void Session::Define(const std::string& source) {
  std::shared_ptr<const Snapshot> published;
  engine_->DefineTxn(source, /*internal=*/false, &published);
  Adopt(std::move(published));
}

void Session::Insert(const std::string& name,
                     const std::vector<Tuple>& tuples) {
  std::shared_ptr<const Snapshot> published;
  engine_->ApplyBulk(name, tuples, /*is_insert=*/true, &published);
  Adopt(std::move(published));
}

void Session::DeleteTuples(const std::string& name,
                           const std::vector<Tuple>& tuples) {
  std::shared_ptr<const Snapshot> published;
  engine_->ApplyBulk(name, tuples, /*is_insert=*/false, &published);
  Adopt(std::move(published));
}

}  // namespace rel
