// ExtentCache: the one cache of derived state that survives transactions
// and updates.
//
// A lowered recursive component's fixpoint, and a demanded cone of one
// (the magic-set rewrite answering tc(0, Y)), used to die with the
// transaction's Interp. This cache hoists both out of the transaction and,
// where possible, *maintains* them under base-relation deltas instead of
// recomputing:
//
//   * insert → resume semi-naive evaluation with the inserted tuples as the
//     delta against the cached fixpoint (datalog::EvaluateDelta);
//   * delete → DRed: over-delete everything derivable from the deleted
//     tuples, then re-derive by seeds by point probe + semi-naive
//     propagation;
//   * unsupported shapes (negation over an affected predicate, wholesale
//     Put/Drop) → the entry is dropped and the next transaction recomputes.
//
// Entries. An entry is keyed by (component, binding pattern): a whole
// component by its sorted member list and an empty pattern, a demanded cone
// by its instance "name/arity" and bound (position, value) pairs alone (the
// instance names the component already). Every entry
// carries a MaintainableExtents payload and the Database::version() it is
// valid for. A component entry's payload is the component fixpoint; a
// cone entry's payload is the full fixpoint of the magic-transformed
// program (its magic seed facts never change under base-relation deltas,
// so the transformed program's EDB delta IS the database delta), and the
// cone itself is the goal extent filtered by the pattern, re-filtered
// whenever maintenance changes the payload.
//
// Ownership. One cache per owner, externally synchronized, never shared:
// each Session owns one, and the Engine's writer side owns one. Only the
// owner mutates the cache, and only between transactions.
//
// Borrowing. An Interp serves a hit — a component's extents and a cone
// alike — by reference into the entry, never a copy. The reference stays
// valid until the owner's next Maintain, DropAbove, ClearAffected, Clear
// or replacing Store, so an Interp must not be read past any of them (the
// writer copies what it keeps out of its pre-state Interp before its
// Maintain). Only the owner's thread reads borrowed extents: reading one
// may force its lazy sorted view, a mutation under const (see
// src/data/README.md), which Maintain's in-place edits invalidate again.
// Interps on other threads (the parallel constraint checker) run without
// a cache.
//
// Invalidation. The version stamp is the whole validity claim: an entry
// answers a lookup only at exactly its stamped version, and the owner must
// keep every stamp on the timeline of the database it will query next:
//   * commits — Maintain() once per DatabaseDelta, in order (engine writer:
//     inside ExecTxn/ApplyBulk; sessions: Snapshot::recent_deltas on
//     Adopt). Entries not at delta.from_version are dropped;
//   * rule-set changes — ClearAffected() with the new names when the
//     change is a pure extension (an entry whose closure cannot read a new
//     name survives), Clear() otherwise;
//   * rollback — DropAbove(head version): maintenance mutates entries in
//     place, so an aborted transaction's working versions cannot be
//     restored, only discarded — and a later commit re-issues those
//     version numbers with different content;
//   * any re-pin the owner cannot walk delta by delta — the pin scrolled
//     out of the published window, or AttachStorage replaced the database
//     wholesale — Clear(). Version numbers are not unique across database
//     timelines (a recovered database can sit at the very version number
//     the old pin had), so no entry can be kept on its stamp alone.
//
// The correctness bar: maintained extents are byte-identical to the
// from-scratch fixpoint at the new version (pinned by tests/core/
// maintain_test.cc and the update-stream fuzzer differentially against
// full recomputation).

#ifndef REL_CORE_EXTENT_CACHE_H_
#define REL_CORE_EXTENT_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "data/database.h"
#include "data/relation.h"
#include "data/value.h"
#include "datalog/eval.h"
#include "datalog/index.h"
#include "datalog/program.h"

namespace rel {

/// A cached Datalog fixpoint plus everything needed to move it forward
/// under a DatabaseDelta.
struct MaintainableExtents {
  /// The program whose fixpoint `extents` is (rules are what matter;
  /// program.facts() is the EDB at the version the entry was built at and
  /// is not consulted during maintenance).
  datalog::Program program;
  /// The full fixpoint: every EDB and IDB predicate's extent, mutated in
  /// place by maintenance. Map nodes (and so arena addresses) are stable;
  /// the persistent IndexCache below depends on that.
  std::map<std::string, Relation> extents;
  /// Post-version base facts of predicates that are BOTH rule heads and
  /// database base relations (DRed re-derivation support; see
  /// datalog::EvaluateDelta's base_facts contract). Updated in lockstep
  /// with the delta.
  std::map<std::string, Relation> base_facts;
  /// Rule-head predicates of `program` that are database relation names
  /// (the ones whose base_facts must track deltas).
  std::set<std::string> head_preds;
  /// Database relation names feeding the program's EDB — the names whose
  /// DatabaseDelta changes translate into an EdbDelta.
  std::set<std::string> base_names;
  /// Rel-level name closure of the component (members, externals, and
  /// everything reachable from their rules). The relevance filter: a delta
  /// touching none of these leaves the extents valid as-is.
  std::set<std::string> closure;
  /// False when the extents cannot be maintained (an external with rules:
  /// its EDB snapshot is a derived value a base delta changes opaquely).
  /// Such entries survive irrelevant deltas but drop on relevant ones.
  bool maintainable = false;
  /// Persistent across maintenance calls so indexes over grown extents take
  /// the pure-append fast path (EvalStats::index_appends) instead of
  /// rebuilding. unique_ptr: IndexCache holds mutexes and cannot move.
  std::unique_ptr<datalog::IndexCache> cache =
      std::make_unique<datalog::IndexCache>();
};

enum class MaintainResult {
  kUntouched,    // delta does not intersect the closure: extents valid as-is
  kMaintained,   // extents moved to the delta's post-state incrementally
  kUnsupported,  // cannot maintain: caller must drop the entry
};

/// Moves `e` forward under `delta`. kUnsupported when the delta is
/// wholesale, touches the closure of a non-maintainable entry, or hits a
/// shape EvaluateDelta rejects. `stats`, when non-null, accumulates the
/// incremental evaluation's counters.
MaintainResult MaintainExtents(MaintainableExtents* e,
                               const DatabaseDelta& delta,
                               const datalog::EvalOptions& opts,
                               datalog::EvalStats* stats);

/// Per-owner cache of lowered-component fixpoints and demanded cones; see
/// the header comment for the key, ownership and invalidation contract.
class ExtentCache {
 public:
  struct Key {
    /// KeyFor(the component's sorted members) for a whole component; empty
    /// for a demanded cone.
    std::string component;
    /// Empty for a whole component. For a demanded cone: "name/arity", so
    /// tc(0, Y) and tc(0, Y, Z) never share an entry.
    std::string instance;
    /// A cone's bound positions and their values, ascending by position.
    std::vector<std::pair<size_t, Value>> bound;

    bool operator<(const Key& other) const {
      return std::tie(component, instance, bound) <
             std::tie(other.component, other.instance, other.bound);
    }
  };

  struct Entry {
    uint64_t db_version = 0;
    MaintainableExtents ext;
    /// Cone entries only (goal_pred is empty for a component entry): the
    /// cone is FilterByPattern(ext.extents[goal_pred], pattern).
    std::string goal_pred;
    std::vector<std::optional<Value>> pattern;
    Relation cone;
  };

  /// The component key for sorted members `members`.
  static std::string KeyFor(const std::vector<std::string>& members);

  /// The entry for `key` valid at exactly `db_version`, or nullptr. Counts
  /// a hit or a miss.
  const Entry* Lookup(const Key& key, uint64_t db_version);

  /// Stores (replacing any previous entry for `key`); the returned
  /// reference — a cone entry's `cone` included — stays valid until the
  /// entry is dropped, and its content changes only under Maintain().
  Entry& Store(Key key, Entry entry);

  /// Moves every entry at delta.from_version to delta.to_version —
  /// incrementally where the delta is relevant (re-filtering a maintained
  /// cone), by re-stamping where it is not — and drops entries that cannot
  /// follow (stale version, wholesale delta, unmaintainable shape). `opts`
  /// configures the incremental evaluation (LoweredEvalOptions).
  void Maintain(const DatabaseDelta& delta, const datalog::EvalOptions& opts);

  /// Drops every entry stamped with a version greater than `db_version` —
  /// the rollback hook.
  void DropAbove(uint64_t db_version);

  /// Drops every entry whose closure intersects `names` (rule extensions:
  /// a new def for a name only invalidates the entries that can read it).
  void ClearAffected(const std::set<std::string>& names);

  void Clear() { entries_.clear(); }

  size_t size() const { return entries_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t maintained() const { return maintained_; }
  uint64_t restamped() const { return restamped_; }
  uint64_t dropped() const { return dropped_; }
  /// Accumulated counters of every incremental evaluation this cache ran
  /// (delta_inserts / delta_deletes / rederived / index_appends ...).
  const datalog::EvalStats& maintain_stats() const { return maintain_stats_; }

 private:
  using Map = std::map<Key, std::unique_ptr<Entry>>;

  /// Erases `it`, counting the drop; returns the next position.
  Map::iterator Drop(Map::iterator it) {
    ++dropped_;
    return entries_.erase(it);
  }

  /// unique_ptr: entries hold an IndexCache whose indexes point into the
  /// entry's own extents — neither may move after Store.
  Map entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t maintained_ = 0;
  uint64_t restamped_ = 0;
  uint64_t dropped_ = 0;
  datalog::EvalStats maintain_stats_;
};

}  // namespace rel

#endif  // REL_CORE_EXTENT_CACHE_H_
