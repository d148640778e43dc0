// The interpreter: owns the rule set, evaluates relation *instances*
// (a defined relation specialized by its second-order arguments), and runs
// the fixpoint iteration that gives recursive rules their meaning
// (Section 3.3 and Addendum A).
//
// Two fixpoint modes:
//  - accumulate: least fixpoint by saturation; used when a recursive
//    component only references itself positively (classical stratified
//    Datalog semantics);
//  - replacement: R_{k+1} = base ∪ F(R_k) iterated to a fixed point with an
//    iteration cap; used when a component references itself under negation,
//    aggregation or a second-order argument (the paper's non-stratified
//    programs, e.g. PageRank's stop-condition recursion). This follows the
//    Statelog/Dedalus lineage the paper cites for such programs.

#ifndef REL_CORE_INTERP_H_
#define REL_CORE_INTERP_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/ast.h"
#include "core/extent_cache.h"
#include "core/lowering.h"
#include "core/solver.h"
#include "data/database.h"
#include "datalog/eval.h"

namespace rel {

/// Evaluation limits; exceeded limits raise kNonConvergent.
struct InterpOptions {
  /// Cap on fixpoint iterations per relation instance.
  int max_iterations = 100000;
  /// Cap on distinct relation instances (guards against runaway
  /// specialization chains like f[(A,1)] inside f[{A}]).
  int max_instances = 1000000;
  /// Worker threads for engine-level parallel work. The solver itself is
  /// single-threaded (one Interp mirrors one Rel transaction), but the
  /// Engine checks independent integrity constraints concurrently when this
  /// is > 1, and lowered recursive components (see below) inherit it as
  /// datalog::EvalOptions::num_threads. 0 means one worker per hardware
  /// thread.
  int num_threads = 1;
  /// Evaluate qualifying monotone recursive components with the planned,
  /// indexed Datalog evaluator (src/core/lowering.h) instead of the
  /// tuple-at-a-time saturation loop. Semantics-preserving; disable to force
  /// the classic fixpoint (ablation benchmarks, differential tests).
  bool lower_recursion = true;
  /// Join-order override for lowered recursive components, forwarded to
  /// datalog::EvalOptions::plan_order_seed (0 = the production greedy
  /// order; any other value is a reproducible pseudo-random permutation
  /// per plan). Answer-invariant by contract; the equivalent-query fuzzer
  /// sweeps it to differential-test the planner through the full Rel path.
  uint64_t plan_order_seed = 0;
  /// Demand-driven recursive queries: when the solver looks up a recursive
  /// component through an application with bound arguments (tc(0, y)),
  /// rewrite the lowered Datalog program with the magic-set transform
  /// (src/datalog/magic.h) so only the demanded cone is derived instead of
  /// the full closure. Answer-preserving: the demanded extent is
  /// byte-identical to the goal-filtered full fixpoint (pinned by the magic
  /// differential suite). The one observable difference is max_iterations
  /// interplay — a query whose FULL fixpoint would exceed the cap can still
  /// succeed when its (smaller) demanded cone converges within it. Off by
  /// default until the differential suite has soaked in CI; flip via
  /// Engine::options().demand_transform.
  bool demand_transform = false;
  /// How many leading entries of the def vector are session-shared
  /// persistent rules; everything after is transaction-local (the parsed
  /// query source). A component or demanded cone whose transitive
  /// dependencies include a transaction-local def must not cross
  /// transactions, so it never enters `extent_cache`. The default (0)
  /// treats every def as transaction-local, disabling the shared cache;
  /// the Session sets it to its snapshot's rule count.
  size_t shared_defs = 0;
  /// Cross-transaction cache of lowered-component fixpoints and demanded
  /// cones (see core/extent_cache.h). Owned by the Engine's writer side or
  /// by a Session, externally synchronized, maintained under database
  /// deltas by the owner. nullptr recomputes every lowered fixpoint and
  /// cone per transaction.
  ExtentCache* extent_cache = nullptr;
  /// Dependency/SCC analysis of the first `shared_defs` defs, owned by the
  /// Engine and published with each snapshot. When set, the Interp extends
  /// it with the transaction-local defs instead of re-analyzing the whole
  /// prelude per transaction (ProgramAnalysis falls back to a full analysis
  /// when an appended def could perturb prefix components). Must outlive
  /// the Interp; internal plumbing — callers outside Engine/Session leave
  /// it null.
  const ProgramAnalysis* shared_analysis = nullptr;
};

/// The Datalog options every lowered evaluation runs under: the full
/// component (TryLowerComponent), the demanded cone (EvalInstanceDemand)
/// and the incremental maintenance of their cached extents
/// (ExtentCache::Maintain, from the Engine and the Session). One mapping,
/// so maintained extents stay byte-identical to recomputation.
datalog::EvalOptions LoweredEvalOptions(const InterpOptions& options);

/// Counters for the recursion-lowering pass, exposed per Interp (and copied
/// to Session::last_lowering_stats() after each transaction).
struct LoweringStats {
  int components_lowered = 0;   // SCCs evaluated by the Datalog engine
  int components_rejected = 0;  // monotone SCCs outside the Datalog fragment
  int components_demanded = 0;  // demand-transformed (magic-set) evaluations
  int demand_cache_hits = 0;    // cones served from the ExtentCache
  int extent_cache_hits = 0;    // components served from the ExtentCache
  uint64_t lowered_tuples = 0;  // tuples spliced back into instances
  uint64_t demanded_tuples = 0; // tuples in demanded extents handed out
  std::vector<std::string> lowered_names;    // members, evaluation order
  std::vector<std::string> rejection_notes;  // "name: reason" per rejection
};

/// One evaluation context: a database plus a set of rules. Create one per
/// transaction; memoized results are valid for the lifetime of the object
/// (the database must not change underneath it).
class Interp {
 public:
  Interp(const Database* db, std::vector<std::shared_ptr<Def>> defs,
         InterpOptions options = {});

  const Database& db() const { return *db_; }
  const InterpOptions& options() const { return options_; }
  /// The full rule set this context was built from (used by the Engine to
  /// spin up sibling Interps for parallel constraint checking).
  const std::vector<std::shared_ptr<Def>>& defs() const { return all_defs_; }

  // --- definition lookup ---

  /// True if `name` has at least one rule (of any signature).
  bool HasDefs(const std::string& name) const;

  /// Rules of `name` whose leading relation-variable parameter count is
  /// `sig` (empty vector if none).
  const std::vector<std::shared_ptr<Def>>& DefsOf(const std::string& name,
                                                  size_t sig) const;

  /// Determines how many leading arguments of an application of `name` are
  /// second-order, using the rules' parameter signatures and the ?{}/&{}
  /// annotations of `args` (Addendum A). Throws kAmbiguous when rules
  /// disagree and the annotations do not disambiguate.
  size_t ResolveSig(const std::string& name, const std::vector<Arg>& args) const;

  /// All integrity constraints.
  const std::vector<std::shared_ptr<Def>>& ics() const { return ics_; }

  // --- evaluation ---

  /// Evaluates the instance of `name` (rules with `sig` leading relation
  /// parameters, specialized by `so_args`), running fixpoints as needed.
  /// The reference stays valid until the next call that evaluates the same
  /// instance (callers must copy out what they keep across re-entry); an
  /// extent served from options().extent_cache is the entry's own, valid
  /// only until the cache's owner next mutates it (core/extent_cache.h).
  const Relation& EvalInstance(const std::string& name, size_t sig,
                               const std::vector<SOValue>& so_args);

  /// Demand-driven variant of EvalInstance for first-order instances
  /// queried through an application with a binding pattern: bound
  /// positions carry the querying atom's values (constants or variables
  /// the solver has already bound). With options().demand_transform set
  /// and a qualifying monotone recursive component, only the demanded cone
  /// is evaluated (magic-set transform on the lowered Datalog program) and
  /// the returned extent holds exactly the tuples of the full extent that
  /// match the pattern — what the solver's enumeration would keep anyway.
  /// Falls back to EvalInstance (the full extent) whenever no position is
  /// bound, the full extent is already memoized, or the component does not
  /// qualify for lowering. Demanded extents are memoized per (name,
  /// pattern); references stay valid for the lifetime of this Interp. The
  /// component's translation + materialized EDB are built once and shared
  /// across patterns, and after kMaxDemandPatterns distinct patterns the
  /// component stops demanding — one full evaluation then serves every
  /// later lookup, so a join probing many distinct bindings can never run
  /// many cone fixpoints where one closure would be cheaper.
  const Relation& EvalInstanceDemand(
      const std::string& name,
      const std::vector<std::optional<Value>>& pattern);

  /// Cheap pre-filter for the solver's demand gate: true iff
  /// demand_transform is on and `name` heads a monotone recursive
  /// component. Lets ExecAtom skip binding-pattern construction entirely
  /// for the (overwhelmingly common) atoms demand can never help.
  bool DemandEligible(const std::string& name) const;

  /// Materializes a second-order value into a finite relation. Memoized for
  /// closures. Throws kSafety for builtins and unsafe closures.
  const Relation& MaterializeSO(const SOValue& value);

  /// Evaluates an expression under an environment (used for closures,
  /// second-order arguments, and top-level query expressions).
  Relation EvalExprRel(const ExprPtr& expr, const Env& env);

  /// Applies a second-order value as a binary function (reduce operators):
  /// the unique v with (a, b, v) in the relation, if any.
  std::optional<Value> ApplyBinary(const SOValue& op, const Value& a,
                                   const Value& b);

  /// True if the recursive component of `name` must use replacement
  /// iteration (non-monotone self-reference).
  bool UsesReplacement(const std::string& name) const;

  /// The name-level dependency analysis over this context's rule set.
  const ProgramAnalysis& analysis() const { return analysis_; }

  /// Every name transitively reachable from `name` through rule references,
  /// `name` included — the relevance set cache maintenance filters deltas
  /// and rule changes against.
  std::set<std::string> ReferencesClosure(const std::string& name) const;

  /// Fresh integer for internal variable naming (shared with the solver).
  int FreshId() { return ++fresh_counter_; }

  /// Bumped every time an in-progress (partial) instance value is read;
  /// memo tables use it to detect results that must not be cached.
  uint64_t partial_reads() const { return partial_reads_; }

  /// Compile cache slot used by the solver (keyed by rule identity).
  std::map<const Def*, std::shared_ptr<void>>& rule_cache() {
    return rule_cache_;
  }

  Solver& solver() { return solver_; }

  /// What the recursion-lowering pass did so far in this context.
  const LoweringStats& lowering_stats() const { return lowering_stats_; }

 private:
  struct InstanceKey {
    std::string name;
    size_t sig;
    std::vector<SOValue> so_args;

    bool operator<(const InstanceKey& other) const;
  };

  struct Instance {
    Relation value;
    /// Set on a lowered instance: its finished extent, owned by an
    /// ExtentCache entry or by lowered_extents_ and served in place of
    /// `value` (see TryLowerComponent for the lifetime rule).
    const Relation* borrowed = nullptr;
    bool done = false;
    bool in_progress = false;
    bool provisional = false;   // read a partial value; do not finalize
    bool failed_safety = false; // materialization is unsafe; cached failure
    std::string failure_message;
    int stack_pos = -1;

    const Relation& extent() const { return borrowed ? *borrowed : value; }
  };

  const Relation& EvalInstanceImpl(const InstanceKey& key);

  /// Attempts to evaluate the whole recursive component of `name` with the
  /// Datalog engine, splicing every member's extent into `instances_` as a
  /// finished instance, by reference, never a copy. Returns false (and
  /// remembers the component as failed) when the component is outside the
  /// Datalog fragment or the evaluation cannot proceed — the caller then
  /// falls back to the tuple-at-a-time fixpoint.
  bool TryLowerComponent(const std::string& name);

  /// The extent-cache gate: true iff no def reachable from `name` (itself
  /// included) is transaction-local, i.e. `name`'s extents and cones are a
  /// pure function of the database and the shared rule prefix. Memoized
  /// per name.
  bool SharedRulesOnly(const std::string& name);

  /// Fills a cache entry's maintenance metadata for the component `lowered`
  /// rooted at `name`: the name closure, the database relations feeding the
  /// EDB, the members' base facts, and the maintainable verdict (false when
  /// any external has rules — its EDB snapshot is a derived value a base
  /// delta changes opaquely). Program-agnostic: valid for both the plain
  /// lowered program and its magic transform (whose synthetic predicates
  /// never appear in a DatabaseDelta).
  void FillMaintainInfo(const LoweredComponent& lowered,
                        const std::string& name, MaintainableExtents* out);

  /// Shared front half of TryLowerComponent and EvalInstanceDemand:
  /// translates the component of `name` and materializes its EDB (external
  /// extents via EvalInstance, members' base facts from the database).
  /// Returns nullopt after recording the rejection (and remembering the
  /// component as failed) when the component is outside the fragment or an
  /// external has no finite standalone extent.
  std::optional<LoweredComponent> BuildLoweredProgram(const std::string& name);

  const Database* db_;
  std::vector<std::shared_ptr<Def>> all_defs_;
  // name -> sig -> rules
  std::map<std::string, std::map<size_t, std::vector<std::shared_ptr<Def>>>>
      defs_;
  std::vector<std::shared_ptr<Def>> ics_;
  ProgramAnalysis analysis_;
  InterpOptions options_;
  Solver solver_;

  std::map<InstanceKey, Instance> instances_;
  /// Members' extents of lowered components the extent cache does not
  /// keep; their instances borrow from here. A deque keeps them in place.
  std::deque<std::map<std::string, Relation>> lowered_extents_;
  std::vector<Instance*> stack_;
  LoweringStats lowering_stats_;
  std::set<int> lowering_failed_components_;
  /// Demanded-cone extents, memoized per (name, bound-position values).
  /// Pure functions of the (fixed) database and rule set, so entries stay
  /// valid for the Interp's lifetime; map nodes keep references stable.
  std::map<std::pair<std::string, std::vector<std::pair<size_t, Value>>>,
           Relation>
      demand_memo_;
  /// Names defined by transaction-local defs (index >= options.shared_defs)
  /// and the per-name SharedRulesOnly verdicts.
  std::set<std::string> txn_local_names_;
  std::map<std::string, bool> shared_rules_only_;
  /// Per-component demand bookkeeping: the translation + materialized EDB
  /// (built once, reused across patterns) and the distinct-pattern count
  /// driving the kMaxDemandPatterns cutoff.
  static constexpr int kMaxDemandPatterns = 8;
  struct DemandComponent {
    int patterns = 0;
    std::optional<LoweredComponent> lowered;
  };
  std::map<int, DemandComponent> demand_components_;
  uint64_t change_tick_ = 0;
  uint64_t partial_reads_ = 0;
  int fresh_counter_ = 0;

  // Closure materialization memo: per closure expression, (env, result).
  // A deque keeps references to stored results stable as entries are added.
  struct ClosureMemoEntry {
    Env env;
    Relation result;
  };
  std::map<const Expr*, std::deque<ClosureMemoEntry>> closure_memo_;
  // Holding area so MaterializeSO can return stable references for
  // non-memoizable (partial-dependent) results.
  std::vector<std::unique_ptr<Relation>> scratch_;

  std::map<const Def*, std::shared_ptr<void>> rule_cache_;
};

}  // namespace rel

#endif  // REL_CORE_INTERP_H_
