// Tests for the recursion-lowering pass (src/core/lowering.h): which
// components qualify, extent equality against the tuple-at-a-time fixpoint
// (byte-identical sorted renderings), thread-count invariance, the
// fixpoint-cap interplay, and the fallback for everything outside the
// Datalog fragment.

#include "core/lowering.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "base/error.h"
#include "benchutil/generators.h"
#include "core/engine.h"
#include "core/parser.h"

namespace rel {
namespace {

Value I(int64_t v) { return Value::Int(v); }

std::vector<std::shared_ptr<Def>> Defs(const std::string& source) {
  Program program = ParseProgram(source);
  std::vector<std::shared_ptr<Def>> out;
  for (Def& def : program.defs) {
    out.push_back(std::make_shared<Def>(std::move(def)));
  }
  return out;
}

/// Queries `pred` twice — classic fixpoint and lowered — and checks the
/// extents are equal and render byte-identically. Returns the lowered
/// engine's stats-visible component count for further assertions.
int ExpectLoweredEqualsInterp(const std::string& source,
                              const std::vector<Tuple>& edges,
                              const std::string& pred,
                              int num_threads = 1) {
  Engine classic_engine;
  auto classic = classic_engine.OpenSession();
  classic->options().lower_recursion = false;
  classic->Insert("edge", edges);
  Relation expected = classic->Query(source + "\ndef output : " + pred);
  EXPECT_EQ(classic->last_lowering_stats().components_lowered, 0);

  Engine lowered_engine;
  auto lowered = lowered_engine.OpenSession();
  lowered->options().num_threads = num_threads;
  lowered->Insert("edge", edges);
  Relation got = lowered->Query(source + "\ndef output : " + pred);
  EXPECT_EQ(expected, got) << "extent diverges for '" << pred << "'";
  EXPECT_EQ(expected.ToString(), got.ToString())
      << "sorted rendering not byte-identical for '" << pred << "'";
  return lowered->last_lowering_stats().components_lowered;
}

const char kTC[] =
    "def tc(x, y) : edge(x, y)\n"
    "def tc(x, z) : exists((y) | edge(x, y) and tc(y, z))";

TEST(Lowering, TransitiveClosureTakesTheDatalogPath) {
  std::vector<Tuple> edges = benchutil::RandomGraph(24, 70, 3);
  EXPECT_EQ(ExpectLoweredEqualsInterp(kTC, edges, "tc"), 1);
}

TEST(Lowering, ChainClosureAndThreadScalingAgree) {
  std::vector<Tuple> edges = benchutil::ChainGraph(48);
  EXPECT_EQ(ExpectLoweredEqualsInterp(kTC, edges, "tc", /*num_threads=*/1), 1);
  EXPECT_EQ(ExpectLoweredEqualsInterp(kTC, edges, "tc", /*num_threads=*/4), 1);
}

TEST(Lowering, MutualRecursionLowersAsOneComponent) {
  const std::string source =
      "def odd(x, y) : edge(x, y)\n"
      "def odd(x, z) : exists((y) | edge(x, y) and even(y, z))\n"
      "def even(x, z) : exists((y) | edge(x, y) and odd(y, z))";
  std::vector<Tuple> edges = benchutil::RandomGraph(16, 40, 11);
  EXPECT_EQ(ExpectLoweredEqualsInterp(source, edges, "odd"), 1);
  EXPECT_EQ(ExpectLoweredEqualsInterp(source, edges, "even"), 1);
}

TEST(Lowering, SameGenerationWithComparisonLowers) {
  const std::string source =
      "def sg(x, y) : exists((p) | edge(p, x) and edge(p, y) and x != y)\n"
      "def sg(x, y) : exists((a, b) | edge(a, x) and edge(b, y) and sg(a, b))";
  std::vector<Tuple> edges = benchutil::RandomGraph(14, 30, 5);
  EXPECT_EQ(ExpectLoweredEqualsInterp(source, edges, "sg"), 1);
}

TEST(Lowering, ArithmeticBoundedRecursionLowers) {
  const std::string source =
      "def path(x, y, d) : edge(x, y) and d = 1\n"
      "def path(x, z, d) : exists((y, e) | path(x, y, e) and edge(y, z) "
      "and d = e + 1 and e < 5)";
  std::vector<Tuple> edges = benchutil::RandomGraph(12, 30, 7);
  EXPECT_EQ(ExpectLoweredEqualsInterp(source, edges, "path"), 1);
}

TEST(Lowering, ExternalNegationInsideRecursionLowers) {
  // Negating an out-of-component name is monotone for the SCC and becomes a
  // stratified Datalog negation.
  const std::string source =
      "def blocked(x) : x = 2\n"
      "def reach(y) : exists((x) | edge(x, y) and x = 0)\n"
      "def reach(z) : exists((y) | reach(y) and edge(y, z) "
      "and not blocked(y))";
  std::vector<Tuple> edges = benchutil::RandomGraph(16, 48, 21);
  EXPECT_EQ(ExpectLoweredEqualsInterp(source, edges, "reach"), 1);
}

TEST(Lowering, DerivedExternalExtentIsMaterialized) {
  // The recursive component joins a *derived* non-recursive relation: its
  // extent must be evaluated and fed to the Datalog program as EDB facts.
  const std::string source =
      "def fwd(x, y) : edge(x, y) and x < y\n"
      "def up(x, y) : fwd(x, y)\n"
      "def up(x, z) : exists((y) | fwd(x, y) and up(y, z))";
  std::vector<Tuple> edges = benchutil::RandomGraph(18, 54, 13);
  EXPECT_EQ(ExpectLoweredEqualsInterp(source, edges, "up"), 1);
}

TEST(Lowering, BaseFactsUnionWithLoweredRules) {
  // A member name holding base tuples *and* rules: the stored facts seed
  // the Datalog program and survive into the extent.
  Engine lowered_engine;
  auto lowered = lowered_engine.OpenSession();
  lowered->Insert("edge", {Tuple({I(1), I(2)})});
  lowered->Insert("tc", {Tuple({I(7), I(8)})});
  Relation got = lowered->Query(std::string(kTC) + "\ndef output : tc");
  EXPECT_EQ(lowered->last_lowering_stats().components_lowered, 1);
  EXPECT_TRUE(got.Contains(Tuple({I(7), I(8)})));
  EXPECT_TRUE(got.Contains(Tuple({I(1), I(2)})));

  Engine classic_engine;
  auto classic = classic_engine.OpenSession();
  classic->options().lower_recursion = false;
  classic->Insert("edge", {Tuple({I(1), I(2)})});
  classic->Insert("tc", {Tuple({I(7), I(8)})});
  EXPECT_EQ(classic->Query(std::string(kTC) + "\ndef output : tc"), got);
}

// --- fallback: non-qualifying components stay on the Interp path -------------

TEST(Lowering, ReplacementComponentsAreNotAttempted) {
  // Non-monotone self-reference uses replacement iteration; the lowering
  // must not even try (UsesReplacement gates it before translation).
  Engine engine;
  auto session = engine.OpenSession();
  session->Insert("edge", {Tuple({I(1), I(2)})});
  Relation out = session->Query(
      "def winning(x) : exists((y) | edge(x, y) and not winning(y))\n"
      "def output : winning");
  EXPECT_EQ(session->last_lowering_stats().components_lowered, 0);
  EXPECT_EQ(session->last_lowering_stats().components_rejected, 0);
  EXPECT_EQ(out.ToString(), "{(1)}");
}

TEST(Lowering, DisjunctionLowersViaDnfSplit) {
  const std::string source =
      "def r(x, y) : edge(x, y) or edge(y, x)\n"
      "def r(x, z) : exists((y) | r(x, y) and r(y, z))";
  std::vector<Tuple> edges = benchutil::RandomGraph(10, 20, 17);
  // Disjunctive bodies are split into one Datalog rule per DNF branch, so
  // the component stays on the fast path.
  Engine lowered_engine;
  auto lowered = lowered_engine.OpenSession();
  lowered->Insert("edge", edges);
  Relation got = lowered->Query(source + "\ndef output : r");
  EXPECT_EQ(lowered->last_lowering_stats().components_lowered, 1);
  EXPECT_EQ(lowered->last_lowering_stats().components_rejected, 0);

  Engine classic_engine;
  auto classic = classic_engine.OpenSession();
  classic->options().lower_recursion = false;
  classic->Insert("edge", edges);
  EXPECT_EQ(classic->Query(source + "\ndef output : r"), got);
}

TEST(Lowering, DnfOverflowFallsBackToInterp) {
  // Each conjunct doubles the DNF branch count; six of them exceed the
  // 16-branch cap, so the component is rejected and the interpreter
  // answers — still correctly.
  std::string body = "(edge(x, y) or edge(y, x))";
  std::string source = "def r(x, y) : " + body;
  for (int i = 0; i < 5; ++i) source += " and " + body;
  source += "\ndef r(x, z) : exists((y) | r(x, y) and r(y, z))";
  std::vector<Tuple> edges = benchutil::RandomGraph(8, 16, 3);
  Engine lowered_engine;
  auto lowered = lowered_engine.OpenSession();
  lowered->Insert("edge", edges);
  Relation got = lowered->Query(source + "\ndef output : r");
  EXPECT_EQ(lowered->last_lowering_stats().components_lowered, 0);
  EXPECT_EQ(lowered->last_lowering_stats().components_rejected, 1);

  Engine classic_engine;
  auto classic = classic_engine.OpenSession();
  classic->options().lower_recursion = false;
  classic->Insert("edge", edges);
  EXPECT_EQ(classic->Query(source + "\ndef output : r"), got);
}

TEST(Lowering, SecondOrderRecursionFallsBackToInterp) {
  // The stdlib TC takes a relation argument — second-order, so the
  // component cannot lower; the solver path must still answer.
  Engine engine;
  auto session = engine.OpenSession();
  session->Insert("E", {Tuple({I(1), I(2)}), Tuple({I(2), I(3)})});
  Relation out = session->Query("def output : TC[E]");
  EXPECT_EQ(session->last_lowering_stats().components_lowered, 0);
  EXPECT_EQ(out.ToString(), "{(1, 2); (1, 3); (2, 3)}");
}

TEST(Lowering, AggregationInsideRecursionFallsBack) {
  Engine engine;
  auto session = engine.OpenSession();
  session->Insert("edge", {Tuple({I(1), I(2)}), Tuple({I(2), I(3)})});
  // count[...] over the component's own predicate is non-monotone:
  // replacement mode, never lowered.
  Relation out = session->Query(
      "def grow(x) : x = 1\n"
      "def grow(x) : x = count[grow] + 1 and x < 4\n"
      "def output : grow");
  EXPECT_EQ(session->last_lowering_stats().components_lowered, 0);
  EXPECT_FALSE(out.empty());
}

TEST(Lowering, ArithmeticInsideNegatedAtomFallsBack) {
  // `not r(x + 1)`: the assignment for x + 1 would be emitted positively,
  // outside the negation, so a failing arithmetic ("a" + 1) would falsify
  // the whole body where Rel makes the negation vacuously true. The
  // component must reject and both paths must agree — including on the
  // string row, which only survives via the vacuous negation.
  const std::string source =
      "def q(x) : x = \"a\" or x = 1\n"
      "def r(x) : x = 99\n"
      "def p(x) : q(x) and not r(x + 1)\n"
      "def p(x) : exists((y) | p(y) and edge(y, x))";
  Engine lowered_engine;
  auto lowered = lowered_engine.OpenSession();
  lowered->Insert("edge", {Tuple({I(1), I(5)})});
  Relation got = lowered->Query(source + "\ndef output : p");
  EXPECT_EQ(lowered->last_lowering_stats().components_lowered, 0);
  EXPECT_EQ(lowered->last_lowering_stats().components_rejected, 1);
  EXPECT_TRUE(got.Contains(Tuple({Value::String("a")})));

  Engine classic_engine;
  auto classic = classic_engine.OpenSession();
  classic->options().lower_recursion = false;
  classic->Insert("edge", {Tuple({I(1), I(5)})});
  EXPECT_EQ(classic->Query(source + "\ndef output : p"), got);
}

// --- negated comparisons: kUnordered-faithful inverses ------------------------

TEST(Lowering, NegatedComparisonKeepsUnorderedRows) {
  // `not (x < 1)` must hold for x = "a": comparing a string with an int is
  // kUnordered, so the comparison is false and its negation true — exactly
  // Rel's semantics. The naive inverse `x >= 1` is ALSO false on kUnordered
  // and would silently drop the string row, which is why this construct
  // used to reject the whole component. It now lowers via
  // datalog::Literal::NegatedCompare and must agree with the classic path.
  const std::string source =
      "def q(x) : x = \"a\" or x = 0 or x = 5\n"
      "def p(x) : q(x) and not (x < 1)\n"
      "def p(y) : exists((x) | p(x) and edge(x, y))";
  std::vector<Tuple> edges = {Tuple({I(5), I(9)})};

  Engine lowered_engine;
  auto lowered = lowered_engine.OpenSession();
  lowered->Insert("edge", edges);
  Relation got = lowered->Query(source + "\ndef output : p");
  EXPECT_EQ(lowered->last_lowering_stats().components_lowered, 1)
      << "negated comparison must lower, not reject";
  EXPECT_TRUE(got.Contains(Tuple({Value::String("a")})));  // kUnordered row
  EXPECT_TRUE(got.Contains(Tuple({I(5)})));
  EXPECT_TRUE(got.Contains(Tuple({I(9)})));   // derived through the recursion
  EXPECT_FALSE(got.Contains(Tuple({I(0)})));  // 0 < 1 holds, negation drops

  Engine classic_engine;
  auto classic = classic_engine.OpenSession();
  classic->options().lower_recursion = false;
  classic->Insert("edge", edges);
  Relation expected = classic->Query(source + "\ndef output : p");
  EXPECT_EQ(expected, got);
  EXPECT_EQ(expected.ToString(), got.ToString());
}

TEST(Lowering, NegatedEqualityIsNotNeq) {
  // `not (x = 1)` and `x != 1` differ on kUnordered operands: both sides of
  // the Datalog engine's kNeq require comparability, so "a" != 1 is false,
  // while not ("a" = 1) is true. The lowering must emit the complement of
  // equality, never kNeq.
  const std::string source =
      "def q(x) : x = \"a\" or x = 1 or x = 2\n"
      "def keep(x) : q(x) and not (x = 1)\n"
      "def keep(y) : exists((x) | keep(x) and edge(x, y))";
  std::vector<Tuple> edges = {Tuple({I(2), I(7)})};

  Engine lowered_engine;
  auto lowered = lowered_engine.OpenSession();
  lowered->Insert("edge", edges);
  Relation got = lowered->Query(source + "\ndef output : keep");
  EXPECT_EQ(lowered->last_lowering_stats().components_lowered, 1);
  EXPECT_TRUE(got.Contains(Tuple({Value::String("a")})));
  EXPECT_TRUE(got.Contains(Tuple({I(2)})));
  EXPECT_TRUE(got.Contains(Tuple({I(7)})));
  EXPECT_FALSE(got.Contains(Tuple({I(1)})));

  Engine classic_engine;
  auto classic = classic_engine.OpenSession();
  classic->options().lower_recursion = false;
  classic->Insert("edge", edges);
  EXPECT_EQ(classic->Query(source + "\ndef output : keep"), got);
}

// --- scalar semantics: one definition for both engines ------------------------

TEST(Lowering, MinMaxOverStringsAndNaNMatchTheInterpreter) {
  // minimum/maximum order any two comparable values, strings included, and
  // give no value for unordered operands such as NaN (inf - inf). The
  // lowered assignment must run the same kernel as the builtin.
  const std::string strings =
      "def s(x) : x = \"b\"\n"
      "def s(x) : exists((y) | s(y) and rel_primitive_minimum(\"a\", y, x))";
  EXPECT_EQ(ExpectLoweredEqualsInterp(strings, {}, "s"), 1);
  Engine engine;
  auto session = engine.OpenSession();
  EXPECT_EQ(session->Query(strings + "\ndef output : s").ToString(),
            "{(\"a\"); (\"b\")}");

  const std::string nan =
      "def s(x) : x = 1.0\n"
      "def s(x) : exists((y) | s(y) and "
      "rel_primitive_maximum(1e308 * 10.0 - 1e308 * 10.0, y, x))";
  EXPECT_EQ(ExpectLoweredEqualsInterp(nan, {}, "s"), 1);
  EXPECT_EQ(session->Query(nan + "\ndef output : s").ToString(), "{(1.0)}");
}

TEST(Lowering, ComputedArgumentInNegatedComparisonStillFallsBack) {
  // `not (x + 1 < 5)`: the auxiliary assignment for x + 1 would sit outside
  // the negation, so a failing arithmetic ("a" + 1) would falsify the body
  // where Rel makes the negation vacuously true. Must reject and agree.
  const std::string source =
      "def q(x) : x = \"a\" or x = 1 or x = 9\n"
      "def p(x) : q(x) and not (x + 1 < 5)\n"
      "def p(y) : exists((x) | p(x) and edge(x, y))";
  std::vector<Tuple> edges = {Tuple({I(9), I(3)})};

  Engine lowered_engine;
  auto lowered = lowered_engine.OpenSession();
  lowered->Insert("edge", edges);
  Relation got = lowered->Query(source + "\ndef output : p");
  EXPECT_EQ(lowered->last_lowering_stats().components_lowered, 0);
  EXPECT_EQ(lowered->last_lowering_stats().components_rejected, 1);
  // The string row survives only through the vacuous negation.
  EXPECT_TRUE(got.Contains(Tuple({Value::String("a")})));

  Engine classic_engine;
  auto classic = classic_engine.OpenSession();
  classic->options().lower_recursion = false;
  classic->Insert("edge", edges);
  EXPECT_EQ(classic->Query(source + "\ndef output : p"), got);
}

// --- demand transformation through the engine ---------------------------------

TEST(Lowering, DemandTransformAnswersPointQueriesFromTheCone) {
  // End-to-end wiring: with demand_transform on, a bound application of a
  // recursive component evaluates only the demanded cone (magic-set
  // rewrite on the lowered program) and matches the full evaluation.
  std::vector<Tuple> edges = benchutil::ChainGraph(32);

  Engine full_engine;
  auto full = full_engine.OpenSession();
  full->Insert("edge", edges);
  Relation expected = full->Query(std::string(kTC) + "\ndef output(y) : tc(0, y)");
  EXPECT_EQ(full->last_lowering_stats().components_demanded, 0);

  Engine demand_engine;
  auto demand = demand_engine.OpenSession();
  demand->options().demand_transform = true;
  demand->Insert("edge", edges);
  Relation got = demand->Query(std::string(kTC) + "\ndef output(y) : tc(0, y)");
  EXPECT_EQ(demand->last_lowering_stats().components_demanded, 1);
  EXPECT_EQ(demand->last_lowering_stats().components_lowered, 0)
      << "the demanded query must not also compute the full extent";
  EXPECT_EQ(demand->last_lowering_stats().demanded_tuples, 31u);
  EXPECT_EQ(expected, got);
  EXPECT_EQ(expected.ToString(), got.ToString());
}

TEST(Lowering, DemandedExtentsMemoizePerPattern) {
  std::vector<Tuple> edges = benchutil::ChainGraph(16);
  Engine demand_engine;
  auto demand = demand_engine.OpenSession();
  demand->options().demand_transform = true;
  demand->Insert("edge", edges);
  // Two distinct bound applications in one transaction: one demanded
  // evaluation each; a repeat of the same pattern hits the memo.
  Relation out = demand->Query(
      std::string(kTC) +
      "\ndef a(y) : tc(0, y)\ndef b(y) : tc(3, y)\ndef c(y) : tc(0, y)\n"
      "def output(x, y) : a(y) and x = 1\n"
      "def output(x, y) : b(y) and x = 2\n"
      "def output(x, y) : c(y) and x = 3");
  EXPECT_EQ(demand->last_lowering_stats().components_demanded, 2);
  EXPECT_EQ(out.size(), 15u + 12u + 15u);
}

TEST(Lowering, DemandPatternCutoffFallsBackToOneFullEvaluation) {
  // Many distinct bound probes of one component must not run a cone
  // fixpoint each: after kMaxDemandPatterns (8) distinct patterns the
  // interpreter evaluates the full extent once and serves every later
  // lookup from it. Answers stay identical to the demand-off path.
  std::vector<Tuple> edges = benchutil::ChainGraph(16);
  std::string probes;
  for (int i = 0; i < 12; ++i) {
    probes += "def output(x, y) : tc(" + std::to_string(i) + ", y) and x = " +
              std::to_string(i) + "\n";
  }

  Engine full_engine;
  auto full = full_engine.OpenSession();
  full->Insert("edge", edges);
  Relation expected = full->Query(std::string(kTC) + "\n" + probes);

  Engine demand_engine;
  auto demand = demand_engine.OpenSession();
  demand->options().demand_transform = true;
  demand->Insert("edge", edges);
  Relation got = demand->Query(std::string(kTC) + "\n" + probes);
  EXPECT_EQ(expected, got);
  EXPECT_EQ(demand->last_lowering_stats().components_demanded, 8)
      << "demand must stop at the per-component pattern cutoff";
}

TEST(Lowering, ZeroIterationCapDoesNotUnboundTheLoweredFixpoint) {
  // InterpOptions::max_iterations = 0 is a strict cap; to the Datalog
  // engine 0 means unbounded. The lowering must clamp, or a divergent
  // lowered component would hang forever instead of throwing.
  for (bool lower : {false, true}) {
    Engine engine;
    auto session = engine.OpenSession();
    session->options().lower_recursion = lower;
    session->options().max_iterations = 0;
    try {
      session->Query(
          "def n(x) : x = 0\n"
          "def n(x) : exists((y) | n(y) and x = y + 1)\n"
          "def output : n");
      FAIL() << "expected non-convergence (lower_recursion=" << lower << ")";
    } catch (const RelError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kNonConvergent);
    }
  }
}

TEST(Lowering, RejectionIsRememberedPerComponent) {
  // A rejected component must be translated at most once per Interp; the
  // second member hitting the hook reuses the failure.
  Database db;
  db.Insert("edge", Tuple({I(1), I(2)}));
  InterpOptions options;
  Interp interp(&db,
                Defs("def a(x, y) : edge(x, y) and abs(x, y)\n"
                     "def a(x, z) : exists((y) | a(x, y) and b(y, z))\n"
                     "def b(x, z) : exists((y) | a(x, y) and edge(y, z))"),
                options);
  interp.EvalInstance("a", 0, {});
  interp.EvalInstance("b", 0, {});
  EXPECT_EQ(interp.lowering_stats().components_rejected, 1);
  EXPECT_EQ(interp.lowering_stats().components_lowered, 0);
  ASSERT_EQ(interp.lowering_stats().rejection_notes.size(), 1u);
}

// --- the LowerComponent translator directly ----------------------------------

TEST(LowerComponent, TranslatesTCAndClassifiesNames) {
  auto defs = Defs(kTC);
  ProgramAnalysis analysis(defs);
  std::string why;
  auto lowered = LowerComponent("tc", analysis, defs, &why);
  ASSERT_TRUE(lowered.has_value()) << why;
  EXPECT_EQ(lowered->members, std::vector<std::string>{"tc"});
  EXPECT_EQ(lowered->externals, std::vector<std::string>{"edge"});
  EXPECT_EQ(lowered->program.rules().size(), 2u);
}

TEST(LowerComponent, RejectsOutsideTheFragment) {
  struct Case {
    const char* source;
    const char* name;
  };
  const Case cases[] = {
      // Unsupported builtin.
      {"def t(x, y) : edge(x, y) and abs(x, y)\n"
       "def t(x, z) : exists((y) | t(x, y) and t(y, z))",
       "t"},
      // Second-order parameter inside the component.
      {"def t[{A}] : A\ndef t(x) : exists((y) | t(y) and edge(y, x))", "t"},
      // Negated builtin application (its auxiliary binding cannot be
      // emitted under the negation).
      {"def t(x) : exists((y) | edge(x, y)) and not range(1, 5, 1, x)\n"
       "def t(x) : exists((y) | t(y) and edge(y, x))",
       "t"},
  };
  for (const Case& c : cases) {
    auto defs = Defs(c.source);
    ProgramAnalysis analysis(defs);
    std::string why;
    EXPECT_FALSE(LowerComponent(c.name, analysis, defs, &why).has_value())
        << c.source;
    EXPECT_FALSE(why.empty()) << c.source;
  }
}

// --- fixpoint cap interplay ---------------------------------------------------

TEST(Lowering, CapSurvivesTheLowering) {
  // Value-generating recursion fits the Datalog fragment but never
  // converges; InterpOptions::max_iterations must cap it on both paths
  // with a diagnostic naming the component.
  for (bool lower : {false, true}) {
    Engine engine;
    auto session = engine.OpenSession();
    session->options().lower_recursion = lower;
    session->options().max_iterations = 64;
    try {
      session->Query(
          "def n(x) : x = 0\n"
          "def n(x) : exists((y) | n(y) and x = y + 1)\n"
          "def output : n");
      FAIL() << "expected non-convergence (lower_recursion=" << lower << ")";
    } catch (const RelError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kNonConvergent);
      EXPECT_NE(std::string(e.what()).find("n"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("max_iterations"),
                std::string::npos);
    }
  }
}

TEST(Lowering, TerminatingRecursionIgnoresTightInterpCapsLessDeepThanChain) {
  // A lowered fixpoint needs as many rounds as the longest derivation
  // chain; the cap applies to rounds on both paths, so both succeed when
  // the cap exceeds the chain depth and both diagnose when it does not.
  std::vector<Tuple> edges = benchutil::ChainGraph(12);
  for (bool lower : {false, true}) {
    Engine ok_engine;
    auto ok = ok_engine.OpenSession();
    ok->options().lower_recursion = lower;
    ok->options().max_iterations = 40;
    ok->Insert("edge", edges);
    EXPECT_EQ(ok->Query(std::string(kTC) + "\ndef output : tc").size(),
              12u * 11u / 2u);

    Engine capped_engine;
    auto capped = capped_engine.OpenSession();
    capped->options().lower_recursion = lower;
    capped->options().max_iterations = 3;
    capped->Insert("edge", edges);
    EXPECT_THROW(capped->Query(std::string(kTC) + "\ndef output : tc"),
                 RelError);
  }
}

}  // namespace
}  // namespace rel
