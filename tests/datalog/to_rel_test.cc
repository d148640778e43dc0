// Differential tests for the Datalog -> Rel translator: the translated
// program must compute the same extents on the Rel engine as the classical
// engine computes natively.

#include "datalog/to_rel.h"

#include <gtest/gtest.h>

#include "benchutil/generators.h"
#include "core/engine.h"
#include "datalog/eval.h"

namespace rel {
namespace datalog {
namespace {

/// Runs `source` on both engines and compares the extent of `pred`.
void ExpectAgreement(const std::string& source, const std::string& pred) {
  Program program = ParseDatalog(source);
  Relation native = EvaluatePredicate(program, pred);

  Engine engine;
  auto session = engine.OpenSession();
  std::string rel_source = ProgramToRel(program);
  Relation translated =
      session->Query(rel_source + "\ndef output : " + pred);
  EXPECT_EQ(native, translated) << "translated program:\n" << rel_source;
}

TEST(ToRel, FactsBecomeRelationConstants) {
  Program p = ParseDatalog("edge(1, 2). edge(2, 3).");
  EXPECT_EQ(ProgramToRel(p), "def edge {(1, 2) ; (2, 3)}\n");
}

TEST(ToRel, BodyVariablesAreQuantified) {
  Program p = ParseDatalog("tc(X, Z) :- edge(X, Y), tc(Y, Z).");
  std::string rel_source = RuleToRel(p.rules()[0]);
  // Y is body-only: must be existentially quantified.
  EXPECT_NE(rel_source.find("exists("), std::string::npos);
  // Head variables are numbered first (X=v0, Z=v1), then body-only Y=v2.
  EXPECT_EQ(rel_source,
            "def tc(v0, v1) : exists((v2) | edge(v0, v2) and tc(v2, v1))");
}

TEST(ToRel, TransitiveClosureAgrees) {
  ExpectAgreement(
      "edge(1,2). edge(2,3). edge(3,4). edge(4,2).\n"
      "tc(X,Y) :- edge(X,Y).\n"
      "tc(X,Z) :- edge(X,Y), tc(Y,Z).",
      "tc");
}

TEST(ToRel, NegationAgrees) {
  ExpectAgreement(
      "node(1). node(2). node(3). edge(1,2).\n"
      "reach(X) :- edge(1, X).\n"
      "reach(Y) :- reach(X), edge(X, Y).\n"
      "unreach(X) :- node(X), !reach(X), X != 1.",
      "unreach");
}

TEST(ToRel, ArithmeticAndComparisonsAgree) {
  ExpectAgreement(
      "n(1). n(2). n(3).\n"
      "double(X, D) :- n(X), D = X * 2.\n"
      "big(X) :- double(_, X), X >= 4.",
      "big");
}

TEST(ToRel, StringConstantsAgree) {
  ExpectAgreement(
      "likes(\"ann\", bob). likes(bob, \"carol\").\n"
      "pair(X, Y) :- likes(X, Y), X != Y.",
      "pair");
}

TEST(ToRel, RandomGraphClosureAgrees) {
  for (uint64_t seed : {5u, 6u}) {
    Program program;
    for (const Tuple& e : benchutil::RandomGraph(15, 40, seed)) {
      program.AddFact("edge", e);
    }
    Program rules = ParseDatalog(
        "tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z).");
    for (const Rule& r : rules.rules()) program.AddRule(r);

    Relation native = EvaluatePredicate(program, "tc");
    Engine engine;
    auto session = engine.OpenSession();
    Relation translated =
        session->Query(ProgramToRel(program) + "\ndef output : tc");
    EXPECT_EQ(native, translated) << "seed " << seed;
  }
}

}  // namespace
}  // namespace datalog
}  // namespace rel
