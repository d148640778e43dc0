// A miniature supply-chain application (Section 7 names supply chain
// management among the applications built in Rel). The *entire* business
// logic is Rel rules: bill-of-materials explosion (recursion), rolled-up
// costs (recursion through aggregation), shortage propagation (negation),
// and a stock-consuming transaction guarded by integrity constraints.
//
// Build & run:  ./build/examples/supply_chain

#include <cstdio>

#include "base/error.h"
#include "core/engine.h"

using rel::Engine;
using rel::Relation;

int main() {
  Engine engine;
  auto session = engine.OpenSession();

  // --- facts: parts, bill of materials, costs, stock -------------------------
  session->Define(R"rel(
    // BOM(parent, component, quantity): a bike needs 2 wheels and 1 frame;
    // a wheel needs 32 spokes and 1 rim; the frame needs 2 tubes.
    def BOM {("bike", "wheel", 2) ; ("bike", "frame", 1) ;
             ("wheel", "spoke", 32) ; ("wheel", "rim", 1) ;
             ("frame", "tube", 2)}

    def Part(p) : BOM(p, _, _) or BOM(_, p, _)
    def Atomic(p) : Part(p) and not BOM(p, _, _)

    // Purchase costs for atomic parts only.
    def BaseCost {("spoke", 1) ; ("rim", 20) ; ("tube", 15)}
  )rel");

  // --- derived logic ----------------------------------------------------------
  session->Define(R"rel(
    // Transitive where-used / requires relations via the stdlib TC.
    def ComponentEdge(p, c) : BOM(p, c, _)
    def Requires(p, c) : TC[ComponentEdge](p, c)

    // Total quantity of an atomic component needed per unit of a part:
    // recursive aggregation (evaluated with a replacement fixpoint).
    def UnitCost[p in Part] : BaseCost[p] where Atomic(p)
    def UnitCost[p in Part] :
        sum[(c, v) : exists((q, cc) | BOM(p, c, q) and UnitCost(c, cc)
                                      and v = q * cc)]
        where not Atomic(p)

    // A part is buildable if every atomic part it requires is in stock.
    def Missing(p) : Atomic(p) and not exists((s) | Stock(p, s) and s > 0)
    def Blocked(p) : exists((c) | Requires(p, c) and Missing(c))
    def Buildable(p) : Part(p) and not Atomic(p) and not Blocked(p)
  )rel");

  // --- constraints -------------------------------------------------------------
  session->Define(R"rel(
    ic stock_non_negative(p, s) requires Stock(p, s) implies s >= 0
    ic atomic_costs(p) requires BaseCost(p, _) implies Atomic(p)
  )rel");

  std::printf("unit costs:   %s\n",
              session->Query("def output : UnitCost").ToString().c_str());
  std::printf("bike needs:   %s\n",
              session->Query("def output(c) : Requires(\"bike\", c)")
                  .ToString()
                  .c_str());

  // No stock yet: everything is blocked.
  std::printf("buildable:    %s\n",
              session->Query("def output : Buildable").ToString().c_str());

  // --- receive stock (a transaction) ------------------------------------------
  session->Exec(R"rel(
    def insert(:Stock, p, s) :
        {("spoke", 64) ; ("rim", 2) ; ("tube", 2)}(p, s)
  )rel");
  std::printf("after goods receipt, buildable: %s\n",
              session->Query("def output : Buildable").ToString().c_str());

  // --- consume stock for one wheel ---------------------------------------------
  session->Exec(R"rel(
    def delete(:Stock, p, s) : Stock(p, s) and BOM("wheel", p, _)
    def insert(:Stock, p, s2) :
        exists((s, q) | Stock(p, s) and BOM("wheel", p, q) and s2 = s - q)
  )rel");
  std::printf("stock after building a wheel:   %s\n",
              session->Query("def output : Stock").ToString().c_str());

  // --- a violating transaction aborts ------------------------------------------
  try {
    session->Exec(
        "def delete(:Stock, p, s) : Stock(p, s) and p = \"rim\"\n"
        "def insert(:Stock, p, s) : p = \"rim\" and s = -5");
  } catch (const rel::ConstraintViolation& v) {
    std::printf("negative stock rejected: %s\n", v.what());
  }
  std::printf("rim stock intact:                %s\n",
              session->Query("def output(s) : Stock(\"rim\", s)")
                  .ToString()
                  .c_str());
  return 0;
}
