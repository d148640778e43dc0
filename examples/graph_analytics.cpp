// Graph analytics with the stdlib graph library (Sections 1 and 5.4):
// transitive closure, all-pairs shortest paths, PageRank with a stop
// condition, degrees and triangle counting — all as library calls over an
// edge relation, exactly the "libraries instead of language extensions"
// workflow the paper advocates.
//
// Build & run:  ./build/examples/graph_analytics

#include <cstdio>

#include "benchutil/generators.h"
#include "core/engine.h"

using rel::Engine;
using rel::Relation;
using rel::Tuple;

int main() {
  // A small random digraph plus its node set.
  const int n = 12;
  std::vector<Tuple> edges = rel::benchutil::RandomGraph(n, 3 * n, 2024);
  std::vector<Tuple> nodes = rel::benchutil::NodeSet(n);

  Engine engine;
  auto session = engine.OpenSession();
  session->Insert("E", edges);
  session->Insert("V", nodes);

  Relation tc = session->Query("def output : TC[E]");
  std::printf("reachable pairs:       %zu of %d\n", tc.size(), n * n);

  Relation apsp = session->Query("def output : APSP[V, E]");
  std::printf("shortest-path entries: %zu\n", apsp.size());
  Relation diameter =
      session->Query("def output : max[(d) : APSP[V, E](_, _, d)]");
  std::printf("graph diameter:        %s\n", diameter.ToString().c_str());

  // Degrees — grouped counts from the library.
  Relation outdeg = session->Query("def output : outdegree[E]");
  Relation top = session->Query("def output : Argmax[outdegree[E]]");
  std::printf("max out-degree nodes:  %s\n", top.ToString().c_str());
  std::printf("out-degrees:           %s\n", outdeg.ToString().c_str());

  Relation triangles = session->Query("def output : triangle_count[E]");
  std::printf("ordered triangles:     %s\n", triangles.ToString().c_str());

  // PageRank needs a column-stochastic matrix; build it in Rel itself from
  // the edge relation: G(i, j) = 1 / outdegree(j) for each edge j -> i,
  // shifted to 1-based indexes for the vector encoding of Section 5.3.2.
  session->Define(
      "def G(i, j, w) :\n"
      "  exists((a, b, d) | E(b, a) and i = a + 1 and j = b + 1 and\n"
      "                     outdegree[E](b, d) and w = 1.0 / d)");
  Relation pr = session->Query("def output : PageRank[G]");
  std::printf("PageRank entries:      %zu\n", pr.size());
  Relation best = session->Query("def output : Argmax[PageRank[G]]");
  std::printf("top-ranked node(s):    %s\n", best.ToString().c_str());
  return 0;
}
