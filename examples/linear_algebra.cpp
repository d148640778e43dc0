// Linear algebra over relations (Sections 1 and 5.3.2): vectors are
// (index, value) pairs, matrices are (row, col, value) triples, and the
// operations are one-line library definitions — the paper's argument that
// relations subsume the functional/array view.
//
// Build & run:  ./build/examples/linear_algebra

#include <cstdio>

#include "benchutil/generators.h"
#include "benchutil/reference.h"
#include "core/engine.h"

using rel::Engine;
using rel::Relation;
using rel::Tuple;
using rel::Value;

int main() {
  Engine engine;
  auto session = engine.OpenSession();

  // The Section 5.3.2 worked example: u = (4,2), v = (3,6), u·v = 24.
  session->Define("def U {(1,4) ; (2,2)}\n"
                "def V {(1,3) ; (2,6)}");
  std::printf("u . v            = %s\n",
              session->Eval("ScalarProd[U, V]").ToString().c_str());

  // Matrix product, matrix-vector product, transpose.
  session->Define(
      "def A {(1,1,1) ; (1,2,2) ; (2,1,3) ; (2,2,4)}\n"
      "def B {(1,1,5) ; (1,2,6) ; (2,1,7) ; (2,2,8)}\n"
      "def X {(1,5) ; (2,6)}");
  std::printf("A * B            = %s\n",
              session->Eval("MatrixMult[A, B]").ToString().c_str());
  std::printf("A * x            = %s\n",
              session->Eval("MatrixVector[A, X]").ToString().c_str());
  std::printf("transpose(A)     = %s\n",
              session->Eval("Transpose[A]").ToString().c_str());

  // Sparsity is free: relations only store the nonzero entries, and the
  // same MatrixMult definition works for any dimensions (the data
  // independence argument from the paper's introduction).
  std::vector<Tuple> sa = rel::benchutil::SparseMatrix(20, 20, 0.15, 5);
  std::vector<Tuple> sb = rel::benchutil::SparseMatrix(20, 20, 0.15, 6);
  session->Insert("SA", sa);
  session->Insert("SB", sb);
  Relation prod = session->Query("def output : MatrixMult[SA, SB]");
  std::printf("sparse 20x20: %zu x %zu nonzeros -> %zu in the product\n",
              sa.size(), sb.size(), prod.size());

  // Cross-check against the handwritten kernel.
  std::vector<Tuple> ref = rel::benchutil::MatMulRef(sa, sb);
  size_t matches = 0;
  for (const Tuple& t : ref) {
    Relation cell = session->Query(
        "def output(v) : MatrixMult[SA, SB](" + std::to_string(t[0].AsInt()) +
        ", " + std::to_string(t[1].AsInt()) + ", v)");
    if (cell.size() == 1 &&
        std::abs(cell.SortedTuples()[0][0].AsDouble() - t[2].AsDouble()) <
            1e-9) {
      ++matches;
    }
  }
  std::printf("agreement with handwritten kernel: %zu / %zu cells\n", matches,
              ref.size());

  // Frobenius-ish norm via aggregation over an abstraction.
  std::printf("sum of squares   = %s\n",
              session->Eval("sum[[i, j] : A[i, j] * A[i, j]]")
                  .ToString()
                  .c_str());
  return 0;
}
