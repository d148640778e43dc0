// Tests for Leapfrog Triejoin, checked against the binary hash join
// reference (benchutil/reference.h), which is tested here too.

#include <gtest/gtest.h>

#include <algorithm>

#include "benchutil/generators.h"
#include "benchutil/reference.h"
#include "joins/leapfrog.h"

namespace rel {
namespace joins {
namespace {

Value I(int64_t v) { return Value::Int(v); }

TEST(HashJoin, Basic) {
  std::vector<Tuple> left = {Tuple({I(1), I(2)}), Tuple({I(3), I(4)})};
  std::vector<Tuple> right = {Tuple({I(2), I(9)}), Tuple({I(2), I(8)}),
                              Tuple({I(5), I(7)})};
  std::vector<Tuple> out = benchutil::HashJoin(left, {1}, right, {0});
  std::sort(out.begin(), out.end());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], Tuple({I(1), I(2), I(8)}));
  EXPECT_EQ(out[1], Tuple({I(1), I(2), I(9)}));
}

TEST(HashJoin, EmptyInputs) {
  std::vector<Tuple> rows = {Tuple({I(1), I(2)})};
  EXPECT_TRUE(benchutil::HashJoin({}, {0}, rows, {0}).empty());
  EXPECT_TRUE(benchutil::HashJoin(rows, {0}, {}, {0}).empty());
}

TEST(HashJoin, MultiColumnKeys) {
  std::vector<Tuple> left = {Tuple({I(1), I(2), I(3)})};
  std::vector<Tuple> right = {Tuple({I(1), I(2), I(77)}),
                              Tuple({I(1), I(9), I(88)})};
  std::vector<Tuple> out = benchutil::HashJoin(left, {0, 1}, right, {0, 1});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Tuple({I(1), I(2), I(3), I(77)}));
}

TEST(Leapfrog, TwoWayJoinMatchesHashJoin) {
  std::vector<Tuple> r = benchutil::RandomGraph(40, 120, 7);
  std::vector<Tuple> s = benchutil::RandomGraph(40, 120, 8);
  // R(x,y) ⋈ S(y,z).
  SortedColumns r_sorted = ToSortedColumns(r);
  SortedColumns s_sorted = ToSortedColumns(s);
  std::vector<AtomSpec> atoms = {{&r_sorted, {0, 1}}, {&s_sorted, {1, 2}}};
  size_t lftj = LeapfrogJoinCount(3, atoms);
  EXPECT_EQ(lftj, benchutil::HashJoin(r, {1}, s, {0}).size());
}

TEST(Leapfrog, EmitsBindings) {
  SortedColumns e =
      ToSortedColumns({Tuple({I(1), I(2)}), Tuple({I(2), I(3)})});
  std::vector<AtomSpec> atoms = {{&e, {0, 1}}, {&e, {1, 2}}};
  std::vector<std::vector<Value>> results;
  LeapfrogJoin(3, atoms,
               [&results](const std::vector<Value>& b) { results.push_back(b); });
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], (std::vector<Value>{I(1), I(2), I(3)}));
}

TEST(Leapfrog, TriangleCountsAgreeOnRandomGraphs) {
  for (uint64_t seed : {11u, 22u, 33u, 44u}) {
    std::vector<Tuple> edges = benchutil::RandomGraph(25, 140, seed);
    size_t expected = benchutil::CountTrianglesRef(edges);
    EXPECT_EQ(CountTrianglesLeapfrog(edges), expected) << "seed " << seed;
    EXPECT_EQ(benchutil::CountTrianglesBinaryJoin(edges), expected)
        << "seed " << seed;
  }
}

TEST(Leapfrog, TriangleCountsAgreeOnSkewedGraphs) {
  std::vector<Tuple> edges = benchutil::SkewedTriangleGraph(60, 8, 5);
  size_t expected = benchutil::CountTrianglesRef(edges);
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(CountTrianglesLeapfrog(edges), expected);
  EXPECT_EQ(benchutil::CountTrianglesBinaryJoin(edges), expected);
}

TEST(Leapfrog, EmptyRelation) {
  SortedColumns empty = ToSortedColumns({}, {0, 1});
  std::vector<AtomSpec> atoms = {{&empty, {0, 1}}};
  EXPECT_EQ(LeapfrogJoinCount(2, atoms), 0u);
  EXPECT_EQ(CountTrianglesLeapfrog({}), 0u);
}

TEST(Leapfrog, DuplicateKeyRuns) {
  // Multiple rows with the same leading value exercise the run detection.
  std::vector<Tuple> r = {Tuple({I(1), I(1)}), Tuple({I(1), I(2)}),
                          Tuple({I(1), I(3)}), Tuple({I(2), I(3)})};
  SortedColumns r_sorted = ToSortedColumns(r);
  std::vector<AtomSpec> atoms = {{&r_sorted, {0, 1}}, {&r_sorted, {1, 2}}};
  // Join R(x,y), R(y,z): y in {1,2,3} ∩ heads {1,2}.
  // (1,1,{1,2,3}), (1,2,3), (2,3,-)... count pairs.
  size_t expected = benchutil::HashJoin(r, {1}, r, {0}).size();
  EXPECT_EQ(LeapfrogJoinCount(3, atoms), expected);
}

TEST(Leapfrog, ToSortedColumnsPermutesAndSorts) {
  std::vector<Tuple> rows = {Tuple({I(3), I(1)}), Tuple({I(1), I(2)}),
                             Tuple({I(2), I(0)})};
  SortedColumns swapped = ToSortedColumns(rows, {1, 0});
  ASSERT_EQ(swapped.arity(), 2u);
  ASSERT_EQ(swapped.rows, 3u);
  // Sorted by (col1, col0) of the input: (0,2), (1,3), (2,1).
  EXPECT_EQ(swapped.cols[0], (std::vector<Value>{I(0), I(1), I(2)}));
  EXPECT_EQ(swapped.cols[1], (std::vector<Value>{I(2), I(3), I(1)}));
}

}  // namespace
}  // namespace joins
}  // namespace rel
