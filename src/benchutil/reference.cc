#include "benchutil/reference.h"

#include <algorithm>
#include <deque>

#include "base/flat_index.h"
#include "base/hash.h"

namespace rel {
namespace benchutil {

std::set<std::pair<int64_t, int64_t>> TransitiveClosureRef(
    const std::vector<Tuple>& edges) {
  std::map<int64_t, std::vector<int64_t>> adj;
  std::set<int64_t> nodes;
  for (const Tuple& e : edges) {
    adj[e[0].AsInt()].push_back(e[1].AsInt());
    nodes.insert(e[0].AsInt());
    nodes.insert(e[1].AsInt());
  }
  std::set<std::pair<int64_t, int64_t>> closure;
  for (int64_t s : nodes) {
    std::deque<int64_t> queue = {s};
    std::set<int64_t> visited;
    while (!queue.empty()) {
      int64_t u = queue.front();
      queue.pop_front();
      auto it = adj.find(u);
      if (it == adj.end()) continue;
      for (int64_t v : it->second) {
        if (visited.insert(v).second) {
          closure.emplace(s, v);
          queue.push_back(v);
        }
      }
    }
  }
  return closure;
}

std::map<std::pair<int64_t, int64_t>, int64_t> ApspRef(
    int n, const std::vector<Tuple>& edges) {
  std::map<int64_t, std::vector<int64_t>> adj;
  for (const Tuple& e : edges) adj[e[0].AsInt()].push_back(e[1].AsInt());
  std::map<std::pair<int64_t, int64_t>, int64_t> dist;
  for (int64_t s = 0; s < n; ++s) {
    dist[{s, s}] = 0;
    std::deque<int64_t> queue = {s};
    std::map<int64_t, int64_t> d;
    d[s] = 0;
    while (!queue.empty()) {
      int64_t u = queue.front();
      queue.pop_front();
      auto it = adj.find(u);
      if (it == adj.end()) continue;
      for (int64_t v : it->second) {
        if (v < 0 || v >= n) continue;
        if (d.count(v)) continue;
        d[v] = d[u] + 1;
        dist[{s, v}] = d[v];
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<Tuple> MatMulRef(const std::vector<Tuple>& a,
                             const std::vector<Tuple>& b) {
  // Index B by row.
  std::map<int64_t, std::vector<std::pair<int64_t, double>>> b_rows;
  for (const Tuple& t : b) {
    b_rows[t[0].AsInt()].emplace_back(t[1].AsInt(), t[2].AsDouble());
  }
  std::map<std::pair<int64_t, int64_t>, double> acc;
  for (const Tuple& t : a) {
    auto it = b_rows.find(t[1].AsInt());
    if (it == b_rows.end()) continue;
    double av = t[2].AsDouble();
    int64_t i = t[0].AsInt();
    for (const auto& [j, bv] : it->second) {
      acc[{i, j}] += av * bv;
    }
  }
  std::vector<Tuple> out;
  out.reserve(acc.size());
  for (const auto& [ij, v] : acc) {
    if (v == 0) continue;
    out.push_back(
        Tuple({Value::Int(ij.first), Value::Int(ij.second), Value::Float(v)}));
  }
  return out;
}

std::vector<double> PageRankRef(int n, const std::vector<Tuple>& g, double eps,
                                int* iterations) {
  std::vector<std::tuple<int64_t, int64_t, double>> entries;
  entries.reserve(g.size());
  for (const Tuple& t : g) {
    entries.emplace_back(t[0].AsInt(), t[1].AsInt(), t[2].AsDouble());
  }
  std::vector<double> p(n + 1, 1.0 / n);
  int iters = 0;
  for (;;) {
    ++iters;
    std::vector<double> next(n + 1, 0.0);
    for (const auto& [i, j, v] : entries) next[i] += v * p[j];
    double delta = 0;
    for (int i = 1; i <= n; ++i) {
      delta = std::max(delta, std::abs(next[i] - p[i]));
    }
    p = std::move(next);
    if (delta <= eps) break;
  }
  if (iterations) *iterations = iters;
  return p;
}

std::map<Value, int64_t> GroupSumRef(const std::vector<Tuple>& rows) {
  std::map<Value, int64_t> out;
  for (const Tuple& t : rows) {
    out[t[0]] += t[t.arity() - 1].AsInt();
  }
  return out;
}

size_t CountTrianglesRef(const std::vector<Tuple>& edges) {
  std::set<std::pair<int64_t, int64_t>> edge_set;
  std::map<int64_t, std::vector<int64_t>> adj;
  for (const Tuple& e : edges) {
    edge_set.emplace(e[0].AsInt(), e[1].AsInt());
    adj[e[0].AsInt()].push_back(e[1].AsInt());
  }
  size_t count = 0;
  for (const auto& [x, ys] : adj) {
    for (int64_t y : ys) {
      auto it = adj.find(y);
      if (it == adj.end()) continue;
      for (int64_t z : it->second) {
        if (edge_set.count({z, x})) ++count;
      }
    }
  }
  return count;
}

namespace {

size_t KeyHash(const Tuple& t, const std::vector<size_t>& keys) {
  size_t h = 0x9d2c;
  for (size_t k : keys) h = HashCombine(h, t[k].Hash());
  return h;
}

}  // namespace

std::vector<Tuple> HashJoin(const std::vector<Tuple>& left,
                            const std::vector<size_t>& left_keys,
                            const std::vector<Tuple>& right,
                            const std::vector<size_t>& right_keys) {
  std::vector<Tuple> out;
  if (left.empty() || right.empty()) return out;

  // Build on the right side, probe with the left (output order is
  // left-major, which callers rely on for determinism after sorting).
  FlatHashIndex index;
  index.Build(right.size(),
              [&](size_t i) { return KeyHash(right[i], right_keys); });
  std::vector<bool> is_key(right[0].arity(), false);
  for (size_t k : right_keys) is_key[k] = true;

  for (const Tuple& l : left) {
    index.Probe(KeyHash(l, left_keys), [&](uint32_t ri) {
      const Tuple& r = right[ri];
      for (size_t i = 0; i < left_keys.size(); ++i) {
        if (l[left_keys[i]] != r[right_keys[i]]) return;
      }
      Tuple joined = l;
      for (size_t i = 0; i < r.arity(); ++i) {
        if (!is_key[i]) joined.Append(r[i]);
      }
      out.push_back(std::move(joined));
    });
  }
  return out;
}

size_t CountTrianglesBinaryJoin(const std::vector<Tuple>& edges) {
  // paths = E(x,y) ⋈ E(y,z): stored column-major as three flat value
  // vectors — the quadratic intermediate is still materialized (that is the
  // point of this baseline) but with no per-path tuple allocation.
  FlatHashIndex by_src;
  by_src.Build(edges.size(), [&](size_t i) {
    return HashCombine(0x9d2c, edges[i][0].Hash());
  });
  std::vector<Value> px, py, pz;
  for (const Tuple& e : edges) {
    size_t h = HashCombine(0x9d2c, e[1].Hash());
    by_src.Probe(h, [&](uint32_t ri) {
      const Tuple& r = edges[ri];
      if (r[0] != e[1]) return;
      px.push_back(e[0]);
      py.push_back(e[1]);
      pz.push_back(r[1]);
    });
  }

  // triangles: paths(x,y,z) ⋈ E(z,x), probing an index over whole edges.
  FlatHashIndex by_edge;
  by_edge.Build(edges.size(), [&](size_t i) {
    return HashCombine(HashCombine(0x77aa, edges[i][0].Hash()),
                       edges[i][1].Hash());
  });
  size_t count = 0;
  for (size_t p = 0; p < px.size(); ++p) {
    size_t h =
        HashCombine(HashCombine(0x77aa, pz[p].Hash()), px[p].Hash());
    by_edge.Probe(h, [&](uint32_t ei) {
      const Tuple& e = edges[ei];
      if (e[0] == pz[p] && e[1] == px[p]) ++count;
    });
  }
  return count;
}

}  // namespace benchutil
}  // namespace rel
