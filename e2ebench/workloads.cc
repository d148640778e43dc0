#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "base/rng.h"
#include "benchutil/generators.h"
#include "benchutil/reference.h"
#include "server/protocol.h"

namespace e2e {

using rel::Tuple;
using rel::Value;

// --- answers ---------------------------------------------------------------

namespace {

Cell IntCell(int64_t v) {
  Cell c;
  c.kind = Cell::kInt;
  c.i = v;
  return c;
}

Cell FloatCell(double v) {
  Cell c;
  c.kind = Cell::kFloat;
  c.f = v;
  return c;
}

Cell CellOf(const Value& v) {
  Cell c;
  if (v.kind() == rel::ValueKind::kInt) return IntCell(v.AsInt());
  if (v.kind() == rel::ValueKind::kFloat) return FloatCell(v.AsDouble());
  c.kind = Cell::kString;
  c.s = v.AsString();
  return c;
}

bool CellLess(const Cell& a, const Cell& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  switch (a.kind) {
    case Cell::kInt:
      return a.i < b.i;
    case Cell::kFloat:
      return a.f < b.f;
    case Cell::kString:
      return a.s < b.s;
  }
  return false;
}

bool RowLess(const std::vector<Cell>& a, const std::vector<Cell>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end(),
                                      CellLess);
}

bool CellEqual(const Cell& a, const Cell& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Cell::kInt:
      return a.i == b.i;
    case Cell::kFloat:
      // Value::ToString renders floats with six decimals.
      return std::fabs(a.f - b.f) <= 1e-6;
    case Cell::kString:
      return a.s == b.s;
  }
  return false;
}

std::string RowText(const std::vector<Cell>& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    const Cell& c = row[i];
    if (c.kind == Cell::kInt) out += std::to_string(c.i);
    if (c.kind == Cell::kFloat) out += std::to_string(c.f);
    if (c.kind == Cell::kString) out += "\"" + c.s + "\"";
  }
  return out + ")";
}

Rows RowsOfTuples(const std::set<Tuple>& tuples) {
  Rows rows;
  for (const Tuple& t : tuples) {
    std::vector<Cell> row;
    for (size_t i = 0; i < t.arity(); ++i) row.push_back(CellOf(t[i]));
    rows.push_back(std::move(row));
  }
  return rows;
}

Rows OneInt(int64_t v) { return Rows{{IntCell(v)}}; }

/// Parses "ok <detail>" into the unescaped detail; false for other replies.
bool OkDetail(const std::string& reply, std::string* detail) {
  if (reply == "ok") {
    detail->clear();
    return true;
  }
  if (reply.compare(0, 3, "ok ") != 0) return false;
  *detail = rel::server::UnescapeLine(reply.substr(3));
  return true;
}

/// Parses the "v<version>" that ends a refresh or exec acknowledgement.
bool VersionIn(const std::string& detail, uint64_t* version) {
  size_t at = detail.rfind('v');
  if (at == std::string::npos) return false;
  char* end = nullptr;
  *version = std::strtoull(detail.c_str() + at + 1, &end, 10);
  return end != detail.c_str() + at + 1;
}

Tuple T2(int64_t a, int64_t b) { return Tuple({Value::Int(a), Value::Int(b)}); }

/// A strongly connected random graph: the cycle 0 -> 1 -> ... -> n-1 -> 0
/// plus `chords` seeded random edges. The cycle keeps |tc| = n^2 for every
/// seed, so costs do not depend on how connected a seed happens to be.
std::vector<Tuple> CyclicGraph(int n, int chords, uint64_t seed) {
  std::set<Tuple> edges;
  for (int i = 0; i < n; ++i) edges.insert(T2(i, (i + 1) % n));
  for (const Tuple& e : rel::benchutil::RandomGraph(n, chords, seed)) {
    edges.insert(e);
  }
  return std::vector<Tuple>(edges.begin(), edges.end());
}

std::vector<Tuple> Vec(const std::set<Tuple>& s) {
  return std::vector<Tuple>(s.begin(), s.end());
}

/// A fixed interleaving of request classes with the given counts per cycle
/// (smooth weighted round robin), so every seed runs the same class mix.
std::string SmoothPattern(const std::vector<std::pair<char, int>>& counts) {
  int total = 0;
  for (const auto& c : counts) total += c.second;
  std::vector<int> credit(counts.size(), 0);
  std::string pattern;
  for (int slot = 0; slot < total; ++slot) {
    size_t best = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      credit[i] += counts[i].second;
      if (credit[i] > credit[best]) best = i;
    }
    credit[best] -= total;
    pattern += counts[best].first;
  }
  return pattern;
}

std::shared_ptr<const BaseState> StateOf(
    const std::map<std::string, std::vector<Tuple>>& data) {
  auto state = std::make_shared<BaseState>();
  for (const auto& [name, tuples] : data) {
    (*state)[name] =
        std::make_shared<const std::set<Tuple>>(tuples.begin(), tuples.end());
  }
  return state;
}

std::shared_ptr<const BaseState> Apply(const BaseState& state,
                                       const std::vector<Effect>& effects) {
  auto next = std::make_shared<BaseState>(state);
  std::map<std::string, std::set<Tuple>> changed;
  for (const Effect& e : effects) {
    if (!changed.count(e.relation)) {
      auto it = state.find(e.relation);
      changed[e.relation] =
          it == state.end() ? std::set<Tuple>() : *it->second;
    }
    if (e.insert) {
      changed[e.relation].insert(e.tuple);
    } else {
      changed[e.relation].erase(e.tuple);
    }
  }
  for (auto& [name, tuples] : changed) {
    (*next)[name] = std::make_shared<const std::set<Tuple>>(std::move(tuples));
  }
  return next;
}

const std::set<Tuple>& Rel(const BaseState& state, const std::string& name) {
  static const std::set<Tuple> kEmpty;
  auto it = state.find(name);
  return it == state.end() ? kEmpty : *it->second;
}

Request Query(const std::string& command, std::string source, Rows want) {
  Request r;
  r.kind = Kind::kQuery;
  r.command = command;
  r.source = std::move(source);
  r.has_want = true;
  r.want = std::move(want);
  return r;
}

Request RefreshRequest() {
  Request r;
  r.kind = Kind::kRefresh;
  r.command = "refresh";
  return r;
}

std::string S(int64_t v) { return std::to_string(v); }

/// The part of every stream that tracks the pin and the writer's commits.
class StreamBase : public Stream {
 public:
  StreamBase(Shadow* shadow, int conn) : shadow_(shadow), conn_(conn) {}

  std::string Check(const Request& req, const std::string& reply) override {
    if (req.kind == Kind::kRefresh) {
      std::string detail;
      uint64_t version = 0;
      if (!OkDetail(reply, &detail) || !VersionIn(detail, &version)) {
        return "refresh reply " + reply;
      }
      pinned_ = shadow_->Pin(conn_, version);
      if (pinned_ == nullptr) return "refresh to unknown v" + S(version);
      return "";
    }
    if (req.kind == Kind::kExec) return CheckExec(req, reply);
    if (req.has_want) return CheckAnswer(reply, req.want);
    return CheckPinned(req, reply);
  }

 protected:
  /// Checks a query whose answer depends on the pinned version.
  virtual std::string CheckPinned(const Request&, const std::string&) {
    return "no reference for query";
  }

  /// A transaction applying `effects` to the stream's own view of the
  /// newest state; `abort` marks one the constraint check must reject.
  Request Exec(std::string source, std::vector<Effect> effects, bool abort) {
    Request r;
    r.kind = Kind::kExec;
    r.command = "exec";
    r.source = std::move(source);
    r.expect_abort = abort;
    if (!abort) {
      r.post = Apply(*head_, effects);
      head_ = r.post;
    }
    r.effects = std::move(effects);
    return r;
  }

  Shadow* shadow_;
  const int conn_;
  /// The state this stream's next commit starts from (writers only).
  std::shared_ptr<const BaseState> head_;
  /// The state of the snapshot this connection is pinned to.
  std::shared_ptr<const BaseState> pinned_;

 private:
  std::string CheckExec(const Request& req, const std::string& reply) {
    if (req.expect_abort) {
      return reply.compare(0, 36, "err integrity constraint violation: ") == 0
                 ? ""
                 : "expected a constraint abort, got " + reply.substr(0, 160);
    }
    size_t inserted = 0, deleted = 0;
    for (const Effect& e : req.effects) (e.insert ? inserted : deleted)++;
    std::string detail;
    uint64_t version = 0;
    std::string want = "+" + S(inserted) + " -" + S(deleted) + " v";
    if (!OkDetail(reply, &detail) || detail.compare(0, want.size(), want) != 0 ||
        !VersionIn(detail, &version)) {
      return "exec reply " + reply.substr(0, 160) + ", want ok " + want;
    }
    shadow_->Publish(version, req.post);
    pinned_ = req.post;
    return "";
  }
};

// --- serve_read ------------------------------------------------------------

constexpr int kServeNodes = 200;
constexpr int kServeOrders = 300;
constexpr int kServeProducts = 60;

class ServeRead : public Workload {
 public:
  explicit ServeRead(uint64_t seed) : seed_(seed) {
    design_.connections = 3;
    design_.eval_threads = 1;
    std::vector<Tuple> edges = CyclicGraph(kServeNodes, kServeNodes, seed);
    rel::benchutil::OrdersWorkload w = rel::benchutil::MakeOrders(
        kServeOrders, kServeProducts, 4, 3, seed + 1);
    data_["edge"] = edges;
    data_["product_price"] = w.product_price;
    data_["order_product_quantity"] = w.order_product_quantity;
    data_["payment_order"] = w.payment_order;
    data_["payment_amount"] = w.payment_amount;

    for (const auto& [x, y] : rel::benchutil::TransitiveClosureRef(edges)) {
      tc_[x].push_back({IntCell(y)});
      ++tc_size_;
    }
    // order_paid: sum of payment amounts per order.
    std::map<Value, Value> amount;
    for (const Tuple& t : w.payment_amount) amount.emplace(t[0], t[1]);
    std::vector<Tuple> paid;
    for (const Tuple& t : w.payment_order) {
      paid.push_back(Tuple({t[1], t[0], amount.at(t[0])}));
    }
    views_["order_paid"] = rel::benchutil::GroupSumRef(paid);
    // order_lines: line count per order; product_units: units per product.
    std::vector<Tuple> lines, units;
    for (const Tuple& t : w.order_product_quantity) {
      lines.push_back(Tuple({t[0], Value::Int(1)}));
      units.push_back(Tuple({t[1], t[0], t[2]}));
    }
    views_["order_lines"] = rel::benchutil::GroupSumRef(lines);
    views_["product_units"] = rel::benchutil::GroupSumRef(units);
  }

  std::string Model() const override {
    return "def tc(x, y) : edge(x, y)\n"
           "def tc(x, z) : exists((y) | edge(x, y) and tc(y, z))\n"
           "def order_paid(o, s) : s = sum[(p, a) :\n"
           "    payment_order(p, o) and payment_amount(p, a)]\n"
           "def order_lines(o, c) : c = count[(p, q) :\n"
           "    order_product_quantity(o, p, q)]\n"
           "def product_units(p, s) : s = sum[(o, q) :\n"
           "    order_product_quantity(o, p, q)]";
  }

  std::vector<Request> WarmUp(int) override {
    std::vector<Request> out = {Query("eval", "count[tc]", OneInt(tc_size_))};
    for (const auto& [view, sums] : views_) {
      out.push_back(Query("eval", view, ViewRows(sums)));
    }
    return out;
  }

  std::unique_ptr<Stream> OpenStream(int conn) override;

  Rows ViewRows(const std::map<Value, int64_t>& sums) const {
    Rows rows;
    for (const auto& [key, sum] : sums) {
      rows.push_back({CellOf(key), IntCell(sum)});
    }
    return rows;
  }

  uint64_t seed_;
  std::map<int64_t, Rows> tc_;
  int64_t tc_size_ = 0;
  std::map<std::string, std::map<Value, int64_t>> views_;
};

/// Read-only. Per cycle of 20 queries: 4 aggregate point lookups (A), 2
/// view exports (E), 10 recursive point queries (T) and 4 count[tc] (C).
/// Ordered by cost that is A < E < T < C, so the median falls well inside
/// T and the p99 inside C for every seed.
class ServeReadStream : public StreamBase {
 public:
  ServeReadStream(ServeRead* w, Shadow* shadow, int conn)
      : StreamBase(shadow, conn),
        w_(w),
        rng_(w->seed_ * 1000003 + conn),
        pattern_(SmoothPattern({{'T', 10}, {'A', 4}, {'E', 2}, {'C', 4}})) {
    head_ = shadow->Latest();
  }

  Request Next() override {
    char cls = pattern_[queries_++ % pattern_.size()];
    const char* views[] = {"order_paid", "order_lines", "product_units"};
    switch (cls) {
      case 'T': {
        int64_t c = static_cast<int64_t>(rng_.NextBelow(kServeNodes));
        return Query("query", "def output(y) : tc(" + S(c) + ", y)", w_->tc_[c]);
      }
      case 'A': {
        std::string view = views[rng_.NextBelow(3)];
        bool product = view == "product_units";
        int64_t key = static_cast<int64_t>(
            rng_.NextBelow(product ? kServeProducts : kServeOrders));
        Value id = Value::String((product ? "P" : "O") + S(key));
        Rows want;
        auto it = w_->views_[view].find(id);
        if (it != w_->views_[view].end()) want.push_back({IntCell(it->second)});
        return Query("query",
                     "def output(v) : " + view + "(\"" + id.AsString() +
                         "\", v)",
                     want);
      }
      case 'E': {
        std::string view = views[rng_.NextBelow(3)];
        return Query("eval", view, w_->ViewRows(w_->views_[view]));
      }
      default:
        return Query("eval", "count[tc]", OneInt(w_->tc_size_));
    }
  }

 private:
  ServeRead* w_;
  rel::Rng rng_;
  std::string pattern_;
  size_t queries_ = 0;
};

std::unique_ptr<Stream> ServeRead::OpenStream(int conn) {
  return std::make_unique<ServeReadStream>(this, &shadow_, conn);
}

// --- adhoc_analytics -------------------------------------------------------

constexpr int kAdhocNodes = 200;
constexpr int kRankNodes = 80;

class AdhocAnalytics : public Workload {
 public:
  explicit AdhocAnalytics(uint64_t seed) : seed_(seed) {
    design_.connections = 1;
    design_.eval_threads = 3;
    data_["edge"] = CyclicGraph(kAdhocNodes, kAdhocNodes, seed);
    data_["G"] = rel::benchutil::StochasticMatrix(kRankNodes, 3, seed + 1);
  }

  std::string Model() const override {
    return "def edge_count(c) : c = count[(x, y) : edge(x, y)]";
  }

  std::vector<Request> WarmUp(int conn) override;

  std::unique_ptr<Stream> OpenStream(int conn) override;

  /// Edges with both ends in [lo, hi).
  std::vector<Tuple> Window(int64_t lo, int64_t hi) const {
    std::vector<Tuple> out;
    for (const Tuple& e : data_.at("edge")) {
      int64_t x = e[0].AsInt(), y = e[1].AsInt();
      if (x >= lo && x < hi && y >= lo && y < hi) out.push_back(e);
    }
    return out;
  }

  uint64_t seed_;
};

std::string WindowDef(int64_t lo, int64_t hi) {
  return "def e(x, y) : edge(x, y) and x >= " + S(lo) + " and x < " + S(hi) +
         " and y >= " + S(lo) + " and y < " + S(hi) + "\n";
}

/// Query templates, each carrying its own recursive defs: R = per-source
/// reach counts over a window (TC variant), S = single-source reach around
/// an excluded node (TC variant), P = APSP by recursive min, K = PageRank
/// by level-indexed recursive sum, X = the stdlib TC[e], which never
/// reaches the lowering (interpreter fallback). Per cycle of 12: S, K and
/// X (cheapest, 3), R (6), P (costliest, 3), so the median falls mid-R and
/// the p99 inside P for every seed.
class AdhocStream : public StreamBase {
 public:
  AdhocStream(AdhocAnalytics* w, Shadow* shadow, uint64_t salt)
      : StreamBase(shadow, 0),
        w_(w),
        rng_(w->seed_ * 1000003 + salt),
        pattern_(SmoothPattern(
            {{'R', 6}, {'P', 3}, {'S', 1}, {'K', 1}, {'X', 1}})) {
    head_ = shadow->Latest();
  }

  Request Next() override {
    switch (pattern_[queries_++ % pattern_.size()]) {
      case 'R':
        return ReachCounts();
      case 'S':
        return SingleSource();
      case 'P':
        return Apsp();
      case 'K':
        return PageRank();
      default:
        return StdlibTc();
    }
  }

 private:
  int64_t Below(int64_t bound) {
    return static_cast<int64_t>(rng_.NextBelow(static_cast<uint64_t>(bound)));
  }

  Request ReachCounts() {
    int64_t size = 64 + Below(6), lo = Below(kAdhocNodes - size);
    std::map<int64_t, int64_t> counts;
    for (const auto& [x, y] :
         rel::benchutil::TransitiveClosureRef(w_->Window(lo, lo + size))) {
      (void)y;
      ++counts[x];
    }
    Rows want;
    for (const auto& [x, c] : counts) want.push_back({IntCell(x), IntCell(c)});
    return Query("query",
                 WindowDef(lo, lo + size) +
                     "def reach(x, y) : e(x, y)\n"
                     "def reach(x, z) : exists((y) | e(x, y) and reach(y, z))\n"
                     "def output(x, c) : c = count[(y) : reach(x, y)]",
                 want);
  }

  Request SingleSource() {
    int64_t s = Below(kAdhocNodes), x = (s + 1 + Below(kAdhocNodes - 1)) %
                                        kAdhocNodes;
    std::vector<Tuple> kept;
    for (const Tuple& e : w_->data().at("edge")) {
      if (e[1].AsInt() != x) kept.push_back(e);
    }
    Rows want;
    for (const auto& [a, b] : rel::benchutil::TransitiveClosureRef(kept)) {
      if (a == s) want.push_back({IntCell(b)});
    }
    std::string not_x = " and y != " + S(x);
    return Query("query",
                 "def r(y) : edge(" + S(s) + ", y)" + not_x +
                     "\ndef r(y) : exists((z) | r(z) and edge(z, y))" + not_x +
                     "\ndef output : r",
                 want);
  }

  Request Apsp() {
    int64_t size = 44 + Below(4), lo = Below(kAdhocNodes - size);
    Rows want;
    for (const auto& [pair, d] :
         rel::benchutil::ApspRef(lo + size, w_->Window(lo, lo + size))) {
      if (pair.first >= lo && pair.first != pair.second) {
        want.push_back({IntCell(pair.first), IntCell(pair.second), IntCell(d)});
      }
    }
    return Query("query",
                 WindowDef(lo, lo + size) +
                     "def apsp(x, y, d) : d = min[(j) :\n"
                     "    (e(x, y) and j = 1) or\n"
                     "    exists((z, j2) | e(x, z) and apsp(z, y, j2) and\n"
                     "        j = j2 + 1)]\n"
                     "def output(x, y, d) : apsp(x, y, d) and x != y",
                 want);
  }

  Request PageRank() {
    const double eps[] = {0.01, 0.005, 0.002, 0.001};
    int steps = 0;
    std::vector<double> p = rel::benchutil::PageRankRef(
        kRankNodes, w_->data().at("G"), eps[rng_.NextBelow(4)], &steps);
    Rows want;
    for (int v = 1; v <= kRankNodes; ++v) {
      if (p[v] > 0) want.push_back({IntCell(v), FloatCell(p[v])});
    }
    char start[32];
    std::snprintf(start, sizeof(start), "%.17g", 1.0 / kRankNodes);
    return Query(
        "query",
        "def pr(v, t, r) : r = sum[(u, x) :\n"
        "    (t = 0 and u = 0 and range(1, " + S(kRankNodes) +
            ", 1, v) and x = " + start + ") or\n"
            "    (range(1, " + S(steps) + ", 1, t) and exists((s, rr, w) |\n"
            "        s = t - 1 and G(v, u, w) and pr(u, s, rr) and\n"
            "        x = w * rr))]\n"
            "def output(v, r) : pr(v, " + S(steps) + ", r)",
        want);
  }

  Request StdlibTc() {
    int64_t size = 14 + Below(8), lo = Below(kAdhocNodes - size);
    std::set<Tuple> closure;
    for (const auto& [x, y] :
         rel::benchutil::TransitiveClosureRef(w_->Window(lo, lo + size))) {
      closure.insert(T2(x, y));
    }
    return Query("query", WindowDef(lo, lo + size) + "def output : TC[e]",
                 RowsOfTuples(closure));
  }

  AdhocAnalytics* w_;
  rel::Rng rng_;
  std::string pattern_;
  size_t queries_ = 0;
};

std::unique_ptr<Stream> AdhocAnalytics::OpenStream(int) {
  return std::make_unique<AdhocStream>(this, &shadow_, 7);
}

/// One query of each template, with parameters of their own.
std::vector<Request> AdhocAnalytics::WarmUp(int conn) {
  std::vector<Request> out = {Query(
      "eval", "edge_count", OneInt(static_cast<int64_t>(data_.at("edge").size())))};
  AdhocStream warm(this, &shadow_, 100 + static_cast<uint64_t>(conn));
  for (int i = 0; i < 12; ++i) out.push_back(warm.Next());
  return out;
}

// --- update_mix ------------------------------------------------------------

constexpr int kUpdateNodes = 80;
constexpr int kItems = 20;

/// A compact reference for one set of integers: its size and a hash of
/// its sorted members.
struct Digest {
  size_t size = 0;
  uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis

  void Add(int64_t v) {
    ++size;
    for (int b = 0; b < 64; b += 8) {
      hash = (hash ^ ((static_cast<uint64_t>(v) >> b) & 0xff)) * 1099511628211ull;
    }
  }
  bool operator==(const Digest& o) const {
    return size == o.size && hash == o.hash;
  }
};

/// The transitive closure of one edge set as the readers check it: |tc| and,
/// per source, the digest of its successors.
struct Closure {
  int64_t size = 0;
  std::map<int64_t, Digest> from;
};

/// Closures of the edge sets readers are pinned to, memoized per edge-set
/// object (stock-only commits share their parent's edge set). Digests keep
/// the reference data small beside the engine whose memory is measured.
class ClosureCache {
 public:
  std::shared_ptr<const Closure> Of(
      const std::shared_ptr<const std::set<Tuple>>& edges) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(edges.get());
    if (it != cache_.end()) return it->second.second;
    std::map<int64_t, std::vector<int64_t>> succ;
    for (const auto& [x, y] : rel::benchutil::TransitiveClosureRef(Vec(*edges))) {
      succ[x].push_back(y);
    }
    auto closure = std::make_shared<Closure>();
    for (auto& [x, ys] : succ) {
      std::sort(ys.begin(), ys.end());
      for (int64_t y : ys) closure->from[x].Add(y);
      closure->size += static_cast<int64_t>(ys.size());
    }
    if (cache_.size() >= 8) cache_.clear();
    // The entry keeps its key's edge set alive, so the address stays unique.
    cache_[edges.get()] = {edges, closure};
    return closure;
  }

 private:
  std::mutex mu_;
  std::map<const void*, std::pair<std::shared_ptr<const std::set<Tuple>>,
                                  std::shared_ptr<const Closure>>>
      cache_;
};

/// Checks a reply of one-integer rows against `want` ("" when correct).
std::string CheckDigest(const std::string& reply, const Digest& want) {
  std::string detail;
  if (!OkDetail(reply, &detail)) return "reply " + reply.substr(0, 160);
  Rows rows;
  if (!ParseRelation(detail, &rows)) return "unparsable " + detail.substr(0, 160);
  std::vector<int64_t> got;
  for (const std::vector<Cell>& row : rows) {
    if (row.size() != 1 || row[0].kind != Cell::kInt) {
      return "unexpected row " + RowText(row);
    }
    got.push_back(row[0].i);
  }
  std::sort(got.begin(), got.end());
  Digest d;
  for (int64_t v : got) d.Add(v);
  if (d == want) return "";
  return "got " + std::to_string(d.size) + " rows, want " +
         std::to_string(want.size) + (d.size == want.size ? " (other members)" : "");
}

class UpdateMix : public Workload {
 public:
  explicit UpdateMix(uint64_t seed) : seed_(seed) {
    design_.connections = 3;
    design_.eval_threads = 1;
    design_.writer_period_ms = 40;
    design_.primary = Kind::kExec;
    data_["edge"] = CyclicGraph(kUpdateNodes, kUpdateNodes, seed);
    rel::Rng rng(seed + 1);
    for (int i = 0; i < kItems; ++i) {
      data_["stock"].push_back(
          T2(i, 5 + static_cast<int64_t>(rng.NextBelow(16))));
    }
  }

  std::string Model() const override {
    return "def tc(x, y) : edge(x, y)\n"
           "def tc(x, z) : exists((y) | edge(x, y) and tc(y, z))\n"
           "ic stock_nonneg(i, q) requires stock(i, q) implies q >= 0";
  }

  std::vector<Request> WarmUp(int conn) override {
    if (conn == 0) {
      return {Query("eval", "count[stock]", OneInt(kItems))};
    }
    return {Query("eval", "count[tc]",
                  OneInt(static_cast<int64_t>(kUpdateNodes) * kUpdateNodes))};
  }

  std::unique_ptr<Stream> OpenStream(int conn) override;

  uint64_t seed_;
  ClosureCache closures_;
};

/// The writer: every fourth commit rewires the graph, the others move
/// stock. A rewire deletes a random edge and inserts the edge the previous
/// rewire deleted (at first a random non-edge), in one transaction, so the
/// graph keeps its size and every edge commit carries a delete. Rewires are
/// rare enough (one per 160 ms) for the readers' DRed maintenance to keep
/// up. A move takes units between two items: every fourth move takes more
/// than the source item holds and must abort on the stock_nonneg
/// constraint, the others take 1..12 units it does hold, so every seed
/// aborts the same share.
class WriterStream : public StreamBase {
 public:
  WriterStream(UpdateMix* w, Shadow* shadow)
      : StreamBase(shadow, 0), rng_(w->seed_ * 1000003 + 11) {
    head_ = shadow->Latest();
    const std::set<Tuple>& edges = Rel(*head_, "edge");
    do {
      removed_ = T2(Below(kUpdateNodes), Below(kUpdateNodes));
    } while (removed_[0] == removed_[1] || edges.count(removed_));
  }

  Request Next() override { return seq_++ % 4 == 0 ? Rewire() : Move(); }

 private:
  int64_t Below(int64_t bound) {
    return static_cast<int64_t>(rng_.NextBelow(static_cast<uint64_t>(bound)));
  }

  Request Rewire() {
    const std::set<Tuple>& edges = Rel(*head_, "edge");
    auto it = edges.begin();
    std::advance(it, rng_.NextBelow(edges.size()));
    Tuple gone = *it, back = removed_;
    removed_ = gone;
    auto pair = [](const Tuple& e) {
      return "x = " + S(e[0].AsInt()) + " and y = " + S(e[1].AsInt());
    };
    return Exec("def delete(:edge, x, y) : " + pair(gone) +
                    "\ndef insert(:edge, x, y) : " + pair(back),
                {{false, "edge", gone}, {true, "edge", back}}, false);
  }

  Request Move() {
    std::map<int64_t, int64_t> qty;
    for (const Tuple& t : Rel(*head_, "stock")) qty[t[0].AsInt()] = t[1].AsInt();
    const bool abort = moves_++ % 4 == 3;
    int64_t from = Below(kItems);
    // Stock is conserved and starts positive, so some item holds units.
    while (!abort && qty[from] == 0) from = (from + 1) % kItems;
    int64_t to = (from + 1 + Below(kItems - 1)) % kItems;
    int64_t units = abort ? qty[from] + 1 + Below(3)
                          : 1 + Below(std::min<int64_t>(12, qty[from]));
    std::string f = S(from), t = S(to), k = S(units);
    std::string source =
        "def delete(:stock, i, q) : stock(i, q) and (i = " + f + " or i = " +
        t + ")\n"
        "def insert(:stock, i, q) : exists((q0) | stock(i, q0) and i = " + f +
        " and q = q0 - " + k + ")\n"
        "def insert(:stock, i, q) : exists((q0) | stock(i, q0) and i = " + t +
        " and q = q0 + " + k + ")";
    return Exec(source,
                {{false, "stock", T2(from, qty[from])},
                 {false, "stock", T2(to, qty[to])},
                 {true, "stock", T2(from, qty[from] - units)},
                 {true, "stock", T2(to, qty[to] + units)}},
                abort);
  }

  rel::Rng rng_;
  int64_t seq_ = 0;
  int64_t moves_ = 0;
  Tuple removed_;
};

/// A reader: refresh, then a recursive point query, count[tc] and the
/// stock relation, all checked against the shadow at the pinned version.
class ReaderStream : public StreamBase {
 public:
  ReaderStream(UpdateMix* w, Shadow* shadow, int conn)
      : StreamBase(shadow, conn), w_(w), rng_(w->seed_ * 1000003 + conn) {
    pinned_ = shadow->Pin(conn, shadow->latest_version());
  }

  Request Next() override {
    Request r;
    r.kind = Kind::kQuery;
    switch (seq_++ % 4) {
      case 0:
        return RefreshRequest();
      case 1:
        r.command = "query";
        r.source = "def output(y) : tc(" +
                   S(static_cast<int64_t>(rng_.NextBelow(kUpdateNodes))) +
                   ", y)";
        return r;
      case 2:
        r.command = "eval";
        r.source = "count[tc]";
        return r;
      default:
        r.command = "eval";
        r.source = "stock";
        return r;
    }
  }

 protected:
  std::string CheckPinned(const Request& req,
                          const std::string& reply) override {
    const BaseState& state = *pinned_;
    if (req.source == "stock") {
      return CheckAnswer(reply, RowsOfTuples(Rel(state, "stock")));
    }
    std::shared_ptr<const Closure> closure = w_->closures_.Of(state.at("edge"));
    if (req.source == "count[tc]") {
      return CheckAnswer(reply, OneInt(closure->size));
    }
    int64_t c = std::atoll(req.source.c_str() + req.source.find("tc(") + 3);
    auto it = closure->from.find(c);
    return CheckDigest(reply, it == closure->from.end() ? Digest() : it->second);
  }

 private:
  UpdateMix* w_;
  rel::Rng rng_;
  int64_t seq_ = 0;
};

std::unique_ptr<Stream> UpdateMix::OpenStream(int conn) {
  if (conn == 0) return std::make_unique<WriterStream>(this, &shadow_);
  return std::make_unique<ReaderStream>(this, &shadow_, conn);
}

}  // namespace

bool ParseRelation(const std::string& text, Rows* out) {
  out->clear();
  size_t i = 0;
  auto skip = [&] {
    while (i < text.size() && text[i] == ' ') ++i;
  };
  if (text.empty() || text[0] != '{') return false;
  ++i;
  skip();
  if (i < text.size() && text[i] == '}') return i + 1 == text.size();
  while (i < text.size()) {
    skip();
    if (text[i] != '(') return false;
    ++i;
    std::vector<Cell> row;
    while (i < text.size() && text[i] != ')') {
      skip();
      Cell c;
      if (text[i] == '"') {
        size_t end = text.find('"', i + 1);
        if (end == std::string::npos) return false;
        c.kind = Cell::kString;
        c.s = text.substr(i + 1, end - i - 1);
        i = end + 1;
      } else {
        size_t end = i;
        while (end < text.size() && text[end] != ',' && text[end] != ')') ++end;
        std::string num = text.substr(i, end - i);
        char* stop = nullptr;
        if (num.find_first_of(".eEn") != std::string::npos) {
          c.kind = Cell::kFloat;
          c.f = std::strtod(num.c_str(), &stop);
        } else {
          c.i = std::strtoll(num.c_str(), &stop, 10);
        }
        if (num.empty() || stop != num.c_str() + num.size()) return false;
        i = end;
      }
      row.push_back(std::move(c));
      skip();
      if (i < text.size() && text[i] == ',') ++i;
    }
    if (i >= text.size()) return false;
    ++i;  // ')'
    out->push_back(std::move(row));
    skip();
    if (i < text.size() && text[i] == ';') {
      ++i;
      continue;
    }
    return i < text.size() && text[i] == '}' && i + 1 == text.size();
  }
  return false;
}

std::string CompareRows(Rows got, Rows want) {
  std::sort(got.begin(), got.end(), RowLess);
  std::sort(want.begin(), want.end(), RowLess);
  if (got.size() != want.size()) {
    return "got " + std::to_string(got.size()) + " rows, want " +
           std::to_string(want.size());
  }
  for (size_t r = 0; r < got.size(); ++r) {
    bool same = got[r].size() == want[r].size();
    for (size_t c = 0; same && c < got[r].size(); ++c) {
      same = CellEqual(got[r][c], want[r][c]);
    }
    if (!same) return "got " + RowText(got[r]) + ", want " + RowText(want[r]);
  }
  return "";
}

std::string CheckAnswer(const std::string& reply, const Rows& want) {
  std::string detail;
  if (!OkDetail(reply, &detail)) return "reply " + reply.substr(0, 160);
  Rows got;
  if (!ParseRelation(detail, &got)) return "unparsable " + detail.substr(0, 160);
  return CompareRows(std::move(got), want);
}

std::string Request::Line() const {
  if (kind == Kind::kRefresh) return command;
  return command + " " + rel::server::EscapeLine(source);
}

std::string Request::QuerySource() const {
  return command == "eval" ? "def output : " + source : source;
}

void Shadow::Publish(uint64_t version, std::shared_ptr<const BaseState> state) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    states_[version] = std::move(state);
    latest_ = std::max(latest_, version);
    Prune();
  }
  cv_.notify_all();
}

std::shared_ptr<const BaseState> Shadow::Pin(int conn, uint64_t version) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::seconds(10),
               [&] { return states_.count(version) > 0; });
  auto it = states_.find(version);
  if (it == states_.end()) return nullptr;
  pins_[conn] = version;
  Prune();
  return it->second;
}

void Shadow::Prune() {
  uint64_t keep = latest_;
  for (const auto& [conn, version] : pins_) keep = std::min(keep, version);
  states_.erase(states_.begin(), states_.lower_bound(keep));
}

std::shared_ptr<const BaseState> Shadow::Latest() {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = states_.find(latest_);
  return it == states_.end() ? nullptr : it->second;
}

uint64_t Shadow::latest_version() {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_;
}

void Workload::Serving(uint64_t version) { shadow_.Publish(version, StateOf(data_)); }

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "serve_read") return std::make_unique<ServeRead>(seed);
  if (name == "adhoc_analytics") return std::make_unique<AdhocAnalytics>(seed);
  if (name == "update_mix") return std::make_unique<UpdateMix>(seed);
  return nullptr;
}

}  // namespace e2e
