// The benchmark's three client workloads: the data each one bulk-loads, the
// model it defines, the seeded request stream of every connection, and the
// independent reference every reply is checked against.
//
// The engine only ever sees Rel text generated here. Expected answers come
// from the hand-written references in src/benchutil (TransitiveClosureRef,
// ApspRef, PageRankRef, GroupSumRef) and from a C++ shadow of the base
// relations, kept per published version so that a reader pinned to an old
// snapshot is checked against exactly that snapshot.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "data/tuple.h"

namespace e2e {

/// One cell of a rendered answer, as the reply parser reads it.
struct Cell {
  enum Kind { kInt, kFloat, kString } kind = kInt;
  int64_t i = 0;
  double f = 0;
  std::string s;
};
using Rows = std::vector<std::vector<Cell>>;

/// Parses a Relation::ToString rendering such as `{(1, 2); (3, "a")}`.
bool ParseRelation(const std::string& text, Rows* out);

/// Compares two answers as sets (floats within the 1e-6 the rendering keeps). Returns ""
/// when they agree, else a short description of the first difference.
std::string CompareRows(Rows got, Rows want);

/// Checks a reply against a fixed expected answer ("" when correct).
std::string CheckAnswer(const std::string& reply, const Rows& want);

enum class Kind { kQuery, kExec, kRefresh };

/// A base-relation change an `exec` request makes when it commits.
struct Effect {
  bool insert = true;
  std::string relation;
  rel::Tuple tuple;
};

/// All base relations by name; each relation is shared copy-on-write
/// between the versions that did not change it.
using BaseState =
    std::map<std::string, std::shared_ptr<const std::set<rel::Tuple>>>;

struct Request {
  Kind kind = Kind::kQuery;
  std::string command;  // query | eval | exec | refresh
  std::string source;   // Rel payload, unescaped
  /// exec: what the transaction changes when it commits.
  std::vector<Effect> effects;
  /// exec: the constraint check is expected to abort it.
  bool expect_abort = false;
  /// exec: the shadow state the commit publishes.
  std::shared_ptr<const BaseState> post;
  /// query: the expected answer, when it does not depend on the pin.
  bool has_want = false;
  Rows want;

  /// The protocol line (payload escaped).
  std::string Line() const;
  /// The Rel source Session::Query runs for this request (eval wraps it).
  std::string QuerySource() const;
};

/// Base-relation states by published snapshot version. The writer
/// publishes each state when its commit is acknowledged; readers pin the
/// state of the version their refresh returned. A version is kept while a
/// reader may still pin it: from the oldest reader pin to the newest state.
class Shadow {
 public:
  void Publish(uint64_t version, std::shared_ptr<const BaseState> state);
  /// Pins reader `conn` to `version` and returns its state, waiting briefly
  /// for the writer's ack to arrive; nullptr if it never does.
  std::shared_ptr<const BaseState> Pin(int conn, uint64_t version);
  std::shared_ptr<const BaseState> Latest();
  uint64_t latest_version();

 private:
  void Prune();

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, std::shared_ptr<const BaseState>> states_;
  std::map<int, uint64_t> pins_;
  uint64_t latest_ = 0;
};

/// A connection's seeded request stream plus the checks on its replies.
class Stream {
 public:
  virtual ~Stream() = default;
  virtual Request Next() = 0;
  /// Checks `reply` to `req`: "" when correct, else what was wrong.
  /// Refresh and exec replies also advance the stream's pin and the shadow.
  virtual std::string Check(const Request& req, const std::string& reply) = 0;
};

/// The knobs recorded for each workload in e2ebench/design.json.
struct Design {
  int connections = 1;
  int eval_threads = 1;
  /// > 0: connection 0 sends one request per period (a paced writer);
  /// 0: it is a closed loop like every other connection, which sends its
  /// next request when the previous reply arrives.
  int writer_period_ms = 0;
  /// The request kind whose latency primary_p50_ms reports: what the
  /// workload exists to measure.
  Kind primary = Kind::kQuery;
};

class Workload {
 public:
  virtual ~Workload() = default;
  const Design& design() const { return design_; }
  /// The persistent model (rules and integrity constraints).
  virtual std::string Model() const = 0;
  /// Base relations bulk-loaded at set-up, by name.
  const std::map<std::string, std::vector<rel::Tuple>>& data() const {
    return data_;
  }
  /// Requests each connection sends during set-up, before timing starts.
  virtual std::vector<Request> WarmUp(int conn) = 0;
  /// Opens connection `conn`'s stream (after Serving).
  virtual std::unique_ptr<Stream> OpenStream(int conn) = 0;
  /// Publishes the loaded data as the state of `version`.
  void Serving(uint64_t version);
  /// Base relations as of the last acknowledged commit.
  std::shared_ptr<const BaseState> Acked() { return shadow_.Latest(); }

 protected:
  Design design_;
  std::map<std::string, std::vector<rel::Tuple>> data_;
  Shadow shadow_;
};

/// serve_read, adhoc_analytics or update_mix; nullptr for another name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
