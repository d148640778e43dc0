// rel_e2e: the end-to-end benchmark. Starts an Engine plus a LineServer on
// loopback in this process, drives it with seeded closed-loop clients over
// TCP, checks every reply, and reports client-side latencies.
//
//   rel_e2e --workload serve_read|adhoc_analytics|update_mix --seed N
//           --seconds S --trace 0|1 --dir SCRATCH_DIR
//
// --trace 0 prints the end-to-end metrics as the last stdout line (JSON).
// --trace 1 first runs a third of the time untraced, then replays the same
// seeded streams with spans around the benchmark's own calls into each
// module's public functions, and writes the spans to SCRATCH_DIR/spans.jsonl
// (one JSON object per line); e2ebench/run.py derives the per-layer table
// from that file. Nothing inside src/ is instrumented.
//
// Exit status: 0 when every reply was correct, 1 when some reply was wrong
// or unexpected, 2 on a usage or set-up error.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/error.h"
#include "core/analysis.h"
#include "core/engine.h"
#include "core/interp.h"
#include "core/lowering.h"
#include "core/parser.h"
#include "datalog/eval.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/file.h"
#include "storage/store.h"
#include "storage/wal.h"
#include "workloads.h"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double MsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "rel_e2e: %s\n", what.c_str());
  std::exit(2);
}

// --- TCP client ------------------------------------------------------------

/// One blocking protocol connection: a request line out, a reply line in.
class LineClient {
 public:
  explicit LineClient(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) Die("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Die("connect failed");
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{60, 0};  // a hung server fails the run instead of hanging it
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~LineClient() { close(fd_); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Sends `line` and returns the reply line; throws when the connection
  /// breaks or times out.
  std::string Call(const std::string& line) {
    std::string out = line + "\n";
    for (size_t sent = 0; sent < out.size();) {
      ssize_t n = send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<size_t>(n);
    }
    for (;;) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return reply;
      }
      char chunk[65536];
      ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("connection lost");
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

// --- spans -----------------------------------------------------------------

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;  // -1 for a root
  int64_t req;
  std::vector<std::pair<const char*, double>> attrs;
};

/// One thread's spans, kept in memory until the benchmark ends. Span ids
/// are globally unique: the thread's index in the high bits.
class Tracer {
 public:
  explicit Tracer(int thread) : base_(static_cast<int64_t>(thread) << 32) {}

  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, int64_t req) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, req, {}});
    return base_ + static_cast<int64_t>(spans_.size()) - 1;
  }
  void Attr(int64_t id, const char* key, double value) {
    spans_[static_cast<size_t>(id - base_)].attrs.emplace_back(key, value);
  }
  void End(int64_t id) {
    spans_[static_cast<size_t>(id - base_)].end_ns = NowNs();
  }

  /// Runs `fn` inside a span and returns the span's id.
  template <typename Fn>
  int64_t Time(const char* name, int64_t parent, int64_t req, Fn&& fn) {
    int64_t start = NowNs();
    fn();
    return Add(name, start, NowNs(), parent, req);
  }

  void Write(std::FILE* out) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\":%lld,\"parent\":%lld,\"req\":%lld,\"name\":\"%s\","
                   "\"start_us\":%.3f,\"end_us\":%.3f,\"attrs\":{",
                   static_cast<long long>(base_ + static_cast<int64_t>(i)),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.req), s.name, s.start_ns / 1e3,
                   s.end_ns / 1e3);
      for (size_t a = 0; a < s.attrs.size(); ++a) {
        std::fprintf(out, "%s\"%s\":%.17g", a ? "," : "", s.attrs[a].first,
                     s.attrs[a].second);
      }
      std::fprintf(out, "}}\n");
    }
  }

 private:
  int64_t base_;
  std::vector<Span> spans_;
};

/// The real file system, with every WAL Append and Sync recorded as a span
/// (the side store's view of storage.wal_append and storage.fsync).
class TimedFileSystem : public rel::storage::PosixFileSystem {
 public:
  struct Call {
    bool sync;
    int64_t start_ns, end_ns;
    size_t bytes;
  };

  rel::Status OpenAppend(const std::string& path, bool truncate,
                         std::unique_ptr<rel::storage::File>* out) override {
    std::unique_ptr<rel::storage::File> inner;
    rel::Status s = PosixFileSystem::OpenAppend(path, truncate, &inner);
    if (s.ok()) *out = std::make_unique<TimedFile>(std::move(inner), &calls_);
    return s;
  }

  /// Calls since the last Take(), oldest first.
  std::vector<Call> Take() { return std::exchange(calls_, {}); }

 private:
  class TimedFile : public rel::storage::File {
   public:
    TimedFile(std::unique_ptr<rel::storage::File> inner,
              std::vector<Call>* calls)
        : inner_(std::move(inner)), calls_(calls) {}
    rel::Status Append(std::string_view data) override {
      int64_t start = NowNs();
      rel::Status s = inner_->Append(data);
      calls_->push_back(Call{false, start, NowNs(), data.size()});
      return s;
    }
    rel::Status Sync() override {
      int64_t start = NowNs();
      rel::Status s = inner_->Sync();
      calls_->push_back(Call{true, start, NowNs(), 0});
      return s;
    }
    rel::Status Close() override { return inner_->Close(); }

   private:
    std::unique_ptr<rel::storage::File> inner_;
    std::vector<Call>* calls_;
  };

  std::vector<Call> calls_;
};

// --- statistics ------------------------------------------------------------

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// A /proc/self/status field in MB ("VmRSS", "VmHWM").
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::atof(line.c_str() + field.size() + 1) / 1024;
    }
  }
  return 0;
}

// --- set-up ----------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
};

/// Counts shared by every connection of a run.
struct Tally {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};

  void Record(const std::string& error, const std::string& line) {
    ++attempted;
    if (error.empty()) return;
    if (failed++ < 5) {
      std::fprintf(stderr, "rel_e2e: wrong reply to %.120s: %s\n",
                   line.c_str(), error.c_str());
    }
  }
};

/// A durable engine with the workload's model and data: construction with
/// the stdlib, AttachStorage on a fresh directory (default policy: fsync on
/// every commit), model Define, bulk load and a checkpoint.
std::unique_ptr<rel::Engine> BuildEngine(const Workload& w,
                                         const std::string& dir) {
  auto engine = std::make_unique<rel::Engine>();
  engine->options().num_threads = w.design().eval_threads;
  rel::storage::RecoveryReport report = engine->AttachStorage(dir);
  if (!report.status.ok()) Die("AttachStorage: " + report.status.ToString());
  engine->Define(w.Model());
  for (const auto& [name, tuples] : w.data()) engine->Insert(name, tuples);
  rel::Status s = engine->Checkpoint();
  if (!s.ok()) Die("Checkpoint: " + s.ToString());
  return engine;
}

/// The served system: engine, server and one client per connection.
struct Served {
  std::unique_ptr<rel::Engine> engine;
  std::unique_ptr<rel::server::LineServer> server;
  std::vector<std::unique_ptr<LineClient>> clients;
  double setup_s = 0;

  void Stop() {
    clients.clear();
    if (server) server->Stop();
    server.reset();
    engine.reset();
  }
};

/// Sets up the served system and warms every connection, checking the
/// warm-up replies; returns with the clock stopped at the first timed
/// request.
Served SetUp(Workload& w, const std::string& dir, Tally* tally) {
  int64_t start = NowNs();
  Served s;
  s.engine = BuildEngine(w, dir);
  rel::server::ServerOptions so;
  so.num_workers = w.design().connections;
  s.server = std::make_unique<rel::server::LineServer>(s.engine.get(), so);
  rel::Status st = s.server->Start();
  if (!st.ok()) Die("server start: " + st.ToString());
  for (int c = 0; c < w.design().connections; ++c) {
    s.clients.push_back(std::make_unique<LineClient>(s.server->port()));
  }
  std::vector<std::vector<Request>> requests;
  for (int c = 0; c < w.design().connections; ++c) {
    requests.push_back(w.WarmUp(c));
  }
  std::vector<std::thread> warm;
  for (int c = 0; c < w.design().connections; ++c) {
    warm.emplace_back([&, c] {
      for (const Request& req : requests[c]) {
        tally->Record(CheckAnswer(s.clients[c]->Call(req.Line()), req.want),
                      req.Line());
      }
    });
  }
  for (std::thread& t : warm) t.join();
  s.setup_s = (NowNs() - start) / 1e9;
  return s;
}

// --- the traced replay -----------------------------------------------------

/// The lowered tc program maintained beside the writer's commits: the
/// datalog maintenance layer measured on the same deltas (update_mix).
struct Maintained {
  rel::datalog::Program rules;  // tc's lowered rules, no facts
  std::map<std::string, rel::Relation> extents;
  rel::datalog::EvalOptions options;
};

/// Everything one connection's traced replay needs: an in-process handler
/// on the replay engine (same model, data and options as the served one)
/// and, for the connection that writes, a side store and the maintained
/// program.
struct Replay {
  rel::Engine* engine;
  rel::server::SessionHandler handler;
  std::shared_ptr<TimedFileSystem> fs;
  std::unique_ptr<rel::storage::Store> side_store;
  std::optional<Maintained> maintained;
  std::string side_dir;
  std::string model;
  int64_t commits = 0;

  Replay(rel::Engine* e, std::string dir, std::string model_source)
      : engine(e),
        handler(e),
        side_dir(std::move(dir)),
        model(std::move(model_source)) {}
};

/// Components a query's lowering statistics say were evaluated (not served
/// from the extent cache): the query-local ones when there are any, else
/// all of them.
std::vector<std::string> EvaluatedComponents(
    const rel::LoweringStats& stats, const rel::ProgramAnalysis& analysis,
    const std::vector<std::shared_ptr<rel::Def>>& local) {
  if (stats.components_lowered - stats.extent_cache_hits <= 0) return {};
  std::set<std::string> local_names;
  for (const auto& def : local) local_names.insert(def->name);
  std::vector<std::string> all, locals;
  std::set<int> seen;
  for (const std::string& name : stats.lowered_names) {
    if (!seen.insert(analysis.ComponentOf(name)).second) continue;
    all.push_back(name);
    for (const std::string& m : analysis.ComponentMembers(name)) {
      if (local_names.count(m)) {
        locals.push_back(name);
        break;
      }
    }
  }
  return locals.empty() ? all : locals;
}

/// Replays a query on the connection's replay session: parse and analysis
/// on their own (neither touches the session), then what
/// SessionHandler::Handle does for the request line, timed stage by stage:
/// Session::Query, Relation::ToString and the reply's escaping. The query
/// runs once, so its lowering statistics and caches are those of the
/// request the served session answered.
void ReplayQuery(Tracer* tr, Replay* rp, const Request& req, int64_t root,
                 int64_t rid) {
  rel::Session& session = rp->handler.session();
  std::string source = req.QuerySource();
  // The snapshot Session::Query reads: the session's pin.
  const rel::Snapshot& snap = session.snapshot();
  std::vector<std::shared_ptr<rel::Def>> local;
  tr->Time("core.parse", root, rid,
           [&] { local = rel::ParseToSharedDefs(source); });
  std::vector<std::shared_ptr<rel::Def>> combined = *snap.rules;
  combined.insert(combined.end(), local.begin(), local.end());
  std::optional<rel::ProgramAnalysis> analysis;
  tr->Time("core.analysis", root, rid, [&] {
    analysis.emplace(snap.rules_analysis.get(), snap.rules->size(), combined);
  });

  int64_t handle = tr->Add("server.handle", NowNs(), 0, root, rid);
  rel::Relation out;
  int64_t q = tr->Time("core.query", handle, rid,
                       [&] { out = session.Query(source); });
  std::string text;
  tr->Time("core.render", handle, rid, [&] { text = out.ToString(); });
  std::string reply = "ok " + rel::server::EscapeLine(text);
  tr->End(handle);
  tr->Attr(handle, "bytes", static_cast<double>(reply.size()) + 1);
  const rel::LoweringStats& st = session.last_lowering_stats();
  tr->Attr(q, "components_lowered", st.components_lowered);
  tr->Attr(q, "components_rejected", st.components_rejected);
  tr->Attr(q, "extent_cache_hits", st.extent_cache_hits);
  tr->Attr(q, "demand_cache_hits", st.demand_cache_hits);
  tr->Attr(q, "lowered_tuples", static_cast<double>(st.lowered_tuples));
  tr->Attr(q, "output_tuples", static_cast<double>(out.size()));

  // Replays the lowering and the Datalog fixpoint of each component the
  // query evaluated; materializing their EDB is not timed.
  for (const std::string& name :
       EvaluatedComponents(st, *analysis, local)) {
    std::optional<rel::LoweredComponent> lowered;
    std::string why;
    tr->Time("core.lowering", root, rid, [&] {
      lowered = rel::LowerComponent(name, *analysis, combined, &why);
    });
    if (!lowered) continue;
    rel::InterpOptions io;
    io.num_threads = session.options().num_threads;
    rel::Interp interp(snap.db.get(), combined, io);
    for (const std::string& ext : lowered->externals) {
      lowered->program.AddFacts(ext, interp.EvalInstance(ext, 0, {}));
    }
    for (const std::string& m : lowered->members) {
      if (snap.db->Has(m)) lowered->program.AddFacts(m, snap.db->Get(m));
    }
    rel::datalog::EvalOptions eo;
    eo.num_threads = io.num_threads;
    rel::datalog::EvalStats es;
    std::map<std::string, rel::Relation> extents;
    int64_t e = tr->Time("datalog.eval", root, rid, [&] {
      extents = rel::datalog::Evaluate(lowered->program, eo, &es);
    });
    double rows = 0;
    for (const std::string& m : lowered->members) {
      auto it = extents.find(m);
      if (it != extents.end()) rows += static_cast<double>(it->second.size());
    }
    tr->Attr(e, "iterations", es.iterations);
    tr->Attr(e, "tuples_derived", static_cast<double>(es.tuples_derived));
    tr->Attr(e, "index_builds", static_cast<double>(es.index_builds));
    tr->Attr(e, "index_probes", static_cast<double>(es.index_probes));
    tr->Attr(e, "leapfrog_joins", static_cast<double>(es.leapfrog_joins));
    tr->Attr(e, "aggregate_updates", static_cast<double>(es.aggregate_updates));
    tr->Attr(e, "par_tasks", static_cast<double>(es.par_tasks));
    tr->Attr(e, "par_steals", static_cast<double>(es.par_steals));
    tr->Attr(e, "final_rows", rows);
  }
}

/// Replays a commit: Session::Exec, the snapshot copy, the same records on
/// the side store and, for an edge commit, EvaluateDelta against a full
/// recompute (a mismatch counts as a wrong answer in `tally`).
void ReplayExec(Tracer* tr, Replay* rp, const Request& req, int64_t root,
                int64_t rid, Tally* tally) {
  rel::Engine& engine = *rp->engine;
  bool edge_op = !req.effects.empty() && req.effects[0].relation == "edge";
  if (edge_op && !rp->maintained) {
    // The lowered tc program over the pre-commit edges.
    auto snap = engine.SnapshotNow();
    std::string why;
    std::optional<rel::LoweredComponent> lowered =
        rel::LowerComponent("tc", *snap->rules_analysis, *snap->rules, &why);
    if (!lowered) Die("tc did not lower: " + why);
    Maintained m;
    m.rules = lowered->program;
    m.options.num_threads = engine.options().num_threads;
    lowered->program.AddFacts("edge", snap->db->Get("edge"));
    m.extents = rel::datalog::Evaluate(lowered->program, m.options);
    rp->maintained = std::move(m);
  }

  rel::Engine::IcStats before = engine.ic_stats();
  bool aborted = false;
  int64_t x = tr->Time("core.exec", root, rid, [&] {
    try {
      rp->handler.session().Exec(req.source);
    } catch (const rel::ConstraintViolation&) {
      aborted = true;
    }
  });
  tr->Attr(x, "ic_checked",
           static_cast<double>(engine.ic_stats().checked - before.checked));
  tr->Attr(x, "ic_skipped",
           static_cast<double>(engine.ic_stats().skipped - before.skipped));
  tr->Attr(x, "ic_aborts", aborted ? 1 : 0);

  std::shared_ptr<const rel::Snapshot> head = engine.SnapshotNow();
  size_t base_tuples = 0;
  int64_t c = tr->Time("data.snapshot_copy", root, rid, [&] {
    rel::Database copy(*head->db);
    copy.FreezeViews();
    base_tuples = copy.TotalTuples();
  });
  tr->Attr(c, "base_tuples", static_cast<double>(base_tuples));
  if (aborted) return;

  // The same records through the Store API on a side store.
  if (!rp->side_store) {
    rp->fs = std::make_shared<TimedFileSystem>();
    rp->side_store = std::make_unique<rel::storage::Store>(
        rp->fs, rp->side_dir, rel::storage::DurabilityOptions{});
    rel::storage::SnapshotData empty;
    rel::storage::RecoveryReport r = rp->side_store->Recover(&empty);
    if (!r.status.ok()) Die("side store: " + r.status.ToString());
  }
  std::vector<rel::storage::WalRecord> records;
  for (const Effect& e : req.effects) {
    records.push_back(e.insert ? rel::storage::WalRecord::Fact(e.relation, e.tuple)
                               : rel::storage::WalRecord::Retract(e.relation,
                                                                  e.tuple));
  }
  uint64_t txn = 0;
  rp->fs->Take();
  int64_t log = tr->Time("storage.log_txn", root, rid, [&] {
    rel::Status s = rp->side_store->LogTransaction(records, &txn);
    if (!s.ok()) Die("side store: " + s.ToString());
  });
  double bytes = 0;
  for (const TimedFileSystem::Call& call : rp->fs->Take()) {
    tr->Add(call.sync ? "storage.fsync" : "storage.append", call.start_ns,
            call.end_ns, log, rid);
    bytes += static_cast<double>(call.bytes);
  }
  tr->Attr(log, "bytes", bytes);
  // Every 10th commit also checkpoints the side store.
  if (++rp->commits % 10 == 0) {
    tr->Time("storage.checkpoint", root, rid, [&] {
      rel::Status s = rp->side_store->Checkpoint(*head->db, {rp->model});
      if (!s.ok()) Die("side checkpoint: " + s.ToString());
    });
  }

  if (!edge_op) return;
  Maintained& m = *rp->maintained;
  rel::datalog::EdbDelta delta;
  for (const Effect& e : req.effects) {
    (e.insert ? delta.inserts : delta.deletes)["edge"].Insert(e.tuple);
  }
  rel::datalog::EvalStats es;
  rel::datalog::DeltaResult result;
  int64_t d = tr->Time("datalog.delta", root, rid, [&] {
    result = rel::datalog::EvaluateDelta(m.rules, {}, delta, &m.extents,
                                         m.options, &es);
  });
  if (!result.supported) Die("EvaluateDelta refused: " + result.unsupported_reason);
  bool deletes = std::any_of(req.effects.begin(), req.effects.end(),
                             [](const Effect& e) { return !e.insert; });
  tr->Attr(d, "delete", deletes ? 1 : 0);
  tr->Attr(d, "delta_inserts", static_cast<double>(es.delta_inserts));
  tr->Attr(d, "delta_deletes", static_cast<double>(es.delta_deletes));
  tr->Attr(d, "rederived", static_cast<double>(es.rederived));
  rel::datalog::Program fresh = m.rules;
  fresh.AddFacts("edge", head->db->Get("edge"));
  std::map<std::string, rel::Relation> recomputed;
  tr->Time("datalog.recompute", root, rid, [&] {
    recomputed = rel::datalog::Evaluate(fresh, m.options);
  });
  tally->Record(recomputed["tc"] == m.extents["tc"]
                    ? ""
                    : "EvaluateDelta's tc differs from a recompute",
                "maintenance check");
}

// --- the client loop -------------------------------------------------------

struct Latencies {
  std::vector<double> query, exec, refresh;
};

/// One connection: its stream and client and, in the traced phase, its
/// tracer and in-process replay.
struct Conn {
  int id = 0;
  Stream* stream = nullptr;
  LineClient* client = nullptr;
  Tracer* tracer = nullptr;
  Replay* replay = nullptr;
  int64_t seq = 0;
};

/// Sends `req` (its latency counts from `start`), checks the reply and,
/// when traced, replays it in-process under spans. Returns false when the
/// connection broke.
bool Issue(Conn* c, const Request& req, int64_t start, Tally* tally,
           Latencies* lat) {
  Tracer* tr = c->tracer;
  int64_t rid = (static_cast<int64_t>(c->id) << 32) | c->seq++;
  int64_t root = -1;
  if (tr != nullptr) {
    root = tr->Add("request", start, start, -1, rid);
    tr->Attr(root, "kind", static_cast<double>(req.kind));
    if (rid % 5 == 0) {
      tr->Time("server.rtt", root, rid, [&] {
        std::string pong = c->client->Call("ping");
        tally->Record(pong == "ok pong" ? "" : "ping reply " + pong, "ping");
      });
      start = NowNs();
    }
  }
  std::string line = req.Line();
  std::string reply;
  try {
    reply = c->client->Call(line);
  } catch (const std::exception& e) {
    tally->Record(e.what(), line);
    return false;
  }
  (req.kind == Kind::kQuery  ? lat->query
   : req.kind == Kind::kExec ? lat->exec
                             : lat->refresh)
      .push_back(MsSince(start));
  tally->Record(c->stream->Check(req, reply), line);
  if (tr == nullptr) return true;

  int64_t tcp = tr->Add("server.request", start, NowNs(), root, rid);
  tr->Attr(tcp, "bytes", static_cast<double>(reply.size()) + 1);
  switch (req.kind) {
    case Kind::kQuery:
      ReplayQuery(tr, c->replay, req, root, rid);
      break;
    case Kind::kExec:
      ReplayExec(tr, c->replay, req, root, rid, tally);
      break;
    case Kind::kRefresh:
      tr->Time("core.refresh", root, rid,
               [&] { c->replay->handler.session().Refresh(); });
      break;
  }
  tr->End(root);
  return true;
}

/// One connection's loop until `deadline_ns`: closed, or paced for a
/// paced writer.
void RunConnection(const Workload& w, Conn* c, int64_t deadline_ns,
                   Tally* tally, Latencies* lat) {
  const int64_t period =
      c->id == 0 ? w.design().writer_period_ms * int64_t{1000000} : 0;
  int64_t due = NowNs();
  while (NowNs() < deadline_ns) {
    Request req = c->stream->Next();
    int64_t start = NowNs();
    if (period > 0) {
      // Spin rather than sleep: a virtual CPU that idles runs slowly for a
      // while after it wakes, which would land in the commit's latency.
      while (NowNs() < due) {
      }
      start = due;  // a late send counts against the request
      due += period;
    }
    if (!Issue(c, req, start, tally, lat)) return;
  }
}

/// Runs every connection for `seconds`; returns the number of requests
/// completed per second.
double RunAll(const Workload& w, std::vector<Conn>* conns, double seconds,
              Tally* tally, Latencies* lat) {
  std::vector<Latencies> per(conns->size());
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns->size(); ++c) {
    threads.emplace_back([&, c] {
      RunConnection(w, &(*conns)[c], deadline, tally, &per[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  double elapsed = (NowNs() - start) / 1e9;
  size_t done = 0;
  for (const Latencies& l : per) {
    lat->query.insert(lat->query.end(), l.query.begin(), l.query.end());
    lat->exec.insert(lat->exec.end(), l.exec.begin(), l.exec.end());
    lat->refresh.insert(lat->refresh.end(), l.refresh.begin(), l.refresh.end());
    done += l.query.size() + l.exec.size() + l.refresh.size();
  }
  return static_cast<double>(done) / elapsed;
}

/// Recovers the served store into a fresh engine and compares its base
/// relations with the last acknowledged shadow state. Returns the attach
/// time in ms; failures count in `tally`.
double CheckDurability(Workload* w, const std::string& dir, Tally* tally) {
  rel::Engine fresh;
  int64_t start = NowNs();
  rel::storage::RecoveryReport report =
      fresh.AttachStorage(dir);
  double ms = MsSince(start);
  std::string error;
  if (!report.status.ok()) error = "recovery: " + report.status.ToString();
  std::shared_ptr<const BaseState> acked = w->Acked();
  for (const auto& [name, tuples] : *acked) {
    std::vector<rel::Tuple> got = fresh.Base(name).SortedTuples();
    if (error.empty() &&
        !std::equal(got.begin(), got.end(), tuples->begin(), tuples->end())) {
      error = "recovered " + name + " has " + std::to_string(got.size()) +
              " tuples, last ack has " + std::to_string(tuples->size());
    }
  }
  tally->Record(error, "durability check");
  return ms;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
  /// Printed for reading but kept out of the JSON result, and only where
  /// the workload makes such requests: the JSON result carries the same
  /// metrics on every workload, and these either apply to one workload only
  /// (commits and refreshes; update_mix's commit p50 is gated as
  /// primary_p50_ms) or move from run to run by more than any bound the
  /// benchmark could keep (p99 tails; a refresh's DRed cost depends on
  /// which edges the seed rewires).
  bool info_only = false;
};

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics,
                 const std::vector<std::pair<std::string, double>>& extra) {
  for (const Metric& m : metrics) {
    if (m.samples == 0) continue;
    std::printf("%-16s %12.4f %-6s (n=%zu)%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.info_only ? " info" : "");
  }
  int64_t attempted = tally.attempted, failed = tally.failed;
  std::printf("%-16s %12.6f %-6s (%lld of %lld)\n", "error_rate",
              attempted ? static_cast<double>(failed) / attempted : 0.0,
              "ratio", static_cast<long long>(failed),
              static_cast<long long>(attempted));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld",
              failed == 0 ? "true" : "false",
              static_cast<long long>(attempted), static_cast<long long>(failed));
  for (const auto& [key, value] : extra) {
    std::printf(", \"%s\": %.17g", key.c_str(), value);
  }
  std::printf(", \"metrics\": {");
  const char* sep = "";
  for (const Metric& m : metrics) {
    if (m.info_only) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

/// Keeps every core busy for two seconds: a virtual machine's idle vCPUs run
/// slowly for about that long after waking, which would otherwise land in
/// the first set-up.
void WarmCpus() {
  int64_t until = NowNs() + 2000000000;
  std::vector<std::thread> spin;
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency()); ++i) {
    spin.emplace_back([until] {
      volatile uint64_t x = 0;
      while (NowNs() < until) x = x + 1;
    });
  }
  for (std::thread& t : spin) t.join();
}

int Main(const Options& o) {
  std::unique_ptr<Workload> w = MakeWorkload(o.workload, o.seed);
  if (w == nullptr) Die("unknown workload " + o.workload);
  WarmCpus();
  Tally tally;
  const int n = w->design().connections;

  if (!o.trace) {
    // The workload's data and references are built by now: peak_rss_mb
    // counts what the process holds beyond them at its high-water mark.
    const double baseline_mb = StatusMb("VmRSS");
    // Set up five times and report the median; serve from the last.
    constexpr int kSetups = 5;
    std::vector<double> setups;
    Served served;
    for (int i = 0; i < kSetups; ++i) {
      served.Stop();
      served = SetUp(*w, o.dir + "/store-" + std::to_string(i), &tally);
      setups.push_back(served.setup_s);
    }
    std::string store = o.dir + "/store-" + std::to_string(kSetups - 1);
    w->Serving(served.engine->SnapshotNow()->version());
    std::vector<std::unique_ptr<Stream>> streams;
    std::vector<Conn> conns(n);
    for (int c = 0; c < n; ++c) {
      streams.push_back(w->OpenStream(c));
      conns[c].id = c;
      conns[c].stream = streams[c].get();
      conns[c].client = served.clients[c].get();
    }
    Latencies lat;
    double rps = RunAll(*w, &conns, o.seconds, &tally, &lat);
    size_t requests = lat.query.size() + lat.exec.size() + lat.refresh.size();
    const std::vector<double>& primary =
        w->design().primary == Kind::kExec ? lat.exec : lat.query;
    served.Stop();
    CheckDurability(w.get(), store, &tally);
    std::vector<Metric> metrics = {
        {"setup_s", Median(setups), "s", setups.size()},
        {"query_p50_ms", Percentile(lat.query, 0.5), "ms", lat.query.size()},
        {"query_p90_ms", Percentile(lat.query, 0.9), "ms", lat.query.size()},
        {"primary_p50_ms", Percentile(primary, 0.5), "ms", primary.size()},
        {"query_p99_ms", Percentile(lat.query, 0.99), "ms", lat.query.size(),
         true},
        {"commit_p50_ms", Percentile(lat.exec, 0.5), "ms", lat.exec.size(),
         true},
        {"commit_p99_ms", Percentile(lat.exec, 0.99), "ms", lat.exec.size(),
         true},
        {"refresh_p50_ms", Percentile(lat.refresh, 0.5), "ms",
         lat.refresh.size(), true},
        {"refresh_p99_ms", Percentile(lat.refresh, 0.99), "ms",
         lat.refresh.size(), true},
        {"throughput_rps", rps, "1/s", requests},
        {"peak_rss_mb", StatusMb("VmHWM") - baseline_mb, "MB", 1},
    };
    PrintResult(tally, metrics, {});
    return tally.failed == 0 ? 0 : 1;
  }

  // Traced run: the served system plus a replay engine with the same model,
  // data and options, driven in-process beside every TCP request.
  Served served = SetUp(*w, o.dir + "/store", &tally);
  std::unique_ptr<rel::Engine> replay_engine =
      BuildEngine(*w, o.dir + "/replay");
  std::vector<std::unique_ptr<Replay>> replays;
  std::vector<std::unique_ptr<Stream>> streams;
  std::vector<Tracer> tracers;
  std::vector<Conn> conns(n);
  w->Serving(served.engine->SnapshotNow()->version());
  for (int c = 0; c < n; ++c) {
    replays.push_back(std::make_unique<Replay>(
        replay_engine.get(), o.dir + "/side-" + std::to_string(c), w->Model()));
    for (const Request& req : w->WarmUp(c)) {
      replays[c]->handler.Handle(req.Line());
    }
    streams.push_back(w->OpenStream(c));
    tracers.emplace_back(c);
    conns[c].id = c;
    conns[c].stream = streams[c].get();
    conns[c].client = served.clients[c].get();
  }

  Latencies untraced, traced;
  RunAll(*w, &conns, o.seconds / 3, &tally, &untraced);
  for (int c = 0; c < n; ++c) {
    conns[c].tracer = &tracers[c];
    conns[c].replay = replays[c].get();
  }
  RunAll(*w, &conns, o.seconds * 2 / 3, &tally, &traced);
  served.Stop();
  replays.clear();
  replay_engine.reset();
  Tracer main_tracer(n);
  int64_t start = NowNs();
  CheckDurability(w.get(), o.dir + "/store", &tally);
  main_tracer.Add("storage.recover", start, NowNs(), -1, -1);

  std::FILE* out = std::fopen((o.dir + "/spans.jsonl").c_str(), "w");
  if (out == nullptr) Die("cannot write spans.jsonl");
  for (const Tracer& t : tracers) t.Write(out);
  main_tracer.Write(out);
  std::fclose(out);
  PrintResult(tally, {},
              {{"untraced_query_p50_ms", Percentile(untraced.query, 0.5)}});
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--dir") {
      o.dir = value;
    } else {
      e2e::Die("unknown flag " + flag);
    }
  }
  if (o.workload.empty() || o.dir.empty() || o.seconds <= 0) {
    e2e::Die("usage: rel_e2e --workload W --seed N --seconds S --trace 0|1 "
             "--dir DIR");
  }
  try {
    return e2e::Main(o);
  } catch (const std::exception& e) {
    e2e::Die(std::string("failed: ") + e.what());
  }
}
