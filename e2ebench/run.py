#!/usr/bin/env python3
"""End-to-end Rel benchmark: builds e2ebench/rel_e2e from the repository's
sources, runs one workload, and prints its metrics.

    python3 e2ebench/run.py --workload serve_read --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1 runs
the traced replay, which writes its spans to .bench_run/spans-<workload>.jsonl,
and derives the per-layer metrics from that file. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit status
is 0 only when every reply was correct.

The build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench);
scratch stores go to .bench_run/ and are removed when the run ends.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_read", "adhoc_analytics", "update_mix")
RUN_TIMEOUT_S = 170


def per_layer_metrics():
    """(name, unit) of every per-layer metric, as BENCHMARK.json lists them."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return [(m["name"], m["unit"]) for m in json.load(f)["per_layer"]]
    except (OSError, ValueError, KeyError) as e:
        fail("cannot read the per-layer metrics from BENCHMARK.json: %s" % e)


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository's CMakeLists.txt and src/ are missing")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "e2ebench")
    for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "rel_e2e")


def p50(values):
    return statistics.median(values) if values else 0.0


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def derive(spans_path, summary):
    """The per-layer table, computed from the traced run's span file."""
    spans = []
    with open(spans_path) as f:
        for line in f:
            s = json.loads(line)
            s["ms"] = (s["end_us"] - s["start_us"]) / 1000.0
            spans.append(s)
    by_name = defaultdict(list)
    by_req = defaultdict(lambda: defaultdict(list))
    for s in spans:
        by_name[s["name"]].append(s)
        by_req[s["req"]][s["name"]].append(s)

    def ms(name):
        return [s["ms"] for s in by_name[name]]

    def attrs(name, key):
        return [s["attrs"].get(key, 0.0) for s in by_name[name]]

    m = {}
    m["server.rtt_ms"] = p50(ms("server.rtt"))
    m["server.handle_ms"] = p50(ms("server.handle"))
    transport, last_mile, traced_query = [], [], []
    delete_delta, delete_recompute, wal_append = [], [], []
    for req in by_req.values():
        if req["server.handle"]:
            transport.append(req["server.request"][0]["ms"] - req["server.handle"][0]["ms"])
            traced_query.append(req["server.request"][0]["ms"])
        if req["core.query"]:
            stages = sum(s["ms"] for n in ("core.parse", "core.analysis", "core.lowering",
                                           "datalog.eval") for s in req[n])
            last_mile.append(req["core.query"][0]["ms"] - stages)
        for d in req["datalog.delta"]:
            if d["attrs"].get("delete"):
                delete_delta.append(d["ms"])
                delete_recompute.extend(s["ms"] for s in req["datalog.recompute"])
    for log in by_name["storage.log_txn"]:
        synced = sum(s["ms"] for s in by_req[log["req"]]["storage.fsync"])
        wal_append.append(log["ms"] - synced)

    m["server.transport_ms"] = p50(transport)
    m["server.response_bytes"] = mean(attrs("server.request", "bytes"))
    for stage in ("parse", "analysis", "lowering", "query", "render"):
        m["core.%s_ms" % stage] = p50(ms("core." + stage))
    m["core.last_mile_ms"] = p50(last_mile)
    for key in ("components_lowered", "components_rejected", "extent_cache_hits",
                "demand_cache_hits", "lowered_tuples", "output_tuples"):
        m["core." + key] = mean(attrs("core.query", key))
    lowered = sum(attrs("core.query", "components_lowered"))
    hits = sum(attrs("core.query", "extent_cache_hits"))
    m["core.extent_cache_hit_ratio"] = hits / lowered if lowered else 0.0
    m["core.exec_ms"] = p50(ms("core.exec"))
    m["core.refresh_ms"] = p50(ms("core.refresh"))
    m["core.refresh_p99_ms"] = quantile(ms("core.refresh"), 0.99)
    for key in ("ic_checked", "ic_skipped", "ic_aborts"):
        m["core." + key] = mean(attrs("core.exec", key))

    queries = max(1, len(by_name["core.query"]))
    m["datalog.eval_ms"] = p50(ms("datalog.eval"))
    for key in ("iterations", "tuples_derived", "index_builds", "index_probes",
                "leapfrog_joins", "aggregate_updates", "par_tasks", "par_steals"):
        m["datalog." + key] = sum(attrs("datalog.eval", key)) / queries
    derived = sum(attrs("datalog.eval", "tuples_derived"))
    m["datalog.useful_ratio"] = (sum(attrs("datalog.eval", "final_rows")) / derived
                                 if derived else 0.0)
    m["datalog.delta_ms"] = p50(ms("datalog.delta"))
    m["datalog.recompute_ms"] = p50(ms("datalog.recompute"))
    m["datalog.delta_vs_recompute"] = (p50(delete_delta) / p50(delete_recompute)
                                       if delete_recompute else 0.0)
    for key in ("delta_inserts", "delta_deletes", "rederived"):
        m["datalog." + key] = mean(attrs("datalog.delta", key))
    removed = sum(attrs("datalog.delta", "delta_deletes"))
    restored = sum(attrs("datalog.delta", "rederived"))
    m["datalog.dred_useful_ratio"] = (removed / (removed + restored)
                                      if removed + restored else 0.0)

    m["data.snapshot_copy_ms"] = p50(ms("data.snapshot_copy"))
    m["data.base_tuples"] = mean(attrs("data.snapshot_copy", "base_tuples"))
    m["storage.wal_append_ms"] = p50(wal_append)
    m["storage.fsync_ms"] = p50(ms("storage.fsync"))
    m["storage.wal_bytes_per_commit"] = mean(attrs("storage.log_txn", "bytes"))
    m["storage.checkpoint_ms"] = p50(ms("storage.checkpoint"))
    m["storage.recover_ms"] = p50(ms("storage.recover"))
    untraced = summary["untraced_query_p50_ms"]
    m["trace.overhead_pct"] = ((p50(traced_query) / untraced - 1) * 100
                               if untraced else 0.0)
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    scratch = os.path.join(ROOT, ".bench_run")
    run_dir = os.path.join(scratch, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--dir", run_dir],
            stdout=subprocess.PIPE, universal_newlines=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(run_dir, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        shutil.rmtree(run_dir, ignore_errors=True)
        fail("rel_e2e exited with %d" % proc.returncode)
    if lines[:-1]:
        print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])

    if args.trace:
        spans = os.path.join(scratch, "spans-%s.jsonl" % args.workload)
        os.replace(os.path.join(run_dir, "spans.jsonl"), spans)
        layers = derive(spans, result)
        per_layer = per_layer_metrics()
        result["metrics"] = {name: {"value": layers[name], "unit": unit}
                             for name, unit in per_layer}
        for name, unit in per_layer:
            print("%-30s %14.4f %s" % (name, layers[name], unit))
        print("spans: " + os.path.relpath(spans, ROOT))
    shutil.rmtree(run_dir, ignore_errors=True)

    out = {key: result[key] for key in ("correct", "attempted", "failed")}
    out["metrics"] = result["metrics"]
    print(json.dumps(out))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
