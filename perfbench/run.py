#!/usr/bin/env python3
"""UniKV benchmark: builds the engine and the benchmark program, runs one
workload, checks every result, and prints each metric by name and unit.

Run from the repository root:

  python3 perfbench/run.py --workload mixed_zipf --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py ... --out results/parent.jsonl   # also record it
  python3 perfbench/run.py compare results/parent.jsonl results/change.jsonl
  python3 perfbench/run.py spread results/parent.jsonl

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics, measured in
a run that alternates traced and untraced slices. The benchmark program is
built into .bench_build/perfbench and its store lives under .bench_run/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")
BINARY = os.path.join(BUILD_DIR, "unikv_perfbench")
WORKLOADS = ("mixed_zipf", "read_uniform", "scan_insert")
RUN_TIMEOUT_S = 170
BACKGROUND_THREADS = 3  # Engine default (Options::background_threads).

# The two latency slots of each workload: its main op and its other op.
PRIMARY = {"mixed_zipf": "get", "read_uniform": "get", "scan_insert": "scan"}
SECONDARY = {"mixed_zipf": "put", "read_uniform": "mget", "scan_insert": "put"}
BG_KINDS = ("flush", "merge", "scan_merge", "gc", "split")
WRITE_KINDS = ("wal", "table", "vlog", "manifest", "anchors", "index", "other")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------- build

def build():
    """Configures (once) and builds the benchmark program; False on failure."""
    if not os.path.exists(os.path.join(ROOT, "src", "core", "db.h")):
        log("perfbench: engine sources (src/) not found next to perfbench/")
        return False
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    proc = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0 and os.path.exists(BINARY)


def source_digest(paths):
    h = hashlib.sha256()
    for base in paths:
        for dirpath, dirnames, filenames in sorted(os.walk(base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    full = os.path.join(dirpath, name)
                    h.update(os.path.relpath(full, ROOT).encode())
                    with open(full, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


# ------------------------------------------------------------------- helpers

def kv_pairs(text):
    out = {}
    for tok in text.split():
        k, _, v = tok.partition("=")
        try:
            out[k] = float(v)
        except ValueError:
            pass
    return out


def ratio(num, den):
    return num / den if den else 0.0


def span_sum(spans, attrib, file_kind, calls):
    """(count, bytes, ns) summed over the call kinds in `calls`."""
    total = [0, 0, 0]
    for call, vals in spans.get(attrib, {}).get(file_kind, {}).items():
        if call in calls:
            for i in range(3):
                total[i] += vals[i]
    return total


READS = ("read", "zero_copy")


def slice_seconds(phase_s, slice_s):
    """Seconds spent in untraced (even) and traced (odd) slices."""
    out = [0.0, 0.0]
    t, i = 0.0, 0
    while t < phase_s:
        out[i % 2] += min(slice_s, phase_s - t)
        t += slice_s
        i += 1
    return out


def events_in(text):
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            try:
                out.append(json.loads(line))
            except ValueError:
                pass
    return out


# ------------------------------------------------------------------- metrics

# The percentiles bench.cc reports (its kQuantiles), with the samples an
# interval needs for ten of them to lie beyond each.
PERCENTILES = {"p50": (0, 20), "p90": (1, 100), "p95": (2, 200),
               "p99": (3, 1000), "p999": (4, 10000)}


def percentile_us(op, name):
    """A percentile of an op, in microseconds: the median over the
    one-second intervals that hold at least ten samples beyond it, or over
    the whole phase when most intervals do not."""
    index, need = PERCENTILES[name]
    values = [iv[1 + index] for iv in op["intervals"] if iv[0] >= need]
    if len(values) * 2 > len(op["intervals"]):
        return statistics.median(values) / 1000.0
    return op["percentiles_ns"][index] / 1000.0


def end_to_end(raw):
    w = raw["workload"]
    ops = raw["ops"]
    acked = sum(o["ok_keys"] for o in ops.values())
    m = {}
    m["setup_s"] = (statistics.median(raw["setup_s"]), "s")
    rate = (statistics.median(raw["interval_keys"]) if raw["interval_keys"]
            else acked / raw["phase_s"])
    m["ops_per_s"] = (rate, "1/s")
    # The same rate, charged for the time CompactAll took to pay the
    # flush/merge/GC debt the phase left behind.
    m["drained_ops_per_s"] = (
        rate * raw["phase_s"] / (raw["phase_s"] + raw["drain_s"]), "1/s")
    for slot, op in (("primary", PRIMARY[w]), ("secondary", SECONDARY[w])):
        # p90, not p99, is the bounded tail: on a shared host, CPU steal
        # bursts move p99 by more than any usable bound. Every percentile
        # is printed in the report above the result line.
        m[slot + "_p50_us"] = (percentile_us(ops[op], "p50"), "us")
        m[slot + "_p90_us"] = (percentile_us(ops[op], "p90"), "us")
    user = raw["user_bytes_setup"] + raw["user_bytes_phase"]
    m["write_amp"] = (ratio(sum(raw["written_total"].values()), user), "x")
    m["space_amp"] = (ratio(raw["dir_bytes"], raw["live_bytes"]), "x")
    m["peak_rss_mb"] = (raw["peak_rss_kb"] / 1024.0, "MB")
    return m


def per_layer(raw):
    ops = raw["ops"]
    spans = raw["spans"]
    perf = {op: kv_pairs(o["perf"]) for op, o in ops.items()}
    traced = {op: o["traced_calls"] for op, o in ops.items()}
    calls = {op: o["calls"] for op, o in ops.items()}
    pg, pp = perf.get("get", {}), perf.get("put", {})
    gets, puts = traced.get("get", 0), traced.get("put", 0)
    scans, mgets = traced.get("scan", 0), traced.get("mget", 0)
    all_scans = calls.get("scan", 0)
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    # wal
    put("wal.append_us_per_put",
        ratio(span_sum(spans, "put", "wal", ("append", "flush"))[2], puts) / 1e3,
        "us")
    put("wal.bytes_per_put",
        ratio(span_sum(spans, "put", "wal", ("append",))[1], puts), "B")
    put("wal.syncs_per_put",
        ratio(span_sum(spans, "put", "wal", ("sync",))[0], puts), "count")
    put("wal.engine_us_per_put", ratio(pp.get("write_wal_micros", 0), puts),
        "us")
    # mem
    put("mem.insert_us_per_put",
        ratio(pp.get("write_memtable_micros", 0), puts), "us")
    put("mem.hit_ratio", ratio(pg.get("memtable_hits", 0), pg.get("gets", 0)),
        "ratio")
    # core.write
    put("core.write.stall_us_per_put",
        ratio(pp.get("write_stall_micros", 0), puts), "us")
    st = {k: kv_pairs(v) for k, v in raw["stats"].items()}
    put("core.write.stalls",
        st["phase"].get("write_stalls", 0) - st["before"].get("write_stalls", 0),
        "count")
    # index
    lookups = pg.get("hash_index_lookups", 0)
    put("index.lookups_per_get", ratio(lookups, gets), "count")
    put("index.probes_per_lookup", ratio(pg.get("hash_index_probes", 0), lookups),
        "count")
    put("index.candidates_per_lookup",
        ratio(pg.get("hash_index_candidates", 0), lookups), "count")
    put("index.bytes", float(raw["hash_index_bytes"] or 0), "B")
    # table
    probed = pg.get("unsorted_tables_probed", 0) + pg.get("sorted_seeks", 0)
    put("table.unsorted_probes_per_get",
        ratio(pg.get("unsorted_tables_probed", 0), gets), "count")
    put("table.sorted_seeks_per_get", ratio(pg.get("sorted_seeks", 0), gets),
        "count")
    put("table.probe_yield",
        ratio(pg.get("gets", 0) - pg.get("memtable_hits", 0), probed), "ratio")
    bc = [sum(p.get(k, 0) for p in perf.values())
          for k in ("block_cache_hits", "block_cache_misses",
                    "table_cache_hits", "table_cache_misses")]
    put("table.block_cache_hit_ratio", ratio(bc[0], bc[0] + bc[1]), "ratio")
    put("table.table_cache_hit_ratio", ratio(bc[2], bc[2] + bc[3]), "ratio")
    put("table.block_reads_per_get", ratio(pg.get("block_reads", 0), gets),
        "count")
    tr = span_sum(spans, "get", "table", READS)
    put("table.read_us_per_get", ratio(tr[2], gets) / 1e3, "us")
    put("table.read_bytes_per_get", ratio(tr[1], gets), "B")
    # vlog
    vg = span_sum(spans, "get", "vlog", READS)
    put("vlog.reads_per_get", ratio(vg[0], gets), "count")
    put("vlog.read_us_per_get", ratio(vg[2], gets) / 1e3, "us")
    put("vlog.bytes_per_get", ratio(vg[1], gets), "B")
    zc = rd = 0
    for attrib in ("get", "mget", "scan", "bg_phase"):
        zc += span_sum(spans, attrib, "vlog", ("zero_copy",))[0]
        rd += span_sum(spans, attrib, "vlog", READS)[0]
    put("vlog.mmap_share", ratio(zc, rd), "ratio")
    put("vlog.coalesced_per_mget",
        ratio(perf.get("mget", {}).get("multiget_coalesced_reads", 0), mgets),
        "count")
    # Scans fan value fetches out to the engine's pool, whose reads are
    # background spans; in scan_insert nearly all background vlog reads
    # are those fetches (GC does almost nothing there).
    vs = span_sum(spans, "scan", "vlog", READS)
    vb = span_sum(spans, "bg_phase", "vlog", READS)
    per_scan = [ratio(vs[i], scans) + ratio(vb[i], all_scans) for i in range(3)]
    entries_per_scan = ratio(ops.get("scan", {}).get("entries", 0),
                             calls.get("scan", 0))
    put("vlog.span_reads_per_scan", per_scan[0], "count")
    put("vlog.bytes_per_scan_entry", ratio(per_scan[1], entries_per_scan), "B")
    # core.scan
    c0 = raw["metrics"]["before"]["engine"]["counters"]
    c1 = raw["metrics"]["phase"]["engine"]["counters"]
    # A scan opens one child per partition; the anchor view serves the
    # partitions with two or more unsorted tables.
    parts = raw["metrics"]["phase"]["partitions"]
    overlapped = sum(1 for p in parts if p.get("unsorted_tables", 0) >= 2)
    put("scan.anchor_hit_ratio",
        ratio(c1.get("scan_anchor_hits", 0) - c0.get("scan_anchor_hits", 0),
              (c1.get("scans", 0) - c0.get("scans", 0)) * overlapped), "ratio")
    put("scan.entries_per_scan", entries_per_scan, "count")
    put("scan.table_read_us_per_scan",
        ratio(span_sum(spans, "scan", "table", READS)[2], scans) / 1e3, "us")
    put("scan.vlog_read_us_per_scan", per_scan[2] / 1e3, "us")
    put("scan.unsorted_tables",
        ratio(sum(p.get("unsorted_tables", 0) for p in parts), len(parts)),
        "count")
    # core.compaction, from EVENTS (phase and drain)
    events = events_in(raw["events"])
    busy_total = 0.0
    for kind in BG_KINDS:
        evs = [e for e in events if e.get("event") == kind]
        busy = sum(e.get("duration_micros", 0) for e in evs) / 1e6
        busy_total += busy
        put("bg.%s.jobs" % kind, len(evs), "count")
        put("bg.%s.busy_s" % kind, busy, "s")
        if kind != "split":
            put("bg.%s.bytes_written" % kind,
                sum(e.get("bytes_written", 0) for e in evs), "B")
    put("bg.drain_s", raw["drain_s"], "s")
    put("bg.busy_share",
        ratio(busy_total, (raw["phase_s"] + raw["drain_s"]) * BACKGROUND_THREADS),
        "ratio")
    # util.env
    user = raw["user_bytes_setup"] + raw["user_bytes_phase"]
    for kind in WRITE_KINDS:
        put("env.write_amp." + kind, ratio(raw["written_total"][kind], user), "x")
    syncs = 0
    for attrib in ("get", "mget", "put", "scan", "bg_total"):
        for kind in spans.get(attrib, {}):
            syncs += span_sum(spans, attrib, kind, ("sync",))[0]
    put("env.syncs", syncs, "count")
    traced_ops = sum(traced.values())
    read_bytes = 0.0
    for attrib in ("get", "mget", "put", "scan"):
        for kind in spans.get(attrib, {}):
            read_bytes += ratio(span_sum(spans, attrib, kind, READS)[1],
                                traced_ops)
    for kind in spans.get("bg_phase", {}):
        read_bytes += ratio(span_sum(spans, "bg_phase", kind, READS)[1],
                            sum(calls.values()))
    put("env.read_bytes_per_op", read_bytes, "B")
    # residual
    for op in ("get", "mget", "put", "scan"):
        o = ops.get(op, {})
        put("core.%s.unattributed_us" % op,
            ratio(o.get("unattributed_ns", 0), o.get("traced_calls", 0)) / 1e3,
            "us")
    # trace.overhead
    secs = slice_seconds(raw["phase_s"], raw["slice_ns"] / 1e9)
    rates = [ratio(raw["slice_ops"][i], secs[i]) for i in range(2)]
    put("trace.overhead", ratio(rates[1], rates[0]), "x")
    return m


# ----------------------------------------------------------------- one run

def stamp(raw):
    return {
        "nproc": os.cpu_count(),
        "build_type": raw["build"]["type"],
        "compiler": raw["build"]["compiler"],
        "ndebug": raw["build"]["ndebug"],
        "sanitized": raw["build"]["sanitized"],
        "bench": source_digest([HERE]),
        "engine": source_digest([os.path.join(ROOT, "src")]),
        "git_rev": git_rev(),
    }


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [x["name"] for x in spec["per_layer" if trace else "end_to_end"]]


def run(args):
    if not build():
        log("perfbench: build failed")
        return 1
    run_dir = os.path.join(RUN_DIR, args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0",
           "--dir", run_dir,
           "--setups", str(args.setups if args.setups else
                           (1 if args.trace else 3))]
    if args.keys:
        cmd += ["--keys", str(args.keys)]
    if args.corrupt_vlog_every:
        cmd += ["--corrupt-vlog-every", str(args.corrupt_vlog_every)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: benchmark program timed out")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: benchmark program failed (exit %d)" % proc.returncode)
        return 1
    raw = json.loads(lines[-1])
    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(metrics):
        log("perfbench: metrics differ from BENCHMARK.json: %s"
            % sorted(set(declared) ^ set(metrics)))
        return 1

    attempted, failed = raw["attempted"], raw["failed"]
    print("workload %s seed %d: %d clients, %d keys, phase %.2f s, drain %.2f s"
          % (raw["workload"], raw["seed"], raw["clients"], raw["keys"],
             raw["phase_s"], raw["drain_s"]))
    for op, o in sorted(raw["ops"].items()):
        print("  %-5s calls=%d ok_keys=%d failed=%d mean=%.2fus %s (n=%d)"
              % (op, o["calls"], o["ok_keys"], o["failed"], o["mean_ns"] / 1e3,
                 " ".join("%s=%.2fus" % (name, percentile_us(o, name))
                          for name in PERCENTILES), o["calls"]))
    print("  error_rate=%.6g (%d failed of %d attempted)%s"
          % (ratio(failed, attempted), failed, attempted,
             "; first: " + raw["first_error"] if raw["first_error"] else ""))
    for name, (value, unit) in metrics.items():
        print("  %-32s %14.6g %s" % (name, value, unit))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        record = dict(result, workload=raw["workload"], seed=raw["seed"],
                      seconds=args.seconds, trace=bool(args.trace),
                      error_rate=ratio(failed, attempted),
                      corrupted_reads=raw["corrupted_reads"], stamp=stamp(raw),
                      intervals={"keys": raw["interval_keys"],
                                 "ops": {op: o["intervals"]
                                         for op, o in raw["ops"].items()}},
                      percentiles_ns={op: o["percentiles_ns"]
                                      for op, o in raw["ops"].items()})
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0


# ------------------------------------------------------- compare and spread

def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {x["name"]: x for x in spec["end_to_end"]}


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def grouped(records):
    """{workload: {metric: [values]}} over untraced records."""
    out = {}
    for r in records:
        if r.get("trace"):
            continue
        for name, m in r["metrics"].items():
            out.setdefault(r["workload"], {}).setdefault(name, []).append(
                m["value"])
    return out


def check_stamps(records):
    """Refuses debug/sanitized builds and mixed environments."""
    keys = ("nproc", "build_type", "compiler", "ndebug", "sanitized", "bench")
    seen = {tuple(r["stamp"].get(k) for k in keys) for r in records}
    for st in seen:
        d = dict(zip(keys, st))
        if d["build_type"] not in ("Release", "RelWithDebInfo") \
                or not d["ndebug"] or d["sanitized"]:
            return "refusing debug or sanitizer build: %s" % d
    if len(seen) != 1:
        return "runs have different stamps: %s" % [dict(zip(keys, s))
                                                    for s in seen]
    return None


def spread_main(paths):
    spec = bounds()
    records = [r for p in paths for r in load_records(p)]
    err = check_stamps(records)
    if err:
        log("perfbench: " + err)
        return 1
    ok = True
    for w, metrics in sorted(grouped(records).items()):
        print("%s (%d runs)" % (w, len(next(iter(metrics.values())))))
        for name, vals in metrics.items():
            q1, med, q3 = summary(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = spec[name]["bound"]
            flag = "ok" if spread <= bound / 3 else (
                "WIDE" if spread <= bound else "OVER")
            if name != "setup_s" and spread > bound:
                ok = False
            print("  %-20s median %12.6g  spread %6.3f  bound %.2f  %s"
                  % (name, med, spread, bound, flag))
    return 0 if ok else 1


def compare_main(path_a, path_b):
    spec = bounds()
    a, b = load_records(path_a), load_records(path_b)
    err = check_stamps(a + b)
    if err:
        log("perfbench: " + err)
        return 1
    ga, gb = grouped(a), grouped(b)
    print("%-13s %-20s %12s %12s %8s  %s"
          % ("workload", "metric", "median A", "median B", "change", "verdict"))
    for w in sorted(set(ga) & set(gb)):
        for name in spec:
            if name not in ga[w] or name not in gb[w]:
                continue
            qa, qb = summary(ga[w][name]), summary(gb[w][name])
            bound = spec[name]["bound"]
            sign = 1 if spec[name]["better"] == "higher" else -1
            change = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0
                         for q in (qa, qb))
            # B's worst run against A's best, in the metric's better direction.
            worst_b = min(sign * v for v in gb[w][name])
            best_a = max(sign * v for v in ga[w][name])
            if spread > bound and worst_b > best_a:
                verdict = "better in every run (spread %.3f > bound)" % spread
            elif spread > bound:
                verdict = "unresolved (spread %.3f > bound)" % spread
            elif change < -bound:
                verdict = "WORSE beyond bound %.2f" % bound
            elif change > bound:
                verdict = "better beyond bound %.2f" % bound
            else:
                verdict = "within bound %.2f" % bound
            print("%-13s %-20s %12.6g %12.6g %+7.1f%%  %s  [A q1..q3 %.6g..%.6g,"
                  " B %.6g..%.6g]" % (w, name, qa[1], qb[1], 100 * change,
                                      verdict, qa[0], qa[2], qb[0], qb[2]))
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            log("usage: run.py compare A.jsonl B.jsonl")
            return 2
        return compare_main(argv[1], argv[2])
    if argv and argv[0] == "spread":
        return spread_main(argv[1:])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append this run's record to a JSONL file")
    p.add_argument("--keys", type=int, default=0,
                   help="preloaded keys (default: the workload's own)")
    p.add_argument("--setups", type=int, default=0,
                   help="set-ups per run (default 3 untraced, 1 traced)")
    p.add_argument("--corrupt-vlog-every", type=int, default=0,
                   help="flip a byte in every n-th client value-log read")
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
