#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark (about a minute).

  python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced on a small store
and checks that each run exits 0, emits every declared metric with its
unit, and counts no failures. Then it flips one byte in every 50th
client value-log read and checks that the failures are counted (error
rate above 0) instead of crashing the run. Exits non-zero on any miss.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
TINY = ["--seed", "7", "--seconds", "1", "--keys", "4000", "--setups", "1"]


def run(workload, trace, extra=()):
    cmd = RUN + ["--workload", workload, "--trace", str(trace)] + TINY + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode, proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, err = run(w["name"], trace)
            where = "%s trace=%d" % (w["name"], trace)
            if err:
                problems.append("%s: %s" % (where, err))
                continue
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] or \
                        not isinstance(got.get("value"), (int, float)):
                    problems.append("%s: metric %s missing or mis-united"
                                    % (where, m["name"]))
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            if result["attempted"] < 1 or result["failed"] != 0 or \
                    not result["correct"]:
                problems.append("%s: error_rate %d/%d on a healthy build"
                                % (where, result["failed"], result["attempted"]))
            print("ok   %-26s %d attempted, 0 failed" % (where,
                                                          result["attempted"]))

    result, err = run("read_uniform", 0, ["--corrupt-vlog-every", "50"])
    if err:
        problems.append("corruption run: %s" % err)
    elif result["failed"] == 0 or result["correct"]:
        problems.append("corruption run: flipped vlog bytes went uncounted")
    else:
        print("ok   corrupted vlog reads     error_rate %.4f (%d of %d)"
              % (result["failed"] / result["attempted"], result["failed"],
                 result["attempted"]))

    for p in problems:
        print("FAIL " + p)
    print("selftest %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
