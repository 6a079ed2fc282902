#!/usr/bin/env python3
"""Minimal-size smoke run of the benchmark, from the repository root:

    python3 perfbench/smoke_test.py

Runs every workload in BENCHMARK.json at --smoke size, untraced and traced,
and fails unless each run exits 0, checks every output correct with no
failed operation, and reports exactly the metrics BENCHMARK.json names,
with their units.
"""

import json
import subprocess
import sys


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {out.returncode}\n"
                 f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            res = run(w["name"], trace)
            where = f"{w['name']} trace={trace}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{where}: correct={res['correct']} "
                                f"failed={res['failed']} "
                                f"attempted={res['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if want != got:
                problems.append(
                    f"{where}: missing {sorted(set(want) - set(got))}, "
                    f"unexpected {sorted(set(got) - set(want))}, "
                    f"unit mismatches "
                    f"{sorted(k for k in want if k in got and want[k] != got[k])}")
    for p in problems:
        print("FAIL", p)
    print("smoke:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
