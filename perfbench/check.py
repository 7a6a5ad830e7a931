#!/usr/bin/env python3
"""Checks kept with the benchmark. Run from the repository root.

    python3 perfbench/check.py names
        BENCHMARK.json's names, units and counts are within limits, and one
        untraced and one traced run per workload report exactly its metrics.
    python3 perfbench/check.py repeat [--workload W] [--seed N]
        The deterministic figures (rel_miss and every named quality output)
        repeat bit for bit across two runs of the same seed.
    python3 perfbench/check.py spread --workload W [--seeds 1,2,...]
        Runs one seed after another and prints, per end-to-end metric, the
        median and the interquartile range as a share of the median next
        to the metric's bound (the steadiness the bounds rely on).

Every run goes through perfbench/run.py with BENCHMARK.json's run_seconds.
Exit status 1 on any violation.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Quality figures that must repeat exactly for a fixed seed.
DETERMINISTIC = {
    "rel_miss_ratio",
    "self_rel_miss",
    "peer_rel_miss",
    "self_ipc_gain",
    "peer_ipc_gain",
    "reopt_rel_miss",
}


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(workload, seed, trace, seconds):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def fail(msg):
    print("FAIL", msg)
    return 1


def check_names(b):
    bad = 0
    e2e, per_layer = b["end_to_end"], b["per_layer"]
    if not 1 <= len(e2e) <= 16:
        bad += fail(f"{len(e2e)} end-to-end metrics (1..16)")
    if not 1 <= len(per_layer) <= 128:
        bad += fail(f"{len(per_layer)} per-layer metrics (1..128)")
    if not 2 <= len(b["workloads"]) <= 8:
        bad += fail(f"{len(b['workloads'])} workloads (2..8)")
    names = [m["name"] for m in e2e + per_layer] + [w["name"] for w in b["workloads"]]
    for n in names:
        if not NAME.match(n):
            bad += fail(f"bad name {n!r}")
    for n in set(names):
        if names.count(n) > 1:
            bad += fail(f"name {n!r} used twice")
    for m in e2e + per_layer:
        if not UNIT.match(m["unit"]):
            bad += fail(f"bad unit {m['unit']!r} of {m['name']}")
        if m["better"] not in ("lower", "higher"):
            bad += fail(f"bad direction of {m['name']}")
    for m in e2e:
        if not 0 < m["bound"] <= 0.25:
            bad += fail(f"bound of {m['name']} outside (0, 0.25]")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        bad += fail("setup_s missing or not s/lower")
    elif setup[0]["bound"] < max(m["bound"] for m in e2e):
        bad += fail("setup_s must carry the largest bound")
    return bad


def check_result(b, workload, trace, result):
    bad = 0
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        bad += fail(f"{workload} trace={trace}: result keys {sorted(result)}")
    want = [m["name"] for m in (b["per_layer"] if trace else b["end_to_end"])]
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        bad += fail(f"{workload} trace={trace}: metrics differ: "
                    f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        bad += fail(f"{workload} trace={trace}: correct={result['correct']} "
                    f"attempted={result['attempted']} failed={result['failed']}")
    if not trace:
        for name in want:
            if result["metrics"].get(name, {}).get("value", 0) == 0:
                bad += fail(f"{workload}: end-to-end metric {name} is 0")
    return bad


def cmd_names(b, args):
    bad = check_names(b)
    for w in b["workloads"]:
        for trace in (0, 1):
            _, result = run(w["name"], args.seed, trace, b["run_seconds"])
            bad += check_result(b, w["name"], trace, result)
    return bad


def deterministic(host, result):
    figures = {k: v for k, v in host["outputs"].items() if k in DETERMINISTIC}
    figures["rel_miss"] = result["metrics"]["rel_miss"]["value"]
    return figures


def cmd_repeat(b, args):
    bad = 0
    workloads = [args.workload] if args.workload else [w["name"] for w in b["workloads"]]
    for w in workloads:
        first = deterministic(*run(w, args.seed, 0, b["run_seconds"]))
        second = deterministic(*run(w, args.seed, 0, b["run_seconds"]))
        for k in first:
            if repr(first[k]) != repr(second[k]):
                bad += fail(f"{w}: {k} {first[k]!r} then {second[k]!r}")
        print(w, "repeats" if not bad else "differs", json.dumps(first))
    return bad


def cmd_spread(b, args):
    seeds = [int(s) for s in args.seeds.split(",")]
    values = {m["name"]: [] for m in b["end_to_end"]}
    bad = 0
    for seed in seeds:
        host, result = run(args.workload, seed, 0, b["run_seconds"])
        bad += check_result(b, args.workload, 0, result)
        for k in values:
            values[k].append(result["metrics"][k]["value"])
        print(f"seed {seed}: rounds={len(host['host']['rounds_s'])} " +
              " ".join(f"{k}={values[k][-1]:.6g}" for k in values), flush=True)
    for m in b["end_to_end"]:
        xs = values[m["name"]]
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
        share = (q[2] - q[0]) / med
        verdict = "ok" if share < m["bound"] / 3 else ("within bound" if share <= m["bound"] else "OVER")
        print(f"{args.workload:9s} {m['name']:12s} median={med:.6g} iqr/median={share:.4f} "
              f"bound={m['bound']} {verdict}")
    return bad


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("command", choices=["names", "repeat", "spread"])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    args = p.parse_args()
    b = spec()
    if args.command == "spread" and not args.workload:
        p.error("spread needs --workload")
    bad = {"names": cmd_names, "repeat": cmd_repeat, "spread": cmd_spread}[args.command](b, args)
    print("ok" if not bad else f"{bad} violation(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
