#!/usr/bin/env python3
"""Steadiness test of the repository benchmark.

    python3 perfbench/check_steady.py [--workloads a,b] [--seeds 1,2,...]
                                      [--sets n] [--trace]

Runs perfbench/run.py once per (workload, seed) with BENCHMARK.json's
run_seconds, then for every end-to-end metric reports the median and the
spread: the distance between the first and third quartile of the runs
(statistics.quantiles(values, n=4)) as a share of the median. It fails when
a run is not correct, when a spread exceeds the metric's bound, or when a
metric is 0. With --sets n it repeats the whole set n times and also fails
when a later set's median is worse than the first set's by more than the
bound. The default seeds end with 9001, a seed that was not used while the
benchmark was built. With --trace it also makes one traced run per workload
and checks its bitwise StepResult comparison.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def check_set(spec, workload, seeds, n, first):
    """One set: every seed on `workload`; True when correct and steady."""
    ok = True
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds:
        t0 = time.monotonic()
        res = run(workload, seed, spec["run_seconds"], False)
        wall = time.monotonic() - t0
        line = " ".join(f"{k}={v['value']:.6g}"
                        for k, v in res["metrics"].items())
        print(f"set {n + 1} {workload} seed {seed} ({wall:.0f} s): "
              f"correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']} {line}",
              flush=True)
        ok &= res["correct"]
        for name, v in res["metrics"].items():
            values[name].append(v["value"])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        steady = spread <= m["bound"]
        verdict = "" if steady else "  TOO WIDE"
        base = first.setdefault((workload, m["name"]), med)
        if base != med:
            worse = med - base if m["better"] == "lower" else base - med
            drift = worse / base
            verdict += f"  vs set 1 {drift:+.3f}"
            if drift > m["bound"]:
                steady = False
                verdict += " WORSE"
        ok &= steady and med != 0
        print(f"  set {n + 1} {workload:17s} {m['name']:15s} median "
              f"{med:12.6g} {m['unit']:5s} spread {spread:6.3f} (bound "
              f"{m['bound']}, a third {m['bound'] / 3:.3f}){verdict}",
              flush=True)
    return ok


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,9001")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    ok = True
    first = {}  # (workload, metric) -> median of the first set
    for n in range(args.sets):
        for workload in args.workloads.split(","):
            ok &= check_set(spec, workload, seeds, n, first)
    if args.trace:
        for workload in args.workloads.split(","):
            res = run(workload, seeds[-1], spec["run_seconds"], True)
            equal = res["metrics"]["trace.bitwise_equal"]["value"] == 1
            print(f"  {workload:17s} traced run correct={res['correct']} "
                  f"StepResults bitwise equal={equal}", flush=True)
            ok &= res["correct"] and equal
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
