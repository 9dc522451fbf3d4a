#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds perfbench/ (the goldfish library from src/ plus the goldfish_perf
measuring program) into .bench_build/perfbench, runs one workload with its
fixed thread count, echoes the program's report, and prints as its last line
one JSON object with the keys correct, attempted, failed and metrics: every
end-to-end metric of BENCHMARK.json untraced (--trace 0), every per-layer
metric traced (--trace 1). The traced run also writes a Chrome trace-event
file under .bench_build/perfbench/traces/.

Exits non-zero without a result line when the sources are missing, the
build fails, the program fails, or a metric BENCHMARK.json names is absent.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
EXE = BUILD / "goldfish_perf"
# Each workload is one process with a fixed thread count (GOLDFISH_THREADS
# sizes the library's global scheduler before anything runs). The
# population workload's sub-millisecond steps are bound by thread wake-ups:
# on a 4-vCPU VM, two busy co-tenant loops moved its step_p50_ms by +65% at
# 4 threads and by +4% at 2, with the same throughput, so it runs at 2.
THREADS = {"unlearn-mlp": 4, "unlearn-conv": 4, "train-population": 2}
BUILD_JOBS = 4
# Per-layer metrics of layers a workload does not exercise; a traced run
# reports them as 0. Any other per-layer metric the program does not
# measure is an error.
POPULATION_ONLY = {
    "fl.first_step_ms", "fl.commit_ms", "fl.dropped_ratio",
    "fl.population.materializations_per_step",
    "fl.population.peak_resident_bytes", "fl.population.cold_bytes",
    "fl.population.unique_snapshots", "fl.population.snapshot_bytes",
    "fl.population.self_s",
}
UNLEARN_ONLY = {
    "core.unlearner_build_s", "core.teacher_copy_s", "core.reference_loss_s",
    "core.distill_s", "core.client_task_max_s", "core.distill_rows_per_s",
    "core.epochs_per_request", "core.early_stop_ratio", "core.self_s",
    "fl.round_s", "fl.server_s", "baselines.retrain_round_s",
    "baselines.self_s", "metrics.asr_probe_s",
}
NOT_EXERCISED = {
    "unlearn-mlp": POPULATION_ONLY,
    "unlearn-conv": POPULATION_ONLY,
    "train-population": UNLEARN_ONLY,
}
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "core" / "unlearner.h").is_file():
        print("perfbench: goldfish sources (src/) not found next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(BUILD_JOBS)])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=840).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]] or \
            args.workload not in THREADS:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    env = dict(os.environ, GOLDFISH_THREADS=str(THREADS[args.workload]))
    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(traces)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines) + "\n")
        fail(f"goldfish_perf exited with {proc.returncode}")
    print("\n".join(lines[:-1]))
    raw = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None and args.trace and m["name"] in NOT_EXERCISED[
                args.workload]:
            got = {"value": 0, "unit": m["unit"]}
        if got is None or got["value"] is None:
            fail(f"metric {m['name']} missing from {args.workload}")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
