#!/usr/bin/env python3
"""FUSE benchmark: build the simulator from this checkout, run one workload,
check its outputs, and print its metrics as one JSON line, the last line of
standard output.

    python3 perfbench/run.py --workload headline --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 splits
the time between an untraced run that also times each src/ layer and a run
of the FUSE_PROF build that counts work, and prints the per-layer metrics.
The exit code is non-zero when a correctness check fails. README.md in this
directory describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("headline", "compute_sram", "serve_dse")
# Processes whose set-up time is measured, the timed one included.
SETUP_SAMPLES = 11
# Wall-clock budget of everything after the build.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "sim" / "simulator.hh").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(min(os.cpu_count() or 1, 4))])
    log = BUILD / "build.log"
    with open(log, "w") as out:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                out.flush()
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed", 3)


class Runner:
    """Spawns the measuring program; each call writes one raw record."""

    def __init__(self, args, scratch):
        self.args = args
        self.scratch = scratch
        self.calls = 0
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        for name in ("FUSE_FAST", "FUSE_THREADS"):
            self.env.pop(name, None)

    def __call__(self, binary, mode, seconds):
        self.calls += 1
        out = self.scratch / f"{mode}-{self.calls}.json"
        cmd = [str(BUILD / binary), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", str(seconds),
               "--mode", mode, "--out", str(out),
               "--scratch", str(self.scratch / "work")]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, env=self.env,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"{binary} --mode {mode} overran the time budget", 4)
        if done.returncode != 0:
            fail(f"{binary} --mode {mode} exited with {done.returncode}", 4)
        with open(out) as f:
            return json.load(f)


def merge_failures(*records):
    """Sum the failure inputs of several records into one."""
    merged = {"points": 0, "invalid_runs": 0, "serve_failures": 0,
              "serve_retries": 0, "checks": {}}
    for raw in records:
        for key in ("points", "invalid_runs", "serve_failures",
                    "serve_retries"):
            merged[key] += raw[key]
        merged["checks"].update(raw["checks"])
    return merged


def untraced(run, seconds, claims):
    raw = run("perfbench", "measure", seconds)
    setups = [raw["setup_s"]]
    setups += [run("perfbench", "setup", seconds)["setup_s"]
               for _ in range(SETUP_SAMPLES - 1)]
    comparison = stats.paper_comparison(raw["fidelity"], claims)
    metrics, details = stats.end_to_end(raw, setups, comparison)
    return raw, merge_failures(raw), metrics, details, comparison


def traced(run, seconds, claims):
    half = max(1.0, seconds / 2.0)
    raw = run("perfbench", "trace", half)
    counts = run("perfbench_prof", "counts", half)
    # The counting build must simulate exactly what the shipped one does.
    counts["checks"] = {
        "prof_build_same_outputs": counts["sim_digest"] == raw["sim_digest"]}
    comparison = stats.paper_comparison(raw["fidelity"], claims)
    metrics = dict(raw["layers"])
    metrics.update(counts["layers"])
    for name in ("ipc_speedup", "offchip_reduction", "energy_reduction",
                 "gap_offchip_reduction"):
        metrics[f"paper.{name}"] = comparison[name]
    metrics["trace_overhead_pct"] = stats.trace_overhead_pct(raw, counts)
    details = {"trace_overhead_pct": {
        "untraced_points": raw["points"], "traced_points": counts["points"]}}
    return raw, merge_failures(raw, counts), metrics, details, comparison


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "paper_reference.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    scratch = BUILD / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        run = Runner(args, scratch)
        measure = traced if args.trace else untraced
        raw, failures, metrics, details, comparison = measure(
            run, args.seconds, reference["claims"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
             f"BENCHMARK.json's {section}")
    attempted, failed = stats.failure_accounting(failures)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "workers": raw["workers"],
        "passes": raw["passes"], "sim_digest": raw["sim_digest"],
        "host": {"nproc": raw["nproc"],
                 "hardware_concurrency": raw["hardware_concurrency"],
                 "parallel_capacity": raw["capacity"]},
        "paper": {"measured": comparison, "reference": reference},
        "checks": failures["checks"], "details": details, "result": result,
    }
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed} workers "
          f"{raw['workers']} passes {raw['passes']}")
    print(f"sim_digest {raw['sim_digest']} (FNV-1a of the writeJson export; "
          "informational)")
    print("host nproc {} hardware_concurrency {} parallel capacity {}".format(
        raw["nproc"], raw["hardware_concurrency"],
        " ".join(f"{c:.2f}" for c in raw["capacity"])))
    print("paper ipc_speedup {ipc_speedup:.4f} offchip_reduction "
          "{offchip_reduction:.4f} energy_reduction {energy_reduction:.4f}"
          .format(**comparison))
    for check, ok in failures["checks"].items():
        print(f"check {check}: {'ok' if ok else 'FAILED'}")
    for metric, extra in details.items():
        print(f"{metric}: {json.dumps(extra)}")
    print(f"details in {results / name}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
