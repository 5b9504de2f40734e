#!/usr/bin/env python3
"""The repository benchmark: builds libsskel and the workload driver from
source, runs one workload, checks its outputs and prints its metrics.

    python3 skbench/run.py --workload campaign-n4 --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It builds into .bench_build (or
$CARGO_TARGET_DIR) and keeps run artifacts in .bench_build/out. With
--trace 0 the result carries the end-to-end metrics of the timed run;
with --trace 1 it carries the per-layer metrics of the single-thread
traced replay (BENCHMARK.json lists both, README.md explains them).
--workload all runs every workload once. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit status is 0 when every checked output was correct,
1 when some check failed, and 2 when nothing could be measured.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402

WORKLOADS = ("campaign-n4", "campaign-psrcs32", "net-e11", "scale-16k")
BINARY = "sskel_perfbench"
RUN_TIMEOUT_S = 170


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(directory):
    """Configures (once) and builds the driver; returns its path or None.
    Build output goes to stderr so stdout stays the result stream."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    # A configure that failed leaves a cache but no build files.
    if not any((directory / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(directory),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(directory), "--target", BINARY,
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            return None
    return directory / BINARY


def contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(binary, out_dir, workload, args):
    """Runs one workload; returns (exit status, final record or None)."""
    command = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(out_dir)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2, None
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        return 2, None
    raw = json.loads(lines[-1])

    spec = contract()
    if args.trace:
        derived = analysis.layer_metrics(analysis.read_spans(raw["spans_file"]))
        measured = {**{k: (v["value"], v["unit"]) for k, v in raw["layers"].items()},
                    **derived}
        wanted = spec["per_layer"]
    else:
        measured = {k: (v["value"], v["unit"]) for k, v in raw["metrics"].items()}
        wanted = spec["end_to_end"]
    # A layer the workload never crosses reads 0 (README.md lists which
    # workload each metric is meant for).
    metrics = {m["name"]: {"value": measured.get(m["name"], (0.0,))[0],
                           "unit": m["unit"]} for m in wanted}
    record = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}

    with open(out_dir / f"result-{workload}-{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump({**record, "workload": workload, "seed": args.seed,
                   "host": raw["host"], "failures": raw["failures"]},
                  handle, indent=1)
    print(json.dumps({"workload": workload, "host": raw["host"],
                      "failures": raw["failures"]}))
    for name, metric in metrics.items():
        print(f"{workload}  {name} = {metric['value']:.6g} {metric['unit']}")
    for name, (value, unit) in measured.items():
        if name not in metrics:
            print(f"{workload}  {name} = {value:.6g} {unit} (not in BENCHMARK.json)")
    print(f"{workload}  failed = {raw['failed']} of {raw['attempted']} "
          "operations")
    return (0 if raw["failed"] == 0 else 1), record


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    directory = build_dir()
    binary = build(directory)
    if binary is None:
        print("build failed", file=sys.stderr)
        return 2
    out_dir = directory / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    status = 0
    for workload in (WORKLOADS if args.workload == "all" else
                     (args.workload,)):
        code, record = run_workload(binary, out_dir, workload, args)
        if record is None:
            print(f"{workload}: no result (status {code})", file=sys.stderr)
            return 2
        status = max(status, code)
        print(json.dumps(record), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
