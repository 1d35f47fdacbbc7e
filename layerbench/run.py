#!/usr/bin/env python3
"""Layered benchmark for the mparch campaign stack.

Builds the benchmark binary (layerbench.cc plus the library sources of
the enclosing checkout) into .bench_build/, runs one workload and
prints one JSON result line as the last line of standard output:

    python3 layerbench/run.py --workload campaign_mxm --seed 3 \
        --seconds 45 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (and writes a Chrome trace under .bench_build/).
Every output digest is compared with references.json; a mismatch makes
the result incorrect and the exit code 1. See README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "layerbench")
BINARY = os.path.join(BUILD, "layerbench")
REFERENCES = os.path.join(HERE, "references.json")
BASELINE = os.path.join(HERE, "baseline.json")

WORKLOADS = ("campaign_mxm", "campaign_lowp", "scorecard")
CAMPAIGN_WORKLOADS = ("campaign_mxm", "campaign_lowp")
SEED_CLASSES = 16  # layerbench.cc reduces every seed modulo this
SETUP_PROCESSES = 15
SEGMENTS = 5
CHILD_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally, under a file lock."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", BUILD, "--target", "layerbench",
             "-j", str(os.cpu_count() or 1)],
            stdout=sys.stderr, check=True)


def run_binary(args, *extra):
    """Run the benchmark binary once; its stdout is one JSON document."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--scratch", args.scratch, *extra]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb:
        cmd.append("--perturb")
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                         timeout=CHILD_TIMEOUT_S, text=True)
    return json.loads(out.stdout)


def reference_for(refs, workload, seed_class, op_name):
    if op_name.startswith("experiment:"):
        return refs.get("scorecard", {}).get(op_name)
    return refs.get(workload, {}).get(str(seed_class), {}).get(op_name)


def check_ops(result, refs):
    """(attempted, failed): failed ops are refused/poisoned/inconsistent
    runs and outputs whose digest differs from the reference."""
    failed = 0
    for op in result["ops"]:
        want = reference_for(refs, result["workload"],
                             result["seed_class"], op["name"])
        if not op["ok"] or want != op["digest"]:
            failed += 1
            log(f"output check failed: {op['name']}: digest "
                f"{op['digest']}, reference {want}, ok={op['ok']}")
    return len(result["ops"]), failed


def setup_times(args, count):
    return [run_binary(args, "--mode", "setup")["setup_s"]
            for _ in range(count)]


def measure(args, spec):
    with open(REFERENCES) as f:
        refs = json.load(f)
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")
        result = run_binary(args, "--mode", "trace",
                            "--trace-file", trace_file)
        log(f"trace written to {trace_file}")
        values = result["metrics"]
        wanted = spec["per_layer"]
    else:
        # The run is cut into segments with set-up processes between
        # them, so that the set-up samples are spread over the whole run
        # and one slow stretch of the host moves few of them. Every
        # repetition of a step is in normalised CPU seconds (see
        # README.md); pass_cpu_s sums each step's median over the run.
        segments, per_segment = (1, 1) if args.tiny else \
            (SEGMENTS, SETUP_PROCESSES // SEGMENTS)
        setups, reps, rss, ops = [], None, 0.0, []
        for _ in range(segments):
            setups += setup_times(args, per_segment)
            result = run_binary(args, "--mode", "run", "--seconds",
                                str(args.seconds / segments))
            steps = result["step_seconds"]
            reps = steps if reps is None else \
                [a + b for a, b in zip(reps, steps)]
            rss = max(rss, result["metrics"]["peak_rss_mb"])
            ops += result["ops"]
        result["ops"] = ops
        values = {"setup_s": statistics.median(setups),
                  "pass_cpu_s": sum(statistics.median(r) for r in reps),
                  "peak_rss_mb": rss}
        wanted = spec["end_to_end"]
    attempted, failed = check_ops(result, refs)
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise SystemExit(f"layerbench did not report {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]],
                              "unit": m["unit"]}
    return result, {"correct": failed == 0, "attempted": attempted,
                    "failed": failed, "metrics": metrics}


def record_references(args):
    """Store the digests of one pass per workload and seed class."""
    refs = {}
    for workload in WORKLOADS:
        classes = range(SEED_CLASSES) if workload in CAMPAIGN_WORKLOADS \
            else [0]
        for seed_class in classes:
            args.workload, args.seed = workload, seed_class
            result = run_binary(args, "--mode", "run", "--seconds", "0")
            for op in result["ops"]:
                if not op["ok"]:
                    raise SystemExit(f"{op['name']} did not run cleanly")
                if op["name"].startswith("experiment:"):
                    refs.setdefault("scorecard", {})[op["name"]] = \
                        op["digest"]
                else:
                    refs.setdefault(workload, {}).setdefault(
                        str(seed_class), {})[op["name"]] = op["digest"]
            log(f"recorded {workload} seed class {seed_class}")
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def record_baseline(args, spec):
    """Store one untraced and one traced run of every workload."""
    baseline = {"seed": args.seed, "seconds": args.seconds,
                "workloads": {}}
    for workload in WORKLOADS:
        args.workload = workload
        entry = {}
        for trace in (0, 1):
            args.trace = trace
            result, line = measure(args, spec)
            if not line["correct"]:
                raise SystemExit(f"{workload}: output check failed")
            baseline["host"] = result["host"]
            entry["per_layer" if trace else "end_to_end"] = {
                k: v["value"] for k, v in line["metrics"].items()}
        baseline["workloads"][workload] = entry
        log(f"baseline for {workload} recorded")
    with open(BASELINE, "w") as f:
        json.dump(baseline, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="short probes and one set-up (self-test)")
    parser.add_argument("--perturb", action="store_true",
                        help="hash a perturbed copy of the first output "
                             "(the output check must then fail)")
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite references.json from this build")
    parser.add_argument("--record-baseline", action="store_true",
                        help="rewrite baseline.json from this build")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (args.workload or args.record_references
            or args.record_baseline):
        parser.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    args.scratch = os.path.join(ROOT, ".bench_build", "scratch",
                                f"run-{os.getpid()}")
    os.makedirs(args.scratch, exist_ok=True)
    try:
        if args.record_references:
            record_references(args)
            return 0
        if args.record_baseline:
            record_baseline(args, spec)
            return 0
        _, line = measure(args, spec)
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
