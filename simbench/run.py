#!/usr/bin/env python3
"""Build and run the repo benchmark (simbench).

    python3 simbench/run.py --workload rbtree --seed 1 --seconds 20 --trace 0
    python3 simbench/run.py --workload all --seed 1 --seconds 20

Builds the driver from source on first use (CMake, into $CARGO_TARGET_DIR
or .bench_build), then runs it. For one workload the driver's last stdout
line is the result JSON. `--workload all` runs every workload and prints
one table of the end-to-end metrics with units and sample counts. The exit
code is nonzero when the build fails or any output check fails.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["rbtree", "replay_churn", "server_open", "stamp_planes"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"simbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "simbench")


def build():
    """Configures once, then brings the driver up to date. Returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no tmx sources under {ROOT}/src; run from a full checkout")
        return None
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "simbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "simbench")


def run_one(binary, workload, args):
    """Runs the driver once; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        spans = os.path.join(build_dir(), f"spans-{workload}-{args.seed}.json")
        cmd += ["--spans-out", spans]
        log(f"spans -> {spans}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def tagged(lines, tag):
    for line in lines:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    return {}


def run_all(binary, args):
    rows = []
    status = 0
    for w in WORKLOADS:
        code, lines = run_one(binary, w, args)
        status = status or code
        if not lines:
            status = status or 1
            continue
        result = json.loads(lines[-1])
        summary = tagged(lines, "summary")
        for name, m in result["metrics"].items():
            rows.append((w, name, m["value"], m["unit"], summary))
        attempted = result["attempted"]
        rows.append((w, "failed_frac", result["failed"] / attempted, "fraction",
                     {"reps": attempted}))
    print(f"{'workload':<14} {'metric':<32} {'value':>16} {'unit':<9} samples")
    for w, name, value, unit, summary in rows:
        if name == "rep_ms_p90":
            note = f"n={summary.get('reps')} reps, p50={summary.get('rep_ms_p50'):.3f} ms"
        elif name == "setup_s":
            note = f"median of {summary.get('setups')} set-ups"
        elif name == "peak_rss_mb":
            note = "largest of the driver and rep processes"
        else:
            note = f"n={summary.get('reps')} reps"
        print(f"{w:<14} {name:<32} {value:>16.6g} {unit:<9} {note}")
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the self-test")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 1
    if args.workload == "all":
        return run_all(binary, args)
    code, lines = run_one(binary, args.workload, args)
    for line in lines:
        print(line)
    return code if lines else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
