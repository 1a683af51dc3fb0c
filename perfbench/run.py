#!/usr/bin/env python3
"""Builds and runs one workload of the repo benchmark.

    python3 perfbench/run.py --workload batch_knn --seed 0 --seconds 10 --trace 0

Run from the root of an rtnn checkout. The first run configures and builds
perfbench/ (and the library it links) into .bench_build/perfbench; later
runs rebuild incrementally. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where metrics are
the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). Everything else the run prints comes first.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "rtnn_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "rtnn_perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        return fail(f"{ROOT} is not an rtnn checkout (no CMakeLists.txt and src/)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload}")
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        return fail(f"build failed: {e}")
    state = os.path.join(BUILD, "state")
    os.makedirs(state, exist_ok=True)
    env = dict(os.environ)
    sha = env.get("RTNN_GIT_SHA") or git_sha()
    if sha:
        env["RTNN_GIT_SHA"] = sha

    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--state-dir", state],
            stdout=subprocess.PIPE, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    sys.stdout.flush()
    if result is None:
        return fail(f"{args.workload} exited {proc.returncode} without a result")
    missing = [name for name in wanted if name not in result]
    if missing:
        return fail(f"{args.workload} did not report {', '.join(missing)}")

    mismatches = int(result["run.mismatches"]["value"])
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": int(result["run.attempted"]["value"]),
        "failed": int(result["run.failed"]["value"]),
        "metrics": {name: result[name] for name in wanted},
    }))
    return 0 if proc.returncode == 0 and mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
