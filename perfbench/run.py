#!/usr/bin/env python3
"""End-to-end benchmark of lumen: builds lumen_perfbench from source, runs one
workload, and passes its report through.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root.  lumen_perfbench and the lumen libraries it links
are built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench).  The last line of standard output is the JSON
result; the exit code is non-zero when the build fails, when a correctness
check fails, or when the result is malformed.  --self-test runs every
workload at a tiny size, checks that each reports exactly the metrics and
units BENCHMARK.json names, and checks that a deliberately corrupted
expected cost makes the run fail.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Workloads lumen_perfbench runs that BENCHMARK.json does not gate (see
# README.md); the self-test covers them too.
UNGATED_WORKLOADS = ["svc-backbone"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds lumen_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no lumen sources under {ROOT}/src: run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step(["cmake", "--build", out, "--target", "lumen_perfbench", "-j", jobs])
    return os.path.join(out, "lumen_perfbench")


def step(command):
    # Build output goes to stderr: stdout's last line is the result.
    done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build step failed: {' '.join(command)}")


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as source:
                    digest.update(source.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run(binary, args):
    """Runs lumen_perfbench; returns (exit code, stdout, result or None)."""
    try:
        done = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, "", None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        result = None
    return done.returncode, done.stdout, result


def benchmark(args):
    binary = build()
    command = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit_id()]
    if args.trace:
        command += ["--spans-out",
                    os.path.join(build_dir(), f"spans-{args.workload}.tsv")]
    code, stdout, result = run(binary, command)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if result is None:
        print("perfbench: no well-formed result line", file=sys.stderr)
        return 1
    return code


def self_test():
    """Tiny runs of every workload: metric names and units, and a tripped
    check on a corrupted expected cost."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    binary = build()
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in ([w["name"] for w in spec["workloads"]] +
                     UNGATED_WORKLOADS):
        known = len(problems)
        base = ["--workload", workload, "--seed", "7", "--seconds", "1",
                "--tiny"]
        for trace in (0, 1):
            code, stdout, result = run(binary, base + ["--trace", str(trace)])
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None or result["correct"] is not True:
                problems.append(f"{label}: failed (exit {code})\n{stdout}")
                continue
            units = {name: metric.get("unit")
                     for name, metric in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{label}: metrics {units} != {expected[trace]}")
            if result["attempted"] < 1:
                problems.append(f"{label}: nothing attempted")
        code, stdout, result = run(binary,
                                   base + ["--trace", "0", "--corrupt"])
        if code == 0 or result is None or result["correct"] is not False \
                or result["failed"] < 1 or "check FAILED" not in stdout:
            problems.append(f"{workload}: corrupted expected cost was not caught")
        print(f"self-test {workload}: "
              f"{'ok' if len(problems) == known else 'FAILED'}")
    for problem in problems:
        print(problem)
    print("self-test:", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
