#!/usr/bin/env python3
"""Build and run the mcio host wall-clock benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark crate beside this
script (into $CARGO_TARGET_DIR, default `.bench_build`), runs one
workload in a fresh process, and prints two JSON lines: the host record
(machine, toolchain, commit, seed, warm-up), then the result
`{"correct", "attempted", "failed", "metrics"}` as the last line.
Exits non-zero without a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "mcio-perfbench")


def read_field(path, key):
    try:
        with open(path) as f:
            for line in f:
                name, _, value = line.partition(":")
                if name.strip() == key:
                    return value.strip()
    except OSError:
        pass
    return "unknown"


def command_output(cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_commit():
    # Only a repository rooted here counts; a checkout nested in some
    # other repository has no commit of its own.
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath("."):
        return "unknown (not a git checkout)"
    commit = command_output(["git", "rev-parse", "HEAD"]) or "unknown"
    if command_output(["git", "status", "--porcelain"]):
        commit += "-dirty"
    return commit


def host_record():
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": read_field("/proc/cpuinfo", "model name"),
        "mem_total": read_field("/proc/meminfo", "MemTotal"),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "commit": git_commit(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    except OSError as e:
        fail(f"cannot start {binary}: {e}")
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"run failed with exit code {proc.returncode}")

    lines = out.strip().splitlines()
    try:
        run = json.loads(lines[-2])["run"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError) as e:
        fail(f"unreadable benchmark output: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys: {sorted(result)}")
    print(json.dumps({"host": {**host_record(), **run}}))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
