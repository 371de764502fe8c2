#!/usr/bin/env python3
"""Builds and runs the ISEGEN benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark package and the `ised` daemon in release mode into
$CARGO_TARGET_DIR (default `.bench_build` under the repository root),
prints the provenance of the build, then runs one workload. The last line
of standard output is the result JSON. Exits non-zero, without a result,
when the build fails.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_suite", "huge_single", "huge_multilevel", "ised_mixed")
# The benchmark bounds its own run; this only catches a hang.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(env, manifest, *extra):
    if not os.path.isfile(manifest):
        fail(f"missing {os.path.relpath(manifest, ROOT)}: not a full checkout")
    cmd = ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", manifest]
    done = subprocess.run(cmd + list(extra), cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"build of {os.path.relpath(manifest, ROOT)} failed")


def output(*cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "vendor", "src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "target")
            paths += [os.path.join(base, f) for f in files if f.endswith((".rs", ".toml"))]
    for path in sorted(paths):
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def provenance(args):
    commit = output("git", "rev-parse", "HEAD")
    status = output("git", "status", "--porcelain") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "source_digest": source_digest(),
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "rustc": output("rustc", "--version"),
        "profile": "release",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env, os.path.join(HERE, "Cargo.toml"))
    build(env, os.path.join(ROOT, "Cargo.toml"), "-p", "isegen-serve", "--bin", "ised")

    print("provenance " + json.dumps(provenance(args), sort_keys=True), flush=True)
    cmd = [
        os.path.join(target, "release", "isegen-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--ised", os.path.join(target, "release", "ised"),
    ]
    # Its own process group, so a hang takes the `ised` child down too.
    bench = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
