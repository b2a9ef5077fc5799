#!/usr/bin/env python3
"""Builds and runs the end-to-end simulator benchmark.

Usage (from the repository root):
  python3 e2ebench/run.py --workload fleet_steady --seed 1 --seconds 10 --trace 0
  python3 e2ebench/run.py --smoke

The first run configures and builds e2ebench/ (the library is compiled from
src/) into .bench_build/; later runs only rebuild what changed. Build output
goes to stderr, so the benchmark's stdout ends with its one-line JSON result.
Traced runs (--trace 1) also write their frame spans to .bench_build/spans/.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2ebench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
WORKLOADS = ("fleet_steady", "fleet_giant_churn", "device_apps")


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "e2e_bench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                         text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """Identifies the measured code when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's own smoke test instead")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulator.h")):
        print("run.py: the simulator sources (src/) are not in this checkout", file=sys.stderr)
        return 2
    if not build():
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 2

    if args.smoke:
        return subprocess.run([BINARY, "--smoke"]).returncode
    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--source-digest", source_digest(),
           "--spans-dir", spans_dir]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
