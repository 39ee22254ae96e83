#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The msql library and the perfbench binary are compiled from the checkout's
sources into the build directory ($CARGO_TARGET_DIR, else .bench_build).
Build output goes to stderr. The binary's report and, as the last line of
stdout, its JSON result are passed through unchanged. Exits non-zero, with
no result line, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

WORKLOADS = ("adhoc_measures", "dashboard_refresh")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(bench_dir, build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def commit_of(root):
    if not (root / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(root):
    """SHA-256 over the library sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = pathlib.Path.cwd()
    bench_dir = pathlib.Path(__file__).resolve().parent
    if not (root / "src" / "engine" / "engine.h").exists():
        fail("run from the root of an msql checkout (no src/ here)")
    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    binary = build(bench_dir, build_dir)
    out_dir = build_dir / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir),
           "--commit", commit_of(root), "--source-digest", source_digest(root)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("run failed with exit code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
