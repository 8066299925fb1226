#!/usr/bin/env python3
"""End-to-end AO-ADMM benchmark entry point.

    python3 perfbench/run.py --workload o3-hypersparse --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout. Builds perfbench/ (the library plus
the benchmark driver, Release) under .bench_build/, writes the workload's
seeded inputs as .tns files outside any timed region, runs the workload in
one process, and prints its JSON result as the last line of stdout. See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["o3-hypersparse", "o3-sharded", "completion-masked",
             "stream-replay"]
BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 120
RUN_TIMEOUT_S = 150
# Generated inputs kept per input kind; older seeds are deleted.
KEEP_INPUTS = 6


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log, timeout):
    with open(log, "ab") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout)
    if proc.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"{cmd[0]} {cmd[1]} failed with code {proc.returncode}")


def build(root, build_dir):
    log = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", str(root / "perfbench"), "-B",
                    str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                   log, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(build_dir), "--target", "perfbench",
                "-j", jobs], log, BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def source_id(root):
    """Commit when the checkout is a git work tree, else a digest of the
    library and benchmark sources."""
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and Path(lines[0]).resolve() == root:
            return lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((root / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(root)).encode())
                h.update(p.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def prune_inputs(input_dir):
    kinds = {}
    for p in input_dir.glob("*-seed*.tns"):
        kinds.setdefault(p.name.split("-seed")[0], []).append(p)
    for files in kinds.values():
        files.sort(key=lambda p: p.stat().st_mtime, reverse=True)
        for old in files[KEEP_INPUTS:]:
            old.unlink(missing_ok=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or \
            not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {root}; run from a source checkout")

    bench_root = root / ".bench_build"
    exe = build(root, bench_root / "perfbench")
    log = bench_root / "perfbench" / "run.log"

    run_logged([str(exe), "selftest"], log, GEN_TIMEOUT_S)

    input_dir = bench_root / "inputs"
    run_logged([str(exe), "gen", "--workload", args.workload,
                "--seed", str(args.seed), "--dir", str(input_dir)],
               log, GEN_TIMEOUT_S)
    prune_inputs(input_dir)

    work = bench_root / "work" / f"{args.workload}-seed{args.seed}"
    cmd = [str(exe), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--inputs", str(input_dir),
           "--work", str(work), "--commit", source_id(root)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or \
            result["attempted"] < 1:
        fail("malformed result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
