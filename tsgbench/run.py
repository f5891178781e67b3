#!/usr/bin/env python3
"""End-to-end benchmark of tsg_serve: build from this tree, then run one workload.

Usage (from the repository root):

    python3 tsgbench/run.py --workload {interactive,batch,jobs} --seed N \
        --seconds S --trace {0,1}

The build goes to $CARGO_TARGET_DIR/tsgbench (default .bench_build/tsgbench,
relative to the repository root); scratch files, traces and per-run result
files go next to it.  The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
machine descriptor.  A failed build or run exits non-zero without a result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("interactive", "batch", "jobs")


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def run_quiet(cmd, env, timeout):
    """Runs a build step; on failure echoes its output to stderr."""
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("tsgbench: build step timed out: %s\n" % " ".join(cmd))
        return False
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        sys.stderr.write("tsgbench: build step failed: %s\n" % " ".join(cmd))
    return proc.returncode == 0


def build(out, env):
    """Configures (once) and builds tsg_bench + tsg_serve; returns the build dir."""
    build_dir = os.path.join(out, "tsgbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"], env, 60):
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", build_dir, "--target", "tsg_bench",
                      "-j", jobs], env, 660):
        return None
    return build_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", type=int, default=0,
                    help="fixed requests per client; print the determinism record")
    args = ap.parse_args()

    out = build_root()
    tmp = os.path.join(out, "tmp")  # keep compiler temporaries inside the checkout
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    build_dir = build(out, env)
    if build_dir is None:
        return 2
    cmd = [os.path.join(build_dir, "tsg_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(out, "work")]
    if args.selfcheck:
        cmd += ["--selfcheck", str(args.selfcheck)]
    try:
        return subprocess.run(cmd, env=env, timeout=170, check=False).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("tsgbench: the run exceeded 170 s\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
