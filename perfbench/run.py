#!/usr/bin/env python3
"""Build the fbbench program from source and run one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ledger|wiki|replicated_kv \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (engine sources from src/)
in Release mode under the build directory: $CARGO_TARGET_DIR when set,
else .bench_build, relative to the repository root. Build output goes to
stderr. fbbench's report goes to stdout; its last line is the JSON
result object. Exits non-zero, without a result line, when the build or
the run fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ledger", "wiki", "replicated_kv")
RUN_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def source_id():
    """Commit id when the tree is a git checkout, else a source digest."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 env=env)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(bdir):
    cmake_dir = os.path.join(bdir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    exe = os.path.join(cmake_dir, "fbbench")
    return exe if os.path.isfile(exe) else None


def main():
    args = parse_args()
    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(bdir, "work"), "--commit", source_id()]
    # fbbench runs each round in a child process; its own process group
    # lets a timeout stop the round processes too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if proc.returncode != 0 or not ok:
        sys.stderr.write(stdout)
        print("perfbench: fbbench exited %d without a result" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
