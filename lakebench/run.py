#!/usr/bin/env python3
"""Builds the lakehouse benchmark from source and runs one workload.

Run from the repository root:

    python3 lakebench/run.py --workload local-jpeg-epochs --seed 1 \\
        --seconds 10 --trace 0

The first call configures and compiles the library and the benchmark into
$CARGO_TARGET_DIR (default .bench_build); later calls only rebuild what
changed. Build output goes to stderr. The benchmark's standard output is
passed through: its last line is the JSON result. The traced run
(--trace 1) also writes its spans to the build directory.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout
    and always waits for it. Returns the exit code (None on timeout)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def source_rev():
    """The git revision when ROOT is a git checkout, else a hash of the
    sources."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if (out.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("src", os.path.basename(HERE)):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha1:" + digest.hexdigest()


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs,
              "--target", "lakebench"]]
    for step in steps:
        code = run(step, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            print("lakebench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 1
    env = dict(os.environ, LAKEBENCH_SOURCE_REV=source_rev())
    cmd = [os.path.join(build_dir, "lakebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", build_dir]
    sys.stdout.flush()
    code = run(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env)
    if code is None:
        print("lakebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
