#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to _build/ (the dune
cache is disabled, so nothing is written outside the checkout), its log
to stderr. The benchmark's own stdout passes through: its last line is
the JSON result. Exits non-zero without a result when the build fails,
for instance in a directory that holds only the benchmark.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: no dune on PATH")


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it with every process it
    started and wait for it to end."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: {cmd[0]} timed out after {timeout} s")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = dune() + ["build", "--root", ROOT, "--display", "quiet", "./perfbench/main.exe"]
    if run(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr) != 0:
        sys.exit("perfbench: build failed")
    sys.stdout.flush()
    sys.exit(run([EXE] + sys.argv[1:], RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
