#!/usr/bin/env python3
"""Builds the Youtopia benchmark from source and runs one workload.

Usage, from the repository root:
  python3 ytbench/run.py --workload <browse_book|coordinate|book_durable> \
      --seed <n> --seconds <s> --trace <0|1>

The engine and the benchmark driver are built into .bench_build/ at the
repository root (configured on first use, rebuilt incrementally after).
Build output goes to standard error; the driver's last line of standard
output is one JSON object with the run's metrics. A run spoiled by CPU
steal on the host prints no result and is made again, for up to 90 s;
if the last attempt is spoiled too, the command exits non-zero.
"""

import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Configures (once) and builds the ytbench target; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "ytbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                check=False)
        if result.returncode != 0:
            print("ytbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


# Exit code of a run that CPU steal on the host spoiled (see README.md).
INVALID_RUN = 3
# No attempt starts later than this after the first; one attempt takes
# under 70 s, so the command ends within 180 s.
RETRY_WINDOW_S = 90


def main():
    if not build():
        return 1
    binary = os.path.join(BUILD, "ytbench")
    cmd = [binary] + sys.argv[1:] + ["--out-dir", BUILD]
    # A spoiled run prints no result; it is made again, from scratch.
    give_up_at = time.monotonic() + RETRY_WINDOW_S
    while True:
        sys.stdout.flush()
        code = subprocess.run(cmd, check=False).returncode
        if code != INVALID_RUN or time.monotonic() > give_up_at:
            return code


if __name__ == "__main__":
    sys.exit(main())
