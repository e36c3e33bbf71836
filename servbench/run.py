#!/usr/bin/env python3
"""Build dbpl and the benchmark harness from source, then run the harness.

Run from the root of a checkout:

    python3 servbench/run.py --workload reach_point --seed 1 --seconds 20 --trace 0

Every argument is passed to the harness (servbench/main.ml); its last line
of standard output is the JSON result.  The server and the harness run
without DC_DOMAINS or DC_METRICS, so both use their defaults.
"""
import os
import subprocess
import sys


def main():
    for needed in ("dune-project", "bin/dbpl.ml", "servbench/main.ml"):
        if not os.path.exists(needed):
            sys.exit(f"servbench: {needed} not found; run from the root of a checkout")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./bin/dbpl.exe", "./servbench/main.exe"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stderr)
        sys.exit("servbench: build failed")
    env = {k: v for k, v in os.environ.items() if k not in ("DC_DOMAINS", "DC_METRICS")}
    harness = "_build/default/servbench/main.exe"
    args = [harness, "--dbpl", "_build/default/bin/dbpl.exe", "--work", ".servbench_run"]
    os.execve(harness, args + sys.argv[1:], env)


if __name__ == "__main__":
    main()
