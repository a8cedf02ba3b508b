#!/usr/bin/env python3
"""Build and run the end-to-end DwV design benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload acc-design --seed 1 --seconds 20 --trace 0

The arguments go to perfbench/main.exe unchanged; see main.ml for what it
measures. The last line of standard output is the JSON result. The
benchmark is built from source with dune (user cache off, so nothing is
written outside the checkout).
"""

import os
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a dwv checkout "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
