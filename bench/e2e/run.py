#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run it.

    python3 bench/e2e/run.py --workload pgo --seed 1 --seconds 20 --trace 0

Run from the repository root.  The dune build writes its output to
stderr, so the benchmark's last stdout line stays its JSON result; the
benchmark's exit code is returned (nonzero when the build fails).
"""

import os
import shutil
import subprocess
import sys


def main():
    dune = shutil.which("dune")
    if dune is None:
        sys.stderr.write("run.py: dune not found on PATH\n")
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "./bench/e2e/e2e.exe"], stdout=sys.stderr
    )
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join("_build", "default", "bench", "e2e", "e2e.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
