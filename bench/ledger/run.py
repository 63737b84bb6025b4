#!/usr/bin/env python3
"""Build the performance ledger from source and run one workload.

Run from the root of a checkout:

    python3 bench/ledger/run.py --workload W --seed N --seconds S --trace 0|1

It builds bench/ledger/ledger.exe with dune, then runs it. With
--trace 1 the ledger makes its traced run and writes the Chrome trace to
_build/ledger/trace-W.json. The last line of standard output is the
ledger's JSON result; build output goes to standard error. The exit code
is the ledger's, or 1 when the build fails.
"""

import os
import shutil
import subprocess
import sys

LEDGER = os.path.join("_build", "default", "bench", "ledger", "ledger.exe")
SCRATCH = os.path.join("_build", "ledger")


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def ledger_args(argv):
    """Pass arguments through, turning --trace 0|1 into a trace file."""
    args, workload, trace = [], "all", "0"
    it = iter(argv)
    for a in it:
        if a == "--trace":
            trace = next(it, "0")
            continue
        if a == "--workload":
            workload = next(it, "")
            args += [a, workload]
            continue
        args.append(a)
    if trace not in ("0", "1"):
        sys.exit("run.py: --trace takes 0 or 1")
    if trace == "1":
        args += ["--trace", os.path.join(SCRATCH, "trace-%s.json" % workload)]
    return args


def main():
    args = ledger_args(sys.argv[1:])
    build = dune()
    if build is None:
        print("run.py: dune not found", file=sys.stderr)
        return 1
    built = subprocess.run(
        build + ["build", "--root", ".", "./bench/ledger/ledger.exe"],
        stdout=sys.stderr,
    )
    if built.returncode != 0 or not os.path.exists(LEDGER):
        print("run.py: build failed", file=sys.stderr)
        return 1
    os.makedirs(SCRATCH, exist_ok=True)
    return subprocess.run([LEDGER] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
