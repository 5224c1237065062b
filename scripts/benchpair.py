"""The harness the side-by-side benches share.

A bench compares source trees given as LABEL=SRC_DIR arguments, each SRC_DIR
holding a `floodit` package.  Every measurement is a fresh process running
the bench's own child program with that tree first on `PYTHONPATH`, and
rounds alternate which tree runs first, so neither tree always meets a cold
or a warm machine.
"""

import argparse
import os
import subprocess
import sys


def parse_sides(doc, argv):
    """The (label, src) sides and the run count of a bench's command line."""
    parser = argparse.ArgumentParser(description=doc.split("\n")[0])
    parser.add_argument("sides", nargs="+", metavar="LABEL=SRC_DIR")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    sides = [side.split("=", 1) for side in args.sides]
    if any(len(side) != 2 for side in sides):
        parser.error("each side is LABEL=SRC_DIR")
    return sides, args.runs


def alternate(sides, runs):
    """(label, src) in run order: every side once a round, the order reversed
    every other round."""
    for r in range(runs):
        yield from sides if r % 2 == 0 else sides[::-1]


def child_env(src):
    """The environment of a child process with the tree at src importable."""
    return dict(os.environ, PYTHONPATH=os.path.abspath(src))


def run_child(src, child, *argv):
    """Stdout of `python -c child argv...` with the tree at src importable."""
    return subprocess.run([sys.executable, "-c", child, *argv], env=child_env(src),
                          check=True, stdout=subprocess.PIPE, text=True).stdout
