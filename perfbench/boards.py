"""Benchmark inputs: uniform random 2xN boards, the fixed base board of each
heavy size class, and the board symmetries that relabel a base board per
seed and per repetition.

Boards are plain pairs of rows of colour ids; `board_text` renders them in
the floodit board file format, which is all the program ever sees.
"""

from __future__ import annotations

import random

TOKENS = "abcdefgh"


def random_rows(rng: random.Random, n: int, colours: int) -> tuple:
    """Two rows of n independent uniform colour ids."""
    return tuple(tuple(rng.randrange(colours) for _ in range(n)) for _ in range(2))


def base_rows(n: int, colours: int) -> tuple:
    """The base board of the n-column, `colours`-colour class: the first
    board drawn from a seed that names the class that uses every colour."""
    rng = random.Random(f"perfbench-{n}x{colours}")
    while True:
        rows = random_rows(rng, n, colours)
        if len(set(rows[0] + rows[1])) == colours:
            return rows


def relabel(rows: tuple, colours: int, rng: random.Random) -> tuple:
    """An isomorphic copy of a board: colour ids permuted, and at random the
    columns reversed and the rows swapped. The optimum move count, the table
    sizes and the relaxation counts of the solver are unchanged, while the
    text the program reads differs."""
    perm = list(range(colours))
    rng.shuffle(perm)
    out = [[perm[c] for c in row] for row in rows]
    if rng.random() < 0.5:
        out = [row[::-1] for row in out]
    if rng.random() < 0.5:
        out.reverse()
    return tuple(tuple(row) for row in out)


def board_text(rows: tuple) -> str:
    n = len(rows[0])
    lines = [" ".join(TOKENS[c] for c in row) for row in rows]
    return f"{n}\n{lines[0]}\n{lines[1]}\n"


def class_key(n: int, colours: int) -> str:
    return f"2x{n}/{colours}c"


# (columns, colours) of the small, mid and large class of each workload.
CLASSES = ("small", "mid", "large")
WORKLOADS = {
    "cli_cold": ((5, 4), (6, 4), (7, 4)),
    "small_batch": ((5, 4), (6, 4), (7, 3)),
    "worklist_warm": ((4, 4), (5, 4), (6, 4)),
}
# Workloads that solve relabelled base boards and check them against
# expected.json; small_batch draws fresh boards and checks them against the
# BFS oracle as it goes.
FIXED_WORKLOADS = ("cli_cold", "worklist_warm")
