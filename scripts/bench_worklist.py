"""Solve time and peak RSS of two source trees in both modes, side by side.

    python scripts/bench_worklist.py LABEL=SRC_DIR LABEL=SRC_DIR [--runs 5]

Each SRC_DIR holds a `floodit` package (the `src/` of a checkout).  Every
measurement is a fresh process that builds the board width's section index
with `dp2xn._get_index(n)`, then solves one board with
`dp2xn.solve(board, mode=MODE)`.  It reports the index build's wall time
(index_s), the wall time of both together (solve_s, comparable with rows
that timed the solve with the index build inside), `ru_maxrss` of the
process, the md5 of the solved table, expanded to (colour, ignore set,
slot) over every palette colour and every subset of the board's colours,
and the md5 of the move sequence `dp2xn.reconstruct` emits, as int64
(vertex, colour) pairs (sequence_md5; the peak is read before the
expansion and the reconstruction).  So one run checks that two trees give
equal tables and emit equal sequences.  Then the process solves the board
once more, on the index it has built, under `tracemalloc` and reports that
solve's traced peak in MiB (solve_traced_mb): it counts the solve's own
arrays only, so it does not move with the allocator's state as peak RSS
does.  A round runs every board in both modes, "reference" and
"worklist", once per tree, and rounds alternate which tree runs first.
Prints one JSON row per tree: per board and mode, the medians, the first
and third quartiles of both times and every run.

Boards: the acceptance criterion's 2x60 board with 4 colours, and a 2x10
board with 11 of 16 palette colours (48.4M table entries), where the
ignore-set planes dominate the cost.
"""

import json
import statistics
import sys

from benchpair import alternate, parse_sides, run_child

CHILD = r"""
import hashlib, random, resource, sys, time, tracemalloc
import numpy as np
from floodit import dp2xn
from floodit.board import Board2xN
from floodit.gen import colour_tokens, random_board
if sys.argv[1] == "2x60_4c":
    board = random_board(random.Random(202512), 60, 4)
else:
    rng = random.Random(1110)
    cells = list(range(11)) + [rng.randrange(11) for _ in range(9)]
    rng.shuffle(cells)
    board = Board2xN(10, (tuple(cells[:10]), tuple(cells[10:])), colour_tokens(16))
start = time.perf_counter()
dp2xn._get_index(board.n)
index_seconds = time.perf_counter() - start
value, table = dp2xn.solve(board, mode=sys.argv[2])
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
# (colour, ignore set, slot) over every palette colour and every subset of
# the board's colours, whatever layout the solver stores.
full = np.ascontiguousarray(table._dense.transpose(1, 2, 0))
moves = np.array([(m.vertex, m.colour) for m in dp2xn.reconstruct(table)], dtype=np.int64)
tracemalloc.start()
dp2xn.solve(board, mode=sys.argv[2])
traced = tracemalloc.get_traced_memory()[1] / 2**20
tracemalloc.stop()
print(value, seconds, index_seconds, peak, hashlib.md5(full.tobytes()).hexdigest(),
      hashlib.md5(moves.tobytes()).hexdigest(), traced)
"""

BOARDS = ("2x60_4c", "2x10_11of16c")
MODES = ("reference", "worklist")


def measure(src, board, mode):
    out = run_child(src, CHILD, board, mode).split()
    return {"value": int(out[0]), "solve_s": round(float(out[1]), 3),
            "index_s": round(float(out[2]), 3), "peak_rss_mb": round(float(out[3]), 1),
            "md5": out[4], "sequence_md5": out[5], "solve_traced_mb": round(float(out[6]), 2)}


def quartiles(xs):
    """First and third quartile, by statistics.quantiles' default method."""
    if len(xs) < 2:
        return xs * 2
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return [round(q1, 4), round(q3, 4)]


def main(argv):
    sides, runs = parse_sides(__doc__, argv)
    results = {label: {(board, mode): [] for board in BOARDS for mode in MODES}
               for label, _ in sides}
    for label, src in alternate(sides, runs):
        for board, mode in results[label]:
            results[label][board, mode].append(measure(src, board, mode))
    for label, _ in sides:
        row = {"revision": label, "runs": runs}
        for (board, mode), got in results[label].items():
            seconds = [g["solve_s"] for g in got]
            index_seconds = [g["index_s"] for g in got]
            row.setdefault(board, {})[mode] = {
                "value": got[0]["value"],
                "md5": sorted({g["md5"] for g in got}),
                "sequence_md5": sorted({g["sequence_md5"] for g in got}),
                "solve_s_median": statistics.median(seconds),
                "solve_s_quartiles": quartiles(seconds),
                "index_s_median": statistics.median(index_seconds),
                "index_s_quartiles": quartiles(index_seconds),
                "peak_rss_mb_median": statistics.median(g["peak_rss_mb"] for g in got),
                "solve_traced_mb_median": statistics.median(g["solve_traced_mb"] for g in got),
                "solve_s": seconds,
                "index_s": index_seconds,
                "peak_rss_mb": [g["peak_rss_mb"] for g in got],
                "solve_traced_mb": [g["solve_traced_mb"] for g in got],
            }
        print(json.dumps(row))


if __name__ == "__main__":
    main(sys.argv[1:])
