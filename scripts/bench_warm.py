"""Warm solve time of small boards for two source trees, side by side.

    python scripts/bench_warm.py LABEL=SRC_DIR LABEL=SRC_DIR [--runs 5]

Each SRC_DIR holds a `floodit` package (the `src/` of a checkout).  A run is
one fresh process per tree, and rounds alternate which tree runs first.  The
process builds the section index of every width with `dp2xn._get_index(n)`
and solves each family's first board once in both modes, so the indexes and
plane plans are cached.  Then, per family and mode, it times
`dp2xn.solve(board, mode=MODE)` on every board of the family, in order,
after a `gc.collect()`, and reports the median ms per solve and the values.
Prints one JSON row per tree: per family and mode, the median and the first
and third quartiles of the per-run medians, every run, and the ratio of each
run to the same round's run of the first tree, with its median and
quartiles; values_equal says whether every value equals the first tree's.

Families (fixed seeds, `gen.random_board`): 2x4/4c, 2x5/4c and 2x6/4c, the
sizes the perfbench worklist_warm workload solves, 2x7/3c, and 2x8/7c,
where the ignore-set planes of 7 colours make the recolour rule weigh more.
"""

import json
import statistics
import sys

from benchpair import alternate, parse_sides, run_child

FAMILIES = {
    "2x4_4c": (4, 4),
    "2x5_4c": (5, 4),
    "2x6_4c": (6, 4),
    "2x7_3c": (7, 3),
    "2x8_7c": (8, 7),
}
MODES = ("reference", "worklist")
BOARDS_PER_FAMILY = 40

CHILD = r"""
import gc, json, random, statistics, sys, time
from floodit import dp2xn
from floodit.gen import random_board
families, modes, count = json.loads(sys.argv[1])
boards = {name: [random_board(random.Random(f"bench_warm {name} {i}"), n, colours)
                 for i in range(count)] for name, (n, colours) in families.items()}
for name, (n, _) in families.items():
    dp2xn._get_index(n)
    for mode in modes:
        dp2xn.solve(boards[name][0], mode=mode)
out = {}
for name in families:
    for mode in modes:
        ms, values = [], []
        for board in boards[name]:
            gc.collect()
            start = time.perf_counter()
            value = dp2xn.solve(board, mode=mode)[0]
            ms.append((time.perf_counter() - start) * 1000.0)
            values.append(value)
        out[f"{name} {mode}"] = (statistics.median(ms), values)
print(json.dumps(out))
"""


def quartiles(xs):
    """First and third quartile, by statistics.quantiles' default method."""
    if len(xs) < 2:
        return xs * 2
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return [round(q1, 4), round(q3, 4)]


def measure(src):
    return json.loads(run_child(src, CHILD, json.dumps([FAMILIES, MODES, BOARDS_PER_FAMILY])))


def main(argv):
    sides, runs = parse_sides(__doc__, argv)
    results = {label: [] for label, _ in sides}
    for label, src in alternate(sides, runs):
        results[label].append(measure(src))
    base = results[sides[0][0]]
    for label, _ in sides:
        row = {"revision": label, "runs": runs, "boards": BOARDS_PER_FAMILY}
        for name in FAMILIES:
            for mode in MODES:
                key = f"{name} {mode}"
                ms = [run[key][0] for run in results[label]]
                ratios = [run[key][0] / first[key][0] for run, first in zip(results[label], base)]
                row.setdefault(name, {})[mode] = {
                    "values_equal": all(run[key][1] == base[0][key][1] for run in results[label]),
                    "ms_median": round(statistics.median(ms), 4),
                    "ms_quartiles": quartiles(ms),
                    "ratio_median": round(statistics.median(ratios), 4),
                    "ratio_quartiles": quartiles(ratios),
                    "ms": [round(m, 4) for m in ms],
                }
        print(json.dumps(row))


if __name__ == "__main__":
    main(sys.argv[1:])
