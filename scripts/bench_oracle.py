"""Oracle (`oracle.min_moves`) time and states of two source trees, side by side.

    python scripts/bench_oracle.py LABEL=SRC_DIR LABEL=SRC_DIR [--runs 5]

Each SRC_DIR holds a `floodit` package (the `src/` of a checkout).  A run is
one fresh process per tree that calls `oracle.min_moves` once on every
board of every family, in order, and reports each call's wall time,
`states_explored` and value; rounds alternate which tree runs first.
Prints one JSON row per tree: per family, the mean and median ms and
states over all calls of all runs, and whether every value equals the
other trees'.

Families (fixed seeds, `gen.random_board`): 2x5/4c, 2x6/4c, 2x7/3c and
2x6/5c, the boards the perfbench small_batch workload draws from and a
harder neighbour; 2x10/2c, where the colour bound is weakest; and 2x6/4c
with a target colour, board i asking for colour i mod 4.
"""

import json
import statistics
import sys

from benchpair import alternate, parse_sides, run_child

FAMILIES = {
    "2x5_4c": (5, 4, False),
    "2x6_4c": (6, 4, False),
    "2x7_3c": (7, 3, False),
    "2x6_5c": (6, 5, False),
    "2x10_2c": (10, 2, False),
    "2x6_4c_target": (6, 4, True),
}
BOARDS_PER_FAMILY = 40

CHILD = r"""
import json, random, sys, time
from floodit import oracle
from floodit.board import to_graph
from floodit.gen import random_board
families, count = json.loads(sys.argv[1])
out = {}
for name, (n, colours, targeted) in families.items():
    rng = random.Random(f"bench_oracle {name}")
    rows = []
    for i in range(count):
        graph = to_graph(random_board(rng, n, colours))
        target = i % colours if targeted else None
        start = time.perf_counter()
        res = oracle.min_moves(graph, target=target)
        ms = (time.perf_counter() - start) * 1000.0
        rows.append((res.value, res.states_explored, ms))
    out[name] = rows
print(json.dumps(out))
"""


def measure(src):
    return json.loads(run_child(src, CHILD, json.dumps([FAMILIES, BOARDS_PER_FAMILY])))


def main(argv):
    sides, runs = parse_sides(__doc__, argv)
    results = {label: [] for label, _ in sides}
    for label, src in alternate(sides, runs):
        results[label].append(measure(src))
    values = {label: {name: [v for v, _, _ in got[0][name]] for name in FAMILIES}
              for label, got in results.items()}
    for label, _ in sides:
        row = {"revision": label, "runs": runs, "boards": BOARDS_PER_FAMILY}
        for name in FAMILIES:
            calls = [call for run in results[label] for call in run[name]]
            ms = [m for _, _, m in calls]
            states = [s for _, s, _ in calls]
            row[name] = {
                "values_equal": all(values[other][name] == values[label][name]
                                    for other in values),
                "ms_mean": round(statistics.mean(ms), 3),
                "ms_median": round(statistics.median(ms), 3),
                "states_mean": round(statistics.mean(states), 1),
                "states_median": statistics.median(states),
                "ms_mean_per_run": [round(statistics.mean(m for _, _, m in run[name]), 3)
                                    for run in results[label]],
            }
        print(json.dumps(row))


if __name__ == "__main__":
    main(sys.argv[1:])
