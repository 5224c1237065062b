"""Write perfbench/expected.json: the exact value of every base board that
the cli_cold and worklist_warm workloads relabel.

Run from the repository root:  python3 perfbench/make_expected.py

Each value is computed by both dynamic-program modes and, where its state
budget suffices, by the breadth-first oracle. The file is written only when
all of them agree. It takes about 15 s, mostly the 2x7 worklist solve.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from floodit import dp2xn, oracle, parse_board, to_graph  # noqa: E402

from boards import FIXED_WORKLOADS, WORKLOADS, base_rows, board_text, class_key  # noqa: E402


def main() -> int:
    classes = sorted({cls for w in FIXED_WORKLOADS for cls in WORKLOADS[w]})
    out = {}
    for n, colours in classes:
        rows = base_rows(n, colours)
        board = parse_board(board_text(rows))
        values = {}
        for mode in ("reference", "worklist"):
            start = time.perf_counter()
            values[mode] = dp2xn.solve(board, mode=mode)[0]
            print(f"{class_key(n, colours)} {mode}: {values[mode]}"
                  f" in {time.perf_counter() - start:.1f} s", file=sys.stderr)
        bfs = oracle.min_moves(to_graph(board))
        values["bfs"] = bfs.value if bfs.is_exact else None
        print(f"{class_key(n, colours)} bfs: {values['bfs']}", file=sys.stderr)
        found = {v for v in values.values() if v is not None}
        if len(found) != 1:
            print(f"error: methods disagree on {class_key(n, colours)}: {values}",
                  file=sys.stderr)
            return 1
        out[class_key(n, colours)] = {"rows": rows, "value": found.pop(), "by_method": values}
    with open(HERE / "expected.json", "w") as fh:
        fh.write("{\n" + ",\n".join(f"  {json.dumps(key)}: {json.dumps(entry)}"
                                    for key, entry in out.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
