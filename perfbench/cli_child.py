"""The traced form of one cli_cold operation, run as a fresh process:

    python3 perfbench/cli_child.py SRC_DIR BOARD_FILE

Times the import of `floodit.cli`, wraps the layer functions, runs
`floodit.cli.main(["solve", BOARD_FILE, "--method", "dp", "--json",
"--emit-sequence"])` with its output captured, then solves the same board
once more with the section index warm. Prints one JSON line: the exit code,
the captured output, the import time, the repeat solve time, the time spent
after `main` returned, and the spans.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

from tracer import Tracer, perf


def main() -> int:
    src, board_file = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    start = perf()
    import floodit.cli
    from floodit import dp2xn, parse_board

    import_s = perf() - start
    tracer = Tracer()
    tracer.install()
    captured = io.StringIO()
    with redirect_stdout(captured):
        code = floodit.cli.main(
            ["solve", board_file, "--method", "dp", "--json", "--emit-sequence"])
    main_end = perf()
    tracer.paused = True
    with open(board_file) as fh:
        board = parse_board(fh.read())
    repeat_start = perf()
    dp2xn.solve(board)
    repeat_s = perf() - repeat_start
    report = {
        "code": code,
        "stdout": captured.getvalue(),
        "import_s": import_s,
        "repeat_s": repeat_s,
        "spans": tracer.export(),
    }
    report["after_main_s"] = perf() - main_end
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
