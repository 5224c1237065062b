"""Command-line interface: floodit solve|reduce|verify|gen|bench.

Exit codes, all assigned in `main`: 0 success, 1 usage error or failed
verification (a move sequence that fails its replay included), 2 parse
error or a file that cannot be read or written, 3 capacity or budget
exhaustion.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time

import numpy as np

from . import dp2xn, gen, oracle, reduction
from .board import Board2xN, parse_board, serialize_board, to_graph
from .errors import BudgetExceededError, CapacityError, ParseError, ReconstructionError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CAPACITY = 3

AUTO_BFS_MAX_SQUARES = 12
BENCH_BUDGET_SECONDS = 60.0
# Boards, up to renaming colours, that verify --exhaustive may check: 2x5
# with 3 colours has 9,842; 2x5 with 4 colours has 43,947.
EXHAUSTIVE_BOARD_CAP = 20_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


class _FileError(Exception):
    """A file that cannot be read, parsed or written: exit 2."""


def _build_parser() -> _Parser:
    parser = _Parser(prog="floodit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a board file exactly")
    p_solve.add_argument("board", help="board file path")
    p_solve.add_argument("--method", choices=("dp", "bfs", "auto"), default="auto")
    p_solve.add_argument("--target", help="final colour token")
    p_solve.add_argument("--emit-sequence", action="store_true")
    p_solve.add_argument("--json", action="store_true")
    p_solve.add_argument("--time-budget", type=float, metavar="SECONDS",
                         help="wall-clock budget of the solve; exit 3 when it runs out")

    p_reduce = sub.add_parser("reduce", help="compile a graph into a board")
    p_reduce.add_argument("graph", help="edge-list file path")
    p_reduce.add_argument("-o", "--output", required=True, help="board file to write")
    p_reduce.add_argument("--meta", help="metadata JSON file to write")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--exhaustive", nargs=2, type=int, metavar=("N", "C"))
    p_verify.add_argument("--random", nargs=3, type=int, metavar=("COUNT", "N", "C"))
    p_verify.add_argument("--lemmas", action="store_true")
    p_verify.add_argument("--reduction", action="store_true")
    p_verify.add_argument("--seed", type=int, default=0)

    p_gen = sub.add_parser("gen", help="emit a random board on stdout")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--colours", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)

    p_bench = sub.add_parser("bench", help="time the dynamic program")
    p_bench.add_argument("--n-range", required=True, help="A..B inclusive")
    p_bench.add_argument("--colours", type=int, required=True)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--json", action="store_true")
    return parser


def _sequence_payload(board, moves):
    out = []
    for mv in moves:
        row, col = board.cell_of(mv.vertex)
        out.append({"row": row, "col": col, "colour": board.palette[mv.colour]})
    return out


def _read(path, parse):
    """parse applied to the text of the file at path."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise _FileError(f"cannot read {path}: {exc}") from None
    except ParseError as exc:
        raise _FileError(f"{path}: {exc}") from None


def _cmd_solve(args) -> int:
    board = _read(args.board, parse_board)
    target = None
    if args.target is not None:
        if args.target not in board.palette:
            raise _UsageError(f"unknown colour token {args.target!r}")
        target = board.palette.index(args.target)

    if args.time_budget is not None and not args.time_budget > 0:
        raise _UsageError("--time-budget must be positive")
    method = args.method
    if method == "auto":
        method = "bfs" if 2 * board.n <= AUTO_BFS_MAX_SQUARES else "dp"

    start = time.perf_counter()
    moves = None
    if method == "dp":
        value, table = dp2xn.solve(board, target=target, time_budget=args.time_budget)
        if args.json:
            stats = table.stats().__dict__
        if args.emit_sequence:
            moves = dp2xn.reconstruct(table)  # replay-validated
    else:
        budget = oracle.SearchBudget(max_seconds=args.time_budget)
        graph = to_graph(board)
        result = oracle.min_moves(graph, target=target, budget=budget)
        value = _exact_value(result)
        stats = {"states": result.states_explored}
        if args.emit_sequence:
            if not oracle.validate_witness(graph, result, target):
                raise ReconstructionError("search witness failed replay validation")
            moves = result.witness
    millis = (time.perf_counter() - start) * 1000.0

    if args.json:
        payload = {
            "n": board.n,
            "colours": len(board.palette),
            "method": method,
            "value": value,
            "millis": millis,
            "stats": stats,
        }
        if moves is not None:
            payload["sequence"] = _sequence_payload(board, moves)
        print(json.dumps(payload, indent=2))
    else:
        print(f"value {value} (method {method}, {millis:.1f} ms)")
        if moves is not None:
            for entry in _sequence_payload(board, moves):
                print(f"{entry['row']} {entry['col']} {entry['colour']}")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    board, meta = reduction.build_board(_read(args.graph, reduction.parse_graph))
    writes = [(args.output, serialize_board(board))]
    if args.meta:
        writes.append((args.meta, json.dumps(meta.as_dict(), indent=2) + "\n"))
    for path, text in writes:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _FileError(f"cannot write {path}: {exc}") from None
    print(f"wrote {args.output}: n={meta.n}, N={meta.moves_base}, palette={len(board.palette)}")
    return EXIT_OK


def _report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    return ok


def _failing(board) -> str:
    """FAIL detail naming a board by its two rows of colour tokens."""
    rows = (" ".join(board.palette[c] for c in row) for row in board.cells)
    return "first failing board {} / {}".format(*rows)


def _exact_value(result) -> int:
    """The value an oracle search found.  A search that gave up shows no
    value wrong, so it raises BudgetExceededError, which main maps to
    exit 3."""
    if not result.is_exact:
        raise BudgetExceededError(f"search budget exhausted ({result.reason})")
    return result.value


def _board_ok(board, per_target: bool) -> bool:
    """One board of a verify suite: both modes and the oracle give one
    value, and the two modes store equal tables.  With per_target, every
    target colour's value also equals the oracle's; without, the
    reference table's reconstruction passes its replay."""
    graph = to_graph(board)
    value, table = dp2xn.solve(board)
    vwl, twl = dp2xn.solve(board, mode="worklist")
    exact = _exact_value(oracle.min_moves(graph))
    # One board, index and plane plan: equal stored arrays, equal entries.
    ok = value == vwl == exact and np.array_equal(table._values, twl._values)
    if per_target:
        for d in range(len(board.palette)):
            vt, _goal = table.board_value(target=d)
            ok &= vt == _exact_value(oracle.min_moves(graph, target=d))
    elif ok:
        try:
            dp2xn.reconstruct(table)  # replay-validated
        except ReconstructionError:
            ok = False
    return ok


def _verify_exhaustive(n: int, colours: int) -> bool:
    if n < 1 or colours < 1:
        raise _UsageError("--exhaustive needs N >= 1 and C >= 1")
    colourings = list(itertools.islice(
        gen.colourings_up_to_renaming(2 * n, colours), EXHAUSTIVE_BOARD_CAP + 1))
    if len(colourings) > EXHAUSTIVE_BOARD_CAP:
        raise CapacityError(f"exhaustive suite over {n} {colours} exceeds "
                            f"{EXHAUSTIVE_BOARD_CAP:,} boards up to renaming")
    tokens = gen.colour_tokens(colours)
    for boards, cells in enumerate(colourings, 1):
        board = Board2xN(n, (cells[:n], cells[n:]), tokens)
        ok = _board_ok(board, per_target=True)
        if not ok:
            break
    detail = f"{boards} boards up to renaming"
    return _report(f"exhaustive {n} {colours}", ok,
                   detail if ok else f"{detail}, {_failing(board)}")


def _verify_random(rng, count: int, n: int, colours: int) -> bool:
    if count < 1 or n < 1 or colours < 1:
        raise _UsageError("--random needs COUNT >= 1, N >= 1 and C >= 1")
    name = f"random {count} boards {n}x{colours}"
    for _ in range(count):
        board = gen.random_board(rng, n, colours)
        if not _board_ok(board, per_target=False):
            return _report(name, False, _failing(board))
    return _report(name, True)


def _cmd_verify(args) -> int:
    if not (args.exhaustive or args.random or args.lemmas or args.reduction):
        raise _UsageError("choose at least one of --exhaustive/--random/--lemmas/--reduction")
    all_ok = True
    rng = random.Random(args.seed)
    if args.exhaustive:
        all_ok &= _verify_exhaustive(*args.exhaustive)
    if args.random:
        all_ok &= _verify_random(rng, *args.random)

    if args.lemmas:
        ok_trees = True
        for _ in range(30):
            g = gen.random_connected_graph(rng, rng.randint(2, 7), 3)
            for d in range(len(g.palette)):
                res = oracle.check_spanning_tree_theorem(g, d)
                ok_trees &= res is True
        all_ok &= _report("spanning-tree optimum equality (30 graphs)", ok_trees)

        ok_leaves = True
        for _ in range(30):
            t = oracle.TreeView(gen.random_tree(rng, rng.randint(3, 9), 3))
            ok_leaves &= oracle.check_no_leaf_moves(t) is True
        all_ok &= _report("no-leaf-moves optimum equality (30 trees)", ok_leaves)

        ok_sub = True
        for _ in range(30):
            g = gen.random_connected_graph(rng, rng.randint(2, 7), 3)
            part_a, part_b = gen.random_covering_pair(rng, g)
            for d in range(len(g.palette)):
                ok_sub &= oracle.check_subadditivity(g, part_a, part_b, d) is True
        all_ok &= _report("cover subadditivity (30 graphs)", ok_sub)

    if args.reduction:
        for name, text, want in (
            ("K2", "0 1\n", "EQUAL"),
            ("P3", "0 1\n1 2\n", "EQUAL"),
            ("K3", "0 1\n0 2\n1 2\n", "UNRESOLVED"),
        ):
            rep = reduction.verify_reduction(reduction.parse_graph(text))
            detail = f"bracket {rep.bracket}, N+tau={rep.moves_base + rep.tau}"
            all_ok &= _report(f"reduction {name} -> {rep.verdict}", rep.verdict == want, detail)

    return EXIT_OK if all_ok else EXIT_USAGE


def _cmd_gen(args) -> int:
    if args.n < 1 or args.colours < 1:
        raise _UsageError("--n and --colours must be >= 1")
    board = gen.random_board(random.Random(args.seed), args.n, args.colours)
    sys.stdout.write(serialize_board(board))
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        lo, hi = args.n_range.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise _UsageError(f"bad --n-range {args.n_range!r}, expected A..B")
    if lo < 1 or hi < lo:
        raise _UsageError("bad --n-range bounds")
    if args.colours < 1:
        raise _UsageError("--colours must be >= 1")
    rng = random.Random(args.seed)
    rows = []
    error = None
    for n in range(lo, hi + 1):
        board = gen.random_board(rng, n, args.colours)
        start = time.perf_counter()
        try:
            value, table = dp2xn.solve(board, time_budget=BENCH_BUDGET_SECONDS)
        except BudgetExceededError:
            error = "time budget exceeded; emitted partial table"
            break
        except CapacityError as exc:
            error = str(exc)
            break
        millis = (time.perf_counter() - start) * 1000.0
        stats = table.stats()
        rows.append(
            {
                "n": n,
                "value": value,
                "millis": millis,
                "keys": stats.keys,
                "sweeps": stats.sweeps,
                "relaxations": stats.relaxations,
            }
        )
    if args.json:
        print(json.dumps({"colours": args.colours, "rows": rows}, indent=2))
    else:
        print(f"{'n':>4} {'value':>6} {'millis':>10} {'keys':>10} {'sweeps':>7}")
        for row in rows:
            print(
                f"{row['n']:>4} {row['value']:>6} {row['millis']:>10.1f}"
                f" {row['keys']:>10} {row['sweeps']:>7}"
            )
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_CAPACITY
    return EXIT_OK


_COMMANDS = {"solve": _cmd_solve, "reduce": _cmd_reduce, "verify": _cmd_verify,
             "gen": _cmd_gen, "bench": _cmd_bench}


def main(argv=None) -> int:
    """Run one command and return its exit code.  Every error a command
    raises becomes its exit code here and nowhere else, save the error that
    cuts bench's table short: bench reports it after the partial table."""
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _FileError as exc:
        code, error = EXIT_PARSE, exc
    except ReconstructionError as exc:
        code, error = EXIT_USAGE, exc
    except (CapacityError, BudgetExceededError) as exc:
        code, error = EXIT_CAPACITY, exc
    print(f"error: {error}", file=sys.stderr)
    return code


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
