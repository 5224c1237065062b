"""Benchmark of the floodit 2xN solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the solver is imported from ./src, and
nothing is installed. Each workload is a closed loop driven by this one
client process, one operation at a time (README.md says why each exists):

  cli_cold       one fresh `python3 -m floodit solve BOARD --method dp --json
                 --emit-sequence` process per board; 2x5, 2x6, 2x7, 4 colours
  small_batch    dp2xn.solve, reconstruct, oracle.min_moves and engine.replay
                 of both witnesses per fresh random board; 2x5/4c, 2x6/4c,
                 2x7/3c, warm section index
  worklist_warm  dp2xn.solve(mode="worklist"); 2x4, 2x5, 2x6, 4 colours, with
                 the section index built during set-up

A round solves one board of each of the workload's small, mid and large
classes; another round starts while it is expected to end within --seconds.
Every output is checked. A wrong value, a failed replay, a non-zero exit, a
timeout or an exception is a failed operation, and the run goes on. The
end-to-end times are scaled for the drifting speed of a shared host by a
calibration kernel timed around every operation and set-up (calib.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, and
the per-layer metrics of a traced run with --trace 1. Traced runs also
write their spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path

import calib
import tracer as tracing
from boards import (
    CLASSES,
    FIXED_WORKLOADS,
    WORKLOADS,
    base_rows,
    board_text,
    class_key,
    random_rows,
    relabel,
)

perf = tracing.perf

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

OP_LIMIT_S = 60.0  # an operation still running after this fails
RUN_LIMIT_S = 160.0  # no operation starts or runs past this, from process start
SETUP_PROBES = 2  # set-ups repeated in fresh processes, for the median
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

# Span names of the tracer mapped to per-layer self-time metrics.
SPAN_METRICS = {
    "dp2xn.solve.reference": "dp2xn.solve_s.reference",
    "dp2xn.solve.worklist": "dp2xn.solve_s.worklist",
    "dp2xn.stats": "dp2xn.stats_s",
    "dp2xn.reconstruct": "dp2xn.reconstruct_s",
    "oracle.min_moves": "oracle.min_moves_s",
    "engine.replay": "engine.replay_s",
}
LAYER_TIMES = ("op_s", "other_s", "cli.import_s", "dp2xn.index_s", *SPAN_METRICS.values(),
               "pathsweep.s")
LAYER_COUNTS = ("dp2xn.keys", "dp2xn.zeros", "dp2xn.sweeps", "dp2xn.relaxations",
                "dp2xn.useful_base", "pathsweep.calls", "oracle.states",
                "engine.replay.calls")
LAYER_RATIOS = {  # ratio metric: (numerator, denominator), summed over a class
    "dp2xn.useful_frac": ("dp2xn.relaxations", "dp2xn.useful_base"),
    "pathsweep.true_frac": ("pathsweep.true", "pathsweep.calls"),
}
STATS_FIELDS = ("keys", "zeros", "sweeps", "relaxations")


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_floodit():
    if not (SRC / "floodit" / "__init__.py").is_file():
        raise HarnessError(f"no floodit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import floodit

    if not Path(floodit.__file__).resolve().is_relative_to(SRC):
        raise HarnessError(f"floodit imported from {floodit.__file__}, not {SRC}")


# -- set-up ------------------------------------------------------------------


def setup(workload):
    """Everything a run does before its first measured operation. Returns
    its duration, scaled to the reference machine (calib.py), and, per class,
    the index build time: the first solve at a width minus the faster of two
    repeat solves of the same board."""
    calib.kernel_s()  # warm-up
    before = calib.kernel_s()
    start = perf()
    load_floodit()
    from floodit import dp2xn, parse_board

    index_s = {}
    if workload == "cli_cold":
        # A cold import compiles the bytecode once and warms the file cache.
        subprocess.run([sys.executable, "-c", "import floodit.cli"], env=CHILD_ENV,
                       check=True, timeout=OP_LIMIT_S)
    else:
        for cls, (n, colours) in zip(CLASSES, WORKLOADS[workload]):
            board = parse_board(board_text(base_rows(n, colours)))
            solve_s = []
            for _ in range(3):
                gc.collect()
                begin = perf()
                dp2xn.solve(board)
                solve_s.append(perf() - begin)
            index_s[cls] = solve_s[0] - min(solve_s[1:])
    elapsed = perf() - start
    return calib.scale(elapsed, before, calib.kernel_s()), index_s


def setup_probe(workload):
    """Set-up time of the workload in a fresh process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--setup-only"],
        capture_output=True, text=True, check=True, timeout=RUN_LIMIT_S / 4)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


# -- operations ----------------------------------------------------------------


def cli_op(board_file, board, expected, limit, traced):
    """One `floodit solve` process. Returns (seconds, ok, child report)."""
    from floodit import Move, to_graph
    from floodit.engine import replay

    if traced:
        argv = [sys.executable, str(HERE / "cli_child.py"), str(SRC), board_file]
    else:
        argv = [sys.executable, "-m", "floodit", "solve", board_file, "--method", "dp",
                "--json", "--emit-sequence"]
    start = perf()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=CHILD_ENV, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"floodit solve exceeded {limit:.0f} s", file=sys.stderr)
        return perf() - start, False, None
    elapsed = perf() - start
    report = None
    code = proc.returncode
    if traced and code == 0:
        report = json.loads(out.splitlines()[-1])
        elapsed -= report["after_main_s"]
        code, out = report["code"], report["stdout"]
    if code != 0:
        print(f"floodit solve exited {code}: {err.strip()}", file=sys.stderr)
        return elapsed, False, report
    payload = json.loads(out)
    moves = [Move(e["row"] * board.n + e["col"], board.palette.index(e["colour"]))
             for e in payload["sequence"]]
    _final, flooded = replay(to_graph(board), moves)
    ok = payload["value"] == expected and len(moves) == expected and flooded
    return elapsed, ok, report


def small_op(board, limit):
    """DP value, DP witness, oracle value and oracle witness of one board;
    all four must agree."""
    from floodit import dp2xn, engine, oracle, to_graph

    graph = to_graph(board)
    start = perf()
    value, table = dp2xn.solve(board, time_budget=limit)
    moves = dp2xn.reconstruct(table)
    exact = oracle.min_moves(graph)
    _final, dp_flooded = engine.replay(graph, moves)
    bfs_flooded = exact.is_exact and engine.replay(graph, exact.witness)[1]
    elapsed = perf() - start
    ok = (bfs_flooded and dp_flooded and exact.value == value
          and len(moves) == value and len(exact.witness) == value)
    return elapsed, ok, table


def worklist_op(board, expected, limit):
    from floodit import dp2xn

    start = perf()
    value, table = dp2xn.solve(board, mode="worklist", time_budget=limit)
    return perf() - start, value == expected, table


# -- the measured loop -----------------------------------------------------------


def measure(workload, seed, seconds, expected, tracer, run_end):
    """Closed loop of whole rounds. Returns the per-operation records. Each
    record holds the operation's measured time `s` and that time scaled by
    the calibration kernel timed before and after it."""
    from floodit import parse_board

    rng = random.Random(f"{workload}/{seed}")
    classes = list(zip(CLASSES, WORKLOADS[workload]))
    records = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        kernel_before = calib.kernel_s()
        loop_start = perf()
        out_of_time = False
        while not out_of_time:
            round_start = perf()
            for cls, (n, colours) in classes:
                limit = min(OP_LIMIT_S, run_end - perf())
                if limit <= 0:
                    out_of_time = True
                    break
                if workload in FIXED_WORKLOADS:
                    want = expected[class_key(n, colours)]
                    rows, value = relabel(want["rows"], colours, rng), want["value"]
                else:
                    rows, value = random_rows(rng, n, colours), None
                text = board_text(rows)
                board = parse_board(text)
                rec = {"cls": cls, "op": len(records), "extra": None}
                if tracer is not None:
                    tracer.op = rec["op"]
                if workload == "worklist_warm":
                    # Every solve starts from the same collected heap, so no
                    # collection left over from the last one lands in it.
                    gc.collect()
                start = perf()
                try:
                    if workload == "cli_cold":
                        path = os.path.join(tmp, f"board{rec['op']}.txt")
                        with open(path, "w") as fh:
                            fh.write(text)
                        rec["s"], rec["ok"], rec["extra"] = cli_op(
                            path, board, value, limit, tracer is not None)
                        if rec["extra"] is not None:
                            tracer.absorb(rec["extra"]["spans"], rec["op"])
                    else:
                        if workload == "small_batch":
                            rec["s"], rec["ok"], table = small_op(board, limit)
                        else:
                            rec["s"], rec["ok"], table = worklist_op(board, value, limit)
                        # Keep no table across operations: a growing heap
                        # would slow every later operation.
                        if tracer is not None:
                            tracer.paused = True
                            try:
                                rec["stats"] = vars(table.stats())
                            finally:
                                tracer.paused = False
                        del table
                except Exception:
                    traceback.print_exc()
                    rec["s"], rec["ok"] = perf() - start, False
                kernel_after = calib.kernel_s()
                rec["kernel_s"] = (kernel_before + kernel_after) / 2
                rec["scaled_s"] = calib.scale(rec["s"], kernel_before, kernel_after)
                kernel_before = kernel_after
                records.append(rec)
            now = perf()
            round_s = now - round_start
            if now + round_s > min(loop_start + seconds, run_end):
                break
        return records


# -- metrics ---------------------------------------------------------------------


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def end_to_end(workload, records, setup_s):
    times = [r["scaled_s"] for r in records]
    # The 75th percentile is the highest with ten operations beyond it in a
    # run of about 40 operations (cli_cold, worklist_warm).
    quartiles = times * 3
    if len(times) > 1:
        quartiles = statistics.quantiles(times, n=4, method="inclusive")
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms.p50": (quartiles[1] * 1e3, "ms"),
        "op_ms.p75": (quartiles[2] * 1e3, "ms"),
    }
    for cls in CLASSES:
        metrics[f"{cls}_ms"] = (
            statistics.median(r["scaled_s"] for r in records if r["cls"] == cls) * 1e3,
            "ms")
    return metrics


def op_layers(workload, records, tracer, index_s):
    """Per-operation layer totals from the spans and the harness."""
    per_op = defaultdict(lambda: defaultdict(float))
    first_solve = {}
    for span in tracer.spans:
        acc = per_op[span[tracing.OP]]
        name = span[tracing.NAME]
        if name in SPAN_METRICS:
            acc[SPAN_METRICS[name]] += tracing.self_time(span)
        acc["pathsweep.s"] += span[tracing.LEAF_S]
        acc["pathsweep.calls"] += span[tracing.LEAF_CALLS]
        acc["pathsweep.true"] += span[tracing.LEAF_TRUE]
        acc["covered_s"] += tracing.self_time(span) + span[tracing.LEAF_S]
        if name == "engine.replay":
            acc["engine.replay.calls"] += 1
        elif name == "oracle.min_moves":
            acc["oracle.states"] += span[tracing.INFO]["states"]
        elif name == "dp2xn.stats":
            acc["stats"] = span[tracing.INFO]
        elif name.startswith("dp2xn.solve") and span[tracing.OP] not in first_solve:
            first_solve[span[tracing.OP]] = span[tracing.END] - span[tracing.START]
    for rec in records:
        acc = per_op[rec["op"]]
        acc["op_s"] = rec["s"]
        stats = acc.pop("stats", None)
        if workload == "cli_cold":
            report = rec["extra"] or {}
            acc["cli.import_s"] = report.get("import_s", 0.0)
            if "repeat_s" in report and rec["op"] in first_solve:
                acc["dp2xn.index_s"] = first_solve[rec["op"]] - report["repeat_s"]
        else:
            acc["dp2xn.index_s"] = index_s[rec["cls"]]
            stats = rec.get("stats")
        for field in STATS_FIELDS:
            acc[f"dp2xn.{field}"] = stats[field] if stats else 0
        acc["dp2xn.useful_base"] = acc["dp2xn.sweeps"] * acc["dp2xn.keys"]
        acc["other_s"] = acc["op_s"] - acc["cli.import_s"] - acc.pop("covered_s", 0.0)
    return per_op


def per_layer(workload, records, tracer, index_s):
    per_op = op_layers(workload, records, tracer, index_s)
    metrics = {}
    for cls in CLASSES:
        ops = [per_op[r["op"]] for r in records if r["cls"] == cls]
        for name in LAYER_TIMES:
            metrics[f"{name}.{cls}"] = (statistics.fmean(o[name] for o in ops), "s")
        for name in LAYER_COUNTS:
            metrics[f"{name}.{cls}"] = (statistics.fmean(o[name] for o in ops), "count")
        for name, (num, den) in LAYER_RATIOS.items():
            total = sum(o[den] for o in ops)
            metrics[f"{name}.{cls}"] = (sum(o[num] for o in ops) / total if total else 0.0,
                                        "frac")
    span_cost, leaf_cost = tracing.wrapper_costs()
    overhead = tracer.span_calls * span_cost + tracer.leaf_calls * leaf_cost
    metrics["trace.overhead_frac"] = (overhead / sum(r["s"] for r in records), "frac")
    metrics["host.kernel_ms"] = (
        statistics.median(r["kernel_s"] for r in records) * 1e3, "ms")
    return metrics


# -- entry point -------------------------------------------------------------------


def run(args):
    run_end = perf() + RUN_LIMIT_S
    expected = None
    if args.workload in FIXED_WORKLOADS:
        with open(args.expected) as fh:
            expected = json.load(fh)
        missing = [class_key(*c) for c in WORKLOADS[args.workload]
                   if class_key(*c) not in expected]
        if missing:
            raise HarnessError(f"{args.expected} has no value for {', '.join(missing)}")
    setup_s, index_s = setup(args.workload)
    if not args.trace:
        setup_s = statistics.median(
            [setup_s] + [setup_probe(args.workload) for _ in range(SETUP_PROBES)])
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        if args.workload != "cli_cold":
            tracer.install()
    records = measure(args.workload, args.seed, args.seconds, expected, tracer,
                              run_end)
    if tracer is not None:
        tracer.uninstall()
        metrics = per_layer(args.workload, records, tracer, index_s)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(args.workload, records, setup_s)
    failed = sum(not r["ok"] for r in records)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"{len(records)} operations, {failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=str(HERE / "expected.json"),
                        help="expected values of the base boards (the self-test "
                             "passes a wrong one)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it")
    args = parser.parse_args(argv)
    calib.pin()
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup(args.workload)[0]}))
        else:
            run(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
