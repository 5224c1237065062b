"""In-memory spans around the public functions of the floodit layers.

`Tracer.install` replaces these functions, wherever a floodit module holds
them, with wrappers that record spans:

    dp2xn.solve (named by mode), DPTable.stats, dp2xn.reconstruct,
    oracle.min_moves, engine.replay           one span per call
    pathsweep.path_exists                     aggregated into the caller

`path_exists` runs tens of thousands of times per solve, so its calls are
not kept one by one: each span sums the time, count and true results of the
path tests made directly inside it. A span's self time is its duration minus
its child spans and those path tests. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import json
import sys
import time

perf = time.perf_counter

# Field positions in a span record.
NAME, OP, SID, PARENT, START, END, CHILD_S, LEAF_S, LEAF_CALLS, LEAF_TRUE, INFO = range(11)


class Tracer:
    def __init__(self):
        self.spans = []  # finished span records, in end order
        self.op = None  # id of the benchmark operation now running
        self.paused = False
        self.span_calls = 0
        self.leaf_calls = 0
        self._stack = []
        self._next_sid = 0
        self._patched = []  # (owner, attribute, original)
        # Path tests made outside every span land here.
        self._loose = self._record("loose", None)

    def _record(self, name, parent):
        sid = self._next_sid
        self._next_sid += 1
        return [name, self.op, sid, parent, 0.0, 0.0, 0.0, 0.0, 0, 0, None]

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name_of, fn, info_of=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            self.span_calls += 1
            rec = self._record(name_of(args, kwargs), stack[-1][SID] if stack else None)
            stack.append(rec)
            rec[START] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf()
                stack.pop()
                if stack:
                    stack[-1][CHILD_S] += rec[END] - rec[START]
                self.spans.append(rec)
            if info_of is not None:
                rec[INFO] = info_of(result)
            return result

        return wrapper

    def _leaf_wrapper(self, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            start = perf()
            result = fn(*args, **kwargs)
            elapsed = perf() - start
            rec = stack[-1] if stack else self._loose
            rec[LEAF_S] += elapsed
            rec[LEAF_CALLS] += 1
            if result:
                rec[LEAF_TRUE] += 1
            self.leaf_calls += 1
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def _replace(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if name != "floodit" and not name.startswith("floodit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def install(self):
        """Wrap the layer functions in every loaded floodit module."""
        from floodit import dp2xn, engine, oracle, pathsweep

        def solve_name(args, kwargs):
            mode = kwargs.get("mode", args[2] if len(args) > 2 else "reference")
            return f"dp2xn.solve.{mode}"

        def fixed(name):
            return lambda args, kwargs: name

        self._replace(dp2xn.solve, self._span_wrapper(solve_name, dp2xn.solve))
        self._replace(dp2xn.reconstruct,
                      self._span_wrapper(fixed("dp2xn.reconstruct"), dp2xn.reconstruct))
        self._replace(oracle.min_moves,
                      self._span_wrapper(fixed("oracle.min_moves"), oracle.min_moves,
                                         lambda r: {"states": r.states_explored}))
        self._replace(engine.replay, self._span_wrapper(fixed("engine.replay"), engine.replay))
        self._replace(pathsweep.path_exists, self._leaf_wrapper(pathsweep.path_exists))
        stats = dp2xn.DPTable.stats
        dp2xn.DPTable.stats = self._span_wrapper(fixed("dp2xn.stats"), stats,
                                                 lambda s: dict(vars(s)))
        self._patched.append((dp2xn.DPTable, "stats", stats))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def export(self):
        """Finished spans as JSON-ready dicts (the loose record included when
        it holds any path tests)."""
        recs = self.spans + ([self._loose] if self._loose[LEAF_CALLS] else [])
        keys = ("name", "op", "sid", "parent", "start", "end", "child_s",
                "leaf_s", "leaf_calls", "leaf_true", "info")
        return [dict(zip(keys, rec)) for rec in recs]

    def absorb(self, exported, op):
        """Add spans recorded by another process, as part of operation `op`."""
        base = self._next_sid
        for span in exported:
            parent = None if span["parent"] is None else base + span["parent"]
            self._next_sid = max(self._next_sid, base + span["sid"] + 1)
            self.spans.append([span["name"], op, base + span["sid"], parent,
                               span["start"], span["end"], span["child_s"],
                               span["leaf_s"], span["leaf_calls"], span["leaf_true"],
                               span["info"]])
            self.span_calls += span["name"] != "loose"
            self.leaf_calls += span["leaf_calls"]

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.export():
                fh.write(json.dumps(span) + "\n")


def self_time(rec) -> float:
    return rec[END] - rec[START] - rec[CHILD_S] - rec[LEAF_S]


def wrapper_costs(calls: int = 20000):
    """Seconds one span wrapper and one path-test wrapper add per call,
    measured on a function that does nothing."""

    def noop(*args):
        return True

    tracer = Tracer()
    span = tracer._span_wrapper(lambda a, k: "noop", noop)
    leaf = tracer._leaf_wrapper(noop)
    costs = []
    for fn in (span, leaf):
        best = float("inf")
        for _ in range(3):
            start = perf()
            for _ in range(calls):
                noop(1)
            bare = perf() - start
            start = perf()
            for _ in range(calls):
                fn(1)
            best = min(best, perf() - start - bare)
        costs.append(max(best, 0.0) / calls)
    return costs[0], costs[1]
