"""Column-sweep test for dominating simple paths in a 2-row strip.

Question answered: inside a section (two half-open column intervals, one per
row), is there a simple path from r1 to r2 such that every cell not on the
path is adjacent to a path cell?  Optional per-cell predicates restrict which
cells may lie on the path (`on_ok`) and which may be left off it (`off_ok`).

The sweep decides the 2xN dynamic program's two definitions that the tests
check its section index and tables against: dp2xn.tree_exists, whether an
end pair is a slot (a spanning tree whose non-leaf vertices all lie on the
r1-r2 path exists; predicates absent), and dp2xn.zero_test, whether an
entry is zero (path cells must have the target colour, off cells a
permitted one).  Index builds and solves do not call it.  dominating_paths
lists the paths themselves: the index decides the slots of its sections
below seven cells from it and takes the zero-seed paths of the smallest
ones, and path_exists_bruteforce, the sweep's reference in the tests, tests
the predicates on each of them.

The sweep runs a small automaton over columns.  State per column boundary:

  pt, pb    previous column's top/bottom cell is on the path
  cross     path edges crossing the boundary: 0 none, 1 top only, 2 bottom
            only, 3 both and the two strands are already connected to the
            left (an open U), 4 both as two separate arms
  ends      how many of the two path endpoints are already placed
  dt, db    previous column has an off-path cell not yet adjacent to the
            path (must be covered by this column's same-row cell)

Every path piece has exactly two extremes, each an endpoint or an open
boundary crossing; transitions enforce "outs + endpoints == 2" per piece,
which simultaneously rules out dead strands, stray components and premature
closure.  Reachability invariants (cross 1/2 => ends 1, cross 3 => ends 0,
cross 4 => ends 2) are applied as filters to keep the state space tiny.
"""

from __future__ import annotations

_TRANSITIONS: dict = {}

_CROSS_NONE, _CROSS_T, _CROSS_B, _CROSS_U, _CROSS_SEP = range(5)

_ENDS_OK = {
    _CROSS_NONE: (0, 2),
    _CROSS_T: (1,),
    _CROSS_B: (1,),
    _CROSS_U: (0,),
    _CROSS_SEP: (2,),
}


def _pack(pt, pb, cross, ends, dt, db):
    return pt | pb << 1 | cross << 2 | ends << 5 | dt << 7 | db << 8


def _unpack(state):
    return (
        state & 1,
        state >> 1 & 1,
        state >> 2 & 7,
        state >> 5 & 3,
        state >> 7 & 1,
        state >> 8 & 1,
    )


def _col_key(has_t, has_b, on_t, on_b, off_t, off_b, e_t, e_b):
    return (
        has_t
        | has_b << 1
        | on_t << 2
        | on_b << 3
        | off_t << 4
        | off_b << 5
        | e_t << 6
        | e_b << 8
    )


def _step(state, colkey):
    """All successor states for one column; memoized on (state, column)."""
    cached = _TRANSITIONS.get((state, colkey))
    if cached is not None:
        return cached
    pt, pb, cross, ends, dt, db = _unpack(state)
    has_t = colkey & 1
    has_b = colkey >> 1 & 1
    on_t = colkey >> 2 & 1
    on_b = colkey >> 3 & 1
    off_t = colkey >> 4 & 1
    off_b = colkey >> 5 & 1
    e_t = colkey >> 6 & 3
    e_b = colkey >> 8 & 3

    ct = 1 if cross in (_CROSS_T, _CROSS_U, _CROSS_SEP) else 0
    cb = 1 if cross in (_CROSS_B, _CROSS_U, _CROSS_SEP) else 0
    # Far-end credit carried by each open strand (endpoint count at its
    # other extreme): single strands carry one, a U carries none, separate
    # arms carry one each.
    credit_t = 1 if cross in (_CROSS_T, _CROSS_SEP) else 0
    credit_b = 1 if cross in (_CROSS_B, _CROSS_SEP) else 0

    out = set()
    for ot in (0, 1):
        if ot and not (has_t and on_t):
            continue
        if not ot and (ct or dt or e_t):
            continue
        for ob in (0, 1):
            if ob and not (has_b and on_b):
                continue
            if not ob and (cb or db or e_b):
                continue
            # Off-path cells of this column: permitted colour plus coverage
            # now (vertical or left neighbour on path) or as a debt.
            ndt = ndb = 0
            if has_t and not ot:
                if not off_t:
                    continue
                if not (ob or pt):
                    ndt = 1
            if has_b and not ob:
                if not off_b:
                    continue
                if not (ot or pb):
                    ndb = 1
            new_ends = ends + e_t + e_b
            if new_ends > 2:
                continue
            for v in (0, 1) if (ot and ob) else (0,):
                if v and ct and cb and cross == _CROSS_U:
                    continue  # vertical would close the open U into a cycle
                merged = ot and ob and (v or (ct and cb and cross == _CROSS_U))
                for et in (0, 1) if ot else (0,):
                    for eb in (0, 1) if ob else (0,):
                        if ot and ct + v + et != 2 - e_t:
                            continue
                        if ob and cb + v + eb != 2 - e_b:
                            continue
                        # Two extremes per path piece.
                        if merged:
                            total = (
                                et
                                + eb
                                + e_t
                                + e_b
                                + (credit_t if ct else 0)
                                + (credit_b if cb else 0)
                            )
                            if total != 2:
                                continue
                            if et and eb:
                                ncross = _CROSS_U
                            elif et:
                                ncross = _CROSS_T
                            elif eb:
                                ncross = _CROSS_B
                            else:
                                ncross = _CROSS_NONE
                        else:
                            if ot and et + e_t + (credit_t if ct else 0) != 2:
                                continue
                            if ob and eb + e_b + (credit_b if cb else 0) != 2:
                                continue
                            if et and eb:
                                ncross = _CROSS_SEP
                            elif et:
                                ncross = _CROSS_T
                            elif eb:
                                ncross = _CROSS_B
                            else:
                                ncross = _CROSS_NONE
                        if new_ends not in _ENDS_OK[ncross]:
                            continue
                        out.add(_pack(ot, ob, ncross, new_ends, ndt, ndb))
    result = tuple(out)
    _TRANSITIONS[(state, colkey)] = result
    return result


def path_exists(top, bottom, r1, r2, on_ok=None, off_ok=None) -> bool:
    """Dominating simple-path test; see module docstring.

    top/bottom are half-open column intervals (start, end); r1 and r2 are
    (row, col) cells inside the section.  r1 == r2 is allowed (single-vertex
    path).  Predicates take (row, col) and default to always-true.
    """
    t1, t2 = top
    bb1, bb2 = bottom
    spans = []
    if t1 < t2:
        spans += [t1, t2]
    if bb1 < bb2:
        spans += [bb1, bb2]
    if not spans:
        return False
    cmin, cmax = min(spans), max(spans)
    ends = {}
    ends[r1] = ends.get(r1, 0) + 1
    ends[r2] = ends.get(r2, 0) + 1
    states = {0}
    for j in range(cmin, cmax):
        has_t = t1 <= j < t2
        has_b = bb1 <= j < bb2
        key = _col_key(
            1 if has_t else 0,
            1 if has_b else 0,
            1 if has_t and (on_ok is None or on_ok(0, j)) else 0,
            1 if has_b and (on_ok is None or on_ok(1, j)) else 0,
            1 if has_t and (off_ok is None or off_ok(0, j)) else 0,
            1 if has_b and (off_ok is None or off_ok(1, j)) else 0,
            ends.get((0, j), 0),
            ends.get((1, j), 0),
        )
        nxt = set()
        for s in states:
            nxt.update(_step(s, key))
        if not nxt:
            return False
        states = nxt
    for s in states:
        pt, pb, cross, nends, dt, db = _unpack(s)
        if cross == _CROSS_NONE and nends == 2 and not dt and not db:
            return True
    return False


def dominating_paths(top, bottom, r1, r2):
    """Every simple r1-r2 path of the section with every other section cell
    adjacent to it, as a tuple of cells from r1 to r2.

    Exponential; for small sections only.
    """
    t1, t2 = top
    bb1, bb2 = bottom
    cells = [(0, j) for j in range(t1, t2)] + [(1, j) for j in range(bb1, bb2)]
    present = set(cells)
    if r1 not in present or r2 not in present:
        return

    def neighbours(cell):
        row, col = cell
        for cand in ((row, col - 1), (row, col + 1), (1 - row, col)):
            if cand in present:
                yield cand

    path = [r1]

    def extend(cell):
        if cell == r2:
            # Extending past r2 would give it degree 2.
            on_path = set(path)
            if all(c in on_path or any(nb in on_path for nb in neighbours(c)) for c in cells):
                yield tuple(path)
            return
        for nb in neighbours(cell):
            if nb not in path:
                path.append(nb)
                yield from extend(nb)
                path.pop()

    yield from extend(r1)


def path_exists_bruteforce(top, bottom, r1, r2, on_ok=None, off_ok=None) -> bool:
    """Reference implementation: enumerate all dominating simple r1-r2 paths
    and test the predicates on each.

    Exponential; for tests on small sections only.
    """
    t1, t2 = top
    bb1, bb2 = bottom
    cells = [(0, j) for j in range(t1, t2)] + [(1, j) for j in range(bb1, bb2)]
    for path in dominating_paths(top, bottom, r1, r2):
        on_path = set(path)
        if ((on_ok is None or all(on_ok(*c) for c in path))
                and (off_ok is None or all(off_ok(*c) for c in cells if c not in on_path))):
            return True
    return False
