"""Exhaustive ground-truth solvers and structural checks.

`min_moves` is an exact search over colouring vectors, meant for small
instances.  A move recolours one monochromatic component; moves are
generated once per (component, colour), and `prune_non_merging` keeps only
colours that occur next to the component.

Search order.  States are expanded best-first by f = g + h, where g is a
state's depth (moves from the start) and h the lower bound (colours present
- 1) + [target absent].  Among states of equal f the deeper one goes first,
its h being smaller, and then the one queued first.  On a board with two
colours every unflooded state has h = 1, so the order is breadth-first.

Why this is exact.  h is consistent.  A move recolours one component, so
only its old colour can leave the board and the colour count falls by at
most one.  The target term falls only when the move brings the absent
target in, and then the count does not fall.  So h falls by at most one
per move, and f never falls along a path.  States leave the queue in order of
increasing f, and each at its least depth: a state reached again at a
smaller depth is queued again with the new parent, and a queued entry
whose depth is no longer the state's least is skipped when it leaves.  So
each state is expanded at most once.  An expanded state of key f is not
flooded, so h >= 1 and its children have f' >= f and, when flooded
with the right colour (h = 0), g + 1 <= f, hence exactly f.  Every
solution of length L passes only through states with f <= L, and no state
with f below the popped one is left, so the first right-coloured flood
generated is optimal.  A flood of the wrong colour needs one more move, a
recolour of the whole board: it only lowers the incumbent to depth + 2.

The incumbent.  The greedy sequence of `greedy_upper_bound` is a real
solution, so the search looks only for something strictly shorter: it stops
when the least f in the queue reaches the incumbent's length and drops every
child whose f does.  The greedy sequence is the answer when nothing shorter
exists.  The value never depends on the incumbent's quality: when it is
not optimal, the states of an optimal solution all have f at most the
optimum, below the incumbent, and none is dropped.  Its quality changes
only the work.  States with f below the optimum are expanded whatever it
is; an optimal incumbent ends the search before the states with f equal
to the optimum, and a longer one lets more children into the queue.

Budgets.  `states_explored` counts expanded states, not generated ones.
`SearchBudget.max_states` bounds that count and `SearchBudget.max_seconds`
the wall-clock time, checked once per expanded state.  Running out of
either gives status "unknown" with the reason, never a wrong value.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from .engine import ColouredGraph, Move, induced_subgraph, replay
from .errors import EnumerationLimitError, InputError


@dataclass(frozen=True)
class SearchBudget:
    max_states: int = 2_000_000
    max_seconds: Optional[float] = None

    def __post_init__(self):
        if self.max_states <= 0:
            raise InputError("max_states must be positive")
        if self.max_seconds is not None and not self.max_seconds > 0:
            raise InputError("max_seconds must be positive")


@dataclass
class MinMovesResult:
    status: str  # "exact" or "unknown"
    value: Optional[int]
    witness: Optional[list]
    states_explored: int
    reason: str = ""

    @property
    def is_exact(self) -> bool:
        return self.status == "exact"


def _components_of(colouring, adjacency):
    """Monochromatic components of a raw colouring vector."""
    n = len(colouring)
    comp = [-1] * n
    comps = []
    for v in range(n):
        if comp[v] >= 0:
            continue
        cid = len(comps)
        colour = colouring[v]
        members = [v]
        comp[v] = cid
        stack = [v]
        while stack:
            x = stack.pop()
            for u in adjacency[x]:
                if comp[u] < 0 and colouring[u] == colour:
                    comp[u] = cid
                    members.append(u)
                    stack.append(u)
        comps.append(members)
    return comps, comp


def greedy_upper_bound(
    g: ColouredGraph,
    target: Optional[int] = None,
    allowed_vertices: Optional[Iterable[int]] = None,
) -> list:
    """A valid (not optimal) flooding sequence, used as a pruning bound."""
    allowed = set(range(g.num_vertices)) if allowed_vertices is None else set(allowed_vertices)
    adjacency = g.adjacency
    colouring = list(g.colouring)
    moves = []
    anchor = min(allowed)
    while True:
        comps, comp_of = _components_of(colouring, adjacency)
        if len(comps) == 1:
            break
        # Grow the component holding the anchor by its most common
        # neighbouring colour.
        home = comp_of[anchor]
        counts = {}
        for v in comps[home]:
            for u in adjacency[v]:
                if comp_of[u] != home:
                    counts[colouring[u]] = counts.get(colouring[u], 0) + 1
        colour = max(counts, key=lambda c: (counts[c], -c))
        moves.append(Move(anchor, colour))
        for v in comps[home]:
            colouring[v] = colour
    if target is not None and colouring[0] != target:
        moves.append(Move(anchor, target))
    return moves


def min_moves(
    g: ColouredGraph,
    target: Optional[int] = None,
    allowed_vertices: Optional[Iterable[int]] = None,
    budget: Optional[SearchBudget] = None,
    prune_non_merging: bool = True,
) -> MinMovesResult:
    """Exact minimum number of moves to flood `g` (optionally with a fixed
    final colour, optionally with moves restricted to a vertex set).

    Best-first over colouring vectors in order of depth + lower bound, as
    the module docstring describes; one representative move per (component,
    colour).  `prune_non_merging` drops moves that do not merge components,
    which preserves optimality (a non-merging move can always be deferred to
    the point where it does merge); the final recolour-only move of the
    targeted variant is handled separately.
    """
    if budget is None:
        budget = SearchBudget()
    n = g.num_vertices
    c = len(g.palette)
    if target is not None and not 0 <= target < c:
        raise InputError(f"target colour {target} outside the palette")
    allowed = None
    if allowed_vertices is not None:
        allowed = set(allowed_vertices)
        if not allowed:
            raise InputError("allowed_vertices must be non-empty")
        for v in allowed:
            if not 0 <= v < n:
                raise InputError(f"allowed vertex {v} out of range")
    adjacency = g.adjacency
    deadline = None
    if budget.max_seconds is not None:
        deadline = time.monotonic() + budget.max_seconds

    ub_moves = greedy_upper_bound(g, target, allowed)

    start = tuple(g.colouring)
    if len(set(start)) == 1:
        if target is None or start[0] == target:
            return MinMovesResult("exact", 0, [], 0)
        fix = Move(min(allowed) if allowed else 0, target)
        return MinMovesResult("exact", 1, [fix], 0)

    # The greedy sequence is a real solution; the search only has to look
    # for something strictly shorter: no f at or above best_value is queued.
    best_value = len(ub_moves)
    best_state = None
    best_extra = None  # final recolour move for a wrong-coloured flood
    # state -> (least depth reached so far, parent state, mover, colour)
    reached = {start: (0, None, None, None)}
    lb = len(set(start)) - 1
    if target is not None and target not in start:
        lb += 1
    # (f, -depth, arrival, state): least f first, then the deeper state,
    # then the one queued first.
    queue = [(lb, 0, 0, start)]
    queued = 0
    explored = 0

    def build_witness():
        if best_state is None:
            return list(ub_moves)
        moves = []
        cur = best_state
        while cur != start:
            _depth, cur, mover, colour = reached[cur]
            moves.append(Move(mover, colour))
        moves.reverse()
        if best_extra is not None:
            moves.append(best_extra)
        return moves

    while queue:
        f, neg_depth, _arrival, state = heapq.heappop(queue)
        if f >= best_value:
            break  # nothing left can beat the best known solution
        depth = -neg_depth
        if reached[state][0] < depth:
            continue  # queued again since, at a smaller depth
        explored += 1
        if explored > budget.max_states:
            return MinMovesResult(
                "unknown", None, None, explored, reason="state budget exhausted"
            )
        if deadline is not None and time.monotonic() > deadline:
            return MinMovesResult(
                "unknown", None, None, explored, reason="time budget exhausted"
            )
        comps, _comp_of = _components_of(state, adjacency)
        for members in comps:
            if allowed is not None:
                movers = [v for v in members if v in allowed]
                if not movers:
                    continue
                mover = movers[0]
            else:
                mover = members[0]
            own = state[mover]
            if prune_non_merging:
                colours = set()
                for v in members:
                    for u in adjacency[v]:
                        if state[u] != own:
                            colours.add(state[u])
            else:
                colours = set(range(c)) - {own}
            for colour in colours:
                nstate = list(state)
                for v in members:
                    nstate[v] = colour
                nstate = tuple(nstate)
                known = reached.get(nstate)
                if known is not None and known[0] <= depth + 1:
                    continue
                present = set(nstate)
                if len(present) == 1:  # flooded, with the move's colour
                    if target is None or colour == target:
                        # Its f is the popped f, and no state with a lower
                        # f is left: the first hit is optimal.
                        reached[nstate] = (depth + 1, state, mover, colour)
                        best_state = nstate
                        best_extra = None
                        return MinMovesResult(
                            "exact", depth + 1, build_witness(), explored
                        )
                    if depth + 2 < best_value:
                        reached[nstate] = (depth + 1, state, mover, colour)
                        best_value = depth + 2
                        best_state = nstate
                        best_extra = Move(
                            min(allowed) if allowed else 0, target
                        )
                    continue
                # Flooding still needs >= (#colours present - 1) moves.
                lb = len(present) - 1
                if target is not None and target not in present:
                    lb += 1
                if depth + 1 + lb >= best_value:
                    continue
                reached[nstate] = (depth + 1, state, mover, colour)
                queued += 1
                heapq.heappush(queue, (depth + 1 + lb, -depth - 1, queued, nstate))

    # Search exhausted everything that could beat the best known solution.
    return MinMovesResult("exact", best_value, build_witness(), explored)


class TreeView:
    """A coloured tree with accessors for the leaf-free core and for the
    unique path between two vertices."""

    def __init__(self, graph: ColouredGraph):
        if len(graph.edges()) != graph.num_vertices - 1:
            raise InputError("not a tree: edge count != n - 1")
        self.graph = graph

    def non_leaf_vertices(self) -> frozenset:
        """Vertices remaining after deleting every leaf."""
        g = self.graph
        if g.num_vertices == 1:
            return frozenset({0})
        return frozenset(
            v for v in range(g.num_vertices) if len(g.adjacency[v]) >= 2
        )

    def path_between(self, x: int, y: int) -> list:
        g = self.graph
        prev = {x: None}
        stack = [x]
        while stack:
            v = stack.pop()
            if v == y:
                break
            for u in g.adjacency[v]:
                if u not in prev:
                    prev[u] = v
                    stack.append(u)
        path = [y]
        while prev[path[-1]] is not None:
            path.append(prev[path[-1]])
        path.reverse()
        return path


def _find(parent, a):
    """Root of a in the union-find forest parent, halving the path."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def spanning_trees(g: ColouredGraph, limit: int = 100_000):
    """Yield every spanning tree of `g` exactly once as a TreeView.

    Include/exclude recursion on the edge list with connectivity pruning;
    meant for small graphs.  Raises EnumerationLimitError past `limit`.
    """
    n = g.num_vertices
    edges = g.edges()
    m = len(edges)
    produced = 0

    def connected_with(edge_subset_flags, from_index):
        # Can the edges chosen so far plus all undecided edges still connect?
        parent = list(range(n))
        comps = n
        for i, (a, b) in enumerate(edges):
            if i < from_index and not edge_subset_flags[i]:
                continue
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                parent[ra] = rb
                comps -= 1
        return comps == 1

    chosen = [False] * m

    def recurse(i, picked, uf_parent):
        nonlocal produced
        if picked == n - 1:
            produced += 1
            if produced > limit:
                raise EnumerationLimitError(
                    f"more than {limit} spanning trees"
                )
            adj = [[] for _ in range(n)]
            for k, (a, b) in enumerate(edges):
                if chosen[k]:
                    adj[a].append(b)
                    adj[b].append(a)
            yield TreeView(ColouredGraph(adj, g.colouring, g.palette))
            return
        if i == m:
            return
        a, b = edges[i]
        ra, rb = _find(uf_parent, a), _find(uf_parent, b)
        if ra != rb:
            child = list(uf_parent)
            child[ra] = rb
            chosen[i] = True
            yield from recurse(i + 1, picked + 1, child)
            chosen[i] = False
        if connected_with(chosen, i + 1):
            yield from recurse(i + 1, picked, uf_parent)

    yield from recurse(0, 0, list(range(n)))


def check_spanning_tree_theorem(
    g: ColouredGraph,
    d: int,
    budget: Optional[SearchBudget] = None,
    tree_limit: int = 100_000,
) -> Optional[bool]:
    """Does the graph optimum for target d equal the best optimum over its
    spanning trees?  Returns None when a budget runs out."""
    whole = min_moves(g, target=d, budget=budget)
    if not whole.is_exact:
        return None
    best = None
    for tree in spanning_trees(g, limit=tree_limit):
        res = min_moves(tree.graph, target=d, budget=budget)
        if not res.is_exact:
            return None
        if best is None or res.value < best:
            best = res.value
    return best == whole.value


def check_no_leaf_moves(
    tree: TreeView, budget: Optional[SearchBudget] = None
) -> Optional[bool]:
    """Is the tree optimum achievable with all moves at non-leaf vertices?"""
    g = tree.graph
    if g.num_vertices < 3:
        raise InputError("tree must have at least 3 vertices")
    core = tree.non_leaf_vertices()
    unrestricted = min_moves(g, budget=budget)
    restricted = min_moves(g, allowed_vertices=core, budget=budget)
    if not (unrestricted.is_exact and restricted.is_exact):
        return None
    return unrestricted.value == restricted.value


def check_subadditivity(
    g: ColouredGraph,
    part_a: Iterable[int],
    part_b: Iterable[int],
    d: int,
    budget: Optional[SearchBudget] = None,
) -> Optional[bool]:
    """m(G, d) <= m(G[A], d) + m(G[B], d) for connected covering parts."""
    a = set(part_a)
    b = set(part_b)
    if a | b != set(range(g.num_vertices)):
        raise InputError("parts must cover the vertex set")
    sub_a, _ = induced_subgraph(g, a)
    sub_b, _ = induced_subgraph(g, b)
    whole = min_moves(g, target=d, budget=budget)
    ra = min_moves(sub_a, target=d, budget=budget)
    rb = min_moves(sub_b, target=d, budget=budget)
    if not (whole.is_exact and ra.is_exact and rb.is_exact):
        return None
    return whole.value <= ra.value + rb.value


def validate_witness(g: ColouredGraph, result: MinMovesResult, target=None) -> bool:
    """Replay a search witness: right length and a flooded final state."""
    if not result.is_exact:
        return False
    final, flooded = replay(g, result.witness)
    if not flooded or len(result.witness) != result.value:
        return False
    return target is None or final.colouring[0] == target
