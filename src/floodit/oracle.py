"""Exhaustive ground-truth solvers and structural checks.

`min_moves` is an exact search over colouring vectors, meant for small
instances.  A move recolours one monochromatic component; moves are
generated once per (component, colour), and `prune_non_merging` keeps only
colours that occur next to the component.  A flood of the wrong colour is
an ordinary state whose one move recolours the whole board to the target.

Search order.  States are expanded best-first by f = g + h, where g is a
state's depth (moves from the start) and h the lower bound (colours present
- 1) + [target absent].  Among states of equal f the deeper one goes first,
its h being smaller, and then the one queued first.  On a board with two
colours every unflooded state has h = 1, so the order is breadth-first.

Why this is exact.  h is 0 exactly on the goals, the floods (of the target
colour, if one is given), and it is consistent.  A move recolours one component, so only its
old colour can leave the board and the colour count falls by at most one.
The target term falls only when the move brings the absent target in, and
then the count does not fall; the final recolour of a wrong-coloured flood
takes h from 1 to 0.  So h falls by at most one per move, and f never falls
along a path.  States leave the queue in order of increasing f, and each at
its least depth: a state reached again at a smaller depth is queued again
with the new parent, and a queued entry whose depth is no longer the
state's least is skipped when it leaves.  So each state is expanded at most
once.  A popped state of key f is not a goal, so h >= 1, and a child with
h = 0 has depth + 1 <= f, hence exactly f.  Every solution of length L
passes only through states with f <= L, and no queued state has a smaller f
than the popped one, so the first goal generated is optimal.  The queue
cannot empty first: an unflooded state has a component with an allowed
mover and a neighbour of another colour, and a wrong-coloured flood has its
recolour to the target.

Budgets.  `SearchBudget.max_states` bounds the colourings the search
stores, every one it has generated, since those are what its memory holds;
`SearchBudget.max_seconds` bounds the wall-clock time.  Both are checked
once per expanded state, so the store overshoots its bound by at most one
state's moves.  Running out of either gives status "unknown" with the
reason, never a wrong value.  `states_explored` counts expanded states,
not generated ones.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from .engine import ColouredGraph, Move, colouring_components, induced_subgraph, replay
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
    the point where it does merge).  A flood of the wrong colour has one
    move, to `target`, at its first allowed vertex.
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

    def bound(state):
        """Moves still needed: (colours present - 1) + [target absent]."""
        present = set(state)
        h = len(present) - 1
        if target is not None and target not in present:
            h += 1
        return h

    start = tuple(g.colouring)
    h = bound(start)
    if h == 0:
        return MinMovesResult("exact", 0, [], 0)
    # state -> (least depth reached so far, parent state, mover, colour)
    reached = {start: (0, None, None, None)}
    # (f, -depth, arrival, state): least f first, then the deeper state,
    # then the one queued first.
    queue = [(h, 0, 0, start)]
    queued = 0
    explored = 0

    def witness(goal):
        moves = []
        cur = goal
        while cur != start:
            _depth, cur, mover, colour = reached[cur]
            moves.append(Move(mover, colour))
        moves.reverse()
        return moves

    while True:
        _f, neg_depth, _arrival, state = heapq.heappop(queue)
        depth = -neg_depth
        if reached[state][0] < depth:
            continue  # queued again since, at a smaller depth
        explored += 1
        if len(reached) > budget.max_states:
            return MinMovesResult(
                "unknown", None, None, explored, reason="state budget exhausted"
            )
        if deadline is not None and time.monotonic() > deadline:
            return MinMovesResult(
                "unknown", None, None, explored, reason="time budget exhausted"
            )
        comps = colouring_components(state, adjacency)
        for members in comps:
            if allowed is not None:
                movers = [v for v in members if v in allowed]
                if not movers:
                    continue
                mover = movers[0]
            else:
                mover = members[0]
            own = state[mover]
            if len(comps) == 1:
                colours = (target,)  # a wrong-coloured flood
            elif prune_non_merging:
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
                reached[nstate] = (depth + 1, state, mover, colour)
                h = bound(nstate)
                if h == 0:
                    # Its f is the popped f, and no queued state has a
                    # lower f: the first goal generated is optimal.
                    return MinMovesResult("exact", depth + 1, witness(nstate), explored)
                queued += 1
                heapq.heappush(queue, (depth + 1 + h, -depth - 1, queued, nstate))


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

    A spanning tree is n - 1 edges that close no cycle.  The recursion
    decides the edges of `g.edges()` in order, including an edge (when its
    ends lie in different trees of the forest so far) before excluding it,
    and drops a branch when too few edges remain to reach n - 1.  Meant for
    small graphs.  Raises EnumerationLimitError past `limit`.
    """
    n = g.num_vertices
    edges = g.edges()
    m = len(edges)
    produced = 0

    def recurse(i, picked, forest):
        nonlocal produced
        if len(picked) == n - 1:
            produced += 1
            if produced > limit:
                raise EnumerationLimitError(f"more than {limit} spanning trees")
            adj = [[] for _ in range(n)]
            for a, b in picked:
                adj[a].append(b)
                adj[b].append(a)
            yield TreeView(ColouredGraph(adj, g.colouring, g.palette))
            return
        if len(picked) + m - i < n - 1:
            return
        a, b = edges[i]
        ra, rb = _find(forest, a), _find(forest, b)
        if ra != rb:
            child = list(forest)
            child[ra] = rb
            yield from recurse(i + 1, picked + [(a, b)], child)
        yield from recurse(i + 1, picked, forest)

    yield from recurse(0, [], list(range(n)))


def check_spanning_tree_theorem(
    g: ColouredGraph, d: int, budget: Optional[SearchBudget] = None
) -> Optional[bool]:
    """Does the graph optimum for target d equal the best optimum over its
    spanning trees?  Returns None when a budget runs out."""
    whole = min_moves(g, target=d, budget=budget)
    if not whole.is_exact:
        return None
    best = None
    for tree in spanning_trees(g):
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
