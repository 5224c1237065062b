"""Flood-It game semantics on arbitrary vertex-coloured graphs.

The colouring vector is the whole game state.  A move picks a vertex and a
colour and repaints the monochromatic component containing that vertex.
All operations are pure: moves return new graphs sharing adjacency/palette.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import InputError


@dataclass(frozen=True)
class Move:
    vertex: int
    colour: int


class ColouredGraph:
    """A connected, loop-free undirected graph with a vertex colouring."""

    __slots__ = ("num_vertices", "adjacency", "colouring", "palette")

    def __init__(
        self,
        adjacency: Sequence[Iterable[int]],
        colouring: Sequence[int],
        palette: Sequence[str],
    ):
        adj = tuple(tuple(sorted(set(ns))) for ns in adjacency)
        col = tuple(int(x) for x in colouring)
        pal = tuple(str(t) for t in palette)
        n = len(adj)
        if n == 0:
            raise InputError("graph must have at least one vertex")
        if len(col) != n:
            raise InputError("colouring length does not match vertex count")
        if not pal:
            raise InputError("palette must be non-empty")
        for v, ns in enumerate(adj):
            for u in ns:
                if not 0 <= u < n:
                    raise InputError(f"vertex {v} has out-of-range neighbour {u}")
                if u == v:
                    raise InputError(f"vertex {v} has a self-loop")
                if v not in adj[u]:
                    raise InputError(f"adjacency is not symmetric at edge {v}-{u}")
        for v, cid in enumerate(col):
            if not 0 <= cid < len(pal):
                raise InputError(f"vertex {v} has colour id {cid} outside the palette")
        self.num_vertices = n
        self.adjacency = adj
        self.colouring = col
        self.palette = pal
        if not self._is_connected():
            raise InputError("graph must be connected")

    def _is_connected(self) -> bool:
        seen = [False] * self.num_vertices
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for u in self.adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    count += 1
                    stack.append(u)
        return count == self.num_vertices

    def with_colouring(self, colouring: Sequence[int]) -> "ColouredGraph":
        """Cheap copy with a new colouring (adjacency/palette shared)."""
        col = tuple(int(x) for x in colouring)
        if len(col) != self.num_vertices:
            raise InputError("colouring length does not match vertex count")
        for cid in col:
            if not 0 <= cid < len(self.palette):
                raise InputError(f"colour id {cid} outside the palette")
        g = object.__new__(ColouredGraph)
        g.num_vertices = self.num_vertices
        g.adjacency = self.adjacency
        g.colouring = col
        g.palette = self.palette
        return g

    def edges(self) -> list:
        return [(v, u) for v in range(self.num_vertices) for u in self.adjacency[v] if v < u]

    def __eq__(self, other):
        return (
            isinstance(other, ColouredGraph)
            and self.adjacency == other.adjacency
            and self.colouring == other.colouring
            and self.palette == other.palette
        )

    def __hash__(self):
        return hash((self.adjacency, self.colouring, self.palette))

    def __repr__(self):
        return f"ColouredGraph(n={self.num_vertices}, colouring={self.colouring})"


MoveSeq = Sequence[Move]


def component_of(g: ColouredGraph, vertex: int) -> list:
    """Monochromatic component containing `vertex`, as a sorted vertex list."""
    if not 0 <= vertex < g.num_vertices:
        raise InputError(f"vertex {vertex} out of range")
    colour = g.colouring[vertex]
    seen = {vertex}
    stack = [vertex]
    while stack:
        v = stack.pop()
        for u in g.adjacency[v]:
            if u not in seen and g.colouring[u] == colour:
                seen.add(u)
                stack.append(u)
    return sorted(seen)


def colouring_components(colouring: Sequence[int], adjacency) -> list:
    """Monochromatic components of a raw colouring vector over `adjacency`.

    Blocks come in order of their least vertex, which each lists first; the
    rest of a block is in search order.
    """
    n = len(colouring)
    assigned = [False] * n
    blocks = []
    for v in range(n):
        if assigned[v]:
            continue
        colour = colouring[v]
        assigned[v] = True
        members = [v]
        stack = [v]
        while stack:
            x = stack.pop()
            for u in adjacency[x]:
                if not assigned[u] and colouring[u] == colour:
                    assigned[u] = True
                    members.append(u)
                    stack.append(u)
        blocks.append(members)
    return blocks


def mono_components(g: ColouredGraph) -> list:
    """Partition of the vertices into maximal same-coloured connected blocks,
    in order of their least vertex, each sorted."""
    return [sorted(block) for block in colouring_components(g.colouring, g.adjacency)]


def apply_move(g: ColouredGraph, move: Move) -> ColouredGraph:
    """Repaint the monochromatic component of move.vertex with move.colour."""
    if not 0 <= move.vertex < g.num_vertices:
        raise InputError(f"move vertex {move.vertex} out of range")
    if not 0 <= move.colour < len(g.palette):
        raise InputError(f"move colour {move.colour} outside the palette")
    if g.colouring[move.vertex] == move.colour:
        return g
    block = component_of(g, move.vertex)
    col = list(g.colouring)
    for v in block:
        col[v] = move.colour
    return g.with_colouring(col)


def is_flooded(g: ColouredGraph) -> bool:
    first = g.colouring[0]
    return all(c == first for c in g.colouring)


def replay(g: ColouredGraph, moves: MoveSeq):
    """Apply moves in order; returns (final graph, flooded flag)."""
    for m in moves:
        g = apply_move(g, m)
    return g, is_flooded(g)


def colours_present(g: ColouredGraph, subset: Optional[Iterable[int]] = None) -> set:
    """Set of colour ids appearing on the whole graph or on a vertex subset."""
    if subset is None:
        return set(g.colouring)
    out = set()
    for v in subset:
        if not 0 <= v < g.num_vertices:
            raise InputError(f"subset vertex {v} out of range")
        out.add(g.colouring[v])
    return out


def contract(g: ColouredGraph):
    """Merge each monochromatic component into one vertex.

    Returns (quotient graph, map original vertex -> new vertex id).  The
    quotient is properly coloured: no two adjacent vertices share a colour.
    """
    blocks = mono_components(g)
    vmap = [0] * g.num_vertices
    for i, block in enumerate(blocks):
        for v in block:
            vmap[v] = i
    adj = [set() for _ in blocks]
    for v in range(g.num_vertices):
        for u in g.adjacency[v]:
            a, b = vmap[v], vmap[u]
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
    colouring = [g.colouring[block[0]] for block in blocks]
    return ColouredGraph(adj, colouring, g.palette), vmap


def induced_subgraph(g: ColouredGraph, vertices: Iterable[int]):
    """Induced subgraph on `vertices` (must be connected).

    Returns (subgraph, list mapping new vertex ids back to originals).
    """
    keep = sorted(set(vertices))
    if not keep:
        raise InputError("vertex set must be non-empty")
    index = {v: i for i, v in enumerate(keep)}
    for v in keep:
        if not 0 <= v < g.num_vertices:
            raise InputError(f"vertex {v} out of range")
    adj = [[index[u] for u in g.adjacency[v] if u in index] for v in keep]
    colouring = [g.colouring[v] for v in keep]
    return ColouredGraph(adj, colouring, g.palette), keep
