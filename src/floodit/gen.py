"""Deterministic random instance generators for tests, verification suites
and the CLI."""

from __future__ import annotations

import random
from typing import Optional

from .board import Board2xN
from .engine import ColouredGraph
from .errors import InputError


def colour_tokens(count: int) -> tuple:
    if count < 1:
        raise InputError("colour count must be >= 1")
    letters = "abcdefghijklmnopqrstuvwxyz"
    if count <= len(letters):
        return tuple(letters[:count])
    return tuple(f"c{i}" for i in range(count))


def random_board(rng: random.Random, n: int, colours: int) -> Board2xN:
    """Uniform independent cell colours."""
    if n < 1:
        raise InputError("n must be >= 1")
    cells = tuple(tuple(rng.randrange(colours) for _ in range(n)) for _ in range(2))
    return Board2xN(n, cells, colour_tokens(colours))


def colourings_up_to_renaming(length: int, colours: int):
    """Colourings of `length` cells with at most `colours` colours, one per
    class up to renaming colours: colour ids appear in first-use order.
    Lazy, in lexicographic order."""
    prefix = []

    def extend(used):
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for v in range(min(used + 1, colours)):
            prefix.append(v)
            yield from extend(max(used, v + 1))
            prefix.pop()

    yield from extend(0)


def random_connected_graph(
    rng: random.Random, num_vertices: int, colours: int, extra_edges: Optional[int] = None
) -> ColouredGraph:
    """Random spanning tree plus a few extra edges, randomly coloured."""
    if num_vertices < 1:
        raise InputError("num_vertices must be >= 1")
    edges = set()
    for v in range(1, num_vertices):
        edges.add((rng.randrange(v), v))
    if extra_edges is None:
        extra_edges = rng.randint(0, max(0, num_vertices - 2))
    for _ in range(extra_edges):
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    adj = [[] for _ in range(num_vertices)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colouring = [rng.randrange(colours) for _ in range(num_vertices)]
    return ColouredGraph(adj, colouring, colour_tokens(colours))


def random_tree(rng: random.Random, num_vertices: int, colours: int) -> ColouredGraph:
    return random_connected_graph(rng, num_vertices, colours, extra_edges=0)


def random_covering_pair(rng: random.Random, g: ColouredGraph):
    """Two connected vertex sets covering V, for subadditivity checks.

    Grows a random connected set A, then extends its complement to a
    connected covering partner B (overlap allowed).
    """
    n = g.num_vertices
    size_a = rng.randint(1, n)
    start = rng.randrange(n)
    part_a = {start}
    frontier = [start]
    while len(part_a) < size_a and frontier:
        v = frontier[rng.randrange(len(frontier))]
        options = [u for u in g.adjacency[v] if u not in part_a]
        if not options:
            frontier.remove(v)
            continue
        u = rng.choice(options)
        part_a.add(u)
        frontier.append(u)
    rest = set(range(n)) - part_a
    if not rest:
        return sorted(part_a), sorted(part_a)
    # Join the leftover vertices into one connected part with shortest paths.
    part_b = set()
    for v in rest:
        if part_b and not any(u in part_b for u in g.adjacency[v]) and v not in part_b:
            part_b |= _path_to(g, v, part_b)
        part_b.add(v)
    return sorted(part_a), sorted(part_b)


def _path_to(g: ColouredGraph, v: int, targets: set) -> set:
    """Vertices on a shortest path from v to any target (inclusive)."""
    prev = {v: None}
    queue = [v]
    hit = None
    while queue:
        x = queue.pop(0)
        if x in targets:
            hit = x
            break
        for u in g.adjacency[x]:
            if u not in prev:
                prev[u] = x
                queue.append(u)
    out = set()
    while hit is not None:
        out.add(hit)
        hit = prev[hit]
    return out
