"""Vertex-Cover-to-board compiler.

Each edge e = uv of the input graph becomes a gadget of width 2r + 6 on the
board (r = 2m + |V|): a 6-column core filled with a colour private to the
gadget, except two single-square bottom-row "islands" coloured u and v, and
two flanks of r fresh one-column colours mirrored around the core.  With a
cover of size k the board floods in N + k moves, N = mr + 2m - 1: one move
per gadget merges the core around the island kept for the cover, r moves
swallow the flanks inside-out, m - 1 moves link the gadget blocks, and one
move per distinct kept colour finishes the islands.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .board import Board2xN, board_from_tokens, to_graph
from .engine import Move, replay
from .errors import CapacityError, FlooditError, InputError, ParseError


@dataclass(frozen=True)
class VCInstance:
    num_vertices: int
    edges: tuple  # ordered (u, v) pairs with u < v

    def __post_init__(self):
        seen = set()
        used = set()
        for u, v in self.edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise InputError(f"edge ({u}, {v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InputError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            used.add(u)
            used.add(v)
        if used != set(range(self.num_vertices)):
            missing = sorted(set(range(self.num_vertices)) - used)
            raise InputError(f"isolated vertices not allowed: {missing}")


@dataclass
class ReductionMeta:
    m: int
    r: int
    n: int
    moves_base: int  # the N of the size bound: floods need N + cover-size moves
    islands: list  # per edge: two (column, colour token) pairs
    legend: dict  # colour token -> role description

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "r": self.r,
            "n": self.n,
            "N": self.moves_base,
            "islands": [[list(island) for island in pair] for pair in self.islands],
            "legend": dict(self.legend),
        }


def parse_graph(text: str) -> VCInstance:
    """One edge per line as "u v"; '#' comments allowed; optional header
    "p <num_vertices>"."""
    edges = []
    declared = None
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if declared is not None or len(parts) != 2:
                raise ParseError("bad header line", line=lineno)
            try:
                declared = int(parts[1])
            except ValueError:
                raise ParseError("bad vertex count in header", line=lineno)
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer vertex id in {line!r}", line=lineno)
        if u < 0 or v < 0:
            raise ParseError("vertex ids must be non-negative", line=lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", line=lineno)
        key = (min(u, v), max(u, v))
        if key in edges:
            raise ParseError(f"duplicate edge ({u}, {v})", line=lineno)
        edges.append(key)
        max_id = max(max_id, u, v)
    if not edges:
        raise ParseError("graph has no edges", line=1)
    num_vertices = declared if declared is not None else max_id + 1
    try:
        return VCInstance(num_vertices, tuple(edges))
    except InputError as exc:
        raise ParseError(str(exc), line=1)


def vertex_token(v: int) -> str:
    return f"v{v}"


def _flank_token(i: int, edge: int) -> str:
    return f"x{i}_e{edge}"


def _core_token(edge: int) -> str:
    return f"a_e{edge}"


def build_board(g: VCInstance):
    """Compile the instance into a board; returns (Board2xN, ReductionMeta)."""
    m = len(g.edges)
    r = 2 * m + g.num_vertices
    width = 2 * r + 6
    n = m * width
    moves_base = m * r + 2 * m - 1
    top = []
    bottom = []
    islands = []
    legend = {}
    for v in range(g.num_vertices):
        legend[vertex_token(v)] = f"vertex {v}"
    for j, (u, v) in enumerate(g.edges):
        base = j * width
        core = _core_token(j)
        legend[core] = f"core of edge {j}"
        for i in range(1, r + 1):
            legend[_flank_token(i, j)] = f"flank {i} of edge {j}"
        # left flank: outermost colour first
        for i in range(r, 0, -1):
            top.append(_flank_token(i, j))
            bottom.append(_flank_token(i, j))
        # 6-column core; islands on the bottom row at local columns 1 and 3
        top.extend([core] * 6)
        core_bottom = [core] * 6
        core_bottom[1] = vertex_token(u)
        core_bottom[3] = vertex_token(v)
        bottom.extend(core_bottom)
        islands.append(
            (
                (base + r + 1, vertex_token(u)),
                (base + r + 3, vertex_token(v)),
            )
        )
        # right flank: innermost colour first
        for i in range(1, r + 1):
            top.append(_flank_token(i, j))
            bottom.append(_flank_token(i, j))
    board = board_from_tokens(top, bottom)
    assert board.n == n
    meta = ReductionMeta(m=m, r=r, n=n, moves_base=moves_base, islands=islands, legend=legend)
    return board, meta


def min_vertex_cover(g: VCInstance, cap: int = 20):
    """Brute-force minimum vertex cover; returns (size, cover set)."""
    if g.num_vertices > cap:
        raise CapacityError(f"instance has {g.num_vertices} vertices, cap is {cap}")
    for k in range(g.num_vertices + 1):
        for combo in itertools.combinations(range(g.num_vertices), k):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in g.edges):
                return k, chosen
    raise FlooditError("unreachable: V itself is always a cover")


def cover_strategy(g: VCInstance, cover, board: Board2xN, meta: ReductionMeta) -> list:
    """Move sequence derived from a vertex cover: floods the board in
    m(r+1) + (m-1) + #distinct-kept-colours moves (<= N + |cover|)."""
    cover = set(cover)
    for u, v in g.edges:
        if u not in cover and v not in cover:
            raise InputError(f"not a vertex cover: edge ({u}, {v}) uncovered")
    token_id = {tok: i for i, tok in enumerate(board.palette)}
    m, r = meta.m, meta.r
    width = 2 * r + 6
    moves = []
    kept_tokens = []
    for j, (u, v) in enumerate(g.edges):
        in_cover = sorted(cover & {u, v})
        keep = in_cover[0]  # deterministic: smaller id when both covered
        absorb = v if keep == u else u
        core_vertex = j * width + r  # top-left core cell
        moves.append(Move(core_vertex, token_id[vertex_token(absorb)]))
        for i in range(1, r + 1):
            moves.append(Move(core_vertex, token_id[_flank_token(i, j)]))
        kept = vertex_token(keep)
        if kept not in kept_tokens:
            kept_tokens.append(kept)
    anchor = r  # core cell of the first gadget
    for j in range(1, m):
        moves.append(Move(anchor, token_id[_flank_token(r, j)]))
    for tok in kept_tokens:
        moves.append(Move(anchor, token_id[tok]))
    final, flooded = replay(to_graph(board), moves)
    if not flooded:
        raise FlooditError("cover strategy failed to flood the board")
    return moves


@dataclass
class ReductionReport:
    m: int
    r: int
    n: int
    moves_base: int
    tau: int
    cover: tuple
    palette_size: int
    upper_bound: int
    lower_bound: int
    verdict: str  # "EQUAL" or "UNRESOLVED"
    notes: str = ""

    @property
    def bracket(self):
        return (self.lower_bound, self.upper_bound)


def verify_reduction(g: VCInstance) -> ReductionReport:
    """Empirical check of the compiled board's flood count.

    Upper bound: replayed cover strategy for a minimum cover.  Lower bound:
    palette size minus one, since a move removes at most one colour from
    the board.  Verdict EQUAL when the bounds meet.
    """
    board, meta = build_board(g)
    tau, cover = min_vertex_cover(g)
    strategy = cover_strategy(g, cover, board, meta)
    upper = len(strategy)
    lower = len(board.palette) - 1
    verdict = "EQUAL" if lower == upper else "UNRESOLVED"
    return ReductionReport(
        m=meta.m,
        r=meta.r,
        n=meta.n,
        moves_base=meta.moves_base,
        tau=tau,
        cover=tuple(sorted(cover)),
        palette_size=len(board.palette),
        upper_bound=upper,
        lower_bound=lower,
        verdict=verdict,
        notes="lower bound from colour count",
    )
