"""2xN board geometry: the cell-adjacency graph, borders, sections and the
board text file format.

A border is a top-to-bottom path along cell edges, determined by the column
position where it meets the top edge (t) and the bottom edge (b), both in
0..n.  Vertex ids are row-major with row 0 on top: id = row * n + col.

This module is the one home of the geometry: which border pairs bound a
section, which cells touch a border, which edges a border cuts.  Only
bounds_section is also evaluated on arrays, over every pair of low-skew
borders in dp2xn's section index, so it combines comparisons with & and |,
never ~, which turns True into -2.  The index takes a section's cells and
end cells from its borders alone (dp2xn's lemma "row intervals") and its
split records from slots (lemmas "split edges" and "split parents"); the
tests check both against section_vertices, incident_vertices and
crossing_edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .engine import ColouredGraph
from .errors import InputError, ParseError


class Border(NamedTuple):
    t: int
    b: int


@dataclass(frozen=True)
class Board2xN:
    n: int
    cells: tuple  # (top row, bottom row), each a tuple of colour ids
    palette: tuple

    def __post_init__(self):
        if self.n < 1:
            raise InputError("board must have at least one column")
        if len(self.cells) != 2 or any(len(row) != self.n for row in self.cells):
            raise InputError("board must have exactly 2 rows of n cells")
        for row in self.cells:
            for cid in row:
                if not 0 <= cid < len(self.palette):
                    raise InputError(f"cell colour id {cid} outside the palette")

    def vertex(self, row: int, col: int) -> int:
        return row * self.n + col

    def cell_of(self, vertex: int):
        if not 0 <= vertex < 2 * self.n:
            raise InputError(f"vertex {vertex} outside the board")
        return divmod(vertex, self.n)


def board_from_tokens(top: Sequence[str], bottom: Sequence[str]) -> Board2xN:
    """Build a board from colour tokens; ids assigned by first occurrence
    scanning the top row then the bottom row."""
    if len(top) != len(bottom) or not top:
        raise InputError("rows must be non-empty and of equal length")
    ids = {}
    rows = []
    for row in (top, bottom):
        out = []
        for tok in row:
            if tok not in ids:
                ids[tok] = len(ids)
            out.append(ids[tok])
        rows.append(tuple(out))
    palette = tuple(sorted(ids, key=ids.get))
    return Board2xN(len(top), (rows[0], rows[1]), palette)


def parse_board(text: str) -> Board2xN:
    """Parse the board text format.

    Format: a line holding n, then two lines of n whitespace-separated
    colour tokens (top row first).  '#' comment lines may precede the n line.
    """
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].lstrip().startswith("#"):
        i += 1
    if i >= len(lines):
        raise ParseError("missing column-count line", line=i + 1)
    head = lines[i].strip()
    try:
        n = int(head)
    except ValueError:
        raise ParseError(f"expected a column count, got {head!r}", line=i + 1)
    if n < 1:
        raise ParseError(f"column count must be >= 1, got {n}", line=i + 1)
    rows = []
    for r in range(2):
        j = i + 1 + r
        if j >= len(lines):
            raise ParseError("missing board row", line=j + 1)
        toks = lines[j].split()
        if len(toks) != n:
            raise ParseError(f"expected {n} tokens, got {len(toks)}", line=j + 1)
        rows.append(toks)
    for j in range(i + 3, len(lines)):
        if lines[j].strip():
            raise ParseError("unexpected trailing content", line=j + 1)
    return board_from_tokens(rows[0], rows[1])


def serialize_board(board: Board2xN) -> str:
    top = " ".join(board.palette[c] for c in board.cells[0])
    bottom = " ".join(board.palette[c] for c in board.cells[1])
    return f"{board.n}\n{top}\n{bottom}\n"


def to_graph(board: Board2xN) -> ColouredGraph:
    """Cell-adjacency graph: one vertex per square, edges between squares
    sharing a side.  2n vertices, 3n - 2 edges."""
    n = board.n
    adj = [[] for _ in range(2 * n)]
    for row in range(2):
        for col in range(n):
            v = board.vertex(row, col)
            if col + 1 < n:
                adj[v].append(v + 1)
                adj[v + 1].append(v)
            if row == 0:
                below = board.vertex(1, col)
                adj[v].append(below)
                adj[below].append(v)
    colouring = list(board.cells[0]) + list(board.cells[1])
    return ColouredGraph(adj, colouring, board.palette)


def enumerate_borders(n: int) -> list:
    """All (n+1)^2 borders of a 2xN board, including the board edges
    (0,0) and (n,n)."""
    if n < 1:
        raise InputError("n must be >= 1")
    return [Border(t, b) for t in range(n + 1) for b in range(n + 1)]


def low_skew_borders(n: int) -> list:
    """The borders with |t - b| <= 1, the only ones the 2xN dynamic program
    uses, ordered by t + b, then t."""
    return [Border(t, s - t) for s in range(2 * n + 1) for t in range(n + 1)
            if 0 <= s - t <= n and abs(2 * t - s) <= 1]


def border_leq(b1: Border, b2: Border) -> bool:
    """Componentwise order: b1 meets both board edges no further right
    than b2."""
    return b1.t <= b2.t and b1.b <= b2.b


def check_borders(board: Board2xN, *borders: Border):
    """Raise InputError unless every border lies on the board and each one
    is <= the next."""
    for border in borders:
        if not (0 <= border.t <= board.n and 0 <= border.b <= board.n):
            raise InputError(f"border {border} out of range for n={board.n}")
    for b1, b2 in zip(borders, borders[1:]):
        if not border_leq(b1, b2):
            raise InputError(f"borders not ordered: {b1} vs {b2}")


# -- element-wise rules: a section lies between borders (t1, b1) and (t2, b2)


def border_col(t, b, row):
    """Column position where border (t, b) meets row 0 (t) or row 1 (b)."""
    return t + row * (b - t)


def in_section(t1, b1, t2, b2, row, col):
    """Cell (row, col) lies in the section."""
    return (border_col(t1, b1, row) <= col) & (col < border_col(t2, b2, row))


def bounds_section(t1, b1, t2, b2):
    """The borders are ordered and the section is non-empty and connected:
    where both rows are non-empty, their column intervals overlap."""
    return ((t1 <= t2) & (b1 <= b2) & ((t1 < t2) | (b1 < b2))
            & ((t1 == t2) | (b1 == b2) | ((t1 < b2) & (b1 < t2))))


def section_vertices(board: Board2xN, b1: Border, b2: Border) -> set:
    """Vertices strictly between two comparable borders: top-row columns
    b1.t..b2.t-1 and bottom-row columns b1.b..b2.b-1."""
    check_borders(board, b1, b2)
    return {board.vertex(row, col) for row in (0, 1) for col in range(board.n)
            if in_section(*b1, *b2, row, col)}


def is_section(board: Board2xN, b1: Border, b2: Border) -> bool:
    """True iff the vertex set between the borders is non-empty and
    connected."""
    check_borders(board, b1, b2)
    return bounds_section(*b1, *b2)


def section_cells(board: Board2xN, b1: Border, b2: Border, *vertices: int) -> list:
    """(row, col) of each vertex.  Raises InputError unless the borders
    bound a section that holds every vertex."""
    check_borders(board, b1, b2)
    if not bounds_section(*b1, *b2):
        raise InputError(f"borders {b1}, {b2} do not bound a section")
    cells = [board.cell_of(v) for v in vertices]
    for v, (row, col) in zip(vertices, cells):
        if not in_section(*b1, *b2, row, col):
            raise InputError(f"vertex {v} not inside the section")
    return cells


def incident_vertices(
    board: Board2xN,
    border: Border,
    side: str,
    within: Optional[tuple] = None,
) -> list:
    """Squares with an edge on the border.

    Vertical segments at positions t (top row) and b (bottom row) contribute
    the square on the requested side; squares whose middle edge lies in the
    horizontal run [min(t,b), max(t,b)) are incident regardless of side.
    `within` restricts the result to a section given as a (b1, b2) pair.
    """
    check_borders(board, border)
    if side not in ("left", "right"):
        raise InputError(f"side must be 'left' or 'right', got {side!r}")
    b1, b2 = within or (Border(0, 0), Border(board.n, board.n))
    check_borders(board, b1, b2)
    return [board.vertex(row, col) for row in (0, 1) for col in range(board.n)
            if (col == border_col(*border, row) - (side == "left")
                or min(border) <= col < max(border)) and in_section(*b1, *b2, row, col)]


def crossing_edges(
    board: Board2xN,
    border: Border,
    within: Optional[tuple] = None,
) -> list:
    """Edges of the cell graph cut by the border, as (x1, x2) with x1 on the
    left (<=) side.  Cuts: the top horizontal edge at position t, the bottom
    one at position b, and one vertical edge per run column, whose left
    cell is in the bottom row where t < b.  `within` keeps the edges with
    both cells inside a section given as a (b1, b2) pair."""
    check_borders(board, border)
    b1, b2 = within or (Border(0, 0), Border(board.n, board.n))
    check_borders(board, b1, b2)
    t, b = border
    left = (t < b) * 1
    cuts = [((row, p - 1), (row, p)) for row, p in ((0, t), (1, b))]
    cuts += [((left, col), (1 - left, col)) for col in range(min(t, b), max(t, b))]
    return [(board.vertex(*x1), board.vertex(*x2)) for x1, x2 in cuts
            if in_section(*b1, *b2, *x1) and in_section(*b1, *b2, *x2)]
