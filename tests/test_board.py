import itertools
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodit.board import (
    Board2xN,
    Border,
    board_from_tokens,
    border_leq,
    crossing_edges,
    enumerate_borders,
    incident_vertices,
    is_section,
    parse_board,
    section_vertices,
    serialize_board,
    to_graph,
)
from floodit.errors import InputError, ParseError


def test_parse_basic():
    b = parse_board("2\na b\nb a\n")
    assert b.n == 2
    assert b.palette == ("a", "b")
    assert b.cells == ((0, 1), (1, 0))


def test_parse_comments_and_no_trailing_newline():
    b = parse_board("# a comment\n2\nx y\ny x")
    assert b.palette == ("x", "y")


def test_serialize_round_trip():
    text = "3\na b a\nc a b\n"
    b = parse_board(text)
    assert serialize_board(b) == text
    assert parse_board(serialize_board(b)) == b


@st.composite
def token_rows(draw):
    n = draw(st.integers(1, 8))
    tokens = draw(st.lists(st.text(string.ascii_letters + string.digits, min_size=1, max_size=3),
                           min_size=1, max_size=5, unique=True))
    cells = draw(st.lists(st.sampled_from(tokens), min_size=2 * n, max_size=2 * n))
    return cells[:n], cells[n:]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(rows=token_rows())
def test_serialize_parse_round_trip_property(rows):
    top, bottom = rows
    text = f"{len(top)}\n{' '.join(top)}\n{' '.join(bottom)}\n"
    board = parse_board(text)
    assert serialize_board(board) == text
    assert parse_board(serialize_board(board)) == board


def test_parse_ragged_row_fails_with_line():
    with pytest.raises(ParseError) as err:
        parse_board("2\na b\nb\n")
    assert err.value.line == 3


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_board("")
    with pytest.raises(ParseError):
        parse_board("zz\na\nb\n")
    with pytest.raises(ParseError):
        parse_board("1\na\nb\nstray\n")


def test_token_ids_first_occurrence_order():
    b = board_from_tokens(["q", "p"], ["p", "r"])
    assert b.palette == ("q", "p", "r")
    assert b.cells == ((0, 1), (1, 2))


@pytest.mark.parametrize("n,edges", [(1, 1), (2, 4), (3, 7), (5, 13)])
def test_to_graph_counts(n, edges):
    b = Board2xN(n, (tuple([0] * n), tuple([0] * n)), ("a",))
    g = to_graph(b)
    assert g.num_vertices == 2 * n
    assert len(g.edges()) == edges == 3 * n - 2


def test_to_graph_vertex_layout():
    b = parse_board("2\na b\nc d\n")
    g = to_graph(b)
    assert [b.palette[c] for c in g.colouring] == ["a", "b", "c", "d"]
    assert (0, 2) in [(min(e), max(e)) for e in g.edges()]  # vertical at col 0


@pytest.mark.parametrize("n", range(1, 11))
def test_border_count(n):
    borders = enumerate_borders(n)
    assert len(borders) == (n + 1) ** 2
    assert len(set(borders)) == (n + 1) ** 2
    assert Border(0, 0) in borders and Border(n, n) in borders


def test_border_leq_cases():
    n = 3
    assert border_leq(Border(0, 0), Border(n, n))
    assert not border_leq(Border(1, 2), Border(2, 1))
    assert not border_leq(Border(2, 1), Border(1, 2))


def test_border_leq_is_partial_order():
    borders = enumerate_borders(3)
    for b in borders:
        assert border_leq(b, b)
    for b1 in borders:
        for b2 in borders:
            if border_leq(b1, b2) and border_leq(b2, b1):
                assert b1 == b2
            for b3 in borders:
                if border_leq(b1, b2) and border_leq(b2, b3):
                    assert border_leq(b1, b3)


def board_n(n):
    return Board2xN(n, (tuple([0] * n), tuple([0] * n)), ("a",))


def test_section_whole_board():
    b = board_n(3)
    vs = section_vertices(b, Border(0, 0), Border(3, 3))
    assert vs == set(range(6))
    assert is_section(b, Border(0, 0), Border(3, 3))


def test_section_bottom_strip():
    b = board_n(3)
    vs = section_vertices(b, Border(0, 0), Border(0, 2))
    assert vs == {3, 4}  # bottom row cols 0..1 (vertex 3 = (1,0))
    assert is_section(b, Border(0, 0), Border(0, 2))


def test_section_disconnected_not_a_section():
    b = board_n(4)
    b1, b2 = Border(0, 2), Border(2, 4)
    assert section_vertices(b, b1, b2) == {0, 1, 4 + 2, 4 + 3}
    assert not is_section(b, b1, b2)


def test_section_rejects_unordered_borders():
    b = board_n(3)
    with pytest.raises(InputError):
        section_vertices(b, Border(2, 2), Border(1, 1))


def test_section_rejects_out_of_range_borders():
    b = board_n(3)
    with pytest.raises(InputError):
        section_vertices(b, Border(0, 0), Border(5, 5))
    with pytest.raises(InputError):
        is_section(b, Border(0, 0), Border(5, 5))


def test_incident_straight_border():
    b = board_n(4)
    assert incident_vertices(b, Border(2, 2), "right") == [2, 6]
    assert incident_vertices(b, Border(0, 0), "right") == [0, 4]
    assert incident_vertices(b, Border(4, 4), "right") == []
    assert incident_vertices(b, Border(4, 4), "left") == [3, 7]


def test_incident_run_squares_on_both_sides():
    b = board_n(4)
    run = {1, 2, 4 + 1, 4 + 2}  # cols 1..2, both rows
    left = set(incident_vertices(b, Border(1, 3), "left"))
    right = set(incident_vertices(b, Border(1, 3), "right"))
    assert run <= left and run <= right
    assert 0 in left and 4 + 2 in left  # (0,0) and (1,2)
    assert 1 in right and 4 + 3 in right


def test_incident_filtered_to_section():
    b = board_n(4)
    # section: top cols 1..3 (vertices 1,2,3), bottom col 3 (vertex 7)
    within = (Border(1, 3), Border(4, 4))
    sect = section_vertices(b, *within)
    got = incident_vertices(b, Border(1, 3), "right", within=within)
    assert set(got) <= sect
    assert got == [1, 2, 7]


def test_crossing_straight_interior():
    b = board_n(4)
    edges = crossing_edges(b, Border(2, 2))
    assert edges == [(1, 2), (4 + 1, 4 + 2)]


def test_crossing_full_skew():
    b = board_n(4)
    edges = crossing_edges(b, Border(0, 4))
    assert len(edges) == 4
    assert all(x1 == x2 + 4 for x1, x2 in edges)  # bottom cell left of the border


def test_crossing_is_exactly_the_cut():
    b = board_n(4)
    g = to_graph(b)
    for border in enumerate_borders(4):
        cut = {frozenset(e) for e in crossing_edges(b, border)}
        left = {c for c in range(border.t)} | {4 + c for c in range(border.b)}
        expected = {
            frozenset((u, v))
            for u, v in g.edges()
            if (u in left) != (v in left)
        }
        assert cut == expected
        # orientation: x1 on the left side (when both sides non-empty)
        for x1, x2 in crossing_edges(b, border):
            assert x1 in left and x2 not in left


@pytest.mark.parametrize("n", range(1, 6))
def test_crossing_within_a_section_is_the_cut_inside_it(n):
    # Every border against every section: the cell graph's edges with one
    # cell on each side of the border and both in the section, each oriented
    # from its left cell.
    b = board_n(n)
    g = to_graph(b)
    borders = enumerate_borders(n)
    for b1, b2 in itertools.product(borders, repeat=2):
        if not (border_leq(b1, b2) and is_section(b, b1, b2)):
            continue
        inside = section_vertices(b, b1, b2)
        for border in borders:
            left = set(range(border.t)) | {n + c for c in range(border.b)}
            want = {(u, v) if u in left else (v, u) for u, v in g.edges()
                    if (u in left) != (v in left) and {u, v} <= inside}
            got = crossing_edges(b, border, within=(b1, b2))
            assert len(got) == len(want) and set(got) == want, (border, b1, b2)


def test_crossing_removal_disconnects():
    b = board_n(5)
    g = to_graph(b)
    border = Border(2, 3)
    cut = {frozenset(e) for e in crossing_edges(b, border)}
    left = {c for c in range(border.t)} | {5 + c for c in range(border.b)}
    seen = set()
    stack = [0] if 0 in left else []
    seen.update(stack)
    while stack:
        v = stack.pop()
        for u in g.adjacency[v]:
            if frozenset((u, v)) in cut or u in seen:
                continue
            seen.add(u)
            stack.append(u)
    assert seen <= left
