import random

import pytest

from floodit import dp2xn
from floodit.board import to_graph
from floodit.engine import apply_move, component_of, mono_components, replay
from floodit.errors import CapacityError, InputError, ParseError
from floodit.reduction import (
    VCInstance,
    build_board,
    cover_strategy,
    min_vertex_cover,
    parse_graph,
    verify_reduction,
)

K2 = "0 1\n"
P3 = "0 1\n1 2\n"
K3 = "0 1\n0 2\n1 2\n"


def test_parse_graph_basic():
    g = parse_graph(K2)
    assert g.num_vertices == 2 and g.edges == ((0, 1),)
    g = parse_graph("# comment\np 3\n0 1\n1 2\n")
    assert g.num_vertices == 3 and len(g.edges) == 2


def test_parse_graph_errors():
    with pytest.raises(ParseError):
        parse_graph("0 0\n")
    with pytest.raises(ParseError):
        parse_graph("0 1\n1 0\n")
    with pytest.raises(ParseError):
        parse_graph("p 4\n0 1\n1 2\n")  # vertex 3 isolated
    with pytest.raises(ParseError):
        parse_graph("0\n")
    with pytest.raises(ParseError):
        parse_graph("")


def test_vcinstance_validation():
    with pytest.raises(InputError):
        VCInstance(2, ((0, 0),))
    with pytest.raises(InputError):
        VCInstance(3, ((0, 1),))


@pytest.mark.parametrize(
    "text,m,r,n,moves_base,palette",
    [
        (K2, 1, 4, 14, 5, 7),
        (P3, 2, 7, 40, 17, 19),
        (K3, 3, 9, 72, 32, 33),
    ],
)
def test_build_board_parameters(text, m, r, n, moves_base, palette):
    g = parse_graph(text)
    board, meta = build_board(g)
    assert (meta.m, meta.r, meta.n, meta.moves_base) == (m, r, n, moves_base)
    assert board.n == n
    assert len(board.palette) == palette
    assert len(set(board.cells[0]) | set(board.cells[1])) == palette


def test_islands_are_singleton_bottom_components():
    for text in (K2, P3, K3):
        g = parse_graph(text)
        board, meta = build_board(g)
        graph = to_graph(board)
        assert len(meta.islands) == meta.m
        for pair in meta.islands:
            assert len(pair) == 2
            for col, token in pair:
                vid = board.n + col  # bottom row
                assert board.palette[graph.colouring[vid]] == token
                assert component_of(graph, vid) == [vid]


def test_min_vertex_cover():
    assert min_vertex_cover(parse_graph(K2))[0] == 1
    size, cover = min_vertex_cover(parse_graph(P3))
    assert size == 1 and cover == {1}
    assert min_vertex_cover(parse_graph(K3))[0] == 2
    with pytest.raises(CapacityError):
        min_vertex_cover(parse_graph(K2), cap=1)


@pytest.mark.parametrize(
    "text,cover,expected_len",
    [(K2, {0}, 6), (P3, {1}, 18), (K3, {0, 1}, 34)],
)
def test_cover_strategy_floods_at_expected_length(text, cover, expected_len):
    g = parse_graph(text)
    board, meta = build_board(g)
    moves = cover_strategy(g, cover, board, meta)
    assert len(moves) == expected_len
    final, flooded = replay(to_graph(board), moves)
    assert flooded


def test_cover_strategy_rejects_non_cover():
    g = parse_graph(P3)
    board, meta = build_board(g)
    with pytest.raises(InputError):
        cover_strategy(g, {0}, board, meta)  # edge (1,2) uncovered


def test_cover_strategy_random_covers_within_bound():
    rng = random.Random(14)
    g = parse_graph(P3)
    board, meta = build_board(g)
    for _ in range(8):
        cover = {1} | {v for v in range(3) if rng.random() < 0.5}
        moves = cover_strategy(g, cover, board, meta)
        assert len(moves) <= meta.moves_base + len(cover)
        _, flooded = replay(to_graph(board), moves)
        assert flooded


def test_core_move_unifies_all_but_kept_island():
    g = parse_graph(K2)
    board, meta = build_board(g)
    graph = to_graph(board)
    tau, cover = min_vertex_cover(g)
    moves = cover_strategy(g, cover, board, meta)
    after_core = apply_move(graph, moves[0])
    comp = component_of(after_core, moves[0].vertex)
    assert len(comp) == 11  # the 12-cell core minus the kept island


def test_flank_absorption_grows_by_two_columns():
    g = parse_graph(K2)
    board, meta = build_board(g)
    graph = to_graph(board)
    tau, cover = min_vertex_cover(g)
    moves = cover_strategy(g, cover, board, meta)
    cur = apply_move(graph, moves[0])
    size = len(component_of(cur, moves[0].vertex))
    for mv in moves[1 : 1 + meta.r]:
        cur = apply_move(cur, mv)
        new_size = len(component_of(cur, mv.vertex))
        assert new_size == size + 4
        size = new_size


def test_verify_reduction_reports():
    rep = verify_reduction(parse_graph(K2))
    assert rep.verdict == "EQUAL"
    assert rep.bracket == (6, 6)
    assert rep.moves_base + rep.tau == 6
    assert rep.palette_size == 7

    rep = verify_reduction(parse_graph(P3))
    assert rep.verdict == "EQUAL" and rep.bracket == (18, 18)

    rep = verify_reduction(parse_graph(K3))
    assert rep.verdict == "UNRESOLVED"
    assert rep.bracket == (32, 34)


def test_exact_solve_of_k2_board_is_n_plus_tau():
    # The only exact check of the N + k claim: the K2 board is 2x14 with
    # 7 colours, small enough for the dynamic program.
    g = parse_graph(K2)
    board, meta = build_board(g)
    tau, _ = min_vertex_cover(g)
    assert (board.n, len(board.palette)) == (14, 7)
    value, table = dp2xn.solve(board)
    assert value == meta.moves_base + tau == 6
    moves = dp2xn.reconstruct(table)
    _, flooded = replay(to_graph(board), moves)
    assert flooded and len(moves) == value


def test_meta_dict_fields():
    g = parse_graph(K2)
    _, meta = build_board(g)
    d = meta.as_dict()
    assert set(d) == {"m", "r", "n", "N", "islands", "legend"}
    assert d["N"] == 5
    assert d["islands"][0][0][1] == "v0"
    assert "core of edge 0" in d["legend"].values()
