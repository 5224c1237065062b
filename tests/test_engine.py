import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodit.engine import (
    ColouredGraph,
    Move,
    apply_move,
    colours_present,
    contract,
    induced_subgraph,
    is_flooded,
    mono_components,
    replay,
)
from floodit.errors import InputError


def path_graph(colours, palette=("a", "b", "c")):
    n = len(colours)
    adj = [[] for _ in range(n)]
    for i in range(n - 1):
        adj[i].append(i + 1)
        adj[i + 1].append(i)
    return ColouredGraph(adj, colours, palette)


def checkerboard_2x2():
    # a b / b a with vertices 0 1 / 2 3
    adj = [[1, 2], [0, 3], [0, 3], [1, 2]]
    return ColouredGraph(adj, [0, 1, 1, 0], ("a", "b"))


def test_construction_rejects_disconnected():
    with pytest.raises(InputError):
        ColouredGraph([[], []], [0, 0], ("a",))


def test_construction_rejects_asymmetric():
    with pytest.raises(InputError):
        ColouredGraph([[1], []], [0, 0], ("a",))


def test_construction_rejects_bad_colour():
    with pytest.raises(InputError):
        ColouredGraph([[1], [0]], [0, 5], ("a",))


def test_mono_components_single_block():
    g = path_graph([0, 0, 0])
    assert mono_components(g) == [[0, 1, 2]]


def test_mono_components_two_singletons():
    g = path_graph([0, 1], palette=("a", "b"))
    assert mono_components(g) == [[0], [1]]


def test_mono_components_path_aba():
    g = path_graph([0, 1, 0])
    assert mono_components(g) == [[0], [1], [2]]


def test_apply_move_same_colour_is_identity():
    g = path_graph([0, 0, 0])
    assert apply_move(g, Move(1, 0)).colouring == g.colouring


def test_apply_move_merges_path_aba():
    g = path_graph([0, 1, 0])
    out = apply_move(g, Move(1, 0))
    assert out.colouring == (0, 0, 0)


def test_apply_move_checkerboard():
    g = checkerboard_2x2()
    out = apply_move(g, Move(0, 1))
    # three-vertex b component plus one a vertex
    assert out.colouring == (1, 1, 1, 0)
    comps = mono_components(out)
    assert sorted(map(len, comps)) == [1, 3]


def test_apply_move_out_of_range():
    g = checkerboard_2x2()
    with pytest.raises(InputError):
        apply_move(g, Move(9, 0))
    with pytest.raises(InputError):
        apply_move(g, Move(0, 9))


def test_apply_move_idempotent():
    g = checkerboard_2x2()
    once = apply_move(g, Move(0, 1))
    twice = apply_move(once, Move(0, 1))
    assert once.colouring == twice.colouring


def test_apply_move_never_splits_components():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 7)
        adj = [[] for _ in range(n)]
        for v in range(1, n):
            u = rng.randrange(v)
            adj[u].append(v)
            adj[v].append(u)
        g = ColouredGraph(adj, [rng.randrange(3) for _ in range(n)], ("a", "b", "c"))
        before = mono_components(g)
        out = apply_move(g, Move(rng.randrange(n), rng.randrange(3)))
        after = mono_components(out)
        for block in before:
            assert any(set(block) <= set(nb) for nb in after)


@st.composite
def graphs_and_moves(draw):
    n = draw(st.integers(1, 8))
    adj = [set() for _ in range(n)]
    for v in range(1, n):  # a random spanning tree, then extra edges
        u = draw(st.integers(0, v - 1))
        adj[u].add(v)
        adj[v].add(u)
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=n)):
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    colouring = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    g = ColouredGraph([sorted(a) for a in adj], colouring, ("a", "b", "c"))
    return g, Move(draw(st.integers(0, n - 1)), draw(st.integers(0, 2)))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(case=graphs_and_moves())
def test_apply_move_never_splits_a_component_property(case):
    g, move = case
    after = [set(block) for block in mono_components(apply_move(g, move))]
    for block in mono_components(g):
        assert any(set(block) <= other for other in after), (g, move)


def test_replay_empty_sequences():
    g = path_graph([0, 0])
    _, flooded = replay(g, [])
    assert flooded
    g2 = path_graph([0, 1], palette=("a", "b"))
    _, flooded = replay(g2, [])
    assert not flooded


def test_replay_greedy_absorb_floods_in_n_minus_1():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 8)
        adj = [[] for _ in range(n)]
        for v in range(1, n):
            u = rng.randrange(v)
            adj[u].append(v)
            adj[v].append(u)
        colours = [rng.randrange(4) for _ in range(n)]
        g = ColouredGraph(adj, colours, ("a", "b", "c", "d"))
        moves = []
        cur = g
        for _ in range(n - 1):
            blocks = mono_components(cur)
            if len(blocks) == 1:
                moves.append(Move(0, cur.colouring[0]))
                continue
            home = blocks[0]
            neighbour_colour = next(
                cur.colouring[u]
                for v in home
                for u in cur.adjacency[v]
                if cur.colouring[u] != cur.colouring[home[0]]
            )
            mv = Move(home[0], neighbour_colour)
            moves.append(mv)
            cur = apply_move(cur, mv)
        assert len(moves) == n - 1
        _, flooded = replay(g, moves)
        assert flooded


def test_flooded_replay_needs_at_least_colours_minus_one():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(2, 7)
        adj = [[] for _ in range(n)]
        for v in range(1, n):
            u = rng.randrange(v)
            adj[u].append(v)
            adj[v].append(u)
        g = ColouredGraph(adj, [rng.randrange(3) for _ in range(n)], ("a", "b", "c"))
        moves = [Move(rng.randrange(n), rng.randrange(3)) for _ in range(rng.randint(0, 8))]
        final, flooded = replay(g, moves)
        if flooded:
            assert len(moves) >= len(colours_present(g)) - 1


def test_colours_present():
    g = checkerboard_2x2()
    assert colours_present(g) == {0, 1}
    assert colours_present(g, [0]) == {0}
    mono = path_graph([0, 0, 0])
    assert colours_present(mono) == {0}


def test_contract_proper_graph_unchanged_shape():
    g = path_graph([0, 1, 0])
    out, vmap = contract(g)
    assert out.num_vertices == 3
    assert vmap == [0, 1, 2]


def test_contract_monochromatic_to_point():
    g = path_graph([0, 0, 0])
    out, vmap = contract(g)
    assert out.num_vertices == 1
    assert vmap == [0, 0, 0]


def test_contract_path_aab():
    g = path_graph([0, 0, 1], palette=("a", "b"))
    out, vmap = contract(g)
    assert out.num_vertices == 2
    assert vmap == [0, 0, 1]
    assert out.colouring == (0, 1)


def test_contract_is_idempotent():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 7)
        adj = [[] for _ in range(n)]
        for v in range(1, n):
            u = rng.randrange(v)
            adj[u].append(v)
            adj[v].append(u)
        g = ColouredGraph(adj, [rng.randrange(2) for _ in range(n)], ("a", "b"))
        once, _ = contract(g)
        twice, _ = contract(once)
        assert once.num_vertices == twice.num_vertices
        assert once.colouring == twice.colouring
    # contracted graphs are properly coloured
    for u in range(once.num_vertices):
        for v in once.adjacency[u]:
            assert once.colouring[u] != once.colouring[v]


def test_induced_subgraph_requires_connected():
    g = path_graph([0, 1, 0])
    with pytest.raises(InputError):
        induced_subgraph(g, [0, 2])


def test_is_flooded():
    assert is_flooded(path_graph([1, 1, 1]))
    assert not is_flooded(path_graph([0, 1, 0]))
