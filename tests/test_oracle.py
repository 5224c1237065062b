import itertools
import random
import tracemalloc

import numpy as np
import pytest

from floodit.board import Board2xN, board_from_tokens, to_graph
from floodit.engine import ColouredGraph, Move, colours_present, replay
from floodit.errors import EnumerationLimitError, InputError
from floodit.gen import random_board, random_connected_graph, random_covering_pair, random_tree
from floodit.oracle import (
    MinMovesResult,
    SearchBudget,
    TreeView,
    check_no_leaf_moves,
    check_spanning_tree_theorem,
    check_subadditivity,
    min_moves,
    spanning_trees,
    validate_witness,
)


def test_monochromatic_graph_is_zero():
    g = ColouredGraph([[1], [0]], [0, 0], ("a",))
    res = min_moves(g)
    assert res.is_exact and res.value == 0 and res.witness == []


def test_2x2_checkerboard_needs_two():
    g = to_graph(board_from_tokens(list("ab"), list("ba")))
    res = min_moves(g)
    assert res.value == 2
    assert validate_witness(g, res)


def test_lower_bound_colours_minus_one():
    rng = random.Random(2)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 7), 3)
        res = min_moves(g)
        assert res.value >= len(colours_present(g)) - 1
        assert res.value <= g.num_vertices - 1
        assert validate_witness(g, res)


def test_targeted_result_ends_in_target():
    g = to_graph(board_from_tokens(list("ab"), list("ba")))
    for d in (0, 1):
        res = min_moves(g, target=d)
        final, flooded = replay(g, res.witness)
        assert flooded and final.colouring[0] == d


def test_wrong_colour_mono_costs_one():
    g = ColouredGraph([[1], [0]], [0, 0], ("a", "b"))
    assert min_moves(g, target=1).value == 1
    res = min_moves(g, target=1, allowed_vertices=[1])
    assert res.value == 1 and res.witness == [Move(1, 1)]


def test_restricting_vertices_never_decreases():
    rng = random.Random(8)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 6), 3)
        free = min_moves(g).value
        allowed = sorted(rng.sample(range(g.num_vertices), rng.randint(1, g.num_vertices)))
        restricted = min_moves(g, allowed_vertices=allowed).value
        assert restricted >= free


def test_prune_matches_unpruned_exhaustively_2x2():
    for cells in itertools.product(range(3), repeat=4):
        board = Board2xN(2, (tuple(cells[:2]), tuple(cells[2:])), ("a", "b", "c"))
        g = to_graph(board)
        for target in (None, 0, 1, 2):
            fast = min_moves(g, target=target, prune_non_merging=True)
            slow = min_moves(g, target=target, prune_non_merging=False)
            assert fast.value == slow.value


def brute_force_values(g, allowed=None):
    """Unpruned breadth-first search from g's colouring: every move at an
    allowed vertex to every other palette colour, no bound, no incumbent.
    Returns the free value and the value for each target colour."""
    n, c, adjacency = g.num_vertices, len(g.palette), g.adjacency
    movers = range(n) if allowed is None else sorted(allowed)
    start = tuple(g.colouring)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            for v in movers:
                block, stack = {v}, [v]
                while stack:
                    x = stack.pop()
                    for u in adjacency[x]:
                        if u not in block and state[u] == state[v]:
                            block.add(u)
                            stack.append(u)
                for colour in range(c):
                    if colour == state[v]:
                        continue
                    nstate = tuple(colour if x in block else state[x] for x in range(n))
                    if nstate not in dist:
                        dist[nstate] = dist[state] + 1
                        nxt.append(nstate)
        frontier = nxt
    per_target = [dist.get((d,) * n) for d in range(c)]
    return min(v for v in per_target if v is not None), per_target


def test_matches_brute_force_on_every_2x3_board():
    for cells in itertools.product(range(3), repeat=6):
        g = to_graph(Board2xN(3, (cells[:3], cells[3:]), ("a", "b", "c")))
        free, per_target = brute_force_values(g)
        res = min_moves(g)
        assert res.value == free and validate_witness(g, res)
        for d in range(3):
            res = min_moves(g, target=d)
            assert res.value == per_target[d] and validate_witness(g, res, d)


def test_matches_brute_force_on_random_graphs():
    rng = random.Random(1414)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 7), rng.randint(2, 3))
        allowed = sorted(rng.sample(range(g.num_vertices), rng.randint(1, g.num_vertices)))
        free, per_target = brute_force_values(g, allowed)
        for target, want in [(None, free), *enumerate(per_target)]:
            for prune in (True, False):
                res = min_moves(g, target=target, allowed_vertices=allowed,
                                prune_non_merging=prune)
                assert res.value == want
                assert validate_witness(g, res, target)


@pytest.mark.parametrize("adjacency, colouring, palette, target, value", [
    # The all-c flood of the wrong colour is reached at depth 3, then at 2.
    ([[1, 3], [0, 2], [1, 3, 4], [0, 2], [2, 5, 6], [4], [4]],
     [0, 1, 1, 2, 0, 2, 0], "abc", 1, 3),
    # An unflooded colouring is reached again at a smaller depth.
    ([[1, 4], [0, 2], [1, 3, 5], [2], [0], [2]], [3, 2, 3, 0, 0, 2], "abcd", 2, 3),
])
def test_colouring_reached_again_at_smaller_depth(adjacency, colouring, palette,
                                                  target, value):
    """The search meets these colourings first on a longer path; only the
    shorter path found later gives the optimum."""
    g = ColouredGraph(adjacency, colouring, tuple(palette))
    _free, per_target = brute_force_values(g)
    res = min_moves(g, target=target)
    assert res.value == per_target[target] == value
    assert validate_witness(g, res, target)


def test_restricted_witness_moves_only_at_allowed_vertices():
    """Every move of a restricted search is made at an allowed vertex, also
    the final recolour of a flood when the target is absent from the graph."""
    rng = random.Random(23)
    for _ in range(100):
        colours = rng.randint(2, 4)
        g = random_connected_graph(rng, rng.randint(2, 7), colours - 1)
        g = ColouredGraph(g.adjacency, g.colouring, tuple("abcd"[:colours]))
        allowed = set(rng.sample(range(g.num_vertices), rng.randint(1, g.num_vertices)))
        for target in (None, *range(colours)):
            res = min_moves(g, target=target, allowed_vertices=allowed)
            assert validate_witness(g, res, target)
            assert all(move.vertex in allowed for move in res.witness)


def test_budget_exhaustion_is_explicit():
    g = to_graph(board_from_tokens(list("abc"), list("cab")))
    res = min_moves(g, budget=SearchBudget(max_states=1))
    assert res.status == "unknown" and res.value is None


def test_state_budget_bounds_the_stored_colourings():
    # A 2x20 board with 4 colours generates some 14 colourings per expanded
    # one, each about 0.5 KiB as stored: a bound on the expanded count alone
    # lets 5,000 expansions hold some 39 MiB.
    g = to_graph(random_board(random.Random(3), 20, 4))
    tracemalloc.start()
    try:
        res = min_moves(g, budget=SearchBudget(max_states=5000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "unknown" and res.reason == "state budget exhausted"
    assert peak < 8 * 2**20


def test_wall_clock_budget_is_explicit():
    g = to_graph(random_board(random.Random(3), 6, 5))
    assert min_moves(g).states_explored > 0
    res = min_moves(g, budget=SearchBudget(max_seconds=1e-9))
    assert res.status == "unknown" and res.value is None
    assert res.reason == "time budget exhausted" and res.states_explored == 1
    assert min_moves(g, budget=SearchBudget(max_seconds=60)).is_exact
    with pytest.raises(InputError):
        SearchBudget(max_seconds=0)


def test_invalid_inputs():
    g = to_graph(board_from_tokens(list("ab"), list("ba")))
    with pytest.raises(InputError):
        min_moves(g, target=9)
    with pytest.raises(InputError):
        min_moves(g, allowed_vertices=[])


def matrix_tree_count(g):
    n = g.num_vertices
    lap = np.zeros((n, n))
    for u, v in g.edges():
        lap[u, u] += 1
        lap[v, v] += 1
        lap[u, v] -= 1
        lap[v, u] -= 1
    return round(float(np.linalg.det(lap[1:, 1:])))


def test_spanning_trees_tree_input():
    g = ColouredGraph([[1], [0, 2], [1]], [0, 1, 0], ("a", "b"))
    trees = list(spanning_trees(g))
    assert len(trees) == 1
    assert trees[0].graph.edges() == g.edges()


def test_spanning_trees_four_cycle():
    g = ColouredGraph([[1, 3], [0, 2], [1, 3], [0, 2]], [0, 1, 0, 1], ("a", "b"))
    assert sum(1 for _ in spanning_trees(g)) == 4


def test_spanning_trees_counts_match_matrix_tree():
    rng = random.Random(31)
    for _ in range(12):
        g = random_connected_graph(rng, rng.randint(2, 6), 2)
        count = sum(1 for _ in spanning_trees(g))
        assert count == matrix_tree_count(g)


def test_spanning_trees_distinct():
    g = to_graph(board_from_tokens(list("aba"), list("bab")))
    seen = set()
    for t in spanning_trees(g):
        key = tuple(t.graph.edges())
        assert key not in seen
        seen.add(key)
    assert len(seen) == 15 == matrix_tree_count(g)


def test_spanning_trees_limit():
    g = to_graph(board_from_tokens(list("aba"), list("bab")))
    with pytest.raises(EnumerationLimitError):
        list(spanning_trees(g, limit=3))


def test_tree_view_accessors():
    # star with centre 0
    g = ColouredGraph([[1, 2, 3], [0], [0], [0]], [0, 1, 2, 1], ("a", "b", "c"))
    t = TreeView(g)
    assert t.non_leaf_vertices() == {0}
    assert t.path_between(1, 2) == [1, 0, 2]
    with pytest.raises(InputError):
        TreeView(to_graph(board_from_tokens(list("ab"), list("ba"))))


def test_spanning_tree_theorem_tree_and_mono():
    tree = ColouredGraph([[1], [0, 2], [1]], [0, 1, 0], ("a", "b"))
    assert check_spanning_tree_theorem(tree, 0) is True
    mono = ColouredGraph([[1], [0]], [0, 0], ("a",))
    assert check_spanning_tree_theorem(mono, 0) is True


def test_spanning_tree_theorem_random():
    rng = random.Random(12)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(2, 6), 3)
        for d in range(3):
            assert check_spanning_tree_theorem(g, d) is True


def test_no_leaf_moves_cases():
    star = ColouredGraph([[1, 2, 3], [0], [0], [0]], [0, 1, 2, 3], ("a", "b", "c", "d"))
    assert check_no_leaf_moves(TreeView(star)) is True
    path_aba = ColouredGraph([[1], [0, 2], [1]], [0, 1, 0], ("a", "b"))
    assert check_no_leaf_moves(TreeView(path_aba)) is True
    assert min_moves(path_aba, allowed_vertices=[1]).value == 1
    mono = ColouredGraph([[1], [0, 2], [1]], [0, 0, 0], ("a",))
    assert check_no_leaf_moves(TreeView(mono)) is True


def test_subadditivity_cases():
    g = to_graph(board_from_tokens(list("ab"), list("ba")))
    full = list(range(4))
    for d in range(2):
        assert check_subadditivity(g, full, full, d) is True
    # disjoint halves of a path
    path = ColouredGraph([[1], [0, 2], [1, 3], [2]], [0, 1, 0, 1], ("a", "b"))
    assert check_subadditivity(path, [0, 1], [2, 3], 0) is True


def test_subadditivity_random():
    rng = random.Random(77)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(2, 6), 3)
        part_a, part_b = random_covering_pair(rng, g)
        for d in range(3):
            assert check_subadditivity(g, part_a, part_b, d) is True
