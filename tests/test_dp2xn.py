import copy
import itertools
import random
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodit.board import (
    Board2xN,
    Border,
    board_from_tokens,
    border_leq,
    crossing_edges,
    incident_vertices,
    is_section,
    low_skew_borders,
    section_vertices,
    to_graph,
)
from floodit.engine import replay
from floodit.errors import BudgetExceededError, CapacityError, InputError
from floodit.gen import colour_tokens, colourings_up_to_renaming, random_board
from floodit.oracle import min_moves, spanning_trees
from floodit import dp2xn
from floodit.dp2xn import (
    ZKey,
    reconstruct,
    solve,
    tree_exists,
    zero_test,
)


# The solver's table dtypes: uint8 up to 2x62, uint16 above (_table_dtype).
TABLE_DTYPES = (np.uint8, np.uint16)


def board_of(top, bottom):
    return board_from_tokens(list(top), list(bottom))


def tree_exists_bruteforce(board, b1, b2, r1, r2):
    """Enumerate spanning trees of the section and test that some tree keeps
    every non-leaf vertex on the r1-r2 path."""
    from floodit.engine import induced_subgraph
    from floodit.oracle import TreeView

    from floodit.board import section_vertices

    vs = sorted(section_vertices(board, b1, b2))
    sub, keep = induced_subgraph(to_graph(board), vs)
    back = {orig: i for i, orig in enumerate(keep)}
    x, y = back[r1], back[r2]
    for tree in spanning_trees(sub):
        if tree.non_leaf_vertices() <= set(tree.path_between(x, y)):
            return True
    return False


# -- tree_exists -------------------------------------------------------------


def test_tree_exists_single_column():
    b = board_of("ab", "ba")
    assert tree_exists(b, Border(0, 0), Border(1, 1), 0, 2)


def test_tree_exists_full_2x3_corner_pair():
    b = board_of("aba", "bab")
    assert tree_exists(b, Border(0, 0), Border(3, 3), 0, 2)


def test_tree_exists_interior_start_with_snaking_path():
    # two cells strictly left of r1=(0,1), but the path may hook left and
    # come back along the other row, so a suitable tree exists
    b = board_of("abab", "baba")
    assert tree_exists(b, Border(0, 0), Border(4, 4), 1, 4 + 3)
    assert tree_exists_bruteforce(b, Border(0, 0), Border(4, 4), 1, 4 + 3)


def test_tree_exists_matches_bruteforce_on_all_2x3_sections():
    b = board_of("aba", "bab")
    from floodit.board import enumerate_borders, is_section, section_vertices

    for b1 in enumerate_borders(3):
        for b2 in enumerate_borders(3):
            if not (b1.t <= b2.t and b1.b <= b2.b):
                continue
            if not is_section(b, b1, b2):
                continue
            vs = sorted(section_vertices(b, b1, b2))
            for r1 in vs:
                for r2 in vs:
                    got = tree_exists(b, b1, b2, r1, r2)
                    want = tree_exists_bruteforce(b, b1, b2, r1, r2)
                    assert got == want, (b1, b2, r1, r2)


def test_every_end_pair_of_a_wide_section_is_a_slot():
    # Lemma "wide sections", checked against the path sweep: left borders
    # with min(t, b) = 0 give each translated low-skew shape once, and width
    # 60 holds every shape of the narrower boards.
    n = 60
    board = Board2xN(n, ((0,) * n, (0,) * n), ("a",))
    borders = low_skew_borders(n)
    shapes = pairs = 0
    for b1 in [b for b in borders if min(b) == 0]:
        for b2 in borders:
            if not (border_leq(b1, b2) and is_section(board, b1, b2)):
                continue
            if len(section_vertices(board, b1, b2)) < dp2xn._WIDE_CELLS:
                continue
            shapes += 1
            for r1 in incident_vertices(board, b1, "right", within=(b1, b2)):
                for r2 in incident_vertices(board, b2, "left", within=(b1, b2)):
                    assert tree_exists(board, b1, b2, r1, r2), (b1, b2, r1, r2)
                    pairs += 1
    assert (shapes, pairs) == (509, 2036)
    # The bound is tight: a section of one cell fewer with an end pair that
    # has no dominating path.
    b1, b2 = Border(0, 1), Border(3, 4)
    assert len(section_vertices(board, b1, b2)) == dp2xn._WIDE_CELLS - 1
    assert not tree_exists(board, b1, b2, board.vertex(1, 1), board.vertex(0, 2))


def test_tree_exists_rejects_outside_vertices():
    b = board_of("aba", "bab")
    with pytest.raises(InputError):
        tree_exists(b, Border(0, 0), Border(1, 1), 2, 0)


# -- zero_test ----------------------------------------------------------------


def test_zero_all_same_colour():
    b = board_of("aa", "aa")
    z = ZKey(Border(0, 0), Border(2, 2), 0, 1, 0, 0)
    assert zero_test(b, z)


def test_zero_ignored_leaf_colours():
    b = board_of("dd", "ee")
    d = b.palette.index("d")
    e = b.palette.index("e")
    top_path = ZKey(Border(0, 0), Border(2, 2), 0, 1, d, 1 << e)
    assert zero_test(b, top_path)
    assert not zero_test(b, ZKey(Border(0, 0), Border(2, 2), 0, 1, d, 0))


def test_zero_requires_path_colour():
    b = board_of("ab", "aa")
    assert not zero_test(b, ZKey(Border(0, 0), Border(2, 2), 0, 1, 0, 3))


def test_zero_test_rejects_an_ignore_mask_outside_the_palette():
    # The same refusal, with the same message, as a table lookup: a negative
    # mask or a bit at or above the palette size names no palette colour.
    board = board_of("ab", "aa")
    _, table = solve(board)
    for ignore in (-1, -2, 2 | 1 << 40):
        key = ZKey(Border(0, 0), Border(2, 2), 0, 3, 0, ignore)
        message = f"ignore mask {ignore:#x} names colours outside the palette"
        with pytest.raises(InputError, match=re.escape(message)):
            zero_test(board, key)
        with pytest.raises(InputError, match=re.escape(message)):
            table.value_of(key)
    for ignore in range(1 << len(board.palette)):
        zero_test(board, ZKey(Border(0, 0), Border(2, 2), 0, 3, 0, ignore))


def zero_test_table(table):
    """zero_test over every (slot, colour, canonical ignore set) of a solved
    table, as a boolean array shaped like its store.  The test needs a
    d-coloured path from r1 to r2, so it is run only where both end cells
    have colour d; everywhere else it is False."""
    index, board = table._index, table.board
    present = np.flatnonzero(table._bits).tolist()  # palette colour per plane bit
    canon = table._canonical()
    want = np.zeros(table._dense.shape, dtype=bool)
    for slot, (sid, (v1, v2)) in enumerate(zip(index.slot_sid.tolist(),
                                                index.slot_ends.tolist())):
        (row1, col1), (row2, col2) = board.cell_of(v1), board.cell_of(v2)
        d = board.cells[row1][col1]
        if board.cells[row2][col2] != d:
            continue
        t1, bb1, t2, bb2 = index.sec_borders[sid].tolist()
        head = (Border(t1, bb1), Border(t2, bb2), v1, v2)
        for plane in np.flatnonzero(canon[slot]).tolist():
            ignore = sum(1 << col for j, col in enumerate(present) if plane >> j & 1)
            want[slot, d, plane] = zero_test(board, ZKey(*head, d, ignore))
    return want, canon[:, None, :]


def test_seeded_zeros_match_zero_test():
    # Seeds come only from small sections (dp2xn._SEED_CELLS); every other
    # zero must come from the split rule.  Both modes, every canonical key,
    # including keys that read +inf.
    boards = [Board2xN(3, (cells[:3], cells[3:]), colour_tokens(3))
              for cells in itertools.product(range(3), repeat=6) if cells[0] == 0]
    rng = random.Random(61)
    boards += [random_board(rng, rng.randint(4, 6), rng.randint(2, 4)) for _ in range(20)]
    for board in boards:
        tables = [solve(board, mode=mode)[1] for mode in ("reference", "worklist")]
        want, canon = zero_test_table(tables[0])
        for table in tables:
            assert np.array_equal((table._dense == 0) & canon, want), (board.cells, table.mode)


def test_solve_does_not_search_paths_once_the_index_is_built(monkeypatch):
    board = random_board(random.Random(62), 7, 3)
    dp2xn._get_index(board.n)

    def refuse(*args, **kwargs):
        raise AssertionError("path search during a solve")

    monkeypatch.setattr(dp2xn.pathsweep, "path_exists", refuse)
    monkeypatch.setattr(dp2xn.pathsweep, "dominating_paths", refuse)
    for mode in ("reference", "worklist"):
        solve(board, mode=mode)


def test_index_build_does_not_search_paths(monkeypatch):
    # Wide sections take every end pair as a slot and narrow ones list
    # their dominating paths; no index build runs the path sweep.
    def refuse(*args, **kwargs):
        raise AssertionError("path search during an index build")

    monkeypatch.setattr(dp2xn.pathsweep, "path_exists", refuse)
    for n in range(1, 9):
        dp2xn._SectionIndex(n)


def test_zero_matches_stored_zeros():
    rng = random.Random(20)
    for _ in range(10):
        board = random_board(rng, 3, 3)
        _, table = solve(board)
        for key, value in table.entries().items():
            assert (value == 0) == zero_test(board, key), key


# -- solve --------------------------------------------------------------------


def test_solve_examples():
    assert solve(board_of("aaaa", "aaaa"))[0] == 0
    assert solve(board_of("a", "b"))[0] == 1
    assert solve(board_of("ab", "ba"))[0] == 2


def test_solve_rejects_bad_inputs():
    b = board_of("ab", "ba")
    with pytest.raises(InputError):
        solve(b, target=7)
    with pytest.raises(InputError):
        solve(b, mode="nope")
    # The palette alone is no limit; the table-entry cap is.
    big = Board2xN(10, (tuple(range(10)), tuple(range(10, 20))), colour_tokens(20))
    with pytest.raises(CapacityError):
        solve(big)


@pytest.mark.parametrize("budget", [float("nan"), 0, -1])
def test_solve_refuses_a_time_budget_that_is_not_positive(budget):
    # A NaN budget compares false with every deadline, so it would give no
    # budget at all; zero and negative budgets would refuse every solve.
    with pytest.raises(InputError, match="time_budget must be positive"):
        solve(board_of("ab", "ba"), mode="worklist", time_budget=budget)


def test_solve_equals_oracle_random_boards():
    rng = random.Random(100)
    for _ in range(25):
        board = random_board(rng, rng.randint(1, 5), rng.randint(1, 4))
        value, table = solve(board)
        exact = min_moves(to_graph(board))
        assert value == exact.value, board.cells
        for d in range(len(board.palette)):
            vt, _ = solve(board, target=d)
            assert vt == min_moves(to_graph(board), target=d).value


def test_low_skew_index_exact_on_all_2x4_boards():
    # The section index keeps only borders with |t - b| <= 1; exactness of
    # that restriction is checked here against breadth-first search.
    colourings = list(colourings_up_to_renaming(8, 4))
    assert len(colourings) == 2795
    for cells in colourings:
        c = max(cells) + 1
        board = Board2xN(4, (cells[:4], cells[4:]), colour_tokens(c))
        graph = to_graph(board)
        value, table = solve(board)
        assert value == min_moves(graph).value, cells
        for d in range(c):
            assert table.board_value(d)[0] == min_moves(graph, target=d).value, (cells, d)


@pytest.mark.parametrize("n", range(1, 11))
def test_index_geometry_matches_board_functions(n):
    # The index's sections, slots and split records, rebuilt from the public
    # board functions and tree_exists over all low-skew border pairs, so
    # independent of lemmas "split edges" and "split parents".
    board = Board2xN(n, ((0,) * n, (0,) * n), ("a",))
    borders = low_skew_borders(n)
    sections = [(b1, b2) for b1 in borders for b2 in borders
                if border_leq(b1, b2) and is_section(board, b1, b2)]
    slots = set()
    for b1, b2 in sections:
        for r1 in incident_vertices(board, b1, "right", within=(b1, b2)):
            for r2 in incident_vertices(board, b2, "left", within=(b1, b2)):
                if tree_exists(board, b1, b2, r1, r2):
                    slots.add((b1, b2, r1, r2))
    records = set()
    for parent in slots:
        b1, b2, r1, r2 = parent
        for k in borders:
            for x1, x2 in crossing_edges(board, k, within=(b1, b2)):
                left, right = (b1, k, r1, x1), (k, b2, x2, r2)
                if left in slots and right in slots:
                    records.add((parent, left, right))

    index = dp2xn._SectionIndex(n)
    got_slots = []
    for sid, (v1, v2) in zip(index.slot_sid.tolist(), index.slot_ends.tolist()):
        t1, bb1, t2, bb2 = index.sec_borders[sid].tolist()
        got_slots.append((Border(t1, bb1), Border(t2, bb2), v1, v2))
    got_sections = sorted(map(tuple, index.sec_borders.tolist()))
    assert got_sections == sorted((*b1, *b2) for b1, b2 in sections)
    assert sorted(got_slots) == sorted(slots)
    parents, left, right = _own_records(index)
    assert len(parents) == len(records)
    assert {(got_slots[p], got_slots[l], got_slots[r]) for p, l, r in zip(
        parents.tolist(), left.tolist(), right.tolist())} == records


def test_low_skew_border_position_is_2t_plus_b():
    # The index names a section by sec_of[2 t1 + b1, 2 t2 + b2].
    for n in range(1, 61):
        assert [2 * t + b for t, b in low_skew_borders(n)] == list(range(3 * n + 1)), n


def test_key_with_a_high_skew_border_has_no_section():
    # Borders (0, 0) and (3, 1) bound a section, but (3, 1) has skew 2, so
    # no slot of the index lies between them.
    board = board_of("aba", "bab")
    _, table = solve(board)
    key = ZKey(Border(0, 0), Border(3, 1), board.vertex(0, 0), board.vertex(0, 2), 0, 0)
    with pytest.raises(InputError, match=re.escape("no section for borders")):
        table.value_of(key)
    with pytest.raises(InputError, match=re.escape("no section for borders")):
        table.back_pointer(key)


def test_section_end_cells_are_the_row_interval_ends():
    # Lemma "row intervals": between low-skew borders, a non-empty row's end
    # cells are the first and last cells of its interval.  Every section of
    # widths 1-20, against incident_vertices.
    for n in range(1, 21):
        board = Board2xN(n, ((0,) * n, (0,) * n), ("a",))
        index = dp2xn._SectionIndex(n)
        for t1, bb1, t2, bb2 in index.sec_borders.tolist():
            b1, b2 = Border(t1, bb1), Border(t2, bb2)
            rows = [(row, first, stop) for row, first, stop in ((0, t1, t2), (1, bb1, bb2))
                    if first < stop]
            assert incident_vertices(board, b1, "right", within=(b1, b2)) == [
                row * n + first for row, first, _ in rows], (n, b1, b2)
            assert incident_vertices(board, b2, "left", within=(b1, b2)) == [
                row * n + stop - 1 for row, _, stop in rows], (n, b1, b2)


def test_section_masks_are_the_section_colours():
    # Each section's mask is the OR of the plane bits of its cells' colours,
    # on boards with absent palette colours, so some colours have no bit.
    rng = random.Random(2500)
    for _ in range(200):
        n, c = rng.randint(1, 12), rng.randint(1, 8)
        used = rng.sample(range(c), rng.randint(1, c))
        cells = [rng.choice(used) for _ in range(2 * n)]
        board = Board2xN(n, (tuple(cells[:n]), tuple(cells[n:])), colour_tokens(c))
        index = dp2xn._get_index(n)
        bits = dp2xn._plane_bits(board)
        want = []
        for t1, bb1, t2, bb2 in index.sec_borders.tolist():
            mask = 0
            for v in section_vertices(board, Border(t1, bb1), Border(t2, bb2)):
                row, col = board.cell_of(v)
                mask |= int(bits[board.cells[row][col]])
            want.append(mask)
        assert dp2xn._section_masks(board, index, bits).tolist() == want, board.cells


def _own_records(index):
    """The (parent, left, right) slots of every record that is not padding,
    in stored order."""
    parents = np.repeat(np.arange(len(index.slot_sid)), np.diff(index.rec_start))
    own = index.rec_left != len(index.slot_sid)
    return parents[own], index.rec_left[own], index.rec_right[own]


@pytest.mark.parametrize("n", range(1, 9))
def test_slots_are_numbered_in_layer_order(n):
    # Slot order is structural order: layers of equal section cell count
    # upwards, each parent's split records one run, children in earlier
    # layers.
    index = dp2xn._SectionIndex(n)
    board = Board2xN(n, ((0,) * n, (0,) * n), ("a",))
    sizes = np.array([len(section_vertices(board, Border(t1, bb1), Border(t2, bb2)))
                      for t1, bb1, t2, bb2 in index.sec_borders.tolist()])[index.slot_sid]
    assert (np.diff(sizes) >= 0).all()
    bounds = index.layer_bounds
    assert bounds[0] == 0 and bounds[-1] == len(index.slot_sid)
    assert (sizes[bounds[:-1]] == sizes[bounds[1:] - 1]).all()
    assert (sizes[bounds[1:-1]] > sizes[bounds[1:-1] - 1]).all()
    assert index.rec_start[0] == 0 and (np.diff(index.rec_start) >= 0).all()
    assert index.rec_start[-1] == len(index.rec_left) == len(index.rec_right)
    parents, left, right = _own_records(index)
    assert (sizes[left] < sizes[parents]).all()
    assert (sizes[right] < sizes[parents]).all()


@pytest.mark.parametrize("n", range(1, 13))
def test_records_are_one_rectangle_per_layer(n):
    # Every slot of a layer holds the layer's width, the largest count of
    # own records among its slots, so rec_start steps by the width.  A
    # slot's own records come first; the rest name the null slot as both
    # children.
    index = dp2xn._SectionIndex(n)
    null = len(index.slot_sid)
    steps = np.diff(index.rec_start)
    bounds = index.layer_bounds
    layer = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    own = index.rec_left != null
    assert np.array_equal(own, index.rec_right != null)
    assert index.rec_left.dtype == index.rec_right.dtype == np.int32
    parents = np.repeat(np.arange(null), steps)
    counts = np.bincount(parents[own], minlength=null)
    width = np.maximum.reduceat(counts, bounds[:-1])
    assert np.array_equal(steps, width[layer])
    rank = np.arange(len(own)) - index.rec_start[parents]
    assert np.array_equal(own, rank < counts[parents])


@pytest.mark.parametrize("n", range(1, 13))
def test_windows_reach_every_record_from_both_children(n):
    # A worklist scan for the records of child slot s starts at above[s]:
    # every record lies at or after above of both children, and the records
    # before above[s] have parents in s's layer or below.  Windows cover the
    # records in order, each whole layers of at most cap records or one
    # larger layer.
    index = dp2xn._SectionIndex(n)
    records = len(index.rec_left)
    parents = np.repeat(np.arange(len(index.slot_sid)), np.diff(index.rec_start))
    layer = np.repeat(np.arange(len(index.layer_bounds) - 1), np.diff(index.layer_bounds))
    edges = index.rec_start[index.layer_bounds]
    own = index.rec_left != len(index.slot_sid)
    left, right = index.rec_left[own], index.rec_right[own]
    for cap in (8192, 16, 64):
        bounds, above = dp2xn._windows(index, cap)
        ids = np.arange(records)[own]
        assert (ids >= above[left]).all() and (ids >= above[right]).all()
        assert np.array_equal(above, edges[layer + 1])
        assert bounds[0] == 0 and bounds[-1] == records
        assert all(a < b for a, b in zip(bounds[:-1], bounds[1:]))
        for a, b in zip(bounds[:-1], bounds[1:]):
            assert a in edges and b in edges, (a, b)
            assert b - a <= cap or layer[parents[a]] == layer[parents[b - 1]], (a, b)


def _same(a, b):
    """Deep equality of index attributes: arrays by dtype, shape and values."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    return a == b


def test_worklist_solve_leaves_the_index_as_a_reference_solve_does(monkeypatch):
    monkeypatch.setattr(dp2xn, "_INDEX_CACHE", {})
    board = random_board(random.Random(64), 7, 4)
    index = solve(board, mode="reference")[1]._index
    after_reference = copy.deepcopy(vars(index))
    assert solve(board, mode="worklist")[1]._index is index
    assert vars(index).keys() == after_reference.keys()
    for name, value in vars(index).items():
        assert _same(value, after_reference[name]), name


def test_index_over_record_cap_is_refused_and_not_cached(monkeypatch):
    # The cap counts stored records, padding included: a cap that holds the
    # own records but not the padding refuses the index.
    index = dp2xn._SectionIndex(8)
    records = len(index.rec_left)
    own = int(np.count_nonzero(index.rec_left != len(index.slot_sid)))
    assert own < records
    board = random_board(random.Random(63), 8, 3)
    for cap in (records - 1, own):
        monkeypatch.setattr(dp2xn, "_RECORD_CAP", cap)
        monkeypatch.setattr(dp2xn, "_INDEX_CACHE", {})
        solve(board_of("ab", "ba"))
        cached = dict(dp2xn._INDEX_CACHE)
        for mode in ("reference", "worklist"):
            with pytest.raises(CapacityError, match="split records"):
                solve(board, mode=mode)
            assert dp2xn._INDEX_CACHE == cached
    monkeypatch.setattr(dp2xn, "_RECORD_CAP", records)
    solve(board)


def test_index_cache_keeps_the_most_recent_widths(monkeypatch):
    monkeypatch.setattr(dp2xn, "_INDEX_CACHE", {})
    bound = dp2xn._INDEX_CACHE_WIDTHS
    assert bound >= 3
    widths = range(1, bound + 3)
    for n in widths:
        solve(board_of("a" * n, "b" * n))
        assert len(dp2xn._INDEX_CACHE) <= bound
    assert list(dp2xn._INDEX_CACHE) == list(widths)[-bound:]
    latest = dp2xn._INDEX_CACHE[widths[-1]]

    def rebuild(*args):
        raise AssertionError("index rebuilt")

    monkeypatch.setattr(dp2xn, "_SectionIndex", rebuild)
    _, table = solve(board_of("b" * widths[-1], "a" * widths[-1]))
    assert table._index is latest


def test_mode_agreement_random_boards():
    rng = random.Random(200)
    for _ in range(12):
        board = random_board(rng, rng.randint(1, 4), rng.randint(1, 3))
        vr, tr = solve(board, mode="reference")
        vw, tw = solve(board, mode="worklist")
        assert vr == vw
        assert tr.entries() == tw.entries()


def test_time_budget_is_honoured_promptly(monkeypatch):
    # With an empty index cache the budget runs out while the section index
    # for this width is still being built (about 0.4 s), and the unfinished
    # index is not cached.
    monkeypatch.setattr(dp2xn, "_INDEX_CACHE", {})
    board = random_board(random.Random(50), 50, 4)
    start = time.monotonic()
    with pytest.raises(BudgetExceededError):
        solve(board, mode="worklist", time_budget=0.1)
    assert time.monotonic() - start < 1.5
    assert board.n not in dp2xn._INDEX_CACHE


@pytest.mark.parametrize("mode", ["reference", "worklist"])
def test_pass_time_budget_is_honoured_promptly(mode):
    # The index for this width is built first, so the budget runs out inside
    # the pass itself.  Measured on a 2-core x86-64 host, uint8 table: the
    # structural-order pass takes 0.08-0.10 s at 2x60, after 1-2 ms of
    # masks and seeds, so its budget is 0.02 s; the bucketed pass takes
    # 0.24-0.29 s at 2x40, against a budget of 0.1 s.
    n, budget = (60, 0.02) if mode == "reference" else (40, 0.1)
    board = random_board(random.Random(40), n, 4)
    dp2xn._get_index(board.n)
    start = time.monotonic()
    with pytest.raises(BudgetExceededError):
        solve(board, mode=mode, time_budget=budget)
    assert time.monotonic() - start < 1.3


def test_reference_table_equals_bucketed_worklist():
    rng = random.Random(1000)
    for _ in range(60):
        board = random_board(rng, rng.randint(1, 8), rng.randint(1, 4))
        _, tr = solve(board, mode="reference")
        _, tw = solve(board, mode="worklist")
        assert np.array_equal(tr._dense, tw._dense), board.cells
        assert tr.stats().relaxations == tw.stats().relaxations


def test_split_kernel_blocks_and_offers_do_not_change_tables(monkeypatch):
    # One table row per gather block, so that every kernel call runs many
    # blocks and every worklist window holds one layer, against the tables
    # at the default sizes.
    rng = random.Random(1010)
    boards = [random_board(rng, rng.randint(2, 6), rng.randint(2, 4)) for _ in range(12)]
    modes = ("reference", "worklist")
    expected = {mode: [solve(board, mode=mode)[1]._dense for board in boards] for mode in modes}
    monkeypatch.setattr(dp2xn, "_BLOCK_ENTRIES", 1)
    monkeypatch.setattr(dp2xn, "_INDEX_CACHE", {})
    for mode in modes:
        for board, dense in zip(boards, expected[mode]):
            assert np.array_equal(solve(board, mode=mode)[1]._dense, dense), (mode, board.cells)


def test_windows_that_merge_layers_do_not_change_tables(monkeypatch):
    # With 2 colours on the board a row holds 4 entries, so blocks of 1,100
    # entries make the 2x8 layers of 46 and 168 stored records (padding
    # included) one worklist window, whose drops only the window's rescan
    # follows, and leave each layer of more than 275 records a window alone.
    rng = random.Random(1040)
    boards = [random_board(rng, 8, 2) for _ in range(8)]
    reference = [solve(board, mode="reference")[1]._dense for board in boards]
    default = [solve(board, mode="worklist")[1]._dense for board in boards]
    block = 1100
    monkeypatch.setattr(dp2xn, "_BLOCK_ENTRIES", block)
    index = dp2xn._get_index(8)
    per_layer = np.diff(index.rec_start[index.layer_bounds])
    assert per_layer[1] + per_layer[2] <= block // 4 < per_layer[1:4].sum()
    assert per_layer.max() > block // 4
    for board, want, dense in zip(boards, reference, default):
        table = solve(board, mode="worklist")[1]
        assert table._values[0].size == 4
        assert np.array_equal(table._dense, dense), board.cells
        assert np.array_equal(dense, want), board.cells


def test_one_parent_over_a_block_does_not_change_tables(monkeypatch):
    # With 6 to 8 colours on the board a slot's row holds 192 to 1,024
    # entries, so a block of 2,048 entries holds 2 to 10 records: some
    # parent's records alone hold more than a block, in the reference
    # pass's layers and in the worklist's offers, and the recolour rule
    # works on blocks of 2 to 10 slots.
    rng = random.Random(1020)
    boards = []
    for n, colours in ((4, 6), (4, 7), (4, 8), (5, 6), (5, 7), (5, 8)):
        cells = list(range(colours)) + [rng.randrange(colours) for _ in range(2 * n - colours)]
        rng.shuffle(cells)
        boards.append(Board2xN(n, (tuple(cells[:n]), tuple(cells[n:])), colour_tokens(colours + 1)))
    modes = ("reference", "worklist")
    expected = {mode: [solve(board, mode=mode)[1]._dense for board in boards] for mode in modes}
    block = 2048
    monkeypatch.setattr(dp2xn, "_BLOCK_ENTRIES", block)
    for mode in modes:
        for board, dense in zip(boards, expected[mode]):
            table = solve(board, mode=mode)[1]
            width = np.diff(table._index.rec_start).max()
            assert width * table._values[0].size > block, board.cells
            assert np.array_equal(table._dense, dense), (mode, board.cells)


def test_worklist_never_offers_a_padding_record(monkeypatch):
    # Padding records name the null slot, whose state stays 0, so the
    # worklist's state tests never pass one to the split kernel.  The
    # reference pass lowers layers without that kernel.
    calls = []

    def spy(t, left, right, *args):
        calls.append((len(t) - 1, left, right))
        return lower(t, left, right, *args)

    lower = dp2xn._lower_by_splits
    monkeypatch.setattr(dp2xn, "_lower_by_splits", spy)
    rng = random.Random(1050)
    for n in range(2, 9):
        board = random_board(rng, n, rng.randint(2, 4))
        solve(board, mode="reference")
        assert not calls
        index = solve(board, mode="worklist")[1]._index
        null = len(index.slot_sid)
        assert (index.rec_left == null).any()
        assert calls and all(slot == null for slot, _, _ in calls)
        assert all((left < null).all() and (right < null).all() for _, left, right in calls)
        calls.clear()


def _count_blocks(monkeypatch):
    """Patch the deadline check, which both split kernels make once per
    block, to count its calls; returns the count as a one-item list."""
    calls = [0]

    def check(deadline):
        calls[0] += 1

    monkeypatch.setattr(dp2xn, "_check_deadline", check)
    return calls


class _SliceLog(np.ndarray):
    """An array that logs the (start, stop) of every slice taken of it."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.log.append((key.start, key.stop))
        return np.asarray(self)[key]


def _worklist_kernel(monkeypatch, table, left, right, parents, counts, block, k):
    """The worklist kernel's table, its "dropped to k" mask, the record
    spans of its blocks and the shapes of the arrays it makes with
    np.empty, its (rank, parent) buffers among them, with blocks of block
    entries."""
    monkeypatch.setattr(dp2xn, "_BLOCK_ENTRIES", block)
    monkeypatch.setattr(dp2xn, "_check_deadline", lambda deadline: None)
    shapes, empty = [], np.empty
    monkeypatch.setattr(np, "empty", lambda shape, *args, **kw: shapes.append(shape) or empty(
        shape, *args, **kw))
    logged = left.view(_SliceLog)
    logged.log = []
    got = table.copy()
    starts = np.r_[0, np.cumsum(counts)[:-1]]
    dropped = dp2xn._lower_by_splits(got, logged, right, parents, starts, counts, None, k)
    return got, dropped, logged.log, shapes


def _lowered_per_parent(table, left, right, parents, counts, k):
    """The same table and mask from a plain minimum over each parent's
    sums in turn."""
    want = table.copy()
    sums = table[left].astype(np.int64) + table[right]
    ends = np.cumsum(counts)
    for p, lo, hi in zip(parents.tolist(), (ends - counts).tolist(), ends.tolist()):
        want[p] = np.minimum(want[p], sums[lo:hi].min(axis=0))
    return want, ((want[parents] == k) & (table[parents] > k)).any(axis=1)


def _whole_parent_blocks(counts, size):
    """The record spans of the blocks of whole parents, in order, each the
    most that keep the largest count times the parents within size sums,
    or one parent whose records alone hold more."""
    spans, top, held, a = [], 0, 0, 0
    for b, count in zip(np.cumsum(counts).tolist(), counts.tolist()):
        if held and max(top, count) * (held + 1) > size:
            spans.append((a, b - count))
            top, held, a = 0, 0, b - count
        top, held = max(top, count), held + 1
    return spans + [(a, int(counts.sum()))]


def _check_worklist_kernel(monkeypatch, table, left, right, parents, counts, blocks, k=0):
    """The kernel against the per-parent minimum at each (block entries,
    expected block count) pair; each block is a run of whole parents, and
    each buffer stays within a block."""
    want, want_dropped = _lowered_per_parent(table, left, right, parents, counts, k)
    for block, count in blocks:
        got, dropped, spans, shapes = _worklist_kernel(
            monkeypatch, table, left, right, parents, counts, block, k)
        assert spans == _whole_parent_blocks(counts, max(1, block // table.shape[1])), block
        assert len(spans) == count, block
        buffers = [shape for shape in shapes if isinstance(shape, tuple) and len(shape) == 2]
        assert all(rows * entries <= block for rows, entries in buffers), block
        assert np.array_equal(got, want), block
        assert np.array_equal(dropped, want_dropped), block
    return want_dropped


def test_worklist_kernel_blocks_hold_whole_parents(monkeypatch):
    # Rows 0..19 are children, rows 20..39 parents with 3 to 6 records each.
    # A block of 16 entries holds two rows, so every parent alone holds more
    # than a block and takes one block of its own, never cut over two.  A
    # block of 64 entries, eight rows, takes the parents in order while their
    # largest count times their number is at most eight: two parents of at
    # most 4 records, else one, 18 blocks.  Blocks of 192 and 256 entries
    # take 5 and 4.  The table and the per-parent "dropped to k" mask equal
    # one block's.  k = 0, as no sum goes below it: the worklist offers no
    # sum below k to an entry above k, since every value below k is final.
    rng = np.random.default_rng(1030)
    values = rng.integers(0, 3, size=(40, 8))
    counts = rng.integers(3, 7, size=20)
    left = rng.integers(0, 20, size=counts.sum()).astype(np.int32)
    right = rng.integers(0, 20, size=counts.sum()).astype(np.int32)
    for dtype in TABLE_DTYPES:
        dropped = _check_worklist_kernel(monkeypatch, values.astype(dtype), left, right,
                                         np.arange(20, 40), counts,
                                         ((1 << 18, 1), (64, 18), (192, 5), (256, 4), (16, 20)))
        assert dropped.any() and not dropped.all(), dtype


def test_worklist_kernel_skewed_counts(monkeypatch):
    # One parent with 30 records among eleven with one, rows of 4 entries.
    # A block of 40 rows (160 entries) takes the five single parents, then
    # the 30-record parent alone, since 30 x 2 rows exceed it, then the six
    # others.  A block of 8 rows does the same, the 30 records alone
    # holding more than it; a block of one row takes one parent at a time.
    # The parents start at INF and a fifth of the children's entries are
    # INF, so a sum of INF + INF lowers nothing, and neither does a cell of
    # the buffer that no record fills.
    rng = np.random.default_rng(1032)
    values = rng.integers(0, 4, size=(22, 4))
    unreached = np.zeros(values.shape, dtype=bool)
    unreached[:10] = rng.random((10, 4)) < 0.2
    unreached[10:] = True
    counts = np.array([1] * 5 + [30] + [1] * 6)
    left = rng.integers(0, 10, size=counts.sum()).astype(np.int32)
    right = rng.integers(0, 10, size=counts.sum()).astype(np.int32)
    for dtype in TABLE_DTYPES:
        table = np.where(unreached, dp2xn._inf(dtype), values).astype(dtype)
        _check_worklist_kernel(monkeypatch, table, left, right, np.arange(10, 22), counts,
                               ((1 << 18, 1), (160, 3), (32, 3), (4, 12)))


def test_worklist_kernel_one_record_per_parent(monkeypatch):
    # Fifty parents with one record each lower their rows by their sums
    # alone, ten parents to a block of 80 entries over rows of 8.
    rng = np.random.default_rng(1033)
    values = rng.integers(0, 3, size=(70, 8))
    counts = np.ones(50, dtype=np.int64)
    left = rng.integers(0, 20, size=50).astype(np.int32)
    right = rng.integers(0, 20, size=50).astype(np.int32)
    for dtype in TABLE_DTYPES:
        dropped = _check_worklist_kernel(monkeypatch, values.astype(dtype), left, right,
                                         np.arange(20, 70), counts, ((1 << 18, 1), (80, 5), (8, 50)))
        assert dropped.any() and not dropped.all(), dtype


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), parents=st.integers(1, 25), entries=st.sampled_from((1, 3, 8)),
       block=st.integers(1, 2_000), k=st.integers(0, 3), dtype=st.sampled_from(TABLE_DTYPES))
def test_worklist_kernel_equals_per_parent_minimum(seed, parents, entries, block, k, dtype):
    # Random tables of values k to k + 3, a quarter of them INF, 1 to 40
    # records per parent and any block size: the table and the "dropped to
    # k" mask equal a plain per-parent minimum, and every block is a run of
    # whole parents.
    rng = np.random.default_rng(seed)
    children = 12
    table = rng.integers(k, k + 4, size=(children + parents, entries)).astype(dtype)
    table[rng.random(table.shape) < 0.25] = dp2xn._inf(dtype)
    counts = rng.integers(1, 41, size=parents)
    left = rng.integers(0, children, size=counts.sum()).astype(np.int32)
    right = rng.integers(0, children, size=counts.sum()).astype(np.int32)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_worklist_kernel(monkeypatch, table, left, right,
                               np.arange(children, children + parents), counts,
                               ((block, len(_whole_parent_blocks(counts, max(1, block // entries)))),),
                               k)


def test_reference_kernel_blocks_hold_whole_parents(monkeypatch):
    # A layer of 12 parents with 5 records each over rows of 8 entries: a
    # parent's sums, 40 entries, exceed a block of 16, so each parent takes
    # one block of its own, its ranks never cut over two; a block of 96
    # entries holds two whole parents.
    rng = np.random.default_rng(1031)
    values = rng.integers(0, 9, size=(32, 8))
    left = rng.integers(0, 20, size=(12, 5)).astype(np.int32)
    right = rng.integers(0, 20, size=(12, 5)).astype(np.int32)
    want = values.copy()
    sums = values[left] + values[right]  # (parent, rank, entry)
    want[20:] = np.minimum(want[20:], sums.min(axis=1))
    for dtype, (block, blocks) in itertools.product(TABLE_DTYPES,
                                                    ((1 << 18, 1), (96, 6), (16, 12))):
        monkeypatch.setattr(dp2xn, "_BLOCK_ENTRIES", block)
        calls = _count_blocks(monkeypatch)
        got = values.astype(dtype)
        dp2xn._lower_layer(got, got[20:], left, right, None)
        assert calls[0] == blocks, (dtype, block)
        assert np.array_equal(got, want), (dtype, block)


def test_one_index_serves_every_colour_count(monkeypatch):
    # Tables of 2, 4 and 6 colours differ in their row count; solved in turn
    # through one cached index, each equals the table from a fresh index.
    rng = random.Random(1023)
    boards = [random_board(rng, 5, colours) for colours in (2, 4, 6)]
    modes = ("reference", "worklist")
    monkeypatch.setattr(dp2xn, "_INDEX_CACHE", {})
    shared = [solve(board, mode=mode)[1] for board in boards for mode in modes]
    assert [table._values.shape[1] for table in shared] == [
        k << (k - 1) for k in (2, 2, 4, 4, 6, 6)]
    assert len({id(table._index) for table in shared}) == 1
    for table in shared:
        monkeypatch.setattr(dp2xn, "_INDEX_CACHE", {})
        fresh = solve(table.board, mode=table.mode)[1]
        assert fresh._index is not table._index
        assert np.array_equal(fresh._dense, table._dense), (table.mode, table.board.cells)


def _plane_maps(k):
    """row_of[j][J], colour j's plane of full plane J (J without bit j,
    the higher bits moved down), and imap[j][p], the full plane of colour
    j's plane p with bit j added, bit by bit."""
    row_of = [[sum((plane >> i & 1) << (i - (i > j)) for i in range(k) if i != j)
               for plane in range(1 << k)] for j in range(k)]
    imap = [[next(plane for plane in range(1 << k) if plane >> j & 1 and row_of[j][plane] == p)
             for p in range(1 << (k - 1))] for j in range(k)]
    return row_of, imap


def test_recolour_follows_its_definition(monkeypatch):
    # On random rows with INF entries: B(J) is the least value over the
    # colours on full plane J.  With close, W(J) is the least B(K) + |K - J|
    # over supersets K of J, and each entry takes min(itself, 1 +
    # W(imap)); without it, min(itself, 1 + B(imap)).  Blocks of three
    # slots' rows over seven, so the last block is short.  With above = k,
    # the rule also returns each slot's least entry above k after it, INF
    # where there is none: one row holds only entries at or below k and
    # one only INF.  Both table dtypes, each with its own INF.
    rng = np.random.default_rng(1200)
    for k, dtype in itertools.product(range(1, 7), TABLE_DTYPES):
        monkeypatch.setattr(dp2xn, "_BLOCK_ENTRIES", 3 * k << (k - 1))
        row_of, imap = _plane_maps(k)
        plan = dp2xn._PlanePlan(k, dtype)
        inf = dp2xn._inf(dtype)
        assert plan.imap.tolist() == sum(imap, [])
        assert plan.gather.tolist() == [[(j << (k - 1)) + p for p in row_of[j]] for j in range(k)]
        for close, above in itertools.product((False, True), (None, k)):
            t = rng.integers(0, 12, size=(7, k, 1 << (k - 1))).astype(dtype)
            t[rng.random(t.shape) < 0.4] = inf
            t[5] = rng.integers(0, k + 1, size=t[5].shape)
            t[6] = inf
            base = [[min(int(t[s, j, row_of[j][J]]) for j in range(k)) for J in range(1 << k)]
                    for s in range(len(t))]
            if close:
                base = [[min(row[K] + bin(K & ~J).count("1")
                             for K in range(1 << k) if K & J == J)
                         for J in range(1 << k)] for row in base]
            want = [[[min(int(t[s, j, p]), 1 + base[s][imap[j][p]])
                      for p in range(1 << (k - 1))] for j in range(k)] for s in range(len(t))]
            least = dp2xn._recolour(t.reshape(len(t), -1), plan, None, close=close, above=above)
            assert t.tolist() == want, (k, dtype, close, above)
            if above is None:
                assert least is None
                continue
            assert least.tolist() == [min([v for v in np.ravel(row) if v > k], default=inf)
                                      for row in want], (k, dtype, close)
            assert least.tolist()[5:] == [inf, inf]


def test_worklist_bucket_starts_are_the_least_entries_above_the_bucket(monkeypatch):
    # After bucket k the worklist's recolour step returns where the next
    # bucket starts: each slot's least entry above k, which a masked least
    # over the table gives too.  Every third board has absent palette
    # colours.  The worklist tables equal the reference tables.
    recolour, buckets = dp2xn._recolour, []

    def checked(t, plan, deadline, close=False, above=None):
        least = recolour(t, plan, deadline, close=close, above=above)
        if above is not None:
            assert np.array_equal(least, t.min(axis=1, where=t > above,
                                              initial=dp2xn._inf(t.dtype)))
            buckets.append(above)
        return least

    monkeypatch.setattr(dp2xn, "_recolour", checked)
    rng = random.Random(1210)
    for i in range(200):
        n, c = rng.randint(1, 8), rng.randint(1 + (i % 3 == 0), 6)
        used = rng.sample(range(c), rng.randint(1, c - 1)) if i % 3 == 0 else range(c)
        cells = [rng.choice(used) for _ in range(2 * n)]
        board = Board2xN(n, (tuple(cells[:n]), tuple(cells[n:])), colour_tokens(c))
        want = solve(board, mode="reference")[1]._dense
        buckets.clear()
        assert np.array_equal(solve(board, mode="worklist")[1]._dense, want), board.cells
        assert buckets[0] == 0 and buckets == sorted(set(buckets)), board.cells


def test_plane_plans_are_shared_read_only_and_bounded(monkeypatch):
    # One plan per colour count and table dtype, shared by every solve with
    # that count and dtype in either mode, whatever the palette; kept under
    # the index cache's bound, least recently used first.
    monkeypatch.setattr(dp2xn, "_PLAN_CACHE", {})
    plan = solve(board_of("ab", "ba"))[1]._plan
    assert solve(board_of("bbc", "cbb"), mode="worklist")[1]._plan is plan
    assert solve(board_of("abc", "cab"))[1]._plan is not plan
    for array in vars(plan).values():
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1
    bound = dp2xn._INDEX_CACHE_WIDTHS
    for k in range(1, 9):
        cells = ("abcdefgh"[:k] * 8)[:8]
        solve(board_of(cells[:4], cells[4:8]))
        assert len(dp2xn._PLAN_CACHE) <= bound
    assert list(dp2xn._PLAN_CACHE) == [(k, np.dtype(np.uint8)) for k in range(9 - bound, 9)]


def test_tables_are_the_least_fixed_point_of_the_rules():
    # One application of every rule to the finished table, on every plane:
    # the split rule over each record, the recolour rule, and the seeds.
    # The table stores each board colour without its own plane bit and no
    # absent colours, so the rules run on its expansion to every palette
    # colour and every subset of the board's colours.
    # The table must equal min(seeds, rules(table)) entry by entry.  No
    # zero-cost cycle exists (a recolour adds 1, and a 0 + v split reads
    # sections with fewer cells), so only the least fixed point passes.
    rng = random.Random(1100)
    boards = [random_board(rng, rng.randint(1, 6), rng.randint(1, 4)) for _ in range(20)]
    # Worklist offers that only a split of two nonzero entries needs first
    # matter from 2x7 up.
    boards += [random_board(rng, n, 4) for n in (7, 7, 8, 8)]
    boards += [
        Board2xN(3, ((0, 5, 2), (7, 4, 2)), colour_tokens(9)),
        Board2xN(4, ((1, 1, 3, 1), (3, 0, 1, 3)), colour_tokens(5)),
        Board2xN(5, ((6, 0, 3, 6, 2), (2, 6, 0, 3, 3)), colour_tokens(8)),
    ]
    for board in boards:
        bits = dp2xn._plane_bits(board)
        present = np.flatnonzero(bits).tolist()  # palette colour per plane bit
        k = len(present)
        # Colour j's stored plane for each full plane: the full plane
        # without bit j.
        planes = [[sum((plane >> i & 1) << (i - (i > j)) for i in range(k) if i != j)
                   for plane in range(1 << k)] for j in range(k)]
        for mode in ("reference", "worklist"):
            _, table = solve(board, mode=mode)
            index = table._index
            assert table._values.dtype == dp2xn._table_dtype(board.n) == np.uint8
            assert table._values.shape == (len(index.slot_sid), k << (k - 1))
            # Every palette colour on every full plane, (colour, plane, slot).
            values = table._dense.transpose(1, 2, 0).astype(np.int64)
            seeds = np.full(values.shape, table._inf, dtype=np.int64)
            stored = dp2xn._dense_seeds(board, index, table._masks, bits)[0]
            assert len(stored) == len(index.slot_sid) + 1 and (stored[-1] == table._inf).all()
            for j, d in enumerate(present):
                seeds[d] = stored[:-1].reshape(-1, k, 1 << (k - 1))[:, j, planes[j]].T
            imap = np.arange(1 << k)[None, :] | bits[:, None]  # I + {d}
            rules = np.minimum(seeds, values.min(axis=0)[imap] + 1)
            parents, left, right = _own_records(index)
            sums = values[:, :, left] + values[:, :, right]
            starts = parents.searchsorted(np.arange(len(index.slot_sid) + 1))
            for slot in range(len(index.slot_sid)):
                lo, hi = starts[slot], starts[slot + 1]
                if hi > lo:
                    np.minimum(rules[:, :, slot], sums[:, :, lo:hi].min(axis=2),
                               out=rules[:, :, slot])
            assert np.array_equal(values, np.minimum(rules, table._inf)), (mode, board.cells)


def test_planes_read_only_the_section_colours():
    # Lemma "section colours": on every slot, every palette colour reads the
    # same on full plane J as on J & S, S the plane bits of the colours in
    # the slot's section.  Lookups and reconstruct() rely on it: they read
    # planes without masking them to the section.
    rng = random.Random(2100)
    masked = 0
    for _ in range(50):
        n, c = rng.randint(1, 7), rng.randint(1, 8)
        used = rng.sample(range(c), rng.randint(1, min(c, 6)))
        cells = [rng.choice(used) for _ in range(2 * n)]
        board = Board2xN(n, (tuple(cells[:n]), tuple(cells[n:])), colour_tokens(c))
        bits = dp2xn._plane_bits(board).tolist()
        planes = np.arange(1 << sum(b > 0 for b in bits))
        for mode in ("reference", "worklist"):
            _, table = solve(board, mode=mode)
            index = table._index
            for slot, sid in enumerate(index.slot_sid.tolist()):
                t1, bb1, t2, bb2 = index.sec_borders[sid].tolist()
                section = 0
                for v in section_vertices(board, Border(t1, bb1), Border(t2, bb2)):
                    row, col = board.cell_of(v)
                    section |= bits[board.cells[row][col]]
                values = table._dense[slot]  # (palette colour, full plane)
                assert np.array_equal(values, values[:, planes & section]), (
                    board.cells, c, mode, slot)
                masked += np.count_nonzero(planes & section != planes)
    assert masked  # the gate saw planes outside some section's colours


@st.composite
def small_boards(draw, min_n=1, max_n=5, max_colours=4):
    n = draw(st.integers(min_n, max_n))
    c = draw(st.integers(1, max_colours))
    cells = draw(st.lists(st.integers(0, c - 1), min_size=2 * n, max_size=2 * n))
    return Board2xN(n, (tuple(cells[:n]), tuple(cells[n:])), colour_tokens(c))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(board=small_boards(), data=st.data())
def test_reference_worklist_and_oracle_agree(board, data):
    graph = to_graph(board)
    target = data.draw(st.sampled_from([None, *range(len(board.palette))]))
    want = min_moves(graph, target=target).value
    assert solve(board, target=target, mode="reference")[0] == want
    assert solve(board, target=target, mode="worklist")[0] == want


@settings(max_examples=800, deadline=None, database=None, derandomize=True)
@given(board=small_boards(5, 7, 3))
def test_low_skew_dp_equals_oracle_beyond_2x4(board):
    # Exactness of the low-skew restriction (module docstring, step 4) on
    # wider boards than the exhaustive 2x4 test reaches: free and for every
    # target colour, in both modes.
    graph = to_graph(board)
    targets = [None, *range(len(board.palette))]
    want = [min_moves(graph, target=target).value for target in targets]
    for mode in ("reference", "worklist"):
        _, table = solve(board, mode=mode)
        assert [table.board_value(target)[0] for target in targets] == want, (board.cells, mode)


def test_value_bounds():
    rng = random.Random(300)
    for _ in range(15):
        board = random_board(rng, rng.randint(1, 5), rng.randint(1, 4))
        value, table = solve(board)
        present = len(set(board.cells[0]) | set(board.cells[1]))
        assert present - 1 <= value <= 2 * board.n - 1
        stats = table.stats()
        assert stats.max_value <= 2 * board.n - 1


def _as_int64(values):
    """A table array as int64 with its INF read as -1, whatever its dtype."""
    full = values.astype(np.int64)
    full[full >= dp2xn._inf(values.dtype)] = -1
    return full


def test_finite_entries_are_at_most_the_section_cell_count():
    # Lemma "value bound": every finite entry on a slot, absent colours'
    # included, is at most its section's cell count, which sets the uint8
    # range.  Every third board has absent palette colours.
    rng = random.Random(1300)
    for i in range(200):
        n, c = rng.randint(1, 10), rng.randint(1 + (i % 3 == 0), 6)
        used = rng.sample(range(c), rng.randint(1, c - 1)) if i % 3 == 0 else range(c)
        cells = [rng.choice(used) for _ in range(2 * n)]
        board = Board2xN(n, (tuple(cells[:n]), tuple(cells[n:])), colour_tokens(c))
        for mode in ("reference", "worklist"):
            table = solve(board, mode=mode)[1]
            index = table._index
            t1, b1, t2, b2 = index.sec_borders[index.slot_sid].T
            largest = _as_int64(table._dense).max(axis=(1, 2))
            assert (largest <= (t2 - t1) + (b2 - b1)).all(), (mode, board.cells)


def test_two_colour_2x1_board_reaches_the_value_bound():
    # The bound is tight: the slot whose path is the top cell absorbs the
    # bottom cell and ends in the top cell's colour, two moves on a section
    # of two cells.
    for mode in ("reference", "worklist"):
        table = solve(board_of("a", "b"), mode=mode)[1]
        assert table.stats().max_value == 2
        assert table.value_of(ZKey(Border(0, 0), Border(1, 1), 0, 0, 0, 0)) == 2


def test_width_rule_switches_to_uint16_above_2x62(monkeypatch):
    # uint8 up to 2x62 and uint16 from 2x63.  Either table, solved again in
    # the other dtype, is the same as integers with INF read as -1.  The
    # indexes are dropped after each width.
    monkeypatch.setattr(dp2xn, "_INDEX_CACHE", {})
    rule = dp2xn._table_dtype
    for n, dtype, other in ((62, np.uint8, np.uint16), (63, np.uint16, np.uint8)):
        board = random_board(random.Random(n), n, 4)
        table = solve(board)[1]
        assert table._values.dtype == rule(n) == dtype
        monkeypatch.setattr(dp2xn, "_table_dtype", lambda n: np.dtype(other))
        forced = solve(board)[1]
        monkeypatch.setattr(dp2xn, "_table_dtype", rule)
        assert forced._values.dtype == other
        assert forced.value == table.value
        assert np.array_equal(_as_int64(forced._values), _as_int64(table._values)), n
        dp2xn._INDEX_CACHE.clear()


def test_uint16_tables_equal_uint8_tables_on_small_boards(monkeypatch):
    rng = random.Random(1310)
    boards = [random_board(rng, rng.randint(1, 8), rng.randint(1, 5)) for _ in range(40)]
    modes = ("reference", "worklist")
    expected = {mode: [solve(board, mode=mode)[1]._dense for board in boards] for mode in modes}
    monkeypatch.setattr(dp2xn, "_table_dtype", lambda n: np.dtype(np.uint16))
    for mode in modes:
        for board, want in zip(boards, expected[mode]):
            got = solve(board, mode=mode)[1]._dense
            assert want.dtype == np.uint8 and got.dtype == np.uint16
            assert np.array_equal(_as_int64(got), _as_int64(want)), (mode, board.cells)


def test_ignore_monotonicity():
    rng = random.Random(400)
    board = random_board(rng, 3, 3)
    _, table = solve(board)
    entries = table.entries()
    by_slot = {}
    for key, value in entries.items():
        slot = (key.b1, key.b2, key.r1, key.r2, key.d)
        by_slot.setdefault(slot, []).append((key.ignore, value))
    for slot, pairs in by_slot.items():
        for i1, v1 in pairs:
            for i2, v2 in pairs:
                if i1 & i2 == i1:  # i1 subset of i2
                    assert v1 >= v2, (slot, i1, i2)


def test_unreached_entries_read_inf_and_have_no_rule():
    # An entry that no rule reaches holds the table's INF.  Through
    # its key it reads +inf, entries() omits it and it has no back-pointer.
    board = board_of("abc", "bca")
    for mode in ("reference", "worklist"):
        _, table = solve(board, mode=mode)
        index, entries = table._index, table.entries()
        present = np.flatnonzero(table._bits).tolist()  # palette colour per plane bit
        unreached = np.argwhere((table._dense >= table._inf) & table._canonical()[:, None, :])
        assert len(unreached), mode
        for slot, d, plane in unreached.tolist():
            t1, bb1, t2, bb2 = index.sec_borders[index.slot_sid[slot]].tolist()
            r1, r2 = index.slot_ends[slot].tolist()
            ignore = sum(1 << col for j, col in enumerate(present) if plane >> j & 1)
            key = ZKey(Border(t1, bb1), Border(t2, bb2), r1, r2, d, ignore)
            assert table.value_of(key) == float("inf"), (key, mode)
            assert key not in entries, (key, mode)
            with pytest.raises(InputError):
                table.back_pointer(key)


def test_value_of_matches_entries():
    board = board_of("ab", "ba")
    value, table = solve(board)
    key = next(iter(table.entries()))
    assert table.value_of(key) == table.entries()[key]


def test_stats_keys_bound_and_zero_relaxations():
    board = board_of("a", "a")
    value, table = solve(board)
    assert value == 0
    stats = table.stats()
    n, c = board.n, len(board.palette)
    assert stats.keys <= (n + 1) ** 4 * (n + 2) ** 2 * c * 2**c
    assert stats.relaxations == 0  # nothing improves after seeding


def test_stats_match_entries():
    rng = random.Random(900)
    boards = [random_board(rng, rng.randint(1, 6), rng.randint(1, 4)) for _ in range(12)]
    boards.append(Board2xN(3, ((0, 5, 2), (7, 4, 2)), colour_tokens(9)))
    for board in boards:
        for mode in ("reference", "worklist"):
            _, table = solve(board, mode=mode)
            values = list(table.entries().values())
            stats = table.stats()
            assert stats.keys == len(values), (board.cells, mode)
            assert stats.zeros == values.count(0), (board.cells, mode)
            assert stats.max_value == max(values), (board.cells, mode)


def test_worklist_relaxations_do_not_exceed_reference():
    rng = random.Random(500)
    for _ in range(8):
        board = random_board(rng, rng.randint(1, 4), rng.randint(1, 3))
        _, tr = solve(board, mode="reference")
        _, tw = solve(board, mode="worklist")
        assert tw.stats().relaxations <= tr.stats().relaxations


# -- reconstruct ----------------------------------------------------------------


def test_reconstruct_trivial():
    board = board_of("aa", "aa")
    value, table = solve(board)
    assert reconstruct(table) == []
    board = board_of("a", "b")
    value, table = solve(board)
    moves = reconstruct(table)
    assert len(moves) == 1
    _, flooded = replay(to_graph(board), moves)
    assert flooded


def test_reconstruct_random_boards_replay():
    rng = random.Random(600)
    for _ in range(40):
        board = random_board(rng, 5, 3)
        value, table = solve(board)
        moves = reconstruct(table)
        final, flooded = replay(to_graph(board), moves)
        assert flooded and len(moves) == value


def test_reconstruct_with_target():
    rng = random.Random(700)
    for _ in range(10):
        board = random_board(rng, 4, 3)
        for d in range(3):
            value, table = solve(board, target=d)
            moves = reconstruct(table)
            final, flooded = replay(to_graph(board), moves)
            assert flooded and final.colouring[0] == d and len(moves) == value


def test_reconstruct_worklist_table():
    rng = random.Random(800)
    board = random_board(rng, 4, 3)
    value, table = solve(board, mode="worklist")
    moves = reconstruct(table)
    _, flooded = replay(to_graph(board), moves)
    assert flooded and len(moves) == value


def test_back_pointer_rules():
    board = board_of("ab", "ba")
    value, table = solve(board)
    entries = table.entries()
    kinds = set()
    for key, v in entries.items():
        ptr = table.back_pointer(key)
        kinds.add(ptr.kind)
        assert (v == 0) == (ptr.kind == "zero")
        if ptr.kind == "recolour":
            child = ZKey(key.b1, key.b2, key.r1, key.r2, ptr.d_from, key.ignore | (1 << key.d))
            assert table.value_of(child) == v - 1
        elif ptr.kind == "split":
            assert ptr.border is not None
            assert ptr.x1 is not None and ptr.x2 is not None
    assert kinds == {"zero", "recolour", "split"}


def test_keys_with_a_colour_outside_the_palette_are_rejected():
    board = board_of("ab", "ba")
    _, table = solve(board)
    key = next(iter(table.entries()))
    for d in (-1, len(board.palette)):
        bad = ZKey(key.b1, key.b2, key.r1, key.r2, d, key.ignore)
        with pytest.raises(InputError, match="outside the palette"):
            table.value_of(bad)
        with pytest.raises(InputError, match="outside the palette"):
            table.back_pointer(bad)


def test_keys_with_an_ignore_mask_outside_the_palette_are_rejected():
    # Masks name palette colours, bit d for colour d: a negative mask or a
    # bit at or above the palette size names none.  Every mask of palette
    # bits still reads.
    board = board_of("ab", "ba")
    _, table = solve(board)
    key = next(iter(table.entries()))
    for ignore in (1 << 40, -1, 1 << len(board.palette), key.ignore | 4):
        bad = ZKey(key.b1, key.b2, key.r1, key.r2, key.d, ignore)
        with pytest.raises(InputError, match="outside the palette"):
            table.value_of(bad)
        with pytest.raises(InputError, match="outside the palette"):
            table.back_pointer(bad)
    for ignore in range(1 << len(board.palette)):
        table.value_of(ZKey(key.b1, key.b2, key.r1, key.r2, key.d, ignore))


def test_palette_beyond_board_colours_solves_exactly_in_both_modes():
    # Palettes larger than the colours on the board: 5 of 9, 10 of 10 (every
    # cell its own colour) and 9 of 12.
    boards = [
        Board2xN(3, ((0, 5, 2), (7, 4, 2)), colour_tokens(9)),
        Board2xN(5, ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9)), colour_tokens(10)),
        Board2xN(5, ((11, 0, 3, 6, 7), (5, 9, 0, 2, 10)), colour_tokens(12)),
    ]
    for board in boards:
        vr, tr = solve(board, mode="reference")
        vw, tw = solve(board, mode="worklist")
        exact = min_moves(to_graph(board))
        assert vr == vw == exact.value, board.cells
        assert tr.entries() == tw.entries()
        for table in (tr, tw):
            moves = reconstruct(table)
            _, flooded = replay(to_graph(board), moves)
            assert flooded and len(moves) == vr
    # Keys name ignore sets by palette colour, the table by plane bit.
    _, table = solve(boards[0])
    for key, v in table.entries().items():
        assert table.value_of(key) == v
        ptr = table.back_pointer(key)
        if ptr.kind == "recolour":
            child = ZKey(key.b1, key.b2, key.r1, key.r2, ptr.d_from, key.ignore | (1 << key.d))
            assert table.value_of(child) == v - 1


def test_table_over_capacity_is_rejected_before_solving():
    # 2x10 with 20 colours on the board: 1476 slots x 20 x 2^20 entries.
    board = Board2xN(10, (tuple(range(10)), tuple(range(10, 20))), colour_tokens(20))
    dp2xn._get_index(board.n)
    for mode in ("reference", "worklist"):
        start = time.monotonic()
        with pytest.raises(CapacityError, match="key space too large"):
            solve(board, mode=mode)
        assert time.monotonic() - start < 1.0
