import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from floodit.pathsweep import path_exists, path_exists_bruteforce


def all_cells(top, bottom):
    return [(0, j) for j in range(*top)] + [(1, j) for j in range(*bottom)]


def test_single_column_pair():
    assert path_exists((0, 1), (0, 1), (0, 0), (1, 0))
    assert path_exists((0, 1), (0, 1), (0, 0), (0, 0))


def test_full_strip_corner_to_corner():
    assert path_exists((0, 4), (0, 4), (0, 0), (1, 3))


def test_left_corridor_kills_interior_start():
    # bottom corridor cols 0..1 dangling below-left; starting two cells in,
    # the corridor cannot be reached and returned from
    assert not path_exists((2, 4), (0, 4), (1, 2), (0, 3))
    # from the corridor's end it works
    assert path_exists((2, 4), (0, 4), (1, 0), (0, 3))


def test_exhaustive_against_bruteforce_small():
    total = 0
    bound = 4
    for t1 in range(bound + 1):
        for t2 in range(t1, bound + 1):
            for bb1 in range(bound + 1):
                for bb2 in range(bb1, bound + 1):
                    cells = all_cells((t1, t2), (bb1, bb2))
                    if not cells:
                        continue
                    for r1 in cells:
                        for r2 in cells:
                            want = path_exists_bruteforce(
                                (t1, t2), (bb1, bb2), r1, r2
                            )
                            got = path_exists((t1, t2), (bb1, bb2), r1, r2)
                            assert got == want, ((t1, t2), (bb1, bb2), r1, r2)
                            total += 1
    assert total > 2000


def test_random_against_bruteforce_with_colours():
    rng = random.Random(99)
    for _ in range(1500):
        t1 = rng.randint(0, 4)
        t2 = rng.randint(t1, 4)
        bb1 = rng.randint(0, 4)
        bb2 = rng.randint(bb1, 4)
        cells = all_cells((t1, t2), (bb1, bb2))
        if not cells:
            continue
        colours = {cell: rng.randrange(3) for cell in cells}
        d = rng.randrange(3)
        mask = rng.randrange(8)

        def on_ok(row, col):
            return colours[(row, col)] == d

        def off_ok(row, col):
            c = colours[(row, col)]
            return c == d or (mask >> c) & 1 == 1

        r1 = rng.choice(cells)
        r2 = rng.choice(cells)
        want = path_exists_bruteforce((t1, t2), (bb1, bb2), r1, r2, on_ok, off_ok)
        got = path_exists((t1, t2), (bb1, bb2), r1, r2, on_ok, off_ok)
        assert got == want


def test_wide_sections_against_bruteforce():
    rng = random.Random(4)
    for _ in range(200):
        t1 = rng.randint(0, 6)
        t2 = rng.randint(t1, 6)
        bb1 = rng.randint(0, 6)
        bb2 = rng.randint(bb1, 6)
        cells = all_cells((t1, t2), (bb1, bb2))
        if not cells:
            continue
        r1 = rng.choice(cells)
        r2 = rng.choice(cells)
        assert path_exists((t1, t2), (bb1, bb2), r1, r2) == path_exists_bruteforce(
            (t1, t2), (bb1, bb2), r1, r2
        )


@st.composite
def shapes_and_predicates(draw):
    t1 = draw(st.integers(0, 5))
    t2 = draw(st.integers(t1, 5))
    bb1 = draw(st.integers(0, 5))
    bb2 = draw(st.integers(bb1, 5))
    cells = all_cells((t1, t2), (bb1, bb2))
    assume(cells)
    colours = dict(zip(cells, draw(st.lists(st.integers(0, 2), min_size=len(cells),
                                            max_size=len(cells)))))
    r1, r2 = draw(st.sampled_from(cells)), draw(st.sampled_from(cells))
    return (t1, t2), (bb1, bb2), r1, r2, colours, draw(st.integers(0, 2)), draw(st.integers(0, 7))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=shapes_and_predicates())
def test_path_exists_equals_bruteforce_property(case):
    top, bottom, r1, r2, colours, d, mask = case

    def on_ok(row, col):
        return colours[(row, col)] == d

    def off_ok(row, col):
        return colours[(row, col)] == d or mask >> colours[(row, col)] & 1 == 1

    assert path_exists(top, bottom, r1, r2) == path_exists_bruteforce(top, bottom, r1, r2)
    assert (path_exists(top, bottom, r1, r2, on_ok, off_ok)
            == path_exists_bruteforce(top, bottom, r1, r2, on_ok, off_ok))
