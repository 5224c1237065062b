"""Exact flood-count dynamic program for 2xN boards.

State space: one entry per (border pair forming a section, attachment vertex
on each border, final colour d, ignore set I).  An entry holds the minimum
number of moves, all played on a section-spanning path, that flood the path
with colour d and absorb every off-path cell whose colour is not in I.

Zero entries: an entry is 0 iff its section holds a d-coloured r1-r2 path
that dominates the section, with all off-path colours inside I + {d}
(zero_test).  The table seeds such entries only on sections of at most four
cells: the section index lists the dominating paths of those slots once per
width, and a solve tests their colours in one array operation.  The split
rule builds every larger zero as 0 + 0 (lemma "seeds compose" below).  Two
monotone rules relax the rest:

  recolour rule   value(d, I)  <=  1 + min_d' value(d', I + {d})
  split rule      value        <=  value(left part) + value(right part)
                  over every border strictly between the section's borders
                  and every edge it cuts that joins the left part's end
                  cell to the right part's

The board answer is the best full-board entry with an empty ignore set.

The geometry comes from board: the section index evaluates
board.bounds_section over every pair of low-skew borders and stores each
section as its two borders, whose row intervals give its cells, end cells
and colours (lemma "row intervals" below).  Split records follow from the
slots (lemmas "split edges" and "split parents" below).
board.section_vertices, incident_vertices and crossing_edges stay the
definitions the tests check the index against.

Low-skew index.  Only borders (t, b) with |t - b| <= 1 are used, for
sections and for split borders alike.  The full board's borders (0, 0) and
(n, n) have skew 0 and a split's children take their borders from the parent
or from the split border, so no other section is reachable.  This takes the
split records from about n^5.5 to about n^3.3 (9.26M at n = 60).  Keys on a
section with a border of higher skew are not in the table: value_of and
back_pointer raise InputError for them.  A low-skew key whose derivations
all need such a section reads +inf.

Lemma (restriction keeps board values).  The full-board value, free or for
any target colour, is the same with low-skew borders only.  Proof sketch.
The full program is exact by the spanning-tree theorem: an optimal sequence
floods along a spanning tree, here one whose non-leaf vertices lie on an
r1-r2 path.  So it suffices to turn each derivation of a full-board value
into one that uses low-skew borders only.

  1. Soundness.  The restricted program applies the same rules to a subset
     of the records, so each of its values is an upper bound on the full
     program's value, and reconstruct() replays a witness for it.
  2. Shape.  A derivation of an entry fixes one dominating path P, formed by
     joining the children's paths at each split through the crossing edge,
     and every node of the derivation owns a contiguous piece of P.  A
     simple path in a 2-row strip is monotone except for at most one end
     hook at each end (a run back along the other row), because after a
     U-turn it is enclosed by its own two strands.  The full-board slots
     attach P in column 0 and column n - 1, so P has no hooks: it is
     monotone, and so is every piece of it.
  3. Horizontal cuts.  Split a monotone piece Q at a row-r edge between
     columns j - 1 and j.  The border meets row r at j.  A cell of the other
     row at column j + 1 or beyond would sit in the left child with no left
     path cell next to it, since the left piece ends at column j - 1; so
     the border meets the other row at j - 1, j or j + 1.  Every such split
     uses a low-skew border and is in the restricted index.
  4. Vertical cuts.  Split Q at its vertical edge in column j, top cell on
     the left, say.  The border meets the top row at j + 1 or j + 2 and the
     bottom row at j - 1 or j, so its skew is 1, 2 or 3.  Skew above 1
     keeps the top cell at j + 1 in the left child, or the bottom cell at
     j - 1 in the right child, as a leaf of the cut edge's end.  The
     low-skew border (j + 1, j) gives such a leaf to the other child
     instead; the sketch does not show that this never costs a move.

Step 4 is the gap, so exactness of the restriction is established only by
tests: every 2x4 board with at most 4 colours (tests/test_dp2xn.py), the
exhaustive 2x3 and randomised 2x5/2x7 acceptance criteria 1 and 2, and the
oracle comparisons elsewhere in the suite.  A restricted value is always an
upper bound with a replay-validated witness.

Lemma (row intervals).  Let a section lie between low-skew borders (t1, b1)
and (t2, b2), and write c_r for the column where a border meets row r.  Row
r of the section is the columns c_r(t1, b1) to c_r(t2, b2) - 1, an interval,
and where it is non-empty, its end cell at the left border is its first
cell and its end cell at the right border its last.  Proof.
  1. A cell touches a border from the right (board.incident_vertices) if it
     lies in column c_r of its row r, or in the run column m = min(t, b)
     when t != b.  Among the section's cells, the first test holds at the
     left border for the first cell of each non-empty row and no other.
  2. Skew at most 1 leaves one run column m.  The row that meets the border
     at m has its first cell there, counted in step 1.  The other row meets
     it at m + 1, so its cell in column m lies outside the section.
  3. At the right border, mirrored: a cell touches it from the left in
     column c_r - 1, the row's last cell, or in the run column m.  The row
     that meets the border at m + 1 has its last cell in column m, and the
     other row's cell in column m lies outside the section.
So a row holds an end cell at either border iff it is non-empty, and the
index reads cell counts, end cells and section colours from the borders
alone.  tests/test_dp2xn.py checks the end cells against incident_vertices
for widths 1 to 20.

Lemma (seeds compose).  On a section of five or more cells, every entry
that passes zero_test is the split sum of two entries that pass it, over a
record of the low-skew index.  So seeding sections of at most four cells
gives every zero, by induction on the cell count; and a zero is never
wrong, since joining two dominating d-paths through the cut edge gives one.
Proof.  Let P be the d-path, from r1 at the left border to r2 at the right.
  1. r1 lies left of r2.  An end cell at a low-skew left border (t1, b1)
     lies in column min(t1, b1) or max(t1, b1), and one at a right border
     (t2, b2) in column min(t2, b2) - 1 or max(t2, b2) - 1.  If r1's column
     were at least r2's, then min(t2, b2) <= max(t1, b1) + 1, and the
     section, (t2 + b2) - (t1 + b1) cells, would hold at most four.
  2. So P crosses the column boundary j just right of r1 an odd number of
     times, and a boundary has only two edges: P crosses it once, along a
     row-r edge from (r, j - 1) to (r, j).  Cut at the skew-0 border
     (j, j), which lies between the section's borders.  The pieces of P
     are the children's r1-r2 paths: their end cells sit on the borders.
  3. Each piece dominates its child.  An off-path cell whose path
     neighbour lies across the cut is (1 - r, j - 1) next to (1 - r, j), or
     the mirror image; the piece's own end cell (r, j - 1) is next to it.
     So each child is connected, a section of the index, with a slot for
     its piece, and its off-path colours lie inside I + {d}.
The bound is tight: a 2x2 section with both end cells in one column has a
U-shaped zero path that crosses every boundary twice.  The seeded tables are
checked entry by entry against zero_test in tests/test_dp2xn.py.

Lemma (wide sections).  On a section of seven or more cells, every pair of
end cells is a slot: some simple r1-r2 path dominates the section.  So the
index lists dominating paths only on narrower sections.  Proof.  Let the
borders be (t1, b1) and (t2, b2), r1 = (a, c1) and r2 = (b, c2).
  1. Low skew makes r1 the first cell of row a and r2 the last of row b.
     Call a column full if both its cells lie in the section: columns
     max(t1, b1) to min(t2, b2) - 1, F of them.  The section has
     (t2 - t1) + (b2 - b1) = 2F + |t1 - b1| + |t2 - b2| <= 2F + 2 cells, so
     seven or more give F >= 3.  So column m = max(t1, b1) + 1 is full, and
     c1 <= m - 1 while c2 >= min(t2, b2) - 1 = max(t1, b1) + F - 1 >= m + 1.
  2. The path: from r1, step first to (1 - a, c1) if row 1 - a has a cell
     left of column c1 (a hook); run along the row to column m; change
     rows there if needed; run on to column c2 and end with the mirror
     hook into r2 if row 1 - b has a cell right of column c2.  Rows are
     intervals and column m is full, so every cell lies in the section.
     The path moves right but for its vertical steps, at most one in each
     of the columns c1 < m < c2, so it is simple.
  3. It dominates.  Every column from c1 to c2 holds a path cell, next to
     the column's other cell.  Row a starts at c1 and row 1 - a at c1 - 1
     or later, so the only cell left of c1 is (1 - a, c1 - 1), present
     just when the hook is, and next to the hook's (1 - a, c1).  Likewise
     right of c2.
The bound is tight: between borders (0, 1) and (3, 4), six cells, take r1 =
(1, 1) and r2 = (0, 2).  The only neighbours of (0, 0) and (1, 3), (0, 1)
and (1, 2), must lie on the path.  Off (0, 0), (0, 1) has only r1 and r2
for path neighbours, so the path is r1, (0, 1), r2 and misses (1, 2).
tests/test_dp2xn.py checks every shape of seven or more cells up to width
60, and this example, against tree_exists.

Lemma (split edges).  Let slots (i, k; a, a') and (k, j; b', b) be the left
and right child of a split at border k = (p_0, p_1) between the parent's
borders i and j: k meets row r at column p_r.  A record over k and edge e
exists iff both child slots exist, with (a', b') = (0, 0) for the top-row
edge, (1, 1) for the bottom-row edge and, only when p_0 != p_1, (c, 1 - c)
for the run column's edge, c = 1 where p_0 < p_1, else 0.
Proof.
  1. At k, the left child's end cell in row r is (r, p_r - 1) and the right
     child's is (r, p_r).  The run column min(p_0, p_1) adds no other cell:
     its row-c cell is (c, p_c - 1) and its other cell (1 - c, p_{1-c}).
  2. k cuts the row-r edge between those two cells.  When p_0 != p_1 it
     also cuts the vertical edge of the run column, which joins the left
     child's end cell in row c to the right child's in row 1 - c.  No other
     edge.
  3. An edge lies inside the parent iff both its cells do.  The children
     are the parent's cells on either side of k, so that holds iff the left
     child has an end cell in the edge's left row and the right child one
     in its right row.  A child slot in those rows has those end cells.

Lemma (split parents).  The parent (i, j; a, b) of two such child slots is
a slot.  Proof.  The children are sections, so i <= k <= j componentwise,
and they partition the cells between i and j.  Their dominating paths,
joined through the edge, form one simple path from the left child's r1 to
the right child's r2, the parent's end cells in rows a and b; the cells
between i and j are connected through it, so (i, j) bounds a section.
Every cell of it lies in one child, on that child's path or next to it.
On a wide section every end pair is a slot (lemma "wide sections"); on a
narrower one the index keeps every end pair with a dominating path, this
one included.
So the index builds the records from slot_of and each border's skew alone.
A product whose parent is not a slot is not counted and has no record id:
its fill raises IndexError instead of passing silently.
tests/test_dp2xn.py rebuilds the records from crossing_edges and
tree_exists up to width 10, independent of both lemmas.

One table store serves every palette.  A full plane is a subset of the k
colours that occur on the board, one bit each in palette order.  Keys name
ignore sets as palette bitmasks (ZKey.ignore), and a lookup reads the plane
of the key's board colours as it is: planes that agree on a section's
colours hold equal values there (lemma "section colours").  Only entries()
and stats() keep to canonical planes, those inside the section's colours,
so that each value is counted once.  The table stores only the k board
colours, each on the 2^(k-1) planes without its own bit (lemma "own bit"):
colour j reads full plane J on J without bit j, the bits above j moved one
place down.  Palette colours absent from the board have no entries (lemma
"absent colours").  So the table holds k x 2^(k-1) x slots entries, half
or less of the palette x 2^k x slots (colour, ignore set) pairs.

Lemma (own bit).  For a colour d on the board, v(d, I) = v(d, I + {d}) on
every slot.  Proof.  In a derivation of an entry, the nodes that keep
colour d are the root and the splits below it, down to seeds and recolour
steps.  Changing I to I + {d}, or back, at all of them keeps a derivation
of the same value: a seed passes zero_test for I iff for I + {d}, since the
test reads I + {d}; a recolour step reads v(d', I + {d}) either way, as
(I + {d}) + {d} = I + {d}; a split keeps its ignore set.  So the table
stores colour d on the planes without d's bit, and a plane with the bit
reads the one without.

Lemma (absent colours).  Let W(I) be the least v(d', I) over the board's
colours d'.  A palette colour d absent from the board has no plane bit, so
I + {d} = I, and v(d, I) = 1 + W(I) (INF where W(I) is).  Values do not
increase as I grows: a derivation for I is one for any superset, with the
ignore sets enlarged throughout.  Proof.
  1. Upper bound: the recolour rule to a board colour achieving W(I).
  2. Lower bound, by induction over derivations.  No seed has colour d,
     since no cell has it.  A recolour step to d' costs 1 + v(d', I), at
     least 1 + W(I) for d' on the board and more for d' absent.  A split
     costs v_l(d, I) + v_r(d, I) >= 2 + W_l(I) + W_r(I) by induction, over
     the children's least values.  Let d' achieve W_r(I).  Recolouring the
     left child to d' costs at most 1 + W_l(I + {d'}) <= 1 + W_l(I), so the
     split of d' gives W(I) <= 1 + W_l(I) + W_r(I) at the parent, and the
     split of d costs at least 1 + W(I).
So both passes relax board colours only: an absent colour's entry exceeds
W(I), so the recolour rule of a board colour reads W over board colours.

Lemma (section colours).  Let S be the colours of a slot's section.  Then
v(d, I) = v(d, I & S) on the slot, for every colour d and ignore set I.
Proof.  Take I and I' with I & S = I' & S.  By induction over derivations,
a derivation of (d, I) on the slot turns into one of (d, I') with the same
value, and back:
  1. A seed tests only section cells, whether each is d-coloured or its
     colour lies in I + {d}; and (I + {d}) & S = (I' + {d}) & S.
  2. A recolour step reads v(d', I + {d}) on the same slot, and (I + {d}) &
     S = ((I & S) + {d}) & S = (I' + {d}) & S, so by induction it has a
     derivation on I' + {d} of the same value.
  3. A split keeps its ignore set, and its children's sections hold subsets
     of S, so I and I' agree on their colours too.
Taking I' = I & S gives the lemma.  So lookups read any plane of a key,
and rules read a child on the plane the rule names, with no section mask;
reconstruct() takes the same rule either way, as the values are equal.
tests/test_dp2xn.py checks the expanded tables against the lemma.

Split records are stored one rectangle per layer (slots of equal cell
count): every slot of a layer holds as many records as the layer's widest
slot, its own records first and then padding records, which name the null
slot, id len(slot_sid), as both children.  The passes' table has one row
more, the null slot's, which holds INF throughout: no split record has the
null slot as parent, and the recolour rule offers an all-INF row only
INF + 1.  A padding record's sum, 2 INF, still fits in int16 and lowers no
entry, as every entry is at most INF.  The worklist's state of the null
slot stays 0, as its row never holds an entry at a bucket, so no padding
record passes the state test and none is offered.  DPTable keeps the table
without the null row.

Two modes compute the same least fixed point.  "reference" makes one pass in
structural order.  A split points from a section to two sections with fewer
cells, and the recolour rule from ignore set I to I + {d}.  Slots are
numbered by cell count, so the pass walks slot ranges of equal cell count
upwards, applies the split rule from the final earlier ones, then closes the
recolour rule with one min-plus subset transform over the ignore sets, a
pass per plane bit (Bjorklund et al., "Fourier meets Mobius", STOC 2007),
which lemma "popcount shift" turns into a plain superset minimum.
The split rule reads the layer's records as a (parent, rank) array: it
gathers both children rank-major, takes the least sum over the ranks and
lowers the layer's rows, one slot range, to it.
"worklist" is Dial's bucketed label-setting pass over the same table, which
settles entries in value order, an independent cross-check (Dial,
"Shortest-path forest with topological ordering", CACM 1969).  Each bucket
is one upward pass over the split records, which the index stores in layer
order, a window of layers at a time: a record is offered once both children
are settled and one holds an entry at the bucket, and a window rescans its
own records above the slots its offers lowered to the bucket.  It reads the
same index arrays as the reference pass.

Lemma (popcount shift).  Let W(J) be a slot's least value over the board's
colours on full plane J, and X(J) = W(J) + |J|.  The recolour closure
W'(J), the least W(K) + |K - J| over supersets K of J, is X'(J) - |J|,
with X'(J) the least X(K) over those K.  Proof.  For K a superset of J,
|K - J| = |K| - |J|, so W(K) + |K - J| = X(K) - |J|.  So the reference
pass adds |J| once and takes the superset minimum, one bit b at a time:
every J takes min(X(J), X(J + b)), a take of the plane map J -> J + {b}
and one np.minimum with no + 1, which leaves J unchanged where b is in J.
Then it adds 1 - |J| to read 1 + W'(J) for the rule.  It stays exact in
int16: W is at most INF = 2^14 - 1, so X is at most INF + k, and the entry
cap keeps k at 12 or below, far under the 2^15 - 1 - INF that int16 leaves.
The plane maps and both offsets depend on k alone, so one read-only plane
plan per colour count serves every solve (_PlanePlan).

The table is the int16 array both passes relax, one row per slot of k x
2^(k-1) entries, (colour on the board, ignore set without its bit) in
row-major order: the split rule reads each child as one row and a layer is
one slot range.  INF = 2^14 - 1 marks an entry no rule reaches, which
value_of reads as +inf.  DPTable keeps that array and reads every (slot,
palette colour, full plane) through one accessor.
"""

from __future__ import annotations

import bisect
import functools
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import board as geo, pathsweep
from .board import Board2xN, Border, to_graph
from .engine import Move, replay
from .errors import (
    BudgetExceededError,
    CapacityError,
    FlooditError,
    InputError,
    ReconstructionError,
)

# Values stay within the board's cell count, and a split sum of two INF
# entries still fits in int16.
INF = (1 << 14) - 1
# Zero seeds come only from sections of at most this many cells; the split
# rule (0 + 0 = 0) builds every larger zero (lemma "seeds compose").  This is
# the threshold, not a margin: with 3 some tables change (board values hold),
# with 1 board values change.
_SEED_CELLS = 4
# Every pair of end cells is a slot on a section of at least this many cells
# (lemma "wide sections"); narrower sections list their dominating paths.
# The lemma fixes the bound: some 6-cell pairs have no slot.
_WIDE_CELLS = 7
# Table entries (slots x palette x 2^k, k colours on the board) a solve
# accepts.  The table stores k x 2^(k-1) x slots of them, half or fewer,
# int16.  Over the 31 MB a process holds before the solve, a solve peaks at
# about 2.4 B per stored entry in either mode: the table and temporaries of
# one block each (_BLOCK_ENTRIES).  Measured on a 2x10 board with 11
# colours (16.6M stored entries, fresh processes): 72 MB peak RSS in
# reference mode and 71 MB in worklist mode, 2.2 B per counted entry with a
# palette of 11 (33.3M) and 1.5 B with a palette of 16 (48.4M).  So the cap
# keeps a solve's table and temporaries under about 100 MB.
_TABLE_ENTRY_CAP = 50_000_000
# Split records a section index may store, padding included.  The index
# keeps 8 B per record (two int32 child slots), so the cap keeps it under 1
# GB and the record ids within int32.  The 2x60 index stores 9.69M records,
# 9.26M of them its own and 4.7% padding, 78 MB.
_RECORD_CAP = 125_000_000
# Entries of one block of a pass's temporaries.  A block is whole units, as
# many as fit in this many entries or one unit that alone holds more: whole
# parents' records in the split kernels, whole slots' rows in the recolour
# rule, which also gives the worklist its next bucket's starts with no scan
# of its own, and whole layers' records in a worklist window (_windows).
# The reference kernel counts a layer's width in records per
# parent; the worklist's counts its (rank, parent) buffer, the largest
# offered count times the parents, which also bounds the offered sums.  One
# parent's sums exceed a block only with 8 or more colours on the board
# (2x34-2x37 at 8, 2x16-2x25 at 9, 2x8-2x17 at 10, 2x6-2x12 at 11 and
# 2x6-2x8 at 12), and the entry cap bounds them at 1,277,952 entries, 2.4
# MB of int16 (2x8 with 12 colours); such a block needs no buffer.
_BLOCK_ENTRIES = 1 << 18


def _check_deadline(deadline):
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceededError("time budget exhausted")


class _SectionIndex:
    """Board-independent numbering for one board width: the sections between
    low-skew borders, their attachment pairs admitting a path-dominated
    spanning tree (slots), the split records (parent, left, right slot) and
    the dominating paths that seed zeros on small sections.  On a section
    of _WIDE_CELLS or more cells every pair of end cells is a slot (lemma
    "wide sections"); a narrower section keeps the pairs that have a
    dominating path, listed once per translated shape.

    Section sid lies between the borders sec_borders[sid] = (t1, b1, t2,
    b2), and sec_of[2 t1 + b1, 2 t2 + b2] is sid, -1 where the two borders
    bound no section: low_skew_borders lists border (t, b) at position 2t +
    b, so the full board is sec_of[0, 3n].  Between borders of skew
    at most one, each row of a section is an interval whose first and last
    cells are its end cells (lemma "row intervals"), so a slot is named by
    its section and the rows (a, b) of its two attachments: slot_of[sid, a,
    b], -1 where no slot exists (the extra last row of slot_of is all -1, so
    sid -1 looks up "none").

    Slot s lies in section slot_sid[s], and slot_ends[s] holds its two end
    cells as vertex ids row * n + col.  Slots are numbered in structural
    order, by their section's cell count (layer l is slots
    layer_bounds[l]:layer_bounds[l + 1]).  Split records are stored by
    parent, one rectangle per layer: every slot of layer l holds the layer's
    width, the largest record count of its slots, so slot s holds records
    rec_start[s]:rec_start[s + 1] and rec_start steps by the width within a
    layer.  A slot's own records come first, their children rec_left and
    rec_right in earlier layers; the rest of its records name the null
    slot, id len(slot_sid), as both children.  layers[l] = (lo, hi, left,
    right) holds layer l's slots lo:hi and its records as (parent, rank)
    views of rec_left and rec_right.  rec_above[s] is the first record
    whose parent lies in a layer above slot s's.
    """

    def __init__(self, n: int, deadline=None):
        borders = geo.low_skew_borders(n)
        nb = len(borders)
        bt = np.array([t for t, _ in borders])
        bb = np.array([b for _, b in borders])
        is_sec = geo.bounds_section(bt[:, None], bb[:, None], bt[None, :], bb[None, :])
        sec_i, sec_j = np.nonzero(is_sec)
        self.sec_of = np.full((nb, nb), -1, dtype=np.int64)
        self.sec_of[sec_i, sec_j] = np.arange(len(sec_i))
        # Row r of section sid is the columns sec_borders[sid, r] to
        # sec_borders[sid, 2 + r] - 1.
        sec = self.sec_borders = np.stack([bt[sec_i], bb[sec_i], bt[sec_j], bb[sec_j]], axis=1)
        geoms = sec.tolist()
        first, stop = sec[:, :2], sec[:, 2:]
        filled = stop > first
        # or_at[r, sid]: the flat position of row r's interval in a board's
        # table of running ORs (_section_masks), (r, first column, length -
        # 1), or (r, n, 0), which reads 0, for an empty row.
        at = (np.arange(2) * (n + 1) + np.where(filled, first, n)) * (n + 1)
        self.or_at = np.ascontiguousarray((at + np.where(filled, stop - first - 1, 0)).T)
        # Slots are numbered in layer order, by their section's cell count.
        # A split's children have fewer cells than its parent, so slot order
        # is structural order.
        sizes = (stop - first).sum(axis=1)
        by_size = np.argsort(sizes, kind="stable")
        # is_slot[sid, a, b]: rows a and b are non-empty, so they hold the
        # slot's r1 and r2.  Every such pair is a slot on a wide section
        # (lemma "wide sections"); a narrow one keeps only the pairs that
        # have a dominating path.
        is_slot = filled[:, :, None] & filled[:, None, :]
        narrow = by_size[:np.searchsorted(sizes[by_size], _WIDE_CELLS)].tolist()
        # Zero-seed candidates: every dominating simple r1-r2 path of each
        # slot whose section has at most _SEED_CELLS cells.  seed_cells[p]
        # holds path p's cells as flat indices row * n + col, r1 first and
        # padded with r1; seed_slot[p] is its slot, named (sid, a, b) by
        # seed_at[p] until the slots are numbered.
        seed_cells, seed_at = [], []
        # Paths are translation invariant: list each shape's paths once.
        shapes = {}
        for i, a, b in np.argwhere(is_slot[narrow]).tolist():
            _check_deadline(deadline)
            sid = narrow[i]
            t1, bb1, t2, bb2 = g = geoms[sid]
            o = min(t1, bb1)
            r1, r2 = (a, g[a] - o), (b, g[2 + b] - 1 - o)
            key = ((t1 - o, t2 - o), (bb1 - o, bb2 - o), r1, r2)
            small = sizes.item(sid) <= _SEED_CELLS
            found = shapes.get(key)
            if found is None:
                paths = pathsweep.dominating_paths(*key)
                # Above the seed size the first path decides the slot.
                found = shapes[key] = list(paths) if small else any(paths)
            if not found:
                is_slot[sid, a, b] = False
            elif small:
                for path in found:
                    flat = [row * n + col + o for row, col in path]
                    seed_cells.append(flat + flat[:1] * (_SEED_CELLS - len(flat)))
                    seed_at.append((sid, a, b))
        order, a, b = np.nonzero(is_slot[by_size])
        self.slot_sid = by_size[order]
        self.slot_of = np.full((len(geoms) + 1, 2, 2), -1, dtype=np.int32)
        self.slot_of[self.slot_sid, a, b] = np.arange(len(order))
        # End cells as vertex ids row * n + col: the first cell of row a and
        # the last of row b.
        self.slot_ends = np.stack([a * n + first[self.slot_sid, a],
                                   b * n + stop[self.slot_sid, b] - 1], axis=1).astype(np.int32)
        steps = np.flatnonzero(np.diff(sizes[self.slot_sid])) + 1
        self.layer_bounds = np.r_[0, steps, len(order)]
        self.seed_cells = np.array(seed_cells, dtype=np.intp).reshape(-1, _SEED_CELLS)
        self.seed_slot = self.slot_of[tuple(np.reshape(seed_at, (-1, 3)).T)].astype(np.intp)
        self._build_records(bt, bb, deadline)
        bounds = self.layer_bounds.tolist()
        edges = self.rec_start[self.layer_bounds].tolist()
        self.layers = [(lo, hi, self.rec_left[a:b].reshape(hi - lo, -1),
                        self.rec_right[a:b].reshape(hi - lo, -1))
                       for lo, hi, a, b in zip(bounds[:-1], bounds[1:], edges[:-1], edges[1:])]
        self.rec_above = np.repeat(edges[1:], np.diff(self.layer_bounds))

    def pair_slot(self, sid, r1, r2):
        """Slot of the end cells r1, r2 of section sid, or None."""
        (a, col1), (b, col2) = r1, r2
        if self.sec_borders.item(sid, a) != col1 or self.sec_borders.item(sid, 2 + b) != col2 + 1:
            return None
        slot = int(self.slot_of[sid, a, b])
        return None if slot < 0 else slot

    def _build_records(self, bt, bb, deadline):
        """Split records by parent slot, each parent's over split border k,
        then edge e: top row, bottom row, run column.  By lemmas "split
        edges" and "split parents" they follow from slot_of and each
        border's skew alone.  They are counted first, so that rec_left and
        rec_right are allocated once at their padded size, every slot of a
        layer at the layer's width and null throughout, then filled per
        split border and edge, which leaves each slot's tail null."""
        sub = self.slot_of[self.sec_of]  # (x, y, a, b): section (x, y), rows a, b
        # Edge e = 0, 1 joins the children's row-e end cells.  The run
        # column's edge, at borders of skew 1 only, joins the left child's
        # row c to the right child's row 1 - c, c = 1 where t < b.
        ks = np.arange(len(bt))
        c = (bt < bb) * 1
        run = (bt != bb)[:, None, None]
        col = np.where(run, sub[:, ks, :, c].transpose(0, 2, 1), -1)  # (k, a, i)
        left = np.concatenate([sub.transpose(1, 3, 2, 0), col[:, None]], axis=1)  # (k, e, a, i)
        col = np.where(run, sub[ks, :, 1 - c].transpose(0, 2, 1), -1)  # (k, b, j)
        right = np.concatenate([sub.transpose(0, 2, 3, 1), col[:, None]], axis=1)  # (k, e, b, j)
        # The records per parent are a product summed over k and e: one
        # matrix product, exact in float32.  Non-slot parents count none.
        has_parent = sub >= 0
        counts = np.einsum("keai,kebj->ijab", (left >= 0).astype(np.float32),
                           (right >= 0).astype(np.float32), optimize=True)
        null = len(self.slot_sid)
        per_slot = np.zeros(null, dtype=np.int64)
        per_slot[sub[has_parent]] = counts[has_parent]
        bounds = self.layer_bounds
        width = np.maximum.reduceat(per_slot, bounds[:-1])
        self.rec_start = np.r_[0, np.cumsum(np.repeat(width, np.diff(bounds)))]
        total = int(self.rec_start[-1])
        if total > _RECORD_CAP:
            raise CapacityError(
                f"section index too large: {total:,} split records, cap {_RECORD_CAP:,}; "
                "use a narrower board")
        self.rec_left = np.full(total, null, dtype=np.int32)
        self.rec_right = np.full(total, null, dtype=np.int32)
        # Parent borders i and j lie before and after k in t + b order.
        order = bt + bb
        spans = zip(np.searchsorted(order, order, side="left").tolist(),
                    np.searchsorted(order, order, side="right").tolist())
        # Each parent's next record id, indexed (a, i, b, j): parent left
        # border i and its row a, right border j and its row b.  A non-slot
        # parent reads id `total`, so a record there would raise IndexError.
        next_id = self.rec_start[sub].transpose(2, 0, 3, 1).copy()
        for k, (lo, hi) in enumerate(spans):
            _check_deadline(deadline)
            ids = next_id[:, :lo, :, hi:]
            for e in range(3):
                l_, r = left[k, e, :, :lo, None, None], right[k, e, None, None, :, hi:]
                ok = (l_ >= 0) & (r >= 0)
                if not ok.any():
                    continue
                at = ids[ok]
                self.rec_left[at] = np.broadcast_to(l_, ok.shape)[ok]
                self.rec_right[at] = np.broadcast_to(r, ok.shape)[ok]
                ids[ok] += 1


class _PlanePlan:
    """The ignore-set plane maps of k board colours, read-only and shared
    by every solve with k colours.  A full plane J is a subset of the k
    colours, and colour j's plane p is a full plane without bit j: p's bits
    from j up move one place up.  Full plane J reads colour j's plane
    row_of[j, J], J without bit j, and gather[j, J] = j * 2^(k-1) +
    row_of[j, J] is that entry's column in a slot's row of k x 2^(k-1)
    entries.  imap[j * 2^(k-1) + p], colour j's plane p with bit j added,
    is the full plane the recolour rule reads for that column, flat as a
    row.  The recolour closure reads plus[j, J] = J + {j} and adds the
    offsets size[J] = |J| and lift[J] = 1 - |J| (lemma "popcount shift"),
    columns of one entry per full plane."""

    def __init__(self, k: int):
        below = (1 << np.arange(k, dtype=np.intp))[:, None] - 1  # bits under bit j
        full = np.arange(1 << k, dtype=np.intp)
        compressed = full[: 1 << (k - 1)]
        self.imap = ((compressed & below) | ((compressed & ~below) << 1) | (below + 1)).ravel()
        self.plus = full | (below + 1)
        row_of = (full & below) | ((full >> 1) & ~below)
        self.gather = row_of + (np.arange(k, dtype=np.intp)[:, None] << (k - 1))
        self.size = sum((full >> j) & 1 for j in range(k)).astype(np.int16)[:, None]
        self.lift = 1 - self.size
        for array in vars(self).values():
            array.flags.writeable = False


# Indexes by width and plane plans by colour count, least recently used
# first.  An index takes 10 MB at n = 30, 24 MB at n = 40 and 82 MB at n =
# 60, in either mode, so only the last few widths stay.  A plan of k
# colours takes about 3k x 2^k x 8 B, 1.2 MB at the 12 colours the entry cap
# admits at most (on 2x6 to 2x8 boards).
_INDEX_CACHE: dict = {}
_PLAN_CACHE: dict = {}
_INDEX_CACHE_WIDTHS = 4


def _cached(cache, key, build):
    """cache[key], built on a miss, as the most recently used entry; the
    least recently used entries beyond _INDEX_CACHE_WIDTHS are dropped."""
    value = cache.pop(key, None)
    if value is None:
        value = build()
    cache[key] = value
    while len(cache) > _INDEX_CACHE_WIDTHS:
        del cache[next(iter(cache))]
    return value


def _get_index(n: int, deadline=None) -> _SectionIndex:
    return _cached(_INDEX_CACHE, n, lambda: _SectionIndex(n, deadline))


def _get_plan(k: int) -> _PlanePlan:
    return _cached(_PLAN_CACHE, k, lambda: _PlanePlan(k))


@dataclass(frozen=True)
class ZKey:
    b1: Border
    b2: Border
    r1: int
    r2: int
    d: int
    # Palette bitmask, bit d for colour d.  entries() lists masks within the
    # section's colours; any other mask of palette colours reads the same as
    # its bits there (lemma "section colours"), and lookups refuse a mask
    # with bits outside the palette.
    ignore: int


@dataclass
class TableStats:
    """Counts for a solved table, taken from the table a colour at a time.

    keys, zeros and max_value describe the entries below INF with canonical
    ignore masks.  sweeps is the number of layers (section cell counts) the
    reference pass walked, 0 in worklist mode.  relaxations counts the
    entries that end below INF and nonzero, which in worklist mode are the
    entries settled at a nonzero value, so both modes give the same count.
    It is taken over every palette colour on every full plane (subset of
    the board's colours), not only the canonical ones.
    """

    keys: int
    zeros: int
    max_value: int
    sweeps: int
    relaxations: int


@dataclass(frozen=True)
class BackPtr:
    """Which relaxation rule produced an entry's value.

    kind "zero": the value is 0, seeded or a split of two zeros; it needs
    no move.  kind "recolour": the value is one more
    than the entry for colour `d_from` with the entry's own colour added to
    the ignore set.  kind "split": the value is the sum of the entries left
    and right of border `border`, joined through the crossing edge
    (x1, x2).
    """

    kind: str  # "zero" | "recolour" | "split"
    d_from: Optional[int] = None
    border: Optional[Border] = None
    x1: Optional[int] = None
    x2: Optional[int] = None


def _check_palette(z: ZKey, c: int):
    """Raise InputError for a key whose colour or ignore mask lies outside
    a palette of c colours."""
    if not 0 <= z.d < c:
        raise InputError(f"colour {z.d} outside the palette")
    if z.ignore < 0 or z.ignore >> c:
        raise InputError(f"ignore mask {z.ignore:#x} names colours outside the palette")


def tree_exists(board: Board2xN, b1: Border, b2: Border, r1: int, r2: int) -> bool:
    """Can the section between b1 and b2 be spanned by a tree whose non-leaf
    vertices all lie on the r1-r2 path?

    Equivalent test: a simple r1-r2 path exists with every other section
    vertex adjacent to it (off-path vertices then hang off the path as
    leaves).
    """
    c1, c2 = geo.section_cells(board, b1, b2, r1, r2)
    return pathsweep.path_exists((b1.t, b2.t), (b1.b, b2.b), c1, c2)


def zero_test(board: Board2xN, z: ZKey) -> bool:
    """Does the section hold a d-coloured r1-r2 path that dominates it, with
    every off-path cell coloured from I + {d}?"""
    c1, c2 = geo.section_cells(board, z.b1, z.b2, z.r1, z.r2)
    _check_palette(z, len(board.palette))
    d = z.d
    allowed = z.ignore | (1 << d)

    def on_ok(row, col):
        return board.cells[row][col] == d

    def off_ok(row, col):
        return (allowed >> board.cells[row][col]) & 1 == 1

    return pathsweep.path_exists((z.b1.t, z.b2.t), (z.b1.b, z.b2.b), c1, c2, on_ok, off_ok)


def _plane_bits(board):
    """Ignore-set plane bit of each palette colour: the colours on the board
    take bits 0..k-1 in palette order, absent colours none (0)."""
    present = np.zeros(len(board.palette), dtype=bool)
    present[np.ravel(board.cells)] = True
    bits = np.zeros(len(present), dtype=np.int64)
    bits[present] = 1 << np.arange(np.count_nonzero(present), dtype=np.int64)
    return bits


def _section_masks(board, index, bits):
    """Plane bits of the colours present in each section (per board): the
    OR of its two row intervals' entries in the board's table of running
    ORs, runs[r, s, l] = the bits of row r's columns s to s + l."""
    n = board.n
    # Each row's plane bits, then n + 1 zeros, so window s of the row, the
    # row from column s on, holds only zeros for s = n.  The strided view
    # costs a twentieth of sliding_window_view's call on small boards.
    line = np.zeros((2, 2 * n + 1), dtype=bits.dtype)
    line[:, :n] = bits[np.array(board.cells)]
    windows = np.ndarray((2, n + 1, n + 1), line.dtype, line, 0, line.strides + line.strides[1:])
    runs = np.bitwise_or.accumulate(windows, axis=2).ravel()
    return runs.take(index.or_at[0]) | runs.take(index.or_at[1])


class DPTable:
    """Solved table: values over the key space plus solve metadata."""

    def __init__(self, board, index, mode, masks, bits, target, values, plan):
        self.board = board
        self.mode = mode
        self.target = target
        self._index = index
        self._masks = masks
        self._bits = bits.tolist()  # plane bit per palette colour
        # Table row per palette colour: its bit's position, -1 if absent.
        self._row = [b.bit_length() - 1 for b in self._bits]
        # The pass's own int16 array: per slot one row of (colour on the
        # board, ignore set without that colour's bit) entries, which the
        # plan's gather map reads.
        self._values = values
        self._plan = plan
        self._entries = None
        self.value = None
        self.goal = None  # (slot, d) achieving the value

    # -- lookups ---------------------------------------------------------

    def _read(self, slot, d, plane):
        """Values of (slot, palette colour d, full plane): one entry for an
        int slot and plane, (slot, plane) for slice(None) and a slice or an
        array of planes.  A colour on the board reads its entry at the plane
        without its own bit (lemma "own bit"), an absent colour one more
        than the least value over the board's colours (lemma "absent
        colours")."""
        j = self._row[d]
        gather = self._plan.gather
        if j >= 0:
            if type(slot) is int:  # the common lookup, without array scalars
                return self._values.item(slot, gather.item(j, plane))
            return self._values[slot].take(gather[j, plane], axis=-1)
        least = _least_over_colours(self._values[slot], gather[:, plane])
        return np.minimum(least + 1, INF)

    def _colour_planes(self):
        """Each palette colour's values on every full plane, (slot, plane),
        expanded a colour at a time.  Absent colours share one array."""
        absent = None
        for d, j in enumerate(self._row):
            if j >= 0:
                yield self._read(slice(None), d, slice(None))
                continue
            if absent is None:
                absent = self._read(slice(None), d, slice(None))
            yield absent

    @functools.cached_property
    def _dense(self):
        """The values as (slot, palette colour, full plane) over all 2^k
        planes, expanded on first access, for tests and cross-checks.
        Lookups and stats() go through _read instead."""
        full = np.empty((len(self._values), len(self._row), self._plan.gather.shape[1]),
                        dtype=self._values.dtype)
        for d, planes in enumerate(self._colour_planes()):
            full[:, d] = planes
        return full

    def value_of(self, z: ZKey):
        """Value for a key; +inf for never-relaxed keys."""
        v = int(self._read(*self._slot_of_key(z)))
        return float("inf") if v >= INF else v

    def _canonical(self):
        """canon[slot, plane]: the plane holds only colours of the slot's
        section."""
        # int32 holds every plane: the entry cap keeps 2^colours <= 2^25.
        planes = np.arange(self._plan.gather.shape[1], dtype=np.int32)
        slot_masks = self._masks[self._index.slot_sid].astype(np.int32)
        return (planes[None, :] & ~slot_masks[:, None]) == 0

    def entries(self) -> dict:
        """All finite keys with canonical ignore masks."""
        if self._entries is None:
            finite = (self._dense < INF) & self._canonical()[:, None, :]
            slots, ds, planes = np.nonzero(finite)
            values = self._dense[slots, ds, planes]
            # Palette bitmask of each plane.
            ignore = np.zeros_like(planes)
            for j, col in enumerate(np.flatnonzero(self._bits).tolist()):
                ignore |= ((planes >> j) & 1) << col
            index = self._index
            borders = [(Border(*g[:2]), Border(*g[2:])) for g in index.sec_borders.tolist()]
            heads = [(*borders[sid], r1, r2)  # borders and attachment vertices per slot
                     for sid, (r1, r2) in zip(index.slot_sid.tolist(), index.slot_ends.tolist())]
            self._entries = {
                ZKey(*heads[slot], d, m): v
                for slot, d, m, v in zip(slots.tolist(), ds.tolist(),
                                         ignore.tolist(), values.tolist())
            }
        return self._entries

    def _rule_of(self, slot, d, plane):
        """Find a relaxation rule achieving the stored value.

        Returns ("zero",), ("recolour", child) or ("split", left, right),
        each child the (slot, colour, full plane) of the entry the rule
        reads: the recolour child on plane + {d}, split children on the
        parent's plane (lemma "section colours").
        """
        v = int(self._read(slot, d, plane))
        if v >= INF:
            raise InputError("entry has no finite value")
        if v == 0:
            return ("zero",)
        index = self._index
        child = plane | self._bits[d]
        for dp in range(len(self._row)):
            if int(self._read(slot, dp, child)) == v - 1:
                return ("recolour", (slot, dp, child))
        null = len(self._values)
        for i in range(index.rec_start.item(slot), index.rec_start.item(slot + 1)):
            ls, rs = index.rec_left.item(i), index.rec_right.item(i)
            if ls == null:  # the slot's padding: no record follows
                break
            lv = int(self._read(ls, d, plane))
            if lv <= v and lv + int(self._read(rs, d, plane)) == v:
                return ("split", (ls, d, plane), (rs, d, plane))
        raise FlooditError("no relaxation rule reproduces the stored value")

    def _slot_of_key(self, z: ZKey):
        """The (slot, palette colour, full plane) a key reads, the plane of
        the key's ignored colours that occur on the board.  Raises
        InputError for a colour or an ignore mask outside the palette, or a
        key with no slot."""
        b1, b2 = z.b1, z.b2
        c1, c2 = geo.section_cells(self.board, b1, b2, z.r1, z.r2)
        if abs(b1.t - b1.b) > 1 or abs(b2.t - b2.b) > 1:
            raise InputError(f"no section for borders {b1}, {b2}")
        sid = self._index.sec_of.item(2 * b1.t + b1.b, 2 * b2.t + b2.b)
        slot = self._index.pair_slot(sid, c1, c2)
        if slot is None:
            raise InputError(f"({z.r1}, {z.r2}) is not a valid attachment pair")
        _check_palette(z, len(self._bits))
        return slot, z.d, sum(b for d, b in enumerate(self._bits) if z.ignore >> d & 1)

    def back_pointer(self, z: ZKey) -> "BackPtr":
        """Which rule produced the key's value (re-derived on demand)."""
        rule = self._rule_of(*self._slot_of_key(z))
        if rule[0] == "zero":
            return BackPtr("zero")
        if rule[0] == "recolour":
            return BackPtr("recolour", d_from=rule[1][1])
        index = self._index
        ls, rs = rule[1][0], rule[2][0]
        t, bb = index.sec_borders[index.slot_sid[ls], 2:].tolist()
        return BackPtr(
            "split",
            border=Border(t, bb),
            x1=int(index.slot_ends[ls, 1]),
            x2=int(index.slot_ends[rs, 0]),
        )

    def board_value(self, target: Optional[int] = None):
        """Best full-board value, over all final colours or a fixed one.

        Returns (value, (slot, d)); the slot/colour pair feeds reconstruction.
        """
        c = len(self.board.palette)
        if target is not None and not 0 <= target < c:
            raise InputError(f"target colour {target} outside the palette")
        best = INF
        goal = None
        for slot in _goal_slots(self.board, self._index):
            for d in range(c) if target is None else (target,):
                v = int(self._read(slot, d, 0))
                if v < best:
                    best = v
                    goal = (slot, d)
        return best, goal

    def stats(self) -> TableStats:
        canon = self._canonical()  # (slot, full plane), like one colour's values
        keys = zeros = max_value = relaxations = 0
        for v in self._colour_planes():
            finite = v < INF
            zero = v == 0
            relaxations += np.count_nonzero(finite) - np.count_nonzero(zero)
            finite &= canon
            keys += np.count_nonzero(finite)
            zeros += np.count_nonzero(zero & canon)
            max_value = max(max_value, int(v.max(where=finite, initial=0)))
        sweeps = len(self._index.layer_bounds) - 1 if self.mode == "reference" else 0
        return TableStats(keys=int(keys), zeros=int(zeros), max_value=max_value,
                          sweeps=sweeps, relaxations=int(relaxations))


# -- solvers ---------------------------------------------------------------


def _goal_slots(board, index):
    sid = index.sec_of.item(0, 3 * board.n)
    return [slot for slot in index.slot_of[sid].ravel().tolist() if slot >= 0]


def _dense_seeds(board, index, masks, bits):
    """Zero seeds of the table, one row of (colour on the board, ignore set
    without that colour's bit) entries per slot, with INF elsewhere and in
    the null slot's last row, which padding records read.  Returns the seeds
    and the plane plan of the board's colour count, built once per count
    (_get_plan)."""
    k = int(np.count_nonzero(bits))
    plan = _get_plan(k)
    imap = plan.imap.reshape(k, -1)  # (colour, plane)
    t_init = np.full((len(index.slot_sid) + 1, len(plan.imap)), INF, dtype=np.int16)
    # A listed path seeds its slot with colour d if every cell has colour d.
    # A slot may have several such paths, all with its r1 cell's colour.
    colours = np.ravel(board.cells)[index.seed_cells]
    mono = (colours == colours[:, :1]).all(axis=1)
    seed_d = np.full(len(index.slot_sid), -1, dtype=np.int64)
    seed_d[index.seed_slot[mono]] = colours[mono, 0]
    slots = np.flatnonzero(seed_d >= 0)
    d = seed_d[slots]
    j = (np.cumsum(bits > 0) - 1)[d]
    # Seed every plane that holds the section's colours other than d; the
    # base lacks d's bit, which imap adds.
    base = masks[index.slot_sid[slots]] & ~bits[d]
    hit, plane = np.nonzero((imap[j] & base[:, None]) == base[:, None])
    t_init.reshape(len(t_init), k, -1)[slots[hit], j[hit], plane] = 0
    return t_init, plan


def _least_over_colours(rows, gather):
    """The least value over the table's colours, W(J) = min_j of the
    entry in column gather[j, J] of each row, a colour at a time: (slots,
    planes) for a run of rows and some of the map's columns, one value for
    one row and one plane's column.  DPTable's lookups read absent colours
    through it."""
    low = rows.take(gather[0], axis=-1)
    for cols in gather[1:]:
        low = np.minimum(low, rows.take(cols, axis=-1))
    return low


def _recolour(t, plan, deadline, close=False, above=None):
    """The recolour rule on the run of slots t, in place, a block of whole
    slots' rows at a time: the entry in column c, colour j's on plane p,
    takes 1 + W(imap[c]) where that is less, W the least value over the
    board's colours.
    With close, W first takes the least W(K) + |K - J| over supersets K of
    each full plane J: the least X(K) = W(K) + |K| over them, one take of
    plus and one np.minimum per plane bit, then lift adds 1 - |J| (lemma
    "popcount shift").  Without it, the rule reads 1 + W.

    Each block runs on an entry-major copy, (entry, slot), so that every
    take copies whole rows of slots rather than one entry per index, and
    is written back.  With above = k, returns each slot's least entry above
    k after the rule, INF if none, taken from that copy: entry - (k + 1) as
    uint16 wraps the entries at or below k past every other, so one plain
    least, capped at INF - (k + 1), gives it less k + 1."""
    size = max(1, _BLOCK_ENTRIES // t.shape[1])
    if above is not None:
        least = np.empty(len(t), dtype=np.uint16)
    for a in range(0, len(t), size):
        _check_deadline(deadline)
        # A copy, never a view: with one colour the transpose is already
        # contiguous, and the wrap below writes into the block.
        run = t[a:a + size].T.copy()
        low = run.take(plan.gather[0], axis=0)  # W, (full plane, slot)
        for cols in plan.gather[1:]:
            np.minimum(low, run.take(cols, axis=0), out=low)
        if close:
            low += plan.size  # X
            for plus in plan.plus:
                np.minimum(low, low.take(plus, axis=0), out=low)
            low += plan.lift
        else:
            low += 1
        np.minimum(run, low.take(plan.imap, axis=0), out=run)
        t[a:a + size] = run.T
        if above is not None:
            run -= above + 1
            np.minimum(run.view(np.uint16).min(axis=0), INF - (above + 1), out=least[a:a + size])
    if above is not None:
        least += above + 1
        return least


def _lower_by_splits(t, left, right, parents, starts, counts, deadline, k):
    """The split rule over the worklist's offered records, grouped by
    parent, on the table as rows (slot, entries), a block of whole parents
    at a time.  Parent p owns the counts[p] records from starts[p] on.  A
    block of n parents whose largest count is m gathers and adds the
    children's rows of its records only, scatters the sum of parent p's
    r-th record to row r * n + p of an (m * n, entries) buffer filled with
    2 * INF, above every sum, takes one least over the m ranks, as
    _lower_layer does, and lowers the parents' rows to it; with m = 1 or n
    = 1 the sums are that buffer as they stand.  A block holds the most
    consecutive parents that keep m * n within _BLOCK_ENTRIES // entries,
    or one parent whose records alone hold more.  Returns per parent whether
    an entry dropped from above k to k."""
    dropped = np.empty(len(parents), dtype=bool)
    size = max(1, _BLOCK_ENTRIES // t.shape[1])
    # A fancy index over these views moves whole rows as single items.
    row = np.dtype((np.void, t.strides[0]))
    p0 = 0
    while p0 < len(parents):
        _check_deadline(deadline)
        # Parents p0:p1 own records a:b: the rest if its largest count m
        # times its number fits, else the most that fit, at least one.
        m, p1 = int(counts[p0:].max()), len(parents)
        if m * (p1 - p0) > size:
            most = np.maximum.accumulate(counts[p0:p0 + size])
            p1 = p0 + max(1, np.count_nonzero(most * np.arange(1, len(most) + 1) <= size))
            m = most.item(p1 - p0 - 1)
        n, a, b = p1 - p0, starts.item(p0), starts.item(p1 - 1) + counts.item(p1 - 1)
        # take converts the block's int32 ids to intp.  Record ids are in
        # range by construction, and mode "clip" skips the bounds check of
        # mode "raise".
        sums = t.take(left[a:b], axis=0, mode="clip")
        sums += t.take(right[a:b], axis=0, mode="clip")
        if m > 1 < n:
            # Record i of parent p goes to row (i - starts[p]) * n + p.  Made
            # after the rows, the buffer meets one index array, not three.
            at = (np.arange(a * n, a * n + n) - starts[p0:p1] * n).repeat(counts[p0:p1])
            at += np.arange(0, (b - a) * n, n)
            rect = np.empty((m * n, t.shape[1]), dtype=t.dtype)
            rect.fill(2 * INF)
            rect.view(row)[at, 0] = sums.view(row)[:, 0]
            sums = rect
        low = sums.reshape(-1, n, t.shape[1]).min(axis=0)
        sums = rect = at = None  # freed before the next block's takes
        old = t.take(parents[p0:p1], axis=0)
        dropped[p0:p1] = ((low == k) & (old > k)).any(axis=1)
        np.minimum(old, low, out=low)
        t.view(row)[parents[p0:p1], 0] = low.view(row)[:, 0]
        p0 = p1
    return dropped


def _lower_layer(t, rows, left, right, deadline):
    """The split rule over one layer of the table t as rows (slot, entries),
    in place: rows is the layer's run of t, left and right its records as
    (parent, rank).  Each block gathers and adds the children's rows of
    whole parents, rank-major, takes the least sum over the ranks and
    lowers the parents' rows to it.  A block holds as many parents as fit
    in _BLOCK_ENTRIES sums, or one parent whose records alone hold more."""
    parents, width = left.shape
    size = max(1, _BLOCK_ENTRIES // (width * t.shape[1]))
    for a in range(0, parents, size):
        _check_deadline(deadline)
        # Record ids are in range by construction, and mode "clip" skips
        # the bounds check of mode "raise".
        sums = t.take(left[a:a + size].T, axis=0, mode="clip")
        sums += t.take(right[a:a + size].T, axis=0, mode="clip")
        out = rows[a:a + size]
        np.minimum(out, sums.min(axis=0), out=out)


def _solve_dense(t, plan, index, deadline):
    """One relaxation pass in structural order over the table t of
    _dense_seeds, in place.

    Layers are walked by increasing cell count.  Within a layer the split
    rule reads only earlier layers, which are final.  Let B(J) be the
    layer's least value over the board's colours on full plane J after the
    splits, and W(J) the same after the recolour rule: W(J) = min(B(J), 1 +
    min W(J + b)) over plane bits b not in J.  Unrolled, W(J) is the least
    B(K) + |K - J| over supersets K of J: the least B(K) + |K| over them,
    less |J|, one plain minimum per plane bit (lemma "popcount shift").  Then
    colour j's row on plane I takes 1 + W(I + {j}).  The plane plan holds
    the maps and offsets for the board's colour count.
    """
    # Slot-major: a layer is one contiguous slot range, its split records
    # one (parent, rank) rectangle, and each child one row of entries.
    for lo, hi, left, right in index.layers:
        _check_deadline(deadline)
        if left.size:
            _lower_layer(t, t[lo:hi], left, right, deadline)
        _recolour(t[lo:hi], plan, deadline, close=True)


def _windows(index, cap):
    """The worklist's windows over the split records, and where a scan for
    a slot's records starts.  Window w is the records bounds[w]:bounds[w +
    1]: consecutive whole layers while their records number at most cap,
    or one larger layer alone.  above[s] is the first record whose parent
    lies in a layer above slot s, kept on the index for every cap;
    children lie in earlier layers than their parent, so every record with
    child s lies at or after above[s], and a window of one layer holds no
    record with a parent in it as a child."""
    edges = index.rec_start[index.layer_bounds].tolist()
    bounds = [0]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if lo > bounds[-1] and hi - bounds[-1] > cap:
            bounds.append(lo)
    if bounds[-1] < edges[-1]:
        bounds.append(edges[-1])
    return bounds, index.rec_above


def _solve_buckets(best, plan, index, deadline):
    """Bucketed label-setting pass (Dial's algorithm) over the table best of
    _dense_seeds, in place.

    Settles entries bucket by bucket in value order 0, 1, 2, ...: once
    bucket k is done, every entry whose value is at most k is final, so
    "settled" means value <= k and the one relaxed array is the table.  A
    slot is settled once one of its entries is.  Bucket k is one upward pass
    over the split records, which are stored in layer order, in windows of
    whole layers: each window offers the split sums of its records that
    have both children settled and a child with an entry at k, then
    rescans its records above the slots where an entry dropped to k, until
    none does.  A window of one layer never rescans.
    The pass starts at the first layer above the lowest slot at k: no
    earlier record has a child at k.  Then the recolour rule offers to
    later buckets, and in the same pass reads each slot's least entry above
    k, from which the next bucket starts.

    Offers read the table, so one may add a settled slot's tentative entry.
    A tentative value is the value of some derivation, so no offer goes
    below an entry's final value.  Every split still reaches its parent
    with both children final.  Take a split sum a + b, a >= b, that is the
    final value of a parent entry.  In bucket a, the record lies above both
    children's layers.  The child entry with value a holds a at the start
    of the bucket, or drops to a when the records of its own layer are
    offered: in an earlier window, or in the record's own, whose rescan
    follows the drop.  The other child's entry holds b by then, or reaches
    a the same way if b = a.  So when the record's window is scanned or
    rescanned, both child entries are final and their slots marked, and the
    record is offered with both final values: b = 0 puts the parent into
    bucket a, and b >= 1 into a later bucket, which reads it at its start.
    """
    # Slot-major: a split record gathers its children as two rows of
    # entries.
    rows = max(1, _BLOCK_ENTRIES // best.shape[1])
    rec_start, rec_left, rec_right = index.rec_start, index.rec_left, index.rec_right
    bounds, above = _windows(index, rows)
    # Slot states: 0 unsettled, 1 settled, 3 holds an entry at k, 2 dropped
    # to k in the window's last offer.  A record with children in states x
    # and y is offered if x * y >= 3, and on a rescan if x * y is even and
    # positive, that is, a child is at 2.  The null slot's row is INF, so
    # it stays at 0 and no padding record passes either test.
    state = np.zeros(len(best), dtype=np.uint8)

    def offer(a, b, k, rescan):
        """Offer the split sums of the records a:b that pass the state
        test; return the slots where an entry dropped to k, ascending."""
        # take gathers about twice as fast as an index here.
        prod = state.take(rec_left[a:b]) * state.take(rec_right[a:b])
        recs = (((prod & 1) == 0) & (prod > 0) if rescan else prod >= 3).nonzero()[0]
        if not len(recs):
            return recs
        recs += a
        # Slot first + p owns recs[at[p]:at[p + 1]].
        first, last = rec_start.searchsorted(recs[[0, -1]], "right") - 1
        at = recs.searchsorted(rec_start[first:last + 2])
        counts = at[1:] - at[:-1]
        owned = counts.nonzero()[0]
        parents = owned + first
        return parents[_lower_by_splits(best, rec_left.take(recs), rec_right.take(recs),
                                        parents, at[owned], counts[owned], deadline, k)]

    # Each slot's least entry above the last bucket, every entry before the
    # first: the slots where it is the next bucket k hold an entry at k.
    # After the first bucket, the recolour rule returns it.
    least = best.min(axis=1)
    while True:
        _check_deadline(deadline)
        k = int(least.min())
        if k >= INF:
            break
        state[state == 3] = 1
        new = least == k
        state[new] = 3
        start = above[new.argmax()]
        for w in range(bisect.bisect_right(bounds, start) - 1, len(bounds) - 1):
            _check_deadline(deadline)
            a, b = max(bounds[w], start), bounds[w + 1]
            dropped = offer(a, b, k, False)
            while len(dropped):
                state[dropped] = 2
                a = above[dropped[0]]
                again = offer(a, b, k, True) if a < b else dropped[:0]
                state[dropped] = 3
                dropped = again
        least = _recolour(best, plan, deadline, above=k)


def solve(board: Board2xN, target: Optional[int] = None, mode: str = "reference",
          time_budget: Optional[float] = None):
    """Minimum move count to flood the board (optionally with a fixed final
    colour).  Returns (value, DPTable).  time_budget, in seconds, must be
    positive; BudgetExceededError is raised when it runs out."""
    c = len(board.palette)
    if target is not None and not 0 <= target < c:
        raise InputError(f"target colour {target} outside the palette")
    if mode not in ("reference", "worklist"):
        raise InputError(f"unknown mode {mode!r}")
    if time_budget is not None and not time_budget > 0:
        raise InputError("time_budget must be positive")
    deadline = None if time_budget is None else time.monotonic() + time_budget
    index = _get_index(board.n, deadline)
    bits = _plane_bits(board)
    entries = len(index.slot_sid) * c << int(np.count_nonzero(bits))
    if entries > _TABLE_ENTRY_CAP:
        raise CapacityError(
            f"key space too large: {entries:,} table entries, cap {_TABLE_ENTRY_CAP:,}; "
            "use fewer colours or a narrower board")
    masks = _section_masks(board, index, bits)
    values, plan = _dense_seeds(board, index, masks, bits)
    if mode == "reference":
        _solve_dense(values, plan, index, deadline)
    else:
        _solve_buckets(values, plan, index, deadline)
    table = DPTable(board, index, mode, masks, bits, target, values[:-1], plan)

    best, goal = table.board_value(target)
    if best >= INF:
        raise FlooditError("no finite value for the whole board")
    table.value = best
    table.goal = goal
    return best, table


# -- sequence reconstruction -------------------------------------------------


def reconstruct(table: DPTable) -> list:
    """Extract a move sequence of length table.value that floods the board.

    Walks the solved table: a zero entry emits nothing, a recolour step
    emits its child's moves plus one move at the left attachment vertex, a
    split emits left then right.  The result is replay-validated; failure
    raises instead of returning a bad sequence.
    """
    if table.value is None or table.goal is None:
        raise InputError("table has no solved goal; run solve() first")
    board = table.board
    index = table._index

    def derive(slot, d, plane):
        kind, *children = table._rule_of(slot, d, plane)
        moves = [m for child in children for m in derive(*child)]
        if kind == "recolour":
            moves.append(Move(int(index.slot_ends[slot, 0]), d))
        return moves

    slot, d = table.goal
    moves = derive(slot, d, 0)
    graph = to_graph(board)
    final, flooded = replay(graph, moves)
    ok = flooded and len(moves) == table.value
    if ok and table.target is not None:
        ok = final.colouring[0] == table.target
    if not ok:
        raise ReconstructionError(
            "reconstructed sequence failed replay validation",
            sequence=moves,
            final_colouring=final.colouring,
        )
    return moves
