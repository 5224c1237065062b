"""Section index arrays and worklist windows of two source trees, compared
width by width.

    python scripts/index_digest.py LABEL=SRC_DIR LABEL=SRC_DIR

Each SRC_DIR holds a `floodit` package (the `src/` of a checkout).  One
fresh process per tree builds `dp2xn._SectionIndex(n)` for every width n
from 1 to 60 and prints the dtype, shape and md5 of each array in ARRAYS,
then of each slot's own split records: own_left and own_right, the
children of every record that is not padding (a record whose children are
not the null slot, id len(slot_sid)) in stored order, and own_count, each
slot's count of them.  So a change of the record layout that keeps the
records per parent and their order shows equal own_* digests.  Last come
the bounds and `above` of `dp2xn._windows(index, cap)` at the cap of each
colour count k from 1 to 8 on the board, one row of k << (k - 1) entries
per split sum.  Prints every digest that differs between the trees, or
that all are identical; exits 1 if any differs.
"""

import sys

from benchpair import run_child

ARRAYS = ("rec_start", "rec_left", "rec_right", "slot_sid", "slot_of", "slot_ends",
          "layer_bounds", "seed_cells", "seed_slot")

CHILD = r"""
import hashlib, sys
import numpy as np
from floodit import dp2xn

def show(n, name, a):
    shape = "x".join(map(str, a.shape))
    print(n, name, a.dtype, shape, hashlib.md5(a.tobytes()).hexdigest())

for n in range(1, 61):
    index = dp2xn._SectionIndex(n)
    for name in sys.argv[1:]:
        show(n, name, getattr(index, name))
    null = len(index.slot_sid)
    own = index.rec_left != null
    parents = np.repeat(np.arange(null), np.diff(index.rec_start))
    show(n, "own_left", index.rec_left[own])
    show(n, "own_right", index.rec_right[own])
    show(n, "own_count", np.bincount(parents[own], minlength=null))
    for k in range(1, 9):
        bounds, above = dp2xn._windows(index, max(1, dp2xn._BLOCK_ENTRIES // (k << (k - 1))))
        show(n, f"bounds@{k}c", np.array(bounds, dtype=np.int64))
        show(n, f"above@{k}c", above)
"""


def main(argv):
    sides = [side.split("=", 1) for side in argv]
    if len(sides) < 2 or any(len(side) != 2 for side in sides):
        sys.exit(__doc__)
    digests = {label: run_child(src, CHILD, *ARRAYS).splitlines() for label, src in sides}
    (first, base), *others = digests.items()
    differ = False
    for label, lines in others:
        for want, got in zip(base, lines):
            if want != got:
                differ = True
                print(f"{first}: {want}\n{label}: {got}")
        if len(base) != len(lines):
            differ = True
            print(f"{first}: {len(base)} digests, {label}: {len(lines)}")
    if not differ:
        print(f"identical: {len(base)} digests (widths 1-60, {', '.join(ARRAYS)}, "
              "own records, windows at 1-8 colours)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
