"""Bitmask counting kernels: intersecting k-subsets and element depths.

Member sets are bitmasks (arbitrary-size ints) over a ground set of
`ground_size` elements.  A column is the bitmask of the member indices that
contain one ground element; `_columns` builds the table of them.  The bit
loops here peel the highest set bit, so the int they walk shrinks as they go.

`count_intersecting_k` walks the members in index order and keeps the
running AND of the members chosen so far.  A branch dies as soon as that
AND is empty, since no superset can revive it.  Otherwise it is finished
from one of two sides:

- by members, trying each later member in turn, as the top level does;
- by points, reading the columns of the AND's points past the last chosen
  member.  One point e leaves the binomial C(#later members through e,
  still needed).  If one member is still needed, the count is the size of
  the OR of the columns.  Otherwise the branch sums the binomials of its
  points, which is exact while no later member holds two of the points.
  The pass that sums them ORs the columns as it goes and stops at the first
  column that meets the OR so far (the "seen twice" test of carry-save
  addition; Knuth, TAOCP 4A 7.1.3); the branch then goes by members.

A one-point AND always goes by points.  A larger one goes by points when
its points cost less than its later members, at POINT_STEP against one
member step.  Two lines of a plane meet in at most one point, so on
line families most branches opened by one line are counted by its points;
two crosses of `build_two_order_cross` meet in two points that no third
cross holds, so most branches opened by two crosses are too.  The column
table is built when a branch first needs it.
"""

from functools import partial
from math import comb

_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def from_flags(flags):
    """The mask whose bit i is flags[i], for a bytes-like of 0/1 values."""
    return int(flags[::-1].translate(_FLAG_DIGITS), 2) if flags else 0


def elements(mask):
    """Ascending positions of the set bits of a nonnegative mask."""
    digits = bin(mask)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _columns(masks, ground_size):
    """Per ground element, the bitmask of member indices that contain it."""
    cols = [0] * ground_size
    for i, m in enumerate(masks):
        bit = 1 << i
        while m:
            e = m.bit_length() - 1
            cols[e] |= bit
            m ^= 1 << e
    return cols


# The cost of one point step of a branch, in member steps.  A point step
# peels a point and reads its column; a member step ANDs one mask.  Timed
# with CPython 3.11 on a 2-vCPU VM over the benchmark's line, cross, caps and
# shattered-pairs families, a point step costs about three member steps:
# lines and crosses ran fastest at a ratio of 2 to 3, shattered pairs at 3
# or more.
POINT_STEP = 3


def count_intersecting_k(masks, ground_size, k, columns=None):
    """Number of k-element index subsets (k >= 1) whose masks share a bit.

    `columns`, if given, is a zero-argument callable that returns the
    column table `_columns(masks, ground_size)`.  It is called at most
    once, when a branch first needs the table.
    """
    n = len(masks)
    if columns is None:
        columns = partial(_columns, masks, ground_size)
    cols = None

    def by_points(start, need, acc):
        # need-subsets of masks[start:] that meet acc in a common point, summed
        # over the points of acc; None once a member of masks[start:] holds two
        # points of acc, since the sum would count its subsets twice
        nonlocal cols
        if cols is None:
            cols = columns()
        seen = total = 0
        if need == 1:
            while acc:
                e = acc.bit_length() - 1
                acc ^= 1 << e
                seen |= cols[e]
            return (seen >> start).bit_count()
        while acc:
            e = acc.bit_length() - 1
            acc ^= 1 << e
            later = cols[e] >> start
            if seen & later:
                return None
            seen |= later
            total += comb(later.bit_count(), need)
        return total

    def count(start, need, acc):
        # need-subsets of masks[start:] whose members meet acc in a common point
        nonlocal cols
        total = 0
        if need == 1:
            for m in masks[start:]:
                if acc & m:
                    total += 1
            return total
        for i in range(start, n - need + 1):
            a = acc & masks[i]
            if not a:
                continue
            size = a.bit_count()
            if size == 1:
                if cols is None:
                    cols = columns()
                later = (cols[a.bit_length() - 1] >> (i + 1)).bit_count()
                total += comb(later, need - 1)
                continue
            # n - 1 - i: the cost of going by members in a branch opened by i
            if POINT_STEP * size < n - 1 - i:
                got = by_points(i + 1, need - 1, a)
                if got is not None:
                    total += got
                    continue
            total += count(i + 1, need - 1, a)
        return total

    return count(0, k, -1)  # -1: the whole ground


def count_intersecting_pairs(masks, ground_size):
    return count_intersecting_k(masks, ground_size, 2)


def count_intersecting_triples(masks, ground_size):
    return count_intersecting_k(masks, ground_size, 3)


def depth_counts(masks, ground_size):
    """Per ground element, the number of masks whose bit is set."""
    counts = [0] * ground_size
    for m in masks:
        while m:
            e = m.bit_length() - 1
            counts[e] += 1
            m ^= 1 << e
    return counts
