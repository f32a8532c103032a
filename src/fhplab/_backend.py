"""Bitmask counting kernels: intersecting k-subsets and element depths.

Member sets are bitmasks (arbitrary-size ints) over a ground set of
`ground_size` elements.  `count_intersecting_k` walks the members in index
order and keeps the running AND of the members chosen so far.  A branch
dies as soon as that AND is empty, since no superset can revive it.  It
stops as soon as the AND is a single point e: the chosen members can only
be completed by members that contain e, so the rest of the branch is the
binomial C(#later members containing e, still needed), read off e's column
(the members that contain e, as a bitmask over member indices).  Two
distinct lines of a plane meet in at most one point, so on line families
every branch ends in closed form after its second member.  The columns are
built on the first one-point hit, so families whose branches never narrow
to one point pay nothing for them.
"""

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
            low = m & -m
            cols[low.bit_length() - 1] |= bit
            m ^= low
    return cols


def count_intersecting_k(masks, ground_size, k):
    """Number of k-element index subsets (k >= 1) whose masks share a bit."""
    n = len(masks)
    cols = []

    def count(start, need, acc):
        # need-subsets of masks[start:] that meet acc in a common bit
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
            if a & (a - 1):
                total += count(i + 1, need - 1, a)
                continue
            if not cols:
                cols.extend(_columns(masks, ground_size))
            later = (cols[a.bit_length() - 1] >> (i + 1)).bit_count()
            total += comb(later, need - 1)
        return total

    return count(0, k, (1 << ground_size) - 1)


def count_intersecting_pairs(masks, ground_size):
    return count_intersecting_k(masks, ground_size, 2)


def count_intersecting_triples(masks, ground_size):
    return count_intersecting_k(masks, ground_size, 3)


def depth_counts(masks, ground_size):
    """Per ground element, the number of masks whose bit is set."""
    counts = [0] * ground_size
    for m in masks:
        while m:
            low = m & -m
            counts[low.bit_length() - 1] += 1
            m ^= low
    return counts
