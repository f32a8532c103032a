"""Shared fixtures and brute-force oracles.

Oracles here deliberately avoid the library's optimized paths: they
recompute from member sets with itertools, floats via scipy, or plain
exhaustion, so agreement is meaningful.
"""

import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from fhplab.setfam import SetFamily

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def subprocess_env():
    """os.environ with src/ first on PYTHONPATH, for child interpreters."""
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_cli(*argv, timeout=30):
    """`python -m fhplab.cli argv` in a fresh process, so that a hang
    fails on the timeout instead of stalling the suite."""
    return subprocess.run(
        [sys.executable, "-m", "fhplab.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=subprocess_env(),
    )


@pytest.fixture
def triangle():
    return SetFamily(3, [{0, 1}, {1, 2}, {0, 2}])


def random_family(rng, ground_max=12, n_max=12, min_size=1):
    g = rng.randint(max(1, min_size), ground_max)
    n = rng.randint(1, n_max)
    members = [rng.sample(range(g), rng.randint(min_size, g)) for _ in range(n)]
    return SetFamily(g, members)


def seeded_families(seed, count, **kw):
    rng = random.Random(seed)
    return [random_family(rng, **kw) for _ in range(count)]


# ---------------------------------------------------------------- oracles


def oracle_cons_count(family, k):
    """k-subsets with a common element, straight from the member sets."""
    hits = 0
    for combo in itertools.combinations(family.members, k):
        inter = set(combo[0])
        for s in combo[1:]:
            inter &= s
        if inter:
            hits += 1
    return hits


def oracle_tuple_measure(family, weights, d):
    """Mass of consistent ordered d-tuples, one term per index multiset.

    Each multiset weighs its number of orderings times the product of its
    weights, in Fractions.
    """
    w = weights.weights
    total = Fraction(0)
    for combo in itertools.combinations_with_replacement(sorted(w), d):
        common = set.intersection(*(set(family.members[i]) for i in combo))
        if not common:
            continue
        arrangements = math.factorial(d)
        wprod = Fraction(1)
        for i, c in Counter(combo).items():
            arrangements //= math.factorial(c)
            wprod *= w[i] ** c
        total += arrangements * wprod
    return total


def is_shattered(family: SetFamily, subset) -> bool:
    """True iff every subset of `subset` occurs as S & subset for a member S.

    The empty subset is vacuously shattered.
    """
    elems = sorted(set(subset))
    for e in elems:
        if not 0 <= e < family.ground_size:
            raise ValueError(f"element {e!r} outside ground range")
    d = len(elems)
    if d == 0:
        return True
    if family.n < (1 << d):
        return False
    smask = 0
    for e in elems:
        smask |= 1 << e
    traces = set()
    for m in family.masks:
        traces.add(m & smask)
        if len(traces) == 1 << d:
            return True
    return False


def oracle_pk(family, p, k):
    """(p,k)-property by scanning every p-multiset of indices.

    A tuple passes when some ground element lies in >= k of its positions,
    multiplicity included; computed here per ground element.
    """
    for tup in itertools.combinations_with_replacement(range(family.n), p):
        depth = max(
            (sum(1 for i in tup if e in family.members[i])
             for e in range(family.ground_size)),
            default=0,
        )
        if depth < k:
            return False, tup
    return True, None


def oracle_intersection_number(family):
    """Float i(F) via scipy linprog; None if scipy rejects the instance."""
    from scipy.optimize import linprog

    g = family.ground_size
    n = family.n
    # variables: p_0..p_{g-1}, t ; maximize t  ->  minimize -t
    c = [0.0] * g + [-1.0]
    a_ub = []
    for s in family.members:
        row = [0.0] * (g + 1)
        for e in s:
            row[e] = -1.0
        row[g] = 1.0
        a_ub.append(row)
    b_ub = [0.0] * n
    a_eq = [[1.0] * g + [0.0]]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * g + [(None, None)], method="highs")
    return -res.fun if res.success else None


def oracle_min_cover(family):
    """Smallest hitting set by exhaustive search over ground subsets."""
    if any(not s for s in family.members):
        return None
    if family.n == 0:
        return 0
    ground = range(family.ground_size)
    for size in range(family.ground_size + 1):
        for cand in itertools.combinations(ground, size):
            cset = set(cand)
            if all(cset & s for s in family.members):
                return size
    return None


def oracle_max_inconsistent(consistent_pairs, count):
    """Largest pairwise-inconsistent index subset; naive backtracking.

    consistent_pairs: predicate on (i, j) that is True when types i, j are
    NOT m-inconsistent. No bounds, no greedy seed, no clique machinery.
    """
    best = 0
    order = list(range(count))

    def extend(chosen, rest):
        nonlocal best
        if len(chosen) > best:
            best = len(chosen)
        for pos, i in enumerate(rest):
            if all(not consistent_pairs(i, j) for j in chosen):
                extend(chosen + [i], rest[pos + 1:])

    extend([], order)
    return best


def oracle_find_kdd(edges, d):
    """Brute K_{d,d} search in a graph given as 2-uniform edge set."""
    verts = sorted({v for e in edges for v in e})
    eset = {frozenset(e) for e in edges}
    for left in itertools.combinations(verts, d):
        rest = [v for v in verts if v not in left]
        for right in itertools.combinations(rest, d):
            if all(frozenset((a, b)) in eset for a in left for b in right):
                return left, right
    return None


def interval_family(rng, ground=20, n=8):
    """Seeded family of intervals on a line; dual shatter is linear."""
    members = []
    for _ in range(n):
        a = rng.randrange(ground)
        b = rng.randrange(a, ground)
        members.append(set(range(a, b + 1)))
    return SetFamily(ground, members)
