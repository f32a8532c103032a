"""The in-house prime helpers against sympy as the oracle."""

import math
import random

import pytest
import sympy
from sympy.ntheory.primetest import is_strong_lucas_prp

from fhplab._primes import (
    MR_LIMIT,
    SIEVE_CAP,
    _strong_lucas_prp,
    factorint,
    isprime,
    primerange,
)

CARMICHAEL = [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
    46657, 52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401,
    172081, 188461, 252601, 278545, 294409, 314821, 334153, 340561, 399001,
    410041, 449065, 488881, 512461,
]
STRONG_PSEUDOPRIMES = [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
]


def chernick_carmichaels(seed, count):
    """(6k+1)(12k+1)(18k+1) with all three factors prime, k seeded."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        k = rng.randrange(1, 10**9)
        fs = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(sympy.isprime(f) for f in fs):
            found.append(fs[0] * fs[1] * fs[2])
    return found


class TestIsPrime:
    def test_small_range(self):
        list(primerange(2, 5 * 10**4))  # half the range reads the sieve
        for n in range(-3, 10**5):
            assert isprime(n) == sympy.isprime(n), n

    def test_carmichael_numbers(self):
        for n in CARMICHAEL + chernick_carmichaels(3, 12):
            assert not isprime(n), n
            assert sympy.isprime(n) is False

    def test_strong_pseudoprimes(self):
        for n in STRONG_PSEUDOPRIMES:
            assert not isprime(n), n
            assert sympy.isprime(n) is False

    @pytest.mark.parametrize("side", [-1, 1])
    def test_seeded_around_mr_limit(self, side):
        rng = random.Random(41 + side)
        primes = 0
        for _ in range(1500):
            n = MR_LIMIT + side * rng.randrange(0, 10**15)
            want = sympy.isprime(n)
            primes += want
            assert isprime(n) == want, n
        assert primes >= 10  # both verdicts were exercised

    def test_primes_and_semiprimes_above_mr_limit(self):
        rng = random.Random(9)
        for _ in range(20):
            p = sympy.nextprime(MR_LIMIT + rng.randrange(10**20))
            q = sympy.nextprime(rng.randrange(10**12, 10**13))
            assert isprime(p)
            assert not isprime(p * q)
            assert not isprime(p * p)

    def test_strong_lucas_refuses_squares(self):
        # 1093^2 is a strong pseudoprime to base 2; no D has (D/n) = -1
        assert not _strong_lucas_prp(1093**2)
        assert not isprime(1093**2)

    def test_strong_lucas_matches_sympy(self):
        for n in range(3, 30000, 2):
            if math.isqrt(n) ** 2 == n:
                continue
            assert _strong_lucas_prp(n) == is_strong_lucas_prp(n), n


class TestPrimeRange:
    @pytest.mark.parametrize(
        "a,b",
        [
            (0, 0), (0, 1), (0, 2), (2, 2), (-5, 2), (2, 3), (3, 2), (5, 3),
            (-10, 30), (13, 14), (14, 17), (90, 97), (90, 98), (0, 10**5),
            (SIEVE_CAP - 200, SIEVE_CAP + 200),
            (3 * SIEVE_CAP - 30, 3 * SIEVE_CAP + 1000),
            (10**12, 10**12 + 3000),
        ],
    )
    def test_matches_sympy(self, a, b):
        assert list(primerange(a, b)) == list(sympy.primerange(a, b))


class TestFactorint:
    def test_seeded_up_to_1e18(self):
        rng = random.Random(18)
        for _ in range(300):
            n = rng.randrange(1, 10**rng.randint(1, 18) + 1)
            assert factorint(n) == sympy.factorint(n), n

    def test_semiprimes_of_1e9_primes(self):
        rng = random.Random(99)
        for _ in range(6):
            p = sympy.nextprime(rng.randrange(10**9, 2 * 10**9))
            q = sympy.nextprime(rng.randrange(10**9, 2 * 10**9))
            assert factorint(p * q) == sympy.factorint(p * q)

    def test_powers_and_edges(self):
        for n in [1, 2, 4, 2**60, 3**37, 1000003**2, 1000003**3,
                  2 * 999983 * 1000003, 3215031751]:
            assert factorint(n) == sympy.factorint(n), n

    def test_keys_increase(self):
        assert list(factorint(2 * 3**2 * 1000003 * 999983)) == [
            2, 3, 999983, 1000003
        ]

    @pytest.mark.parametrize("n", [0, -12])
    def test_rejects_non_positive(self, n):
        with pytest.raises(ValueError):
            factorint(n)
