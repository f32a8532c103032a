"""Exact prime helpers: primality, prime ranges and factorization.

Pure Python and deterministic, with no probabilistic shortcuts that could
make a report depend on the run:

- isprime uses Miller-Rabin with the prime bases 2..41, which is proven
  correct below 3.317 * 10^24, and the Baillie-PSW test (a base-2 strong
  probable-prime test plus the strong Lucas test) at and above that bound;
  no Baillie-PSW pseudoprime is known.
- primerange reads a bytearray sieve that is kept between calls and grows
  on demand up to SIEVE_CAP; ranges above the cap are sieved in segments
  of SIEVE_CAP numbers, so memory stays bounded.
- factorint divides out the sieve's small primes, then splits what is
  left with Pollard-Brent rho, testing every cofactor with isprime.
"""

from __future__ import annotations

import itertools
import math

MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981
SIEVE_CAP = 1 << 22
TRIAL_LIMIT = 1 << 10

_sieve = bytearray(b"\x00\x00\x01")  # _sieve[i] == 1  <=>  i is prime


def _grow_sieve(limit: int):
    """Make the sieve cover 0..limit-1 (limit <= SIEVE_CAP)."""
    global _sieve
    if limit <= len(_sieve):
        return
    size = min(max(limit, 2 * len(_sieve)), SIEVE_CAP)
    sieve = bytearray(b"\x01") * size
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(size - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, size, p)))
    _sieve = sieve


def primerange(a: int, b: int):
    """Iterator over the primes p with a <= p < b, in increasing order."""
    a = max(a, 2)
    if a >= b:
        return iter(())
    _grow_sieve(min(b, SIEVE_CAP))
    low = itertools.compress(range(a, min(b, SIEVE_CAP)), memoryview(_sieve)[a:b])
    if b <= SIEVE_CAP:
        return low
    return itertools.chain(low, _segmented_primes(max(a, SIEVE_CAP), b))


def _segmented_primes(lo: int, hi: int):
    """Primes in [lo, hi), sieving SIEVE_CAP numbers at a time."""
    while lo < hi:
        top = min(lo + SIEVE_CAP, hi)
        segment = bytearray(b"\x01") * (top - lo)
        for p in primerange(2, math.isqrt(top - 1) + 1):
            start = max(p * p, -(-lo // p) * p)
            segment[start - lo :: p] = bytes(len(range(start, top, p)))
        yield from itertools.compress(range(lo, top), segment)
        lo = top


def _strong_prp(n: int, a: int) -> bool:
    """Miller-Rabin strong probable-prime test of odd n > 2 to base a."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 2, Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4.  With n + 1 = d * 2^s, n passes when U_d = 0 or
    V_{d*2^r} = 0 for some 0 <= r < s (all mod n).
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False  # a common factor with D
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    # binary ladder for U_d, V_d and Q^d, starting from U_1, V_1, Q^1
    U, V, Qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (P * U + V) % n, (D * U + P * V) % n
            if U & 1:
                U += n
            if V & 1:
                V += n
            U, V = U >> 1, V >> 1
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def isprime(n: int) -> bool:
    """Exact primality of an integer; False below 2."""
    if n < 2:
        return False
    if n < len(_sieve):
        return bool(_sieve[n])
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    if n < MR_BASES[-1] ** 2:
        return True
    if n < MR_LIMIT:
        return all(_strong_prp(n, a) for a in MR_BASES)
    return _strong_prp(n, 2) and _strong_lucas_prp(n)


def _brent_factor(n: int) -> int:
    """A nontrivial factor of the odd composite n (Pollard-Brent rho).

    Deterministic: tries the maps y -> y^2 + c for c = 1, 2, ... until one
    splits n.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batched product overshot: step again one term at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorint(n: int) -> dict:
    """Prime factorization {p: exponent} of n >= 1, keys in increasing order."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    factors = {}
    for p in primerange(2, TRIAL_LIMIT):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if isprime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack += [r, r]
            continue
        f = _brent_factor(m)
        stack += [f, m // f]
    return dict(sorted(factors.items()))
