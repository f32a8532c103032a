"""Arithmetic of square-free-type predicates on the integers.

The objects here live over (Z, +) with the unary predicates

    P_m     = {a != 0 : v_p(a) < 2 + v_p(m) for all primes p}
    U_{p,l} = {a : v_p(a) >= l}

so P_1 is the square-free integers.  A special formula constrains an
unknown x through linear slots k*x + z_i that must land in P_m (positive
slots) or avoid it (negative slots), plus finitely many per-prime side
conditions built from U-avoidance atoms.  Substituting concrete integers
for the slots gives a system whose solution set in a window (0, t) can be
counted exactly by sieving.  A density certificate brackets the formula's
density constant epsilon and depends on the formula alone; the system's
fully computable error term turns it into a lower bound on that count.

All window arithmetic is checked to stay within signed 64-bit range even
though Python would not overflow; exceeding it is an error naming the
offending form, so experiments shrink their parameters instead of
silently leaving the validated regime.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Tuple

from ._backend import from_flags
from ._jsonutil import SCHEMA_VERSION
from ._primes import factorint, isprime, primerange
from .setfam import FhpReport, SetFamily, check_fhp_instance, check_ground_size

INT64_MAX = 2**63 - 1
# largest window (0, t) a system is sieved over
WINDOW_CAP = 10**7
# epsilon ends with more digits than this are rounded for the report.  The
# margin below Python's 4,300-digit int-to-str limit leaves room for the
# rationals reports derive from them (sqf count's lower_bound,
# theoretical_beta).
EXACT_DIGITS = 4000
_EXACT_LIMIT = 10**EXACT_DIGITS
EPSILON_BITS = 64
# a certificate's head modulus D is reported exactly; Python prints an int
# of at most this many digits, so a larger D is refused before it is built
D_DIGITS = 4300
_D_LIMIT = 10**D_DIGITS
# most residues p_satisfiable scans; on a 2-vCPU VM (CPython 3.11) the scan
# ran 3^12 residues of a one-atom condition in 0.89 s and 2^20 in 2.5 s
PSAT_CAP = 2**20


def vp(a: int, p: int):
    """p-adic valuation; vp(0, p) is +infinity by convention (math.inf)."""
    if not isprime(p):
        raise ValueError(f"p = {p} is not prime")
    if a == 0:
        return math.inf
    a = abs(a)
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def in_Pm(a: int, m: int) -> bool:
    """a in P_m  <=>  a != 0 and v_p(a) < 2 + v_p(m) for every prime p.

    P_1 is exactly the square-free nonzero integers.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if a == 0:
        return False
    for p, v in factorint(abs(a)).items():
        if v >= 2 + vp(m, p):
            return False
    return True


# p-conditions are plain JSON trees, one node shape per op:
#
#   {"op": "notinU", "form": {"coeffs": {var: int}, "const": int}, "level": int}
#   {"op": "and" | "or", "items": [node, ...]}
#   {"op": "not", "item": node}
#   {"op": "true"}
#
# A notinU node says  const + sum(coeff * var)  is not in U_{p, level}.

# deepest condition tree read: every walk over a tree recurses per level
COND_DEPTH = 100

# SpecialFormula reads each tree once into this canonical shape (keys in this
# order, zero coefficients dropped, the rest sorted by name, const present),
# so equal conditions are equal trees and to_json writes them back as read.
_NODE_KEYS = {
    "notinU": {"op", "form", "level"},
    "and": {"op", "items"},
    "or": {"op", "items"},
    "not": {"op", "item"},
    "true": {"op"},
}


def _read_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _read_cond(node, allowed: set, depth: int = 0) -> dict:
    """The canonical copy of a condition tree over the variables allowed."""
    if depth > COND_DEPTH:
        raise ValueError(f"condition tree nested deeper than {COND_DEPTH}")
    if not isinstance(node, dict):
        raise ValueError(f"condition node must be an object, got {node!r}")
    op = node.get("op")
    if not isinstance(op, str) or op not in _NODE_KEYS:
        raise ValueError(f"unknown condition op {op!r}")
    missing = _NODE_KEYS[op] - set(node)
    extra = set(node) - _NODE_KEYS[op]
    if missing or extra:
        raise ValueError(
            f"condition {op!r} needs keys {sorted(_NODE_KEYS[op])}, "
            f"got {sorted(map(str, node))}"
        )
    if op in ("and", "or"):
        if not isinstance(node["items"], list):
            raise ValueError(f"condition {op!r}: items must be a list")
        return {
            "op": op,
            "items": [_read_cond(i, allowed, depth + 1) for i in node["items"]],
        }
    if op == "not":
        return {"op": op, "item": _read_cond(node["item"], allowed, depth + 1)}
    if op == "true":
        return {"op": op}
    form = node["form"]
    if not isinstance(form, dict) or not set(form) <= {"coeffs", "const"}:
        raise ValueError(f"form must be an object with coeffs and const, got {form!r}")
    coeffs = form.get("coeffs", {})
    if not isinstance(coeffs, dict):
        raise ValueError(f"coeffs must be an object, got {coeffs!r}")
    terms = {}
    for var, co in sorted(coeffs.items()):
        if _read_int(co, f"coefficient of {var}"):
            terms[var] = co
    bad = set(terms) - allowed
    if bad:
        raise ValueError(f"references undeclared variable(s) {sorted(bad)}")
    return {
        "op": op,
        "form": {"coeffs": terms, "const": _read_int(form.get("const", 0), "const")},
        "level": _read_int(node["level"], "level"),
    }


def _atoms(cond: dict):
    """The notinU nodes of a condition tree."""
    if cond["op"] == "notinU":
        yield cond
    elif cond["op"] == "not":
        yield from _atoms(cond["item"])
    else:
        for item in cond.get("items", ()):
            yield from _atoms(item)


def _cond_holds(cond: dict, p: int, assign: dict) -> bool:
    """Truth of a canonical condition tree at the prime p under assign.

    A notinU node at level <= 0 is false, since U_{p,0} is all of Z.
    """
    op = cond["op"]
    if op == "notinU":
        level = cond["level"]
        if level <= 0:
            return False
        form = cond["form"]
        value = form["const"]
        for var, co in form["coeffs"].items():
            value += co * assign[var]
        # value % p**level != 0, without building p**level: strip at
        # most level factors of p
        if value == 0:
            return False
        for _ in range(level):
            if value % p:
                return True
            value //= p
        return False
    if op == "and":
        return all(_cond_holds(i, p, assign) for i in cond["items"])
    if op == "or":
        return any(_cond_holds(i, p, assign) for i in cond["items"])
    if op == "not":
        return not _cond_holds(cond["item"], p, assign)
    return True


class SpecialFormula:
    """Shape of a constraint on x: slot memberships plus per-prime conditions.

    positive_slots counts variables z_i with k*x + z_i required in P_m;
    negative_slots counts z'_j with k*x + z'_j required outside P_m.
    p_conditions maps a prime to a condition tree (above) over the declared
    variables x, z0, z1, ..., zp0, zp1, ...; the keys end up sorted ints.
    None stands for no conditions.
    """

    _fields = ("lead_k", "modulus_m", "positive_slots", "negative_slots", "p_conditions")
    __slots__ = _fields

    def __init__(
        self,
        lead_k: int,
        modulus_m: int,
        positive_slots: int,
        negative_slots: int = 0,
        p_conditions: Optional[dict] = None,
    ):
        lead_k = _read_int(lead_k, "lead_k")
        modulus_m = _read_int(modulus_m, "modulus_m")
        positive_slots = _read_int(positive_slots, "positive_slots")
        negative_slots = _read_int(negative_slots, "negative_slots")
        if lead_k == 0:
            raise ValueError("lead_k must be nonzero")
        if modulus_m < 1:
            raise ValueError("modulus_m must be >= 1")
        if positive_slots < 0 or negative_slots < 0:
            raise ValueError("slot counts must be >= 0")
        allowed = {"x"}
        allowed.update(f"z{i}" for i in range(positive_slots))
        allowed.update(f"zp{j}" for j in range(negative_slots))
        if p_conditions is None:
            p_conditions = {}
        elif not isinstance(p_conditions, dict):
            raise ValueError("p_conditions must be an object")
        conds = {}
        for p, cond in p_conditions.items():
            # JSON object keys are strings; library callers may pass ints
            if isinstance(p, str) and p.isdecimal():
                p = int(p)
            if isinstance(p, bool) or not isinstance(p, int) or not isprime(p):
                raise ValueError(f"condition key {p!r} is not prime")
            if p in conds:
                raise ValueError(f"condition key {p} appears twice")
            try:
                conds[p] = _read_cond(cond, allowed)
            except ValueError as exc:
                raise ValueError(f"condition at p={p}: {exc}") from None
        self.lead_k = lead_k
        self.modulus_m = modulus_m
        self.positive_slots = positive_slots
        self.negative_slots = negative_slots
        self.p_conditions = dict(sorted(conds.items()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def theta_level(self, p: int) -> int:
        """Largest U-level referenced by the condition at p (0 if none)."""
        cond = self.p_conditions.get(p)
        if cond is None:
            return 0
        return max((atom["level"] for atom in _atoms(cond)), default=0)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SpecialFormula":
        return cls(
            lead_k=obj["lead_k"],
            modulus_m=obj["modulus_m"],
            positive_slots=obj["positive_slots"],
            negative_slots=obj.get("negative_slots", 0),
            p_conditions=obj.get("p_conditions", {}),
        )


class GSystem:
    """A special formula with concrete integers in every slot."""

    __slots__ = ("formula", "c", "c_prime")

    def __init__(self, formula: SpecialFormula, c=(), c_prime=()):
        c = tuple(_read_int(v, "c entry") for v in c)
        cp = tuple(_read_int(v, "c_prime entry") for v in c_prime)
        if len(c) != formula.positive_slots:
            raise ValueError("c length must equal positive_slots")
        if len(cp) != formula.negative_slots:
            raise ValueError("c_prime length must equal negative_slots")
        self.formula = formula
        self.c = c
        self.c_prime = cp

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.formula, self.c, self.c_prime) == (
            other.formula, other.c, other.c_prime
        )

    @property
    def nontrivial(self) -> bool:
        """No positive constant equals a negative one."""
        return all(ci != cj for ci in self.c for cj in self.c_prime)

    def error_term(self, t: int) -> int:
        """sum_i(ceil sqrt|c_i| + ceil sqrt|k*t + c_i|) + 1, k = lead_k: how
        far the window count on (0, t) may fall below epsilon_lower * t."""
        k = self.formula.lead_k
        total = 1
        for ci in self.c:
            total += _ceil_sqrt(abs(ci)) + _ceil_sqrt(abs(k * t + ci))
        return total

    def assignment(self, x: int) -> dict:
        assign = {"x": x}
        for i, v in enumerate(self.c):
            assign[f"z{i}"] = v
        for j, v in enumerate(self.c_prime):
            assign[f"zp{j}"] = v
        return assign

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "formula": self.formula,
            "c": list(self.c),
            "c_prime": list(self.c_prime),
            "nontrivial": self.nontrivial,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GSystem":
        return cls(
            formula=SpecialFormula.from_json_dict(obj["formula"]),
            c=tuple(obj.get("c", ())),
            c_prime=tuple(obj.get("c_prime", ())),
        )


def shift_system(constants: Sequence[int], m: int = 1, lead_k: int = 1) -> GSystem:
    """The common system  AND_i (lead_k*x + c_i in P_m),  no side conditions."""
    cs = tuple(int(c) for c in constants)
    formula = SpecialFormula(
        lead_k=lead_k, modulus_m=m, positive_slots=len(cs), negative_slots=0
    )
    return GSystem(formula=formula, c=cs)


def p_satisfiable(sys: GSystem, p: int) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """Decide the associated p-condition by full residue enumeration.

    The p-condition conjoins the declared condition at p with avoidance of
    U_{p, 2+v_p(m)} for every positive slot; negative slots play no role.
    Truth depends only on x modulo p^L for L the largest level referenced,
    so residues 0..p^L-1 are scanned in order and the first witness class
    (residue, modulus) is returned.  p^L above PSAT_CAP is refused before
    it is built.
    """
    if not isprime(p):
        raise ValueError(f"p = {p} is not prime")
    f = sys.formula
    slot_level = 2 + vp(f.modulus_m, p)
    levels = [f.theta_level(p)]
    if f.positive_slots:
        levels.append(slot_level)
    L = max(max(levels), 1)
    # p**L >= 2**(L * (bits(p) - 1)), so a long one is refused unbuilt
    if L * (p.bit_length() - 1) >= PSAT_CAP.bit_length() or p**L > PSAT_CAP:
        raise ValueError(f"p^L = {p}^{L} residues exceed PSAT_CAP {PSAT_CAP}")
    mod = p**L
    slot_mod = p**slot_level
    cond = f.p_conditions.get(p, {"op": "true"})
    for r in range(mod):
        slots_ok = all((f.lead_k * r + ci) % slot_mod != 0 for ci in sys.c)
        if slots_ok and _cond_holds(cond, p, sys.assignment(r)):
            return True, (r, mod)
    return False, None


def _ceil_sqrt(x: int) -> int:
    if x <= 0:
        return 0
    r = math.isqrt(x)
    return r if r * r == x else r + 1


class DensityCertificate(NamedTuple):
    """The density constant epsilon of a positive formula, bracketed exactly.

    It depends on the formula, its slot count n and the tail prime alone;
    a concrete system's window count on (0, t) is at least
    epsilon_lower * t minus that system's GSystem.error_term(t).  epsilon
    is reported as an exact rational interval: epsilon_upper is the head
    factor 1/(2D) times the truncated Euler-type product over primes in
    (B, tail_prime]; epsilon_lower additionally pays the infinite-tail bound
    1 - 2n/tail_prime.  An end whose exact numerator or denominator has
    more than EXACT_DIGITS digits is rounded outward (lower down, upper up)
    to 64 significant bits, which keeps the bracket sound and the report
    renderable.  degenerate marks certificates whose lower bound carries
    no information (tail bound <= 0).  head is the (prime, level) of the
    largest factor of D, named when an end, or a value derived from one,
    is too long to print.
    """

    epsilon_lower: Fraction
    epsilon_upper: Fraction
    B: int
    D: int
    tail_prime: int
    n: int
    degenerate: bool
    head: tuple

    def printable(self, name: str, value: Fraction) -> Fraction:
        """value, refused when Python cannot print its numerator or
        denominator (rounding never shortens a dyadic end 1/(2*2^L))."""
        if max(abs(value.numerator), value.denominator) >= _D_LIMIT:
            p, L = self.head
            raise ValueError(
                f"head prime {p} at level {L}: {name} exceeds {D_DIGITS} digits"
            )
        return value

    def to_json_dict(self) -> dict:
        # head is not reported
        return {
            "schema": SCHEMA_VERSION,
            "epsilon_lower": self.printable("epsilon_lower", self.epsilon_lower),
            "epsilon_upper": self.printable("epsilon_upper", self.epsilon_upper),
            "B": self.B,
            "D": self.D,
            "tail_prime": self.tail_prime,
            "n": self.n,
            "degenerate": self.degenerate,
        }


def _round_outward(x: Fraction, up: bool) -> Fraction:
    """x if its numerator and denominator have at most EXACT_DIGITS digits,
    else x rounded down (up when up) to EPSILON_BITS significant bits."""
    a, b = abs(x.numerator), x.denominator
    if a < _EXACT_LIMIT and b < _EXACT_LIMIT:
        return x
    e = a.bit_length() - b.bit_length()  # floor(log2|x|) is e or e - 1
    if (a << max(-e, 0)) < (b << max(e, 0)):
        e -= 1
    step = Fraction(2) ** (e + 1 - EPSILON_BITS)
    return (math.ceil(x / step) if up else math.floor(x / step)) * step


@lru_cache(maxsize=64)
def _truncated_product(B: int, tail: int, n: int, m: int) -> Fraction:
    """Exact product of (1 - n/p^(2+v_p(m))) over primes B < p <= tail.

    Each factor is (q - n)/q with q = p^(2+v_p(m)); the numerators and
    the denominators are multiplied as integers and reduced once.
    """
    num = den = 1
    if n:
        fm = factorint(m)
        for p in primerange(B + 1, tail + 1):
            q = p ** (2 + fm.get(p, 0))
            num *= q - n
            den *= q
    return Fraction(num, den)


def default_cutoff(formula: SpecialFormula, n: int) -> int:
    """Smallest sound head cutoff B for the density bound over n slots.

    Primes above B must leave at least one good residue per slot out of
    p^(2+v_p(m)), with the slot map r -> k*r + c invertible; that forces
    the head to swallow primes dividing lead_k, declared condition primes,
    and primes with p^2 <= n.  B = 1 means an empty head (D = 1).
    """
    candidates = {1}
    for p in factorint(abs(formula.lead_k)):
        candidates.add(p)
    candidates.update(formula.p_conditions.keys())
    if n >= 4:
        for p in primerange(2, math.isqrt(n) + 1):
            candidates.add(p)
    return max(candidates)


def density_certificate(formula: SpecialFormula, tail_prime: int) -> DensityCertificate:
    """Bracket the density constant for a positive formula, exactly.

    Head: D multiplies p^(L_p) over primes p <= B = default_cutoff, with
    L_p covering both the declared condition levels and, when slots exist,
    the slot level 2+v_p(m).  The bound presumes a good residue mod D
    exists, i.e. the system is p-satisfiable at the head primes; pair with
    p_satisfiable before trusting a concrete instance.  A tail prime too
    small for the slots leaves no lower bound and flags the certificate
    degenerate.
    """
    if formula.negative_slots:
        raise ValueError("density_certificate needs a positive formula")
    return _certificate(formula, formula.positive_slots, tail_prime)


def _certificate(formula: SpecialFormula, n: int, tail_prime: int) -> DensityCertificate:
    """density_certificate for n positive slots.  Of the formula it reads
    lead_k, modulus_m, the condition primes and their theta levels."""
    B = default_cutoff(formula, n)
    if tail_prime < B:
        raise ValueError("tail_prime must be >= B")
    m = formula.modulus_m
    D = 1
    widest = (1, 0, 0)  # (p^L, p, L) of the largest head factor
    for p in primerange(2, B + 1):
        L = formula.theta_level(p)
        if n >= 1:
            L = max(L, 2 + vp(m, p))
        # D * p**L >= 2**low_bits, so a long one is refused unbuilt
        low_bits = D.bit_length() - 1 + L * (p.bit_length() - 1)
        D = D * p**L if low_bits < _D_LIMIT.bit_length() else _D_LIMIT
        if D >= _D_LIMIT:
            raise ValueError(f"head prime {p} at level {L}: D exceeds {D_DIGITS} digits")
        widest = max(widest, (p**L, p, L))
    # above the default cutoff every factor is positive
    upper = Fraction(1, 2 * D) * _truncated_product(B, tail_prime, n, m)
    tail_slack = max(Fraction(0), 1 - Fraction(2 * n, tail_prime))
    lower = upper * tail_slack
    degenerate = lower <= 0
    lower = _round_outward(lower, up=False)
    upper = _round_outward(upper, up=True)
    return DensityCertificate(
        epsilon_lower=lower,
        epsilon_upper=upper,
        B=B,
        D=D,
        tail_prime=tail_prime,
        n=n,
        degenerate=degenerate,
        head=widest[1:],
    )


def _check_form_range(k: int, c: int, t: int, label: str):
    for a in (1, t - 1):
        if abs(k * a + c) > INT64_MAX:
            raise OverflowError(
                f"form {label} = {k}*x + {c} leaves 64-bit range on (0,{t})"
            )


def _sieve_outside_pm(mask: bytearray, k: int, c: int, m: int, flag: int):
    """Write flag into mask[a] wherever k*a + c is outside P_m.

    Sieve over primes p <= sqrt(max|value|): the excluded modulus is
    q = p^(2+v_p(m)); solutions of k*a + c = 0 (mod q) form one residue
    class mod q/gcd(k,q) when gcd(k,q) divides c, else none.  The zero
    value is excluded separately since 0 is never in P_m.  Flags at a = 0
    are left unspecified: the window is open there.
    """
    t = len(mask)
    fill = bytes([flag])
    maxabs = max(abs(k * 1 + c), abs(k * (t - 1) + c), 1)
    fm = factorint(m)
    for p in primerange(2, math.isqrt(maxabs) + 1):
        q = p ** (2 + fm.get(p, 0))
        g = math.gcd(k, q)
        if c % g:
            continue
        q1 = q // g
        if q1 == 1:
            # k*a + c is always divisible by q: every a is outside
            mask[:] = fill * t
            return
        a0 = (-(c // g) * pow(k // g, -1, q1)) % q1
        if a0 < t:
            mask[a0::q1] = fill * len(range(a0, t, q1))
    if c % k == 0 and 0 <= -(c // k) < t:
        mask[-(c // k)] = flag


def _and_into(mask: bytearray, flags: bytes):
    """mask[a] &= flags[a] for every a, on 0/1 flags of one length."""
    both = int.from_bytes(mask, "big") & int.from_bytes(flags, "big")
    mask[:] = both.to_bytes(len(mask), "big")


def _solution_mask(sys: GSystem, t: int) -> bytearray:
    """0/1 flags over a in [0, t); 1 where the system holds, a >= 1."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if t > WINDOW_CAP:
        raise ValueError(f"window {t} exceeds WINDOW_CAP {WINDOW_CAP}")
    f = sys.formula
    k, m = f.lead_k, f.modulus_m
    good = bytearray(b"\x01") * t
    good[0] = 0
    if t == 1:
        return good
    for i, ci in enumerate(sys.c):
        _check_form_range(k, ci, t, f"z{i}")
        _sieve_outside_pm(good, k, ci, m, 0)
    for j, cj in enumerate(sys.c_prime):
        _check_form_range(k, cj, t, f"zp{j}")
        outside = bytearray(t)
        _sieve_outside_pm(outside, k, cj, m, 1)
        _and_into(good, outside)
    for p, cond in f.p_conditions.items():
        # truth depends only on a mod p^L: evaluate the residues the window
        # reaches, and repeat them when p^L < t; p^L >= t once
        # L >= t.bit_length(), and then p^L is never built
        L = max(f.theta_level(p), 1)
        n = t if L >= t.bit_length() else min(p**L, t)
        table = bytes(_cond_holds(cond, p, sys.assignment(r)) for r in range(n))
        _and_into(good, (table * -(-t // n))[:t])
    return good


def count_solutions_window(sys: GSystem, t: int) -> int:
    """|{a : 0 < a < t, the system holds at a}|, exactly."""
    return _solution_mask(sys, t).count(1)


def solution_family(
    systems: Sequence[GSystem], window: int
) -> SetFamily:
    """SetFamily of window solution sets; ground element a is the integer a.

    Element 0 is part of the ground set but never occupied (the window is
    the open interval (0, window)).
    """
    check_ground_size(window)
    masks = [from_flags(_solution_mask(sys, window)) for sys in systems]
    return SetFamily.from_masks(window, masks, [f"G[{i}]" for i in range(len(masks))])


class SqfExperimentReport(NamedTuple):
    fhp: FhpReport
    window: int
    theoretical_beta: Optional[Fraction]
    empty_members: tuple
    all_empty: bool

    def to_json_dict(self) -> dict:
        # window first; theoretical_beta last, and only when defined
        out = {
            "schema": SCHEMA_VERSION,
            "window": self.window,
            "fhp": self.fhp,
            "empty_members": self.empty_members,
            "all_empty": self.all_empty,
        }
        if self.theoretical_beta is not None:
            out["theoretical_beta"] = self.theoretical_beta
        return out


def theoretical_beta(
    formula: SpecialFormula, alpha, tail_prime: int = 10**4
) -> Optional[Fraction]:
    """The closed-form constant alpha*gamma*delta / (s*s'*(s+s')^s).

    Defined only when both slot counts are >= 1: gamma is the rainbow
    constant at arity s+s', and delta is half the density lower bound of
    the formula with all its s+s' slots counted as positive.
    """
    s, sp = formula.positive_slots, formula.negative_slots
    if s == 0 or sp == 0:
        return None
    k = s + sp
    gamma = Fraction(math.factorial(k), k**k)
    cert = _certificate(formula, k, tail_prime)
    delta = cert.epsilon_lower / 2
    beta = Fraction(alpha) * gamma * delta / (s * sp * k**s)
    return cert.printable("theoretical_beta", beta)


def sqf_fhp_experiment(
    formula: SpecialFormula,
    parameter_list: Sequence[tuple],
    k: int,
    alpha,
    window: int,
) -> SqfExperimentReport:
    """Window solution sets of the given systems, run through the FHP check.

    parameter_list holds (c, c_prime) pairs for the formula's slots.  The
    report pairs the observed intersection statistics with the closed-form
    beta constant (None when a slot count is zero) and flags members whose
    window set came out empty.
    """
    systems = [
        GSystem(formula=formula, c=tuple(c), c_prime=tuple(cp))
        for c, cp in parameter_list
    ]
    family = solution_family(systems, window)
    fhp = check_fhp_instance(family, k, Fraction(alpha))
    empty = family.empty_members
    return SqfExperimentReport(
        fhp=fhp,
        window=window,
        theoretical_beta=theoretical_beta(formula, alpha),
        empty_members=empty,
        all_empty=len(empty) == family.n,
    )


def dickson_admissible(
    forms: Sequence[tuple], prime_bound: Optional[int] = None
) -> Tuple[bool, Optional[int]]:
    """No prime forced to divide prod_i (a_i*t + b_i) for every t.

    For each candidate prime r, checks whether some residue t mod r avoids
    the roots of all forms.  The automatic candidate set - primes up to the
    number of forms plus primes dividing some gcd(a_i, b_i) - is complete:
    any other prime has at most one root per form and fewer roots than
    residues.  An explicit prime_bound keeps only the candidates r <= bound.
    """
    forms = [(int(a), int(b)) for a, b in forms]
    if not forms:
        raise ValueError("forms must be nonempty")
    for i, (a, _) in enumerate(forms):
        if a < 1:
            raise ValueError(f"form {i}: leading coefficient must be >= 1")
    candidates = set(primerange(2, len(forms) + 1))
    for a, b in forms:
        g = math.gcd(a, b)
        if g > 1:
            candidates.update(factorint(g).keys())
    if prime_bound is not None:
        candidates = {r for r in candidates if r <= prime_bound}
    for r in sorted(candidates):
        hit = set()
        covered = False
        for a, b in forms:
            if a % r == 0:
                if b % r == 0:
                    covered = True
                    break
                continue
            hit.add((-b * pow(a, -1, r)) % r)
        if covered or len(hit) == r:
            return False, r
    return True, None
