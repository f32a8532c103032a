"""Arithmetic of square-free-type predicates on the integers.

The objects here live over (Z, +) with the unary predicates

    P_m     = {a != 0 : v_p(a) < 2 + v_p(m) for all primes p}
    U_{p,l} = {a : v_p(a) >= l}

so P_1 is the square-free integers.  A special formula constrains an
unknown x through linear slots k*x + z_i that must land in P_m (positive
slots) or avoid it (negative slots), plus finitely many per-prime side
conditions built from U-avoidance atoms.  Substituting concrete integers
for the slots gives a system whose solution set in a window (0, t) can be
counted exactly by sieving, and bounded below by an explicit density
certificate with a fully computable error term.

All window arithmetic is checked to stay within signed 64-bit range even
though Python would not overflow; exceeding it is an error naming the
offending form, so experiments shrink their parameters instead of
silently leaving the validated regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from ._jsonutil import SCHEMA_VERSION
from ._primes import factorint, isprime, primerange
from .setfam import FhpReport, SetFamily, check_fhp_instance

INT64_MAX = 2**63 - 1
# epsilon ends with more digits than this are rounded for the report.  The
# margin below Python's 4,300-digit int-to-str limit leaves room for the
# rationals reports derive from them (sqf count's lower_bound,
# theoretical_beta).
EXACT_DIGITS = 4000
_EXACT_LIMIT = 10**EXACT_DIGITS
EPSILON_BITS = 64


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


def in_Upl(a: int, p: int, l: int) -> bool:
    """a in U_{p,l}  <=>  v_p(a) >= l.  Levels l <= 0 hold vacuously."""
    if not isprime(p):
        raise ValueError(f"p = {p} is not prime")
    if l <= 0:
        return True
    return a % p**l == 0


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


class LinearForm:
    """Integer-linear form over declared variables plus a constant.

    Variables are named 'x' (the unknown), 'z0', 'z1', ... (positive
    slots), 'zp0', 'zp1', ... (negative slots).
    """

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: dict, const: int = 0):
        items = []
        for var, co in sorted(dict(coeffs).items()):
            co = int(co)
            if co:
                items.append((str(var), co))
        self.coeffs = tuple(items)
        self.const = int(const)

    def variables(self):
        return {var for var, _ in self.coeffs}

    def evaluate(self, assign: dict) -> int:
        total = self.const
        for var, co in self.coeffs:
            total += co * assign[var]
        return total

    def __eq__(self, other):
        return (
            isinstance(other, LinearForm)
            and self.coeffs == other.coeffs
            and self.const == other.const
        )

    def __hash__(self):
        return hash((self.coeffs, self.const))

    def __repr__(self):
        parts = [f"{co}*{var}" for var, co in self.coeffs]
        parts.append(str(self.const))
        return " + ".join(parts)

    def to_json_dict(self) -> dict:
        return {"coeffs": {var: co for var, co in self.coeffs}, "const": self.const}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LinearForm":
        return cls(obj.get("coeffs", {}), obj.get("const", 0))


class PCond:
    """Base of the per-prime condition AST (U-avoidance atoms + booleans)."""

    __slots__ = ()

    def atoms(self):
        raise NotImplementedError

    def evaluate(self, assign: dict, p: int) -> bool:
        raise NotImplementedError


class NotInU(PCond):
    """Atom: form(x, z, z') not in U_{p, level}."""

    __slots__ = ("form", "level")

    def __init__(self, form: LinearForm, level: int):
        self.form = form
        self.level = int(level)

    def atoms(self):
        yield self

    def evaluate(self, assign, p):
        if self.level <= 0:
            return False
        return self.form.evaluate(assign) % p**self.level != 0

    def __eq__(self, other):
        return (
            isinstance(other, NotInU)
            and self.form == other.form
            and self.level == other.level
        )

    def __hash__(self):
        return hash((self.form, self.level))


class PAnd(PCond):
    __slots__ = ("items",)

    def __init__(self, *items):
        self.items = tuple(items)

    def atoms(self):
        for it in self.items:
            yield from it.atoms()

    def evaluate(self, assign, p):
        return all(it.evaluate(assign, p) for it in self.items)


class POr(PCond):
    __slots__ = ("items",)

    def __init__(self, *items):
        self.items = tuple(items)

    def atoms(self):
        for it in self.items:
            yield from it.atoms()

    def evaluate(self, assign, p):
        return any(it.evaluate(assign, p) for it in self.items)


class PNot(PCond):
    __slots__ = ("item",)

    def __init__(self, item):
        self.item = item

    def atoms(self):
        yield from self.item.atoms()

    def evaluate(self, assign, p):
        return not self.item.evaluate(assign, p)


class PTrue(PCond):
    __slots__ = ()

    def atoms(self):
        return iter(())

    def evaluate(self, assign, p):
        return True


def cond_to_json(cond: PCond) -> dict:
    if isinstance(cond, NotInU):
        return {
            "op": "notinU",
            "form": cond.form.to_json_dict(),
            "level": cond.level,
        }
    if isinstance(cond, PAnd):
        return {"op": "and", "items": [cond_to_json(i) for i in cond.items]}
    if isinstance(cond, POr):
        return {"op": "or", "items": [cond_to_json(i) for i in cond.items]}
    if isinstance(cond, PNot):
        return {"op": "not", "item": cond_to_json(cond.item)}
    if isinstance(cond, PTrue):
        return {"op": "true"}
    raise TypeError(f"not a condition node: {cond!r}")


def cond_from_json(obj: dict) -> PCond:
    op = obj.get("op")
    if op == "notinU":
        return NotInU(LinearForm.from_json_dict(obj["form"]), obj["level"])
    if op == "and":
        return PAnd(*(cond_from_json(i) for i in obj["items"]))
    if op == "or":
        return POr(*(cond_from_json(i) for i in obj["items"]))
    if op == "not":
        return PNot(cond_from_json(obj["item"]))
    if op == "true":
        return PTrue()
    raise ValueError(f"unknown condition op {op!r}")


@dataclass(frozen=True)
class SpecialFormula:
    """Shape of a constraint on x: slot memberships plus per-prime conditions.

    positive_slots counts variables z_i with k*x + z_i required in P_m;
    negative_slots counts z'_j with k*x + z'_j required outside P_m.
    p_conditions maps a prime to a boolean combination of U-avoidance atoms
    over the declared variables.
    """

    lead_k: int
    modulus_m: int
    positive_slots: int
    negative_slots: int = 0
    p_conditions: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("lead_k", "modulus_m", "positive_slots", "negative_slots"):
            if not isinstance(getattr(self, name), int):
                raise ValueError(f"{name} must be an integer")
        if self.lead_k == 0:
            raise ValueError("lead_k must be nonzero")
        if self.modulus_m < 1:
            raise ValueError("modulus_m must be >= 1")
        if self.positive_slots < 0 or self.negative_slots < 0:
            raise ValueError("slot counts must be >= 0")
        allowed = {"x"}
        allowed.update(f"z{i}" for i in range(self.positive_slots))
        allowed.update(f"zp{j}" for j in range(self.negative_slots))
        conds = dict(self.p_conditions)
        for p, cond in conds.items():
            if not isprime(p):
                raise ValueError(f"condition key {p} is not prime")
            for atom in cond.atoms():
                bad = atom.form.variables() - allowed
                if bad:
                    raise ValueError(
                        f"condition at p={p} references undeclared "
                        f"variable(s) {sorted(bad)}"
                    )
        object.__setattr__(self, "p_conditions", conds)

    def theta_level(self, p: int) -> int:
        """Largest U-level referenced by the condition at p (0 if none)."""
        cond = self.p_conditions.get(p)
        if cond is None:
            return 0
        return max((atom.level for atom in cond.atoms()), default=0)

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "lead_k": self.lead_k,
            "modulus_m": self.modulus_m,
            "positive_slots": self.positive_slots,
            "negative_slots": self.negative_slots,
            "p_conditions": {
                str(p): cond_to_json(c) for p, c in sorted(self.p_conditions.items())
            },
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SpecialFormula":
        return cls(
            lead_k=obj["lead_k"],
            modulus_m=obj["modulus_m"],
            positive_slots=obj["positive_slots"],
            negative_slots=obj.get("negative_slots", 0),
            p_conditions={
                int(p): cond_from_json(c)
                for p, c in obj.get("p_conditions", {}).items()
            },
        )


@dataclass(frozen=True)
class GSystem:
    """A special formula with concrete integers in every slot."""

    formula: SpecialFormula
    c: tuple = ()
    c_prime: tuple = ()

    def __post_init__(self):
        c = tuple(int(v) for v in self.c)
        cp = tuple(int(v) for v in self.c_prime)
        if len(c) != self.formula.positive_slots:
            raise ValueError("c length must equal positive_slots")
        if len(cp) != self.formula.negative_slots:
            raise ValueError("c_prime length must equal negative_slots")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "c_prime", cp)

    @property
    def nontrivial(self) -> bool:
        """No positive constant equals a negative one."""
        return all(ci != cj for ci in self.c for cj in self.c_prime)

    def assignment(self, x: int) -> dict:
        assign = {"x": x}
        for i, v in enumerate(self.c):
            assign[f"z{i}"] = v
        for j, v in enumerate(self.c_prime):
            assign[f"zp{j}"] = v
        return assign

    def holds_at(self, x: int) -> bool:
        """Direct evaluation of the system at a single integer."""
        f = self.formula
        k, m = f.lead_k, f.modulus_m
        for ci in self.c:
            if not in_Pm(k * x + ci, m):
                return False
        for cj in self.c_prime:
            if in_Pm(k * x + cj, m):
                return False
        assign = self.assignment(x)
        for p, cond in f.p_conditions.items():
            if not cond.evaluate(assign, p):
                return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "formula": self.formula.to_json_dict(),
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
    (residue, modulus) is returned.
    """
    if not isprime(p):
        raise ValueError(f"p = {p} is not prime")
    f = sys.formula
    slot_level = 2 + vp(f.modulus_m, p)
    levels = [f.theta_level(p)]
    if f.positive_slots:
        levels.append(slot_level)
    L = max(max(levels), 1)
    mod = p**L
    slot_mod = p**slot_level
    cond = f.p_conditions.get(p)
    for r in range(mod):
        ok = all((f.lead_k * r + ci) % slot_mod != 0 for ci in sys.c)
        if ok and cond is not None:
            ok = cond.evaluate(sys.assignment(r), p)
        if ok:
            return True, (r, mod)
    return False, None


def _ceil_sqrt(x: int) -> int:
    if x <= 0:
        return 0
    r = math.isqrt(x)
    return r if r * r == x else r + 1


@dataclass(frozen=True)
class DensityCertificate:
    """Computable lower-bound data for the window count of a positive system.

    epsilon is reported as an exact rational interval: epsilon_upper is the
    head factor 1/(2D) times the truncated Euler-type product over primes in
    (B, tail_prime]; epsilon_lower additionally pays the infinite-tail bound
    1 - 2n/tail_prime.  An end whose exact numerator or denominator has
    more than EXACT_DIGITS digits is rounded outward (lower down, upper up)
    to 64 significant bits, which keeps the bracket sound and the report
    renderable.  error_term(t) is the explicit ceiling version of
    sum_i(sqrt|c_i| + sqrt|kt + c_i|) + 1.  degenerate marks certificates
    whose bound carries no information (some factor <= 0).
    """

    epsilon_lower: Fraction
    epsilon_upper: Fraction
    B: int
    D: int
    tail_prime: int
    n: int
    lead_k: int
    constants: tuple
    degenerate: bool

    def error_term(self, t: int) -> int:
        total = 1
        for ci in self.constants:
            total += _ceil_sqrt(abs(ci)) + _ceil_sqrt(abs(self.lead_k * t + ci))
        return total

    def to_json_dict(self) -> dict:
        # lead_k and constants only feed error_term; they are not reported
        return {
            "schema": SCHEMA_VERSION,
            "epsilon_lower": self.epsilon_lower,
            "epsilon_upper": self.epsilon_upper,
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
    """Exact product of (1 - n/p^(2+v_p(m))) over primes B < p <= tail."""
    prod = Fraction(1)
    if n == 0:
        return prod
    for p in primerange(B + 1, tail + 1):
        prod *= 1 - Fraction(n, p ** (2 + vp(m, p)))
    return prod


def default_cutoff(formula: SpecialFormula) -> int:
    """Smallest sound head cutoff B for the density bound.

    Primes above B must leave at least one good residue per slot out of
    p^(2+v_p(m)), with the slot map r -> k*r + c invertible; that forces
    the head to swallow primes dividing lead_k, declared condition primes,
    and primes with p^2 <= n.  B = 1 means an empty head (D = 1).
    """
    candidates = {1}
    for p in factorint(abs(formula.lead_k)):
        candidates.add(p)
    candidates.update(formula.p_conditions.keys())
    n = formula.positive_slots
    if n >= 4:
        for p in primerange(2, math.isqrt(n) + 1):
            candidates.add(p)
    return max(candidates)


def density_certificate(
    formula: SpecialFormula,
    tail_prime: int,
    constants: Optional[Sequence[int]] = None,
    B: Optional[int] = None,
) -> DensityCertificate:
    """Bracket the density constant for a positive formula, exactly.

    Head: D multiplies p^(L_p) over primes p <= B, with L_p covering both
    the declared condition levels and, when slots exist, the slot level
    2+v_p(m).  The bound presumes a good residue mod D exists, i.e. the
    system is p-satisfiable at the head primes; pair with p_satisfiable
    before trusting a concrete instance.  Passing a B below the default
    cutoff yields a flagged degenerate certificate instead of an error.
    constants (the slot values, default all zero) only affect error_term.
    """
    if formula.negative_slots:
        raise ValueError("density_certificate needs a positive formula")
    n = formula.positive_slots
    if constants is None:
        constants = (0,) * n
    constants = tuple(int(v) for v in constants)
    if len(constants) != n:
        raise ValueError("constants length must equal positive_slots")
    auto_B = default_cutoff(formula)
    if B is None:
        B = auto_B
    if B < 1:
        raise ValueError("B must be >= 1")
    if tail_prime < B:
        raise ValueError("tail_prime must be >= B")
    m = formula.modulus_m
    D = 1
    for p in primerange(2, B + 1):
        L = formula.theta_level(p)
        if n >= 1:
            L = max(L, 2 + vp(m, p))
        D *= p**L
    degenerate = B < auto_B
    prod = Fraction(1)
    if n:
        if B >= auto_B:
            # above the default cutoff every factor is positive; cacheable
            prod = _truncated_product(B, tail_prime, n, m)
        else:
            for p in primerange(B + 1, tail_prime + 1):
                factor = 1 - Fraction(n, p ** (2 + vp(m, p)))
                if factor <= 0:
                    degenerate = True
                prod *= factor
    upper = Fraction(1, 2 * D) * prod
    tail_slack = max(Fraction(0), 1 - Fraction(2 * n, tail_prime))
    lower = upper * tail_slack if upper > 0 else upper
    if n >= 1 and lower <= 0:
        degenerate = True
    lower = _round_outward(lower, up=False)
    upper = _round_outward(upper, up=True)
    return DensityCertificate(
        epsilon_lower=lower,
        epsilon_upper=upper,
        B=B,
        D=D,
        tail_prime=tail_prime,
        n=n,
        lead_k=formula.lead_k,
        constants=constants,
        degenerate=degenerate,
    )


def _check_form_range(k: int, c: int, t: int, label: str):
    for a in (1, t - 1):
        if abs(k * a + c) > INT64_MAX:
            raise OverflowError(
                f"form {label} = {k}*x + {c} leaves 64-bit range on (0,{t})"
            )


def _pm_bad_mask(k: int, c: int, m: int, t: int) -> np.ndarray:
    """bad[a] = True iff k*a + c is outside P_m, for a in [0, t).

    Sieve over primes p <= sqrt(max|value|): the excluded modulus is
    q = p^(2+v_p(m)); solutions of k*a + c = 0 (mod q) form one residue
    class mod q/gcd(k,q) when gcd(k,q) divides c, else none.  The zero
    value is excluded separately since 0 is never in P_m.
    """
    bad = bytearray(t)
    maxabs = max(abs(k * 1 + c), abs(k * (t - 1) + c), 1)
    fm = factorint(m)
    for p in primerange(2, math.isqrt(maxabs) + 1):
        q = p ** (2 + fm.get(p, 0))
        g = math.gcd(k, q)
        if c % g:
            continue
        q1 = q // g
        if q1 == 1:
            # k*a + c is always divisible by q: every a is bad
            bad[:] = b"\x01" * t
            break
        a0 = (-(c // g) * pow(k // g, -1, q1)) % q1
        start = a0 if a0 >= 1 else a0 + q1
        if start < t:
            count = len(range(start, t, q1))
            bad[start:t:q1] = b"\x01" * count
    arr = np.frombuffer(bytes(bad), dtype=np.uint8).astype(bool)
    if c % k == 0:
        zero_at = -(c // k)
        if 1 <= zero_at < t:
            arr[zero_at] = True
    return arr


def _solution_mask(sys: GSystem, t: int) -> np.ndarray:
    """Boolean array over a in [0, t); True where the system holds, a >= 1."""
    if t < 1:
        raise ValueError("t must be >= 1")
    f = sys.formula
    k, m = f.lead_k, f.modulus_m
    good = np.ones(t, dtype=bool)
    good[0] = False
    if t == 1:
        return good
    for i, ci in enumerate(sys.c):
        _check_form_range(k, ci, t, f"z{i}")
        good &= ~_pm_bad_mask(k, ci, m, t)
    for j, cj in enumerate(sys.c_prime):
        _check_form_range(k, cj, t, f"zp{j}")
        good &= _pm_bad_mask(k, cj, m, t)
    for p, cond in sorted(f.p_conditions.items()):
        L = max(f.theta_level(p), 1)
        M = p**L
        if M <= 2_000_000:
            table = np.fromiter(
                (cond.evaluate(sys.assignment(r), p) for r in range(M)),
                dtype=bool,
                count=M,
            )
            good &= table[np.arange(t) % M]
        else:
            idxs = np.nonzero(good)[0]
            for a in idxs:
                if not cond.evaluate(sys.assignment(int(a)), p):
                    good[a] = False
    return good


def count_solutions_window(sys: GSystem, t: int) -> int:
    """|{a : 0 < a < t, the system holds at a}|, exactly."""
    return int(_solution_mask(sys, t).sum())


def solution_family(
    systems: Sequence[GSystem], window: int
) -> SetFamily:
    """SetFamily of window solution sets; ground element a is the integer a.

    Element 0 is part of the ground set but never occupied (the window is
    the open interval (0, window)).
    """
    members = []
    labels = []
    for i, sys in enumerate(systems):
        mask = _solution_mask(sys, window)
        members.append(frozenset(int(a) for a in np.nonzero(mask)[0]))
        labels.append(f"G[{i}]")
    return SetFamily(
        ground_size=window, members=tuple(members), labels=tuple(labels)
    )


@dataclass(frozen=True)
class SqfExperimentReport:
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
    the fully positivized formula (negative slots recast as positive).
    """
    s, sp = formula.positive_slots, formula.negative_slots
    if s == 0 or sp == 0:
        return None
    k = s + sp
    gamma = Fraction(math.factorial(k), k**k)
    positivized = SpecialFormula(
        lead_k=formula.lead_k,
        modulus_m=formula.modulus_m,
        positive_slots=k,
        negative_slots=0,
        p_conditions=_rename_negative(formula.p_conditions, s),
    )
    cert = density_certificate(positivized, tail_prime)
    delta = cert.epsilon_lower / 2
    return Fraction(alpha) * gamma * delta / (s * sp * k**s)


def _rename_negative(p_conditions: dict, s: int) -> dict:
    """Map zp{j} variables to z{s+j} so all slots read as positive."""
    out = {}
    for p, cond in p_conditions.items():
        out[p] = _rename_cond(cond, s)
    return out


def _rename_cond(cond: PCond, s: int) -> PCond:
    if isinstance(cond, NotInU):
        coeffs = {}
        for var, co in cond.form.coeffs:
            if var.startswith("zp"):
                var = f"z{s + int(var[2:])}"
            coeffs[var] = co
        return NotInU(LinearForm(coeffs, cond.form.const), cond.level)
    if isinstance(cond, PAnd):
        return PAnd(*(_rename_cond(i, s) for i in cond.items))
    if isinstance(cond, POr):
        return POr(*(_rename_cond(i, s) for i in cond.items))
    if isinstance(cond, PNot):
        return PNot(_rename_cond(cond.item, s))
    return cond


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
    residues.  An explicit prime_bound restricts the check to r <= bound.
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
        candidates.update(primerange(2, prime_bound + 1))
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
