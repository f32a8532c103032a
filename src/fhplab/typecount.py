"""Positive partial types over finite structures, and their counting growth.

The central quantity: given a formula phi(x; y) and a parameter set A of
size l, count the largest family of pairwise m-inconsistent positive
phi-types of size <= k.  Consistency here always means satisfiability in
the supplied ambient finite structure; every report carries that caveat
implicitly, since no larger model is ever consulted.

Growth of this count in l separates tame formulas (polynomial with a
power saving below exponent k) from grid-like ones; `power_saving` at
the bottom measures the exponent empirically and compares it against
the Zarankiewicz threshold k - 1/d^(k-1).

Two layers.  The structure layer is the only place a formula appears:
`instance_masks` turns (structure, phi, x_arity, pool) into a mask table,
parameter tuple -> bitmask of the x-tuples satisfying phi(x; a), through
the one formula evaluator; `family_masks` writes the table of a set family
in closed form; `internal_dividing_check` also evaluates its delta
formulas.  The counting layer (`enumerate_types`, `m_inconsistent`,
`count_types`, `power_saving`) is a function of one mask table and reads
nothing else, so two types are comparable exactly when their instances
are keys of that table.  `f_phi` is `instance_masks` followed by
`count_types`; it is kept because perfbench's field-families jobs call
it by name.

When 2*min(m, k) <= k or l <= k, `count_types` solves each
m-inconsistency graph once per call, not once per parameter set:
parameter sets whose types sit at the same positions then have the same
graph, so the clique found for one is read off the other's types.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from ._backend import elements
from ._jsonutil import SCHEMA_VERSION
from .formulas import evaluate_formula
from .setfam import SetFamily
from .vc import density_fit

X_CAP = 50000
# checked before |U|**x_arity is built; 2**16 already exceeds X_CAP
X_ARITY_CAP = 16
# largest relation or function arity; a table has |U|**arity cells
ARITY_CAP = 16
TYPE_CAP = 5000
# largest function table FiniteStructure checks for totality, in cells
FUNCTION_TABLE_CAP = 10**6
# longest sequence internal_dividing_check searches; it tries
# |B|!/(|B|-n)! orderings
DIVIDING_N_CAP = 6
EXHAUSTIVE_A_LIMIT = 300
DEFAULT_SAMPLES = 30
DEFAULT_DIVIDING_BUDGET = 200000


def _check_arity(kind: str, name, arity) -> None:
    """Refuse an arity outside 0..ARITY_CAP before |U|**arity is built."""
    if type(arity) is not int or not 0 <= arity <= ARITY_CAP:
        raise ValueError(f"{kind} {name!r}: arity {arity!r} outside 0..{ARITY_CAP}")


class TypeBlowupError(ValueError):
    """Type enumeration exceeded its cap; carries the partial count."""

    def __init__(self, cap: int, partial_count: int):
        super().__init__(
            f"type enumeration exceeded cap {cap} (partial count {partial_count})"
        )
        self.cap = cap
        self.partial_count = partial_count


class FiniteStructure:
    """Universe plus named total relation/function tables.

    relations: name -> (arity, set of true tuples); functions: name ->
    (arity, dict tuple -> value).  Function tables must be total on the
    universe and relation rows must stay inside it; both are checked.
    Universe elements are distinct ints, so searches can fix a
    deterministic order and a constant names an element by its value.
    """

    __slots__ = ("universe", "relations", "functions", "_index", "_tables")

    def __init__(self, universe, relations=None, functions=None):
        uni = tuple(universe)
        if not uni:
            raise ValueError("universe must be nonempty")
        if not all(type(v) is int for v in uni):
            raise ValueError("universe elements must be integers")
        if len(set(uni)) != len(uni):
            raise ValueError("universe has repeated elements")
        uset = set(uni)
        rels = {}
        for name, (arity, rows) in dict(relations or {}).items():
            _check_arity("relation", name, arity)
            rows = frozenset(tuple(r) for r in rows)
            for row in rows:
                if len(row) != arity:
                    raise ValueError(f"relation {name!r}: row {row} has wrong arity")
                if not set(row) <= uset:
                    raise ValueError(f"relation {name!r}: row {row} leaves universe")
            rels[str(name)] = (int(arity), rows)
        fns = {}
        for name, (arity, table) in dict(functions or {}).items():
            table = {tuple(t): v for t, v in dict(table).items()}
            _check_arity("function", name, arity)
            if len(uni) ** arity > FUNCTION_TABLE_CAP:
                raise ValueError(f"function {name!r}: table too large to validate")
            for args in itertools.product(uni, repeat=arity):
                if args not in table:
                    raise ValueError(f"function {name!r}: not total at {args}")
                if table[args] not in uset:
                    raise ValueError(f"function {name!r}: value leaves universe")
            fns[str(name)] = (int(arity), table)
        self.universe = uni
        self.relations = rels
        self.functions = fns
        self._index = {v: i for i, v in enumerate(uni)}
        self._tables = None

    def const_index(self, v) -> int:
        """The universe index of the int v.  A bool or float is refused,
        though True and 1.0 hash like 1."""
        if type(v) is int:
            try:
                return self._index[v]
            except KeyError:
                pass
        raise ValueError(f"constant {v!r} not in universe")

    def tables(self):
        """(functions, relations) as numpy arrays over universe indices.

        Built on first use and kept; the formula evaluator reads them.  A
        relation becomes a dense bool array of |U|^arity cells.
        """
        if self._tables is None:
            import numpy as np  # only the formula evaluator needs these

            size = len(self.universe)
            dtype = np.uint8 if size <= 256 else np.intp
            index = self._index
            fns = {}
            for name, (arity, table) in self.functions.items():
                flat = [
                    index[table[args]]
                    for args in itertools.product(self.universe, repeat=arity)
                ]
                fns[name] = (arity, np.array(flat, dtype).reshape((size,) * arity))
            rels = {}
            for name, (arity, rows) in self.relations.items():
                cells = np.zeros((size,) * arity, dtype=bool)
                for row in rows:
                    cells[tuple(index[v] for v in row)] = True
                rels[name] = (arity, cells)
            self._tables = (fns, rels)
        return self._tables

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FiniteStructure":
        size = obj["universe_size"]
        if type(size) is not int or size < 1:
            raise ValueError("'universe_size' must be a positive integer")
        if size > X_CAP:
            # the witness space has |U|^x_arity >= |U| tuples: never searchable
            raise ValueError(f"universe_size {size} exceeds cap {X_CAP}")
        relations = {}
        for name, spec in obj.get("relations", {}).items():
            arity = spec["arity"]
            bits = spec["bits"]
            _check_arity("relation", name, arity)
            if len(bits) != size**arity:
                raise ValueError(f"relation {name!r}: bits length mismatch")
            rows = set()
            for args, bit in zip(
                itertools.product(range(size), repeat=arity), bits
            ):
                if bit == "1":
                    rows.add(args)
                elif bit != "0":
                    raise ValueError(f"relation {name!r}: bits must be 0/1")
            relations[name] = (arity, rows)
        functions = {}
        for name, spec in obj.get("functions", {}).items():
            arity = spec["arity"]
            flat = spec["table"]
            _check_arity("function", name, arity)
            if len(flat) != size**arity:
                raise ValueError(f"function {name!r}: table length mismatch")
            table = dict(zip(itertools.product(range(size), repeat=arity), flat))
            functions[name] = (arity, table)
        return cls(
            universe=tuple(range(size)), relations=relations, functions=functions
        )


IN_PHI = ["rel", "In", ["var", 0], ["var", 1]]


def structure_from_family(family: SetFamily):
    """Encode a set family as a one-relation structure plus a parameter pool.

    Universe = ground elements 0..g-1 followed by member labels g..g+n-1;
    relation 'In'(point, member).  With phi = IN_PHI and the returned
    pool, phi-types over the pool mirror intersection patterns of the
    family.
    """
    g = family.ground_size
    rows = {(e, g + i) for i, m in enumerate(family.masks) for e in elements(m)}
    structure = FiniteStructure(
        universe=tuple(range(g + family.n)), relations={"In": (2, rows)}
    )
    pool = [(g + i,) for i in range(family.n)]
    return structure, IN_PHI, pool


def family_masks(family: SetFamily) -> dict:
    """instance_masks(*structure_from_family(family)) at x_arity 1, in
    closed form: member label g + i holds the points of member i, and no
    member label is In anything."""
    g = family.ground_size
    return {(g + i,): m for i, m in enumerate(family.masks)}


class PositiveType(NamedTuple):
    """A satisfiable set of instances, read against one mask table.

    instances is a nonempty frozenset of the table's keys (parameter
    tuples); mask is the AND of their masks, nonzero: the witnesses
    satisfying every instance.  Only `_types_from_masks` builds types, so
    both conditions hold by construction.
    """

    instances: frozenset
    mask: int

    @property
    def size(self) -> int:
        return len(self.instances)


def _check_x_space(structure: FiniteStructure, x_arity: int):
    if x_arity < 1:
        raise ValueError(f"x_arity must be >= 1, got {x_arity}")
    if x_arity > X_ARITY_CAP:
        raise ValueError(f"x_arity {x_arity} exceeds X_ARITY_CAP {X_ARITY_CAP}")
    count = len(structure.universe) ** x_arity
    if count > X_CAP:
        raise ValueError(f"witness space size {count} exceeds cap {X_CAP}")


def _pool(structure: FiniteStructure, params) -> list:
    """The distinct tuples of params, sorted.  Each non-int element goes
    to const_index first, which refuses it: a set would take True for 1,
    and sorted cannot order a string against an int."""
    params = [tuple(a) for a in params]
    for v in itertools.chain.from_iterable(params):
        if type(v) is not int:
            structure.const_index(v)
    return sorted(set(params))


def instance_masks(structure, phi, x_arity, params):
    """Bitmask of the x-tuples (lexicographic order) satisfying phi(x; a),
    per distinct a in params, keyed in sorted order."""
    _check_x_space(structure, x_arity)
    params = _pool(structure, params)
    if not params:
        return {}
    masks = evaluate_formula(structure, phi, x_arity, len(params[0]), params)
    return dict(zip(params, masks))


def enumerate_types(masks: dict, k: int):
    """All satisfiable instance sets of size 1..k over the keys of masks.

    masks is a table from instance_masks or family_masks; its keys are
    taken in sorted order.  More than TYPE_CAP types raises
    TypeBlowupError carrying the partial count.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    types = _types_from_masks(sorted(masks), masks, k)
    return [PositiveType(frozenset(s), w) for s, w, _ in types]


def _types_from_masks(params, masks, k):
    """(instances, witness mask, position bitmask within params) of each
    satisfiable params tuple of size 1..k, in lexicographic order of
    positions."""
    types = []

    def rec(start: int, chosen: tuple, mask: int, pos: int):
        if len(types) > TYPE_CAP:
            raise TypeBlowupError(TYPE_CAP, len(types))
        for i in range(start, len(params)):
            a = params[i]
            m2 = mask & masks[a]
            if not m2:
                continue
            sel = chosen + (a,)
            types.append((sel, m2, pos | 1 << i))
            if len(sel) < k:
                rec(i + 1, sel, m2, pos | 1 << i)

    rec(0, (), -1, 0)
    return types


def _subset_masks(instances, masks, m: int) -> list:
    """Witness masks of the subsets of size min(m, len(instances))."""
    out = []
    for sub in itertools.combinations(instances, min(m, len(instances))):
        acc = -1
        for b in sub:
            acc &= masks[b]
        out.append(acc)
    return out


def _some_disjoint(p_masks, q_masks) -> bool:
    for mp in p_masks:
        for mq in q_masks:
            if not mp & mq:
                return True
    return False


def m_inconsistent(masks: dict, p: PositiveType, q: PositiveType, m: int) -> bool:
    """Some subsets p0 of p and q0 of q, sizes <= m, share no witness.

    Both types are read against the one table masks, so every instance
    must be one of its keys.  Only maximal-size subsets need checking:
    shrinking a subset enlarges its witness set.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    missing = sorted((p.instances | q.instances) - masks.keys())
    if missing:
        raise ValueError(
            f"instances not in the mask table: {', '.join(map(str, missing))}"
        )
    subs = [_subset_masks(sorted(t.instances), masks, m) for t in (p, q)]
    return _some_disjoint(*subs)


def _greedy_clique(adj):
    """Clique by (-degree, vertex) order; adj[v] is v's neighbour bitset."""
    order = sorted(range(len(adj)), key=lambda v: (-adj[v].bit_count(), v))
    clique = []
    cand = (1 << len(adj)) - 1
    for v in order:
        if cand >> v & 1:
            clique.append(v)
            cand &= adj[v]
    return sorted(clique)


def _max_clique(adj, seed):
    """Exact maximum clique, branch and bound from the seed clique taking
    the lowest candidate first; the first larger clique found wins."""
    best = seed

    def expand(current, cand):
        nonlocal best
        if not cand:
            if len(current) > len(best):
                best = list(current)
            return
        while cand:
            if len(current) + cand.bit_count() <= len(best):
                return
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            current.append(v)
            expand(current, cand & adj[v])
            current.pop()

    expand([], (1 << len(adj)) - 1)
    return best


def _solve_types(types, masks, m) -> tuple:
    """(maximum clique, greedy clique size) of the m-inconsistency graph
    of types, given as (instances, mask, position) triples."""
    # m_inconsistent on every pair, with each type's subset masks built once
    subs = [_subset_masks(sel, masks, m) for sel, _, _ in types]
    adj = [0] * len(types)
    for i in range(len(types)):
        for j in range(i + 1, len(types)):
            if _some_disjoint(subs[i], subs[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    greedy = _greedy_clique(adj)
    return _max_clique(adj, greedy), len(greedy)


class CountReport(NamedTuple):
    """Largest pairwise-m-inconsistent type family found over size-l sets.

    witness_family holds the attaining PositiveTypes, read against the
    table count_types was given; the JSON reports only their sizes.
    exact means: the parameter-set scan was exhaustive and every type
    enumeration completed; the clique search itself is always exact.
    greedy_value is the greedy lower bound on the attaining parameter set.
    """

    m: int
    k: int
    l: int
    value: int
    exact: bool
    mode: str
    greedy_value: int
    witness_family: tuple
    parameter_set: tuple
    seed: Optional[int] = None

    def to_json_dict(self) -> dict:
        # the witness family is reported by its type sizes
        return {
            "schema": SCHEMA_VERSION,
            "m": self.m,
            "k": self.k,
            "l": self.l,
            "value": self.value,
            "exact": self.exact,
            "mode": self.mode,
            "greedy_value": self.greedy_value,
            "witness_sizes": [t.size for t in self.witness_family],
            "parameter_set": self.parameter_set,
            "seed": self.seed,
        }


def f_phi(
    structure: FiniteStructure,
    phi,
    x_arity: int,
    m: int,
    k: int,
    parameter_pool: Sequence[tuple],
    l: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> CountReport:
    """count_types over the instance masks of phi on the pool."""
    masks = instance_masks(structure, phi, x_arity, parameter_pool)
    return count_types(masks, m, k, l, samples, seed)


def count_types(
    masks: dict,
    m: int,
    k: int,
    l: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> CountReport:
    """max over |A| = l of the largest pairwise-m-inconsistent type family.

    masks is a table from instance_masks or family_masks; its keys are
    the parameter pool.  Exhaustive over all C(pool, l) parameter sets
    when that count is at most EXHAUSTIVE_A_LIMIT, otherwise `samples`
    seeded draws (mode recorded).  The inner maximization is an exact
    max-clique on the m-inconsistency graph of the types.  When every
    parameter set has more than TYPE_CAP types, the last set's
    TypeBlowupError is raised.

    Types p, q clash iff the AND over some p0 | q0 is 0, where
    |p0 | q0| <= reach = min(l, 2*min(m, k)).  When reach <= k every such
    union is itself a type or has an empty witness set, so the positions
    of A's types within A, in enumeration order, fix A's graph: a set
    whose types sit where an earlier set's did reuses its clique, and the
    same clique positions name its own witness types, so reports are
    those of a clique search per set.  When reach > k each set's graph is
    built and solved on its own.
    """
    pool = sorted(masks)
    if l < 1 or l > len(pool):
        raise ValueError(f"l must lie in 1..{len(pool)}")
    if m < 1:
        raise ValueError("m must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")

    exhaustive = math.comb(len(pool), l) <= EXHAUSTIVE_A_LIMIT
    if exhaustive:
        subsets = itertools.combinations(pool, l)
        mode = "exhaustive"
        used_seed = None
    else:
        rng = random.Random(seed)
        subsets = [
            tuple(sorted(rng.sample(pool, l))) for _ in range(samples)
        ]
        mode = "sampled"
        used_seed = seed

    reach = min(l, 2 * min(m, k))
    solved = {}
    best = None
    blowup = None
    for A in subsets:
        try:
            types = _types_from_masks(A, masks, k)
        except TypeBlowupError as exc:
            blowup = exc
            continue
        if reach > k:
            clique, greedy = _solve_types(types, masks, m)
        else:
            key = tuple(pos for _, _, pos in types)
            if key not in solved:
                solved[key] = _solve_types(types, masks, m)
            clique, greedy = solved[key]
        if best is None or len(clique) > best[0]:
            best = (len(clique), greedy, [types[i] for i in clique], A)
    if best is None:
        raise blowup
    value, greedy, witness, A = best
    witness = [PositiveType(frozenset(s), w) for s, w, _ in witness]
    return CountReport(
        m=m,
        k=k,
        l=l,
        value=value,
        exact=exhaustive and blowup is None,
        mode=mode,
        greedy_value=greedy,
        witness_family=tuple(witness),
        parameter_set=A,
        seed=used_seed,
    )


class DividingReport(NamedTuple):
    """status: 'divides' | 'none' | 'indeterminate' (budget ran out)."""

    status: str
    instance: Optional[tuple] = None
    sequence: Optional[tuple] = None


def _delta_indiscernible(structure, sequence, C, delta, budget):
    """All increasing r-tuples give the same delta truths with C-parameters.

    delta entries are (tree, r, s): the tree's variables cover r sequence
    elements then s parameter tuples from C, concatenated positionally.
    Returns (verdict, evaluations spent); verdict None when out of budget.
    One evaluator call covers a (tree, C-tuple) block, with no x-variables
    and the block's rows as parameter tuples, so each mask is 0 or 1;
    spent counts what a point-by-point scan of the block would have
    evaluated: up to and including the first r-tuple that disagrees with
    the first one.
    """
    spent = 0
    n = len(sequence)
    for tree, r, s in delta:
        if r > n:
            continue
        combos = list(itertools.combinations(range(n), r))
        cpars = list(itertools.product(C, repeat=s)) if s else [()]
        for cp in cpars:
            tail = tuple(v for ctup in cp for v in ctup)
            rows = [
                tuple(v for i in idx for v in sequence[i]) + tail for idx in combos
            ]
            vals = evaluate_formula(structure, tree, 0, len(rows[0]), rows)
            differ = [i for i, v in enumerate(vals) if v != vals[0]]
            needed = differ[0] + 1 if differ else len(vals)
            if spent + needed > budget:
                return None, max(spent, budget) + 1
            spent += needed
            if differ:
                return False, spent
    return True, spent


def internal_dividing_check(
    structure: FiniteStructure,
    phi,
    x_arity: int,
    p: PositiveType,
    B: Sequence[tuple],
    C: Sequence[tuple],
    delta: Sequence[tuple],
    n: int,
    k: int,
    budget: int = DEFAULT_DIVIDING_BUDGET,
) -> DividingReport:
    """Search for an instance of p that starts a dividing sequence inside B.

    A witness is phi(x, b) with b in p and a length-n sequence of distinct
    elements of B starting at b that is delta-indiscernible over C and
    whose instance set {phi(x, b_i)} is k-inconsistent (at least k
    distinct instances, every k of them jointly unsatisfiable).  Exceeding
    the evaluation budget returns status 'indeterminate'.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > DIVIDING_N_CAP:
        raise ValueError(f"n capped at {DIVIDING_N_CAP}; the search is exponential")
    if k < 2:
        raise ValueError("k must be >= 2")
    B = _pool(structure, B)
    C = _pool(structure, C)
    masks = instance_masks(structure, phi, x_arity, B)
    spent = 0
    for b in sorted(p.instances):
        if b not in masks:
            continue
        others = [c for c in B if c != b]
        if len(others) < n - 1:
            continue
        for rest in itertools.permutations(others, n - 1):
            seq = (b,) + rest
            spent += 1
            if spent > budget:
                return DividingReport(status="indeterminate")
            if not _k_inconsistent_set(seq, masks, k):
                continue
            verdict, used = _delta_indiscernible(
                structure, seq, C, delta, budget - spent
            )
            spent += used
            if verdict is None:
                return DividingReport(status="indeterminate")
            if verdict:
                return DividingReport(status="divides", instance=b, sequence=seq)
    return DividingReport(status="none")


def _k_inconsistent_set(sequence, masks, k: int) -> bool:
    distinct = sorted(set(sequence))
    return len(distinct) >= k and not any(_subset_masks(distinct, masks, k))


def find_kddd(edges, d: int):
    """First complete k-partite K_{d,...,d} in a k-uniform hypergraph.

    Parts are returned as sorted tuples, ordered by smallest vertex; the
    search is deterministic.  The last part is filled from the vertices
    compatible with every transversal of the first k-1, which is sound
    because completeness factorizes over the last coordinate.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    edge_set = {frozenset(e) for e in edges}
    if not edge_set:
        return None
    sizes = {len(e) for e in edge_set}
    if len(sizes) != 1:
        raise ValueError(f"hypergraph is not uniform: edge sizes {sorted(sizes)}")
    k = sizes.pop()
    if k < 1:
        raise ValueError("edges must be nonempty sets")
    vertices = sorted({v for e in edge_set for v in e})
    if len(vertices) < k * d:
        return None

    def rec(parts, used, min_start):
        if len(parts) == k - 1:
            cands = []
            for v in vertices:
                if v in used:
                    continue
                if all(
                    frozenset(tr) | {v} in edge_set
                    for tr in itertools.product(*parts)
                ):
                    cands.append(v)
                    if len(cands) == d:
                        return parts + [tuple(cands)]
            return None
        pool = [v for v in vertices if v not in used and v >= min_start]
        for combo in itertools.combinations(pool, d):
            res = rec(parts + [combo], used | set(combo), combo[0])
            if res is not None:
                return res
        return None

    found = rec([], set(), vertices[0])
    if found is None:
        return None
    return tuple(tuple(sorted(part)) for part in found)


class PowerSavingReport(NamedTuple):
    """Estimated growth exponent of count_types against the Zarankiewicz
    threshold.

    exponent_estimate is a finite-sample log-log fit, an estimate only.
    """

    l_values: tuple
    counts: tuple
    exponent_estimate: Fraction
    threshold: Fraction
    below_threshold: bool
    exact: bool


def power_saving(
    masks: dict,
    m: int,
    k: int,
    l_values: Sequence[int],
    d: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> PowerSavingReport:
    """Fit the growth exponent of count_types(m,k,l) over the given l values.

    Compares the log-log slope against k - 1/d^(k-1); an estimate, not a
    limit statement.  Needs at least three l values with positive counts.
    """
    ls = list(l_values)
    if len(ls) < 3:
        raise ValueError("need at least three l values")
    if any(b <= a for a, b in zip(ls, ls[1:])):
        raise ValueError("l_values must be strictly increasing")
    if d < 1:
        raise ValueError("d must be >= 1")
    counts = []
    exact = True
    for l in ls:
        rep = count_types(masks, m, k, l, samples, seed)
        counts.append(rep.value)
        exact = exact and rep.exact
    pts = [(l, c) for l, c in zip(ls, counts) if c >= 1]
    if len(pts) < 3:
        raise ValueError("need at least three l values with positive counts")
    estimate = density_fit(dict(pts))
    threshold = Fraction(k) - Fraction(1, d ** (k - 1))
    return PowerSavingReport(
        l_values=tuple(ls),
        counts=tuple(counts),
        exponent_estimate=estimate,
        threshold=threshold,
        below_threshold=estimate <= threshold,
        exact=exact,
    )
