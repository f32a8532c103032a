import hashlib
import itertools
import json
import math
import random
import re

import pytest

from fhplab import typecount
from fhplab._jsonutil import SCHEMA_VERSION, to_json
from fhplab.constructs import build_tp2_grid
from fhplab.setfam import SetFamily
from fhplab.typecount import (
    FiniteStructure,
    PositiveType,
    TypeBlowupError,
    count_types,
    enumerate_types,
    f_phi,
    family_masks,
    find_kddd,
    instance_masks,
    internal_dividing_check,
    m_inconsistent,
    power_saving,
    power_saving_probe,
    structure_from_family,
)
from fhplab.typecount import _delta_indiscernible

from conftest import oracle_find_kdd, oracle_max_inconsistent
from formula_walker import evaluate_formula as walk_formula


EQ_PHI = ["=", ["var", 0], ["var", 1]]
TAUT_DELTA = [(["=", ["var", 0], ["var", 0]], 1, 0)]


def structure_to_json_dict(structure) -> dict:
    """The document FiniteStructure.from_json_dict reads back."""
    size = len(structure.universe)
    if tuple(structure.universe) != tuple(range(size)):
        raise ValueError("JSON export needs universe = range(size)")
    out = {"schema": SCHEMA_VERSION, "universe_size": size, "relations": {}}
    for name, (arity, rows) in sorted(structure.relations.items()):
        bits = []
        for args in itertools.product(range(size), repeat=arity):
            bits.append("1" if args in rows else "0")
        out["relations"][name] = {"arity": arity, "bits": "".join(bits)}
    if structure.functions:
        out["functions"] = {}
        for name, (arity, table) in sorted(structure.functions.items()):
            flat = [
                table[args]
                for args in itertools.product(range(size), repeat=arity)
            ]
            out["functions"][name] = {"arity": arity, "table": flat}
    return out


def equality_structure(size):
    return FiniteStructure(tuple(range(size)), {}, {})


def eq_pool(size):
    return [(a,) for a in range(size)]


@pytest.fixture(scope="module")
def grid():
    fam = build_tp2_grid(2, 3)
    return structure_from_family(fam)


class TestFiniteStructure:
    def test_relation_lookup(self):
        s = FiniteStructure(
            (0, 1), {"R": (2, frozenset({(0, 1)}))}, {}
        )
        _, relations = s.tables()
        arity, table = relations["R"]
        assert arity == 2
        assert table[0, 1]
        assert not table[1, 0]
        # tables are over universe indices, whatever the elements are
        s = FiniteStructure((7, 3), {"R": (2, frozenset({(7, 3)}))}, {})
        assert s.tables()[1]["R"][1].tolist() == [[False, True], [False, False]]
        assert s.const_index(3) == 1
        with pytest.raises(ValueError, match="not in universe"):
            s.const_index(0)

    @pytest.mark.parametrize("v", [True, False, 1.0, 0.0, "1", None, (1,)])
    def test_const_index_takes_ints_only(self, v):
        # True and 1.0 hash like 1, so a dict lookup alone would accept them
        s = FiniteStructure((0, 1, 2), {}, {})
        assert [s.const_index(i) for i in (0, 1, 2)] == [0, 1, 2]
        with pytest.raises(ValueError, match="not in universe"):
            s.const_index(v)

    @pytest.mark.parametrize("universe", [(0, True), (0, 1.5), ("a", "b")])
    def test_universe_of_ints_only(self, universe):
        with pytest.raises(ValueError, match="must be integers"):
            FiniteStructure(universe, {}, {})

    @pytest.mark.parametrize(
        "universe, relations, functions, message",
        [
            ((), {}, {}, "universe must be nonempty"),
            ((0, 1, 0), {}, {}, "repeated elements"),
            ((0, 1), {"R": (2, {(0,)})}, {}, r"relation 'R': row \(0,\) has wrong arity"),
            ((0, 1), {"R": (1, {(2,)})}, {}, r"relation 'R': row \(2,\) leaves universe"),
            ((0, 1), {"R": (True, {(0,)})}, {}, "relation 'R': arity True outside"),
            ((0, 1), {}, {"f": (17, {})}, "function 'f': arity 17 outside"),
            (tuple(range(1001)), {}, {"f": (2, {})}, "function 'f': table too large"),
            # one cell past FUNCTION_TABLE_CAP
            (range(10**6 + 1), {}, {"f": (1, {})}, "function 'f': table too large"),
            ((0, 1), {}, {"f": (1, {(0,): 1})}, r"function 'f': not total at \(1,\)"),
            ((0, 1), {}, {"f": (1, {(0,): 1, (1,): 2})}, "function 'f': value leaves"),
        ],
    )
    def test_invalid_structure_refused(self, universe, relations, functions, message):
        with pytest.raises(ValueError, match=message):
            FiniteStructure(universe, relations, functions)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"universe_size": 0}, "'universe_size' must be a positive integer"),
            ({"universe_size": True}, "'universe_size' must be a positive integer"),
            ({"universe_size": 2.0}, "'universe_size' must be a positive integer"),
            ({"universe_size": typecount.X_CAP + 1}, "exceeds cap"),
            ({"universe_size": 2, "relations": {"R": {"arity": True, "bits": "01"}}},
             "relation 'R': arity True outside"),
            ({"universe_size": 2, "relations": {"R": {"arity": 1, "bits": "011"}}},
             "relation 'R': bits length mismatch"),
            ({"universe_size": 2, "relations": {"R": {"arity": 1, "bits": "0x"}}},
             "relation 'R': bits must be 0/1"),
            ({"universe_size": 2, "functions": {"f": {"arity": False, "table": [0]}}},
             "function 'f': arity False outside"),
            ({"universe_size": 2, "functions": {"f": {"arity": 1, "table": [0]}}},
             "function 'f': table length mismatch"),
        ],
    )
    def test_invalid_json_refused(self, doc, message):
        with pytest.raises(ValueError, match=message):
            FiniteStructure.from_json_dict(doc)

    def test_function_table_at_the_cap(self):
        uni = tuple(range(1000))
        assert len(uni) ** 2 == typecount.FUNCTION_TABLE_CAP
        table = {(a, b): a for a in uni for b in uni}
        assert FiniteStructure(uni, {}, {"f": (2, table)}).functions["f"][0] == 2

    def test_function_totality_checked(self):
        with pytest.raises(ValueError):
            FiniteStructure(
                (0, 1), {}, {"f": (1, {(0,): 1})}
            )

    def test_function_lookup(self):
        s = FiniteStructure(
            (0, 1), {}, {"f": (1, {(0,): 1, (1,): 0})}
        )
        functions, _ = s.tables()
        assert functions["f"][0] == 1
        assert functions["f"][1].tolist() == [1, 0]
        s = FiniteStructure((5, 9), {}, {"f": (1, {(5,): 9, (9,): 9})})
        assert s.tables()[0]["f"][1].tolist() == [1, 1]

    def test_json_round_trip(self, grid):
        s, _, _ = grid
        back = FiniteStructure.from_json_dict(structure_to_json_dict(s))
        assert back.universe == s.universe
        assert back.relations == s.relations
        s = FiniteStructure((0, 1), {}, {"f": (1, {(0,): 1, (1,): 1})})
        back = FiniteStructure.from_json_dict(structure_to_json_dict(s))
        assert back.functions == s.functions

    def test_json_requires_contiguous_universe(self):
        s = FiniteStructure((0, 2), {}, {})
        with pytest.raises(ValueError):
            structure_to_json_dict(s)


class TestEnumerateTypes:
    def test_equality_ten_points(self):
        s = equality_structure(10)
        types = enumerate_types(s, EQ_PHI, 1, eq_pool(10), 2)
        assert len(types) == 10
        assert all(t.size == 1 for t in types)

    def test_grid_pairs(self, grid):
        s, phi, pool = grid
        types = enumerate_types(s, phi, 1, pool, 2)
        assert sum(1 for t in types if t.size == 2) == 9
        assert sum(1 for t in types if t.size == 1) == 6

    def test_k_above_pool_size(self):
        s = equality_structure(3)
        a = enumerate_types(s, EQ_PHI, 1, eq_pool(3), 3)
        b = enumerate_types(s, EQ_PHI, 1, eq_pool(3), 9)
        assert len(a) == len(b)

    def test_witnesses_satisfy_instances(self, grid):
        s, phi, pool = grid
        for t in enumerate_types(s, phi, 1, pool, 2):
            assert t.mask
            # x_arity 1: bit i stands for the i-th universe element
            for i, w in enumerate(s.universe):
                sat = all(walk_formula(s, phi, dict(enumerate((w,) + b)))
                          for b in t.instances)
                assert bool(t.mask >> i & 1) == sat

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            enumerate_types(equality_structure(3), EQ_PHI, 1, eq_pool(3), 0)

    @pytest.mark.parametrize(
        "instances, mask, message",
        [
            (frozenset(), 1, "needs at least one instance"),
            (frozenset({(0,)}), 0, "must have a witness"),
        ],
    )
    def test_positive_type_refused(self, instances, mask, message):
        with pytest.raises(ValueError, match=message):
            PositiveType(EQ_PHI, 1, instances, mask, {})

    def test_blowup_cap(self, monkeypatch):
        monkeypatch.setattr(typecount, "TYPE_CAP", 5)
        s = equality_structure(12)
        with pytest.raises(TypeBlowupError) as err:
            enumerate_types(s, EQ_PHI, 1, eq_pool(12), 2)
        assert err.value.partial_count >= 5


class TestMInconsistent:
    def test_self_never(self, grid):
        s, phi, pool = grid
        types = enumerate_types(s, phi, 1, pool, 2)
        for t in types[:5]:
            assert not m_inconsistent(t, t, 1)

    def test_disjoint_rows(self, grid):
        s, phi, pool = grid
        singles = {
            next(iter(t.instances)): t
            for t in enumerate_types(s, phi, 1, pool, 1)
        }
        keys = sorted(singles)
        # same-row labels produce disjoint sets -> 1-inconsistent
        assert m_inconsistent(singles[keys[0]], singles[keys[1]], 1)
        # cross-row labels always meet
        assert not m_inconsistent(singles[keys[0]], singles[keys[3]], 1)

    def test_monotone_in_m(self, grid):
        s, phi, pool = grid
        types = enumerate_types(s, phi, 1, pool, 2)
        for p, q in itertools.combinations(types[:8], 2):
            if m_inconsistent(p, q, 1):
                assert m_inconsistent(p, q, 2)

    def test_m_below_one_rejected(self, grid):
        s, phi, pool = grid
        t = enumerate_types(s, phi, 1, pool, 1)[0]
        with pytest.raises(ValueError, match="m must be >= 1"):
            m_inconsistent(t, t, 0)

    def test_mixed_formula_rejected(self, grid):
        s, phi, pool = grid
        t1 = enumerate_types(s, phi, 1, pool, 1)[0]
        t2 = enumerate_types(
            equality_structure(4), EQ_PHI, 1, eq_pool(4), 1
        )[0]
        with pytest.raises(ValueError):
            m_inconsistent(t1, t2, 1)


class TestFPhi:
    def test_equality_is_l(self):
        s = equality_structure(9)
        for l in (2, 4, 6):
            rep = f_phi(s, EQ_PHI, 1, m=1, k=2,
                        parameter_pool=eq_pool(9), l=l)
            assert rep.value == l

    def test_grid_square(self, grid):
        s, phi, pool = grid
        rep = f_phi(s, phi, 1, m=1, k=2, parameter_pool=pool, l=6)
        assert rep.value == 9
        assert rep.exact

    def test_witness_family_checks_out(self, grid):
        s, phi, pool = grid
        rep = f_phi(s, phi, 1, m=1, k=2, parameter_pool=pool, l=6)
        assert len(rep.witness_family) == rep.value
        for p, q in itertools.combinations(rep.witness_family, 2):
            assert m_inconsistent(p, q, 1)

    def test_greedy_at_most_exact(self, grid):
        s, phi, pool = grid
        rep = f_phi(s, phi, 1, m=1, k=2, parameter_pool=pool, l=5)
        assert rep.greedy_value <= rep.value

    def test_universal_upper_bound(self):
        rng = random.Random(55)
        for _ in range(10):
            fam = SetFamily(
                6,
                [set(rng.sample(range(6), rng.randint(1, 5)))
                 for _ in range(5)],
            )
            s, phi, pool = structure_from_family(fam)
            k = rng.randint(1, 3)
            l = rng.randint(1, min(5, len(pool)))
            rep = f_phi(s, phi, 1, m=1, k=k, parameter_pool=pool, l=l)
            assert rep.value <= sum(math.comb(l, i) for i in range(k + 1))

    def test_monotone_in_k_and_l(self, grid):
        s, phi, pool = grid
        base = f_phi(s, phi, 1, m=1, k=1, parameter_pool=pool, l=4).value
        more_k = f_phi(s, phi, 1, m=1, k=2, parameter_pool=pool, l=4).value
        more_l = f_phi(s, phi, 1, m=1, k=1, parameter_pool=pool, l=6).value
        assert base <= more_k and base <= more_l

    def test_nondecreasing_in_m(self, grid):
        # larger m only adds edges to the inconsistency graph
        s, phi, pool = grid
        v1 = f_phi(s, phi, 1, m=1, k=2, parameter_pool=pool, l=6).value
        v2 = f_phi(s, phi, 1, m=2, k=2, parameter_pool=pool, l=6).value
        assert v2 >= v1

    @pytest.mark.parametrize(
        "m, k, l, samples, message",
        [
            (1, 1, 0, 1, r"l must lie in 1\.\.3"),
            (1, 1, 4, 1, r"l must lie in 1\.\.3"),
            (0, 1, 2, 1, "m must be >= 1"),
            (1, 0, 2, 1, "k must be >= 1"),
            (1, 1, 2, 0, "samples must be >= 1"),
        ],
    )
    def test_bad_arguments_refused(self, m, k, l, samples, message):
        masks = instance_masks(equality_structure(3), EQ_PHI, 1, eq_pool(3))
        with pytest.raises(ValueError, match=message):
            count_types(masks, EQ_PHI, 1, m, k, l, samples)

    def test_sampled_mode_flagged(self):
        s = equality_structure(14)
        rep = f_phi(s, EQ_PHI, 1, m=1, k=1,
                    parameter_pool=eq_pool(14), l=7, samples=4, seed=3)
        assert rep.mode == "sampled"
        assert rep.seed == 3
        assert rep.value == 7  # any 7 singleton types suffice

    def test_matches_independent_oracle(self):
        rng = random.Random(31)
        for _ in range(12):
            g = rng.randint(3, 6)
            n = rng.randint(2, 6)
            fam = SetFamily(
                g,
                [set(rng.sample(range(g), rng.randint(1, g)))
                 for _ in range(n)],
            )
            s, phi, pool = structure_from_family(fam)
            k = rng.randint(1, 3)
            m = rng.randint(1, 2)
            l = rng.randint(1, min(6, len(pool)))
            rep = f_phi(s, phi, 1, m=m, k=k, parameter_pool=pool, l=l)
            assert rep.exact
            best = 0
            for A in itertools.combinations(pool, l):
                types = enumerate_types(s, phi, 1, list(A), k)

                def clash(i, j, ts=types, mm=m):
                    return not m_inconsistent(ts[i], ts[j], mm)

                best = max(
                    best, oracle_max_inconsistent(clash, len(types))
                )
            assert rep.value == best


def f_phi_cases():
    """400 seeded (family, m, k, l, samples, seed) cases, m and k <= 3; every
    fourth draws a pool with more than EXHAUSTIVE_A_LIMIT parameter sets,
    so it is sampled."""
    for case in range(400):
        rng = random.Random(f"f_phi:{case}")
        sampled = case % 4 == 3
        g = rng.randint(2, 8)
        n = rng.randint(11, 13) if sampled else rng.randint(1, 8)
        fam = SetFamily(g, [rng.sample(range(g), rng.randint(0, (g + 1) // 2))
                            for _ in range(n)])
        l = rng.randint(4, n - 4) if sampled else rng.randint(1, n)
        yield (fam, rng.randint(1, 3), rng.randint(1, 3), l,
               rng.randint(1, 4), rng.randint(0, 999))


def test_f_phi_reports_pinned():
    """Reports and witness types of f_phi over f_phi_cases, byte for byte."""
    out = []
    modes = set()
    for fam, m, k, l, samples, seed in f_phi_cases():
        s, phi, pool = structure_from_family(fam)
        rep = f_phi(s, phi, 1, m, k, pool, l, samples=samples, seed=seed)
        modes.add(rep.mode)
        out.append([to_json(rep),
                    [sorted(t.instances) for t in rep.witness_family]])
    assert modes == {"exhaustive", "sampled"}
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "3b67e43fd0819736a20429915c7b0ff48744a66059ef6a79219df0bf9450f60a"


def test_types_and_inconsistency_pinned():
    """Instances, witness sets and the m-inconsistency matrix of
    enumerate_types over 60 seeded families, byte for byte."""
    out = []
    for case in range(60):
        rng = random.Random(f"types:{case}")
        g = rng.randint(2, 5)
        fam = SetFamily(g, [rng.sample(range(g), rng.randint(0, g))
                            for _ in range(rng.randint(1, 6))])
        s, phi, pool = structure_from_family(fam)
        types = enumerate_types(s, phi, 1, pool, rng.randint(1, 3))
        m = rng.randint(1, 3)
        out.append([
            [[sorted(t.instances),
              [i for i in range(t.mask.bit_length()) if t.mask >> i & 1]]
             for t in types],
            [[m_inconsistent(p, q, m) for q in types] for p in types],
        ])
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "30465c8760f9183e4273b99e6343a100f6ffff7a18dd0c396db2cdbce3be8363"


def random_atom_case(rng):
    """A structure with one relation R of arity x_arity + width over a
    shuffled universe, the bare atom R(x; a) and a parameter pool."""
    size = rng.randint(1, 5)
    universe = rng.sample(range(3, 40), size)
    x_arity = rng.randint(1, 2)
    width = rng.randint(0, 2)
    cells = list(itertools.product(universe, repeat=x_arity + width))
    rows = rng.sample(cells, rng.randint(0, len(cells)))
    s = FiniteStructure(tuple(universe), {"R": (x_arity + width, rows)}, {})
    phi = ["rel", "R", *(["var", i] for i in range(x_arity + width))]
    pool = [tuple(rng.choice(universe) for _ in range(width))
            for _ in range(rng.randint(1, 6))]
    return s, phi, x_arity, pool


def bare_atom_masks(structure, phi, x_arity, params):
    """The instance masks of a bare atom ["rel", R, ["var", 0], ...] read
    straight off R's rows: row (x, a) sets bit lexindex(x) in a's mask."""
    params = [tuple(a) for a in params]
    arity, rows = structure.relations[phi[1]]
    assert phi[2:] == [["var", i] for i in range(arity)]
    assert arity == x_arity + len(params[0])
    index = structure.const_index
    keys = [tuple(index(v) for v in a) for a in params]
    size = len(structure.universe)
    bits = {key: bytearray((size**x_arity + 7) // 8) for key in keys}
    for row in rows:
        mask = bits.get(tuple(index(v) for v in row[x_arity:]))
        if mask is not None:
            pos = 0
            for v in row[:x_arity]:
                pos = pos * size + index(v)
            mask[pos >> 3] |= 1 << (pos & 7)
    return {a: int.from_bytes(bits[key], "little") for a, key in zip(params, keys)}


def test_evaluator_matches_bare_atom_rows():
    """The evaluator's masks of a bare atom equal the masks read off its rows."""
    for i in range(150):
        s, phi, x_arity, pool = random_atom_case(random.Random(f"atom:{i}"))
        assert instance_masks(s, phi, x_arity, pool) == bare_atom_masks(
            s, phi, x_arity, pool
        ), i


def test_family_masks_match_the_encoded_structure():
    """family_masks is instance_masks on structure_from_family, in closed
    form, over 60 seeded families (empty members and no members included)."""
    fams = [SetFamily(3, [])]
    for i in range(59):
        rng = random.Random(f"atom-family:{i}")
        g = rng.randint(1, 7)
        fams.append(SetFamily(g, [rng.sample(range(g), rng.randint(0, g))
                                  for _ in range(rng.randint(1, 7))]))
    assert sum(bool(fam.empty_members) for fam in fams) > 10
    for fam in fams:
        s, phi, pool = structure_from_family(fam)
        want = instance_masks(s, phi, 1, pool)
        assert list(family_masks(fam).items()) == list(want.items()), fam


TERNARY = FiniteStructure((0, 1, 2), {"R": (3, {(0, 0, 1), (1, 1, 1), (2, 2, 0)})})
R3 = ["rel", "R", ["var", 0], ["var", 1], ["var", 2]]


@pytest.mark.parametrize(
    "call, bad",
    [
        # the first tuple sets the length; before, this one returned the
        # masks of (1, 1) and (2, 2) under the keys (1,) and (1, 2, 2)
        (lambda: instance_masks(TERNARY, R3, 1, [(0, 0), (1,), (1, 2, 2)]),
         r"\(1,\) has 1 element\(s\), expected 2"),
        (lambda: instance_masks(TERNARY, EQ_PHI, 1, [(0,), (1, 2)]),
         r"\(1, 2\) has 2 element\(s\), expected 1"),
        (lambda: f_phi(TERNARY, R3, 1, 1, 2, [(0, 0), (1,), (1, 2, 2)], 2),
         r"\(1,\) has 1 element"),
        (lambda: enumerate_types(TERNARY, R3, 1, [(0, 0), (1, 2, 2)], 1),
         r"\(1, 2, 2\) has 3 element\(s\), expected 2"),
    ],
    ids=["silent-misread", "instance_masks", "f_phi", "enumerate_types"],
)
def test_mixed_length_parameters_refused(call, bad):
    with pytest.raises(ValueError, match="parameter tuple " + bad):
        call()


def test_mixed_length_dividing_pool_refused(grid):
    s, phi, pool = grid
    t = enumerate_types(s, phi, 1, pool, 1)[0]
    last = (pool[-1][0],) * 2  # sorts after every tuple of the pool
    with pytest.raises(ValueError, match=re.escape(f"parameter tuple {last} has 2 element")):
        internal_dividing_check(
            s, phi, 1, t, B=[*pool, last], C=[], delta=TAUT_DELTA, n=2, k=2
        )


def test_instance_masks_keeps_the_checks():
    s, phi, pool = structure_from_family(SetFamily(3, [{0, 1}, {2}]))
    assert instance_masks(s, phi, 1, []) == {}
    with pytest.raises(ValueError, match="not in universe"):
        instance_masks(s, phi, 1, [*pool, (99,)])
    with pytest.raises(ValueError, match="x_arity must be >= 1"):
        instance_masks(s, phi, 0, pool)
    # a bool is no variable index
    with pytest.raises(ValueError, match="bad variable index"):
        instance_masks(s, ["rel", "In", ["var", 0], ["var", True]], 1, pool)
    # refused before the 300**2 x-tuples are built
    with pytest.raises(ValueError, match="witness space size 90000 exceeds cap"):
        instance_masks(equality_structure(300), EQ_PHI, 2, eq_pool(300))


def set_cliques(adj):
    """(greedy seed, first maximum clique) of the set-based search: the
    seed takes vertices by (-degree, index), the branch and bound the
    lowest candidate first and keeps the first strictly larger clique."""
    order = sorted(range(len(adj)), key=lambda v: (-len(adj[v]), v))
    seed, cand = [], set(range(len(adj)))
    for v in order:
        if v in cand:
            seed.append(v)
            cand &= adj[v]
    best = sorted(seed)

    def expand(current, cand):
        nonlocal best
        if not cand:
            if len(current) > len(best):
                best = list(current)
            return
        while cand:
            if len(current) + len(cand) <= len(best):
                return
            v = cand.pop(0)
            current.append(v)
            expand(current, [u for u in cand if u in adj[v]])
            current.pop()

    expand([], list(range(len(adj))))
    return sorted(seed), best


def test_bitset_cliques_match_set_search():
    rng = random.Random(19)
    beaten = 0
    for _ in range(400):
        n = rng.randint(0, 22)
        p = rng.random()
        adj = [set() for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < p:
                adj[i].add(j)
                adj[j].add(i)
        bits = [sum(1 << u for u in nbrs) for nbrs in adj]
        seed, best = set_cliques(adj)
        assert typecount._greedy_clique(bits) == seed
        assert typecount._max_clique(bits, seed) == best
        beaten += len(best) > len(seed)
    assert beaten > 10  # the branch and bound improved on the seed


class TestDividing:
    def test_grid_row_divides(self, grid):
        s, phi, pool = grid
        types = enumerate_types(s, phi, 1, pool, 1)
        p = types[0]
        rep = internal_dividing_check(
            s, phi, 1, p, B=pool[:3], C=[], delta=TAUT_DELTA, n=2, k=2
        )
        assert rep.status == "divides"
        assert rep.instance in p.instances

    def test_rigid_structure_none(self):
        # successor-coded points: a unary predicate per element makes any
        # two distinct elements delta-distinguishable
        size = 4
        rels = {
            f"P{i}": (1, frozenset({(i,)})) for i in range(size)
        }
        s = FiniteStructure(tuple(range(size)), rels, {})
        phi = EQ_PHI
        pool = eq_pool(size)
        types = enumerate_types(s, phi, 1, pool, 1)
        delta = [(["rel", f"P{i}", ["var", 0]], 1, 0) for i in range(size)]
        rep = internal_dividing_check(
            s, phi, 1, types[0], B=pool, C=pool, delta=delta, n=2, k=2
        )
        assert rep.status == "none"

    def test_budget_exhaustion_indeterminate(self, grid):
        s, phi, pool = grid
        types = enumerate_types(s, phi, 1, pool, 1)
        rep = internal_dividing_check(
            s, phi, 1, types[0], B=pool, C=pool,
            delta=[(phi, 1, 1)], n=3, k=3, budget=2
        )
        assert rep.status == "indeterminate"

    def test_n_bounds(self, grid):
        s, phi, pool = grid
        t = enumerate_types(s, phi, 1, pool, 1)[0]
        for bad_n in (1, 7):
            with pytest.raises(ValueError):
                internal_dividing_check(
                    s, phi, 1, t, B=pool, C=[], delta=TAUT_DELTA,
                    n=bad_n, k=2
                )
        with pytest.raises(ValueError, match="k must be >= 2"):
            internal_dividing_check(
                s, phi, 1, t, B=pool, C=[], delta=TAUT_DELTA, n=2, k=1
            )

    def test_n_cap(self):
        s, pool = equality_structure(6), eq_pool(6)
        t = enumerate_types(s, EQ_PHI, 1, pool, 1)[0]
        n = typecount.DIVIDING_N_CAP
        rep = internal_dividing_check(
            s, EQ_PHI, 1, t, B=pool, C=[], delta=TAUT_DELTA, n=n, k=2
        )
        assert (rep.status, len(rep.sequence)) == ("divides", n)
        with pytest.raises(ValueError, match="^n capped at 6; the search is exponential$"):
            internal_dividing_check(
                s, EQ_PHI, 1, t, B=pool, C=[], delta=TAUT_DELTA, n=n + 1, k=2
            )

    @pytest.mark.parametrize(
        "B, n",
        [
            # p's instance is not in B
            (lambda pool: pool[1:4], 2),
            # B holds too few other parameters for a sequence of length n
            (lambda pool: pool[:2], 3),
        ],
    )
    def test_no_sequence_from_b(self, B, n, grid):
        s, phi, pool = grid
        t = enumerate_types(s, phi, 1, pool, 1)[0]
        assert t.instances == {pool[0]}
        rep = internal_dividing_check(
            s, phi, 1, t, B=B(pool), C=[], delta=TAUT_DELTA, n=n, k=2
        )
        assert rep.status == "none"

    def test_consistent_pool_never_divides(self):
        # all members share element 0: no k-inconsistent sequence exists
        fam = SetFamily(3, [{0, 1}, {0, 2}, {0}])
        s, phi, pool = structure_from_family(fam)
        t = enumerate_types(s, phi, 1, pool, 1)[0]
        rep = internal_dividing_check(
            s, phi, 1, t, B=pool, C=[], delta=TAUT_DELTA, n=3, k=2
        )
        assert rep.status == "none"


def scalar_delta_indiscernible(structure, sequence, C, delta, budget):
    """The point-by-point scan _delta_indiscernible must agree with."""
    spent = 0
    n = len(sequence)
    for tree, r, s in delta:
        if r > n:
            continue
        combos = list(itertools.combinations(range(n), r))
        cpars = list(itertools.product(C, repeat=s)) if s else [()]
        for cp in cpars:
            ref = None
            for pos, idx in enumerate(combos):
                flat = [v for i in idx for v in sequence[i]]
                flat += [v for ctup in cp for v in ctup]
                spent += 1
                if spent > budget:
                    return None, spent
                val = walk_formula(structure, tree, dict(enumerate(flat)))
                if pos == 0:
                    ref = val
                elif val != ref:
                    return False, spent
    return True, spent


class TestDeltaIndiscernible:
    def test_matches_scalar_scan_and_budget(self):
        rng = random.Random(11)
        size = 5
        rels = {"R": (2, {(a, b) for a in range(size) for b in range(size)
                          if rng.random() < 0.5}),
                "P": (1, {(a,) for a in range(size) if a % 2})}
        s = FiniteStructure(tuple(range(size)), rels, {})
        trees = [
            (["rel", "R", ["var", 0], ["var", 1]], 2, 0),
            (["rel", "P", ["var", 0]], 1, 0),
            (["rel", "R", ["var", 0], ["var", 1]], 1, 1),
            (["exists", 3, ["and", ["rel", "R", ["var", 0], ["var", 3]],
                            ["rel", "R", ["var", 3], ["var", 2]]]], 2, 1),
            (["=", ["var", 0], ["var", 0]], 3, 0),
        ]
        C = [(0,), (3,)]
        checked = 0
        for _ in range(300):
            seq = tuple((a,) for a in rng.sample(range(size), rng.randint(2, 4)))
            delta = rng.sample(trees, rng.randint(1, len(trees)))
            budget = rng.randint(-2, 40)
            want = scalar_delta_indiscernible(s, seq, C, delta, budget)
            assert _delta_indiscernible(s, seq, C, delta, budget) == want
            checked += want[0] is None
        assert checked > 10  # the budget cut-off was exercised


class TestFindKddd:
    def test_k22_present(self):
        edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
        got = find_kddd(edges, 2)
        assert got == ((0, 1), (2, 3))

    def test_c5_absent(self):
        c5 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
        assert find_kddd(c5, 2) is None

    def test_3_uniform_complete_tripartite(self):
        parts = [(0, 1), (2, 3), (4, 5)]
        edges = [
            (a, b, c) for a in parts[0] for b in parts[1] for c in parts[2]
        ]
        got = find_kddd(edges, 2)
        assert got is not None
        assert tuple(sorted(got)) == ((0, 1), (2, 3), (4, 5))

    @pytest.mark.parametrize(
        "edges, d, want",
        [
            ([], 1, None),
            ([(0, 1)], 2, None),  # fewer than k * d vertices
            ([(0, 1)], 0, "d must be >= 1"),
            ([()], 1, "edges must be nonempty sets"),
        ],
    )
    def test_degenerate_inputs(self, edges, d, want):
        if want is None:
            assert find_kddd(edges, d) is None
        else:
            with pytest.raises(ValueError, match=want):
                find_kddd(edges, d)

    def test_nonuniform_rejected(self):
        with pytest.raises(ValueError):
            find_kddd([(0, 1), (2, 3, 4)], 2)

    def test_agrees_with_brute_force(self):
        rng = random.Random(61)
        for _ in range(25):
            nverts = rng.randint(4, 9)
            all_edges = list(itertools.combinations(range(nverts), 2))
            edges = rng.sample(
                all_edges, rng.randint(3, len(all_edges))
            )
            mine = find_kddd(edges, 2)
            ref = oracle_find_kdd(edges, 2)
            assert (mine is None) == (ref is None)
            if mine is not None:
                left, right = mine
                eset = {frozenset(e) for e in edges}
                assert all(
                    frozenset((a, b)) in eset for a in left for b in right
                )


class TestPowerSaving:
    def test_equality_exponent_one(self):
        s = equality_structure(10)
        rep = power_saving_probe(
            s, EQ_PHI, 1, 1, 2, eq_pool(10), [3, 5, 7, 9], 2
        )
        assert abs(float(rep.exponent_estimate) - 1.0) < 0.05
        assert rep.below_threshold

    def test_grid_exponent_two(self):
        fam = build_tp2_grid(2, 5)
        s, phi, pool = structure_from_family(fam)
        rep = power_saving_probe(s, phi, 1, 1, 2, pool, [4, 6, 8, 10], 2)
        assert abs(float(rep.exponent_estimate) - 2.0) < 1e-9
        assert not rep.below_threshold
        assert rep.threshold == 2 - 1 / 2  # k - 1/d^{k-1}

    def test_needs_three_points(self):
        s = equality_structure(6)
        with pytest.raises(ValueError):
            power_saving_probe(s, EQ_PHI, 1, 1, 2, eq_pool(6), [2, 4], 2)

    def test_evaluates_the_formula_once(self, monkeypatch):
        calls = []
        evaluate = typecount.evaluate_formula

        def counted(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(typecount, "evaluate_formula", counted)
        s = equality_structure(10)
        power_saving_probe(s, EQ_PHI, 1, 1, 2, eq_pool(10), [3, 5, 7], 2)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "masks, d, message",
        [
            ({(a,): 1 << a for a in range(6)}, 0, "d must be >= 1"),
            # no instance is satisfiable, so every count is 0
            ({(a,): 0 for a in range(6)}, 2, "with positive counts"),
        ],
    )
    def test_power_saving_refused(self, masks, d, message):
        with pytest.raises(ValueError, match=message):
            power_saving(masks, EQ_PHI, 1, 1, 2, [2, 3, 4], d)

    def test_nonincreasing_l_rejected(self):
        s = equality_structure(6)
        with pytest.raises(ValueError):
            power_saving_probe(s, EQ_PHI, 1, 1, 2, eq_pool(6), [4, 3, 5], 2)


def test_structure_from_family_encoding(triangle):
    s, phi, pool = structure_from_family(triangle)
    assert len(s.universe) == 6  # 3 ground + 3 labels
    assert len(pool) == 3
    arity, rows = s.relations["In"]
    assert arity == 2
    assert (0, 3) in rows  # element 0 in member 0
