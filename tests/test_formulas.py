import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhplab import formulas
from fhplab.formulas import evaluate_formula
from fhplab.pseudofield import FieldStructure
from fhplab.typecount import FiniteStructure

import formula_walker

F5 = FieldStructure.for_prime(5)


def truth(structure, node, point=()):
    """node at one point, passed as the parameter tuple with no x-variables."""
    (mask,) = evaluate_formula(structure, node, 0, len(point), [point])
    assert mask in (0, 1)
    return mask == 1


def test_term_arithmetic():
    point = (3, 4)
    for term, want in (
        (["+", ["var", 0], ["var", 1]], 2),
        (["*", ["var", 0], ["var", 1]], 2),
        (["-", ["var", 0], ["var", 1]], 4),
        (["neg", ["const", 1]], 4),
        (["const", 9], 4),
        (["func", "+", ["var", 0], ["const", 3]], 1),
    ):
        assert truth(F5, ["=", term, ["const", want]], point), term
        assert not truth(F5, ["=", term, ["const", want + 1]], point), term


def test_unbound_variable():
    with pytest.raises(ValueError, match="unbound variable 3"):
        truth(F5, ["=", ["var", 3], ["const", 0]])


def test_equality_and_connectives():
    assert truth(F5, ["=", ["var", 0], ["const", 2]], (2,))
    assert not truth(F5, ["not", ["true"]], (2,))
    assert truth(F5, ["or", ["false"], ["=", ["const", 1], ["const", 1]]], (2,))
    assert not truth(F5, ["and", ["true"], ["false"]], (2,))
    assert truth(F5, ["and"])
    assert not truth(F5, ["or"])


def test_quantifiers():
    # every x has an additive inverse
    f = ["forall", 0, ["exists", 1,
         ["=", ["+", ["var", 0], ["var", 1]], ["const", 0]]]]
    assert truth(F5, f)
    # some x squares to 3? QR(5) = {0,1,4} so no
    g = ["exists", 0, ["=", ["*", ["var", 0], ["var", 0]], ["const", 3]]]
    assert not truth(F5, g)


def test_quantifier_shadowing_restores_binding():
    # the quantifier rebinds variable 0 inside its body only
    f = ["and", ["exists", 0, ["=", ["var", 0], ["const", 4]]],
         ["=", ["var", 0], ["const", 1]]]
    assert truth(F5, f, (1,))
    assert not truth(F5, f, (2,))


def test_malformed_node_rejected():
    with pytest.raises(ValueError):
        truth(F5, ["xor", ["true"], ["false"]])
    with pytest.raises(ValueError):
        truth(F5, ["=", ["pow", ["const", 2], ["const", 3]], ["const", 3]])


STRUCT = FiniteStructure(
    (10, 20, 30),
    {"R": (2, {(10, 20), (20, 30)})},
    {"f": (1, {(10,): 20, (20,): 30, (30,): 10})},
)

# each is rejected before evaluation, whether or not its branch is reached
INVALID = [
    (F5, ["=", ["var", [1]], ["var", 0]], "bad variable index"),
    (F5, ["exists", [2], ["true"]], "bad variable index"),
    (F5, ["=", ["var", 0], ["const", None]], "not an integer"),
    (F5, ["or", ["true"], ["var", 7]], "unknown formula tag 'var'"),
    (F5, ["=", ["var", True], ["var", 0]], "bad variable index"),
    (F5, ["=", ["var", -1], ["var", 0]], "bad variable index"),
    (F5, ["or", ["true"], ["=", ["var", 1], ["var", 0]]], "unbound variable 1"),
    (F5, ["and", ["false"], ["rel", "R", ["var", 0]]], "unknown relation 'R'"),
    (F5, ["=", ["neg", ["var", 0], ["var", 0]], ["var", 0]], "expects 1 arguments"),
    (F5, ["=", ["+", ["var", 0]], ["var", 0]], "expects 2 arguments"),
    (F5, ["=", ["func", "sqrt", ["var", 0]], ["var", 0]], "unknown function"),
    (F5, ["=", ["true"], ["var", 0]], "unknown term tag 'true'"),
    (F5, ["exists", 1], "expected 2 argument"),
    (F5, ["true", 1], "expected 0 argument"),
    (F5, ["not", ["true"], ["true"]], "expected 1 argument"),
    (F5, 5, "malformed formula node"),
    (F5, [], "malformed formula node"),
    (F5, ["rel"], "missing name"),
    (STRUCT, ["=", ["var", 0], ["const", 40]], "not in universe"),
    (STRUCT, ["=", ["var", 0], ["const", [10]]], "not in universe"),
    (STRUCT, ["rel", "R", ["var", 0]], "expects 2 arguments"),
    (STRUCT, ["rel", ["R"], ["var", 0], ["var", 0]], "unknown relation"),
    (STRUCT, ["=", ["func", "f"], ["var", 0]], "expects 1 arguments"),
    (STRUCT, ["=", ["+", ["var", 0], ["var", 0]], ["var", 0]], "unknown function '\\+'"),
    (F5, ["=", ["func"], ["var", 0]], "'func' node: missing name"),
]


@pytest.mark.parametrize("structure, node, message", INVALID)
def test_validation_runs_first(structure, node, message):
    with pytest.raises(ValueError, match=message):
        truth(structure, node, (structure.universe[0],))


@pytest.mark.parametrize(
    "y_arity, params, bad",
    [
        (2, [(0, 0), (1,)], r"\(1,\) has 1 element\(s\), expected 2"),
        (2, [(0, 0), (1,), (1, 2, 2)], r"\(1,\) has 1 element"),
        (1, [(1, 2)], r"\(1, 2\) has 2 element\(s\), expected 1"),
        (0, [(), (3,)], r"\(3,\) has 1 element\(s\), expected 0"),
    ],
)
def test_parameter_tuples_must_have_y_arity(y_arity, params, bad):
    with pytest.raises(ValueError, match="parameter tuple " + bad):
        evaluate_formula(F5, ["true"], 1, y_arity, params)


def test_tree_validated_without_parameters():
    assert evaluate_formula(F5, ["=", ["var", 0], ["var", 1]], 1, 1, []) == []
    with pytest.raises(ValueError, match="unbound variable 2"):
        evaluate_formula(F5, ["=", ["var", 0], ["var", 2]], 1, 1, [])


def test_masks_follow_the_lexicographic_x_grid():
    # universe order, not value order
    struct = FiniteStructure((30, 10, 20), {"R": (2, {(10, 20), (20, 30)})})
    masks = evaluate_formula(struct, ["rel", "R", ["var", 0], ["var", 1]], 2, 0, [()])
    grid = list(itertools.product(struct.universe, repeat=2))
    assert masks == [sum(1 << j for j, x in enumerate(grid) if x in {(10, 20), (20, 30)})]
    phi = ["rel", "R", ["var", 1], ["var", 0]]
    assert evaluate_formula(struct, phi, 1, 1, [(30,), (10,), (20,)]) == [0, 0b100, 0b001]


class _CountingField:
    """F_5 that records every const_index argument."""

    def __init__(self):
        self.seen = []
        self.universe = F5.universe

    def const_index(self, v):
        self.seen.append(v)
        return F5.const_index(v)

    def tables(self):
        return F5.tables()


def test_const_index_once_per_distinct_int():
    field = _CountingField()
    params = [(0, 7), (7, 0), (0, 0), (12, 7)]
    got = evaluate_formula(field, ["=", ["var", 0], ["var", 1]], 0, 2, params)
    assert got == [0, 0, 1, 1]  # 12 and 7 are both 2 in F_5
    assert sorted(field.seen) == [0, 7, 12]


@pytest.mark.parametrize(
    "structure, params, message",
    [
        (F5, [(1,), (True,)], "constant True is not an integer"),
        (F5, [(2,), (1.0,)], "constant 1.0 is not an integer"),
        (STRUCT, [(10,), (True,)], "constant True not in universe"),
        (STRUCT, [(20.0,)], "constant 20.0 not in universe"),
        (STRUCT, [(40,)], "constant 40 not in universe"),
    ],
)
def test_parameter_elements_go_through_const_index(structure, params, message):
    with pytest.raises(ValueError, match=message):
        evaluate_formula(structure, ["true"], 0, 1, params)


def test_finite_structure_universe_is_mapped():
    assert truth(STRUCT, ["rel", "R", ["var", 0], ["func", "f", ["var", 0]]], (10,))
    assert not truth(STRUCT, ["rel", "R", ["var", 0], ["var", 0]], (10,))
    assert truth(STRUCT, ["=", ["func", "f", ["const", 30]], ["const", 10]])
    # 30 has no R-successor
    assert not truth(STRUCT, ["exists", 1, ["rel", "R", ["var", 0], ["var", 1]]], (30,))


# ---------------------------------------------------------------- oracle


@st.composite
def terms(draw, scope, functions, consts, depth):
    kinds = (["var"] if scope else []) + ["const"]
    if depth > 0 and functions:
        kinds.append("fn")
    kind = draw(st.sampled_from(kinds))
    if kind == "var":
        return ["var", draw(st.sampled_from(sorted(scope)))]
    if kind == "const":
        return ["const", draw(st.sampled_from(consts))]
    name, arity, ring = draw(st.sampled_from(functions))
    args = [draw(terms(scope, functions, consts, depth - 1)) for _ in range(arity)]
    return [name, *args] if ring else ["func", name, *args]


@st.composite
def trees(draw, scope, sig, depth, nvars):
    functions, relations, consts = sig
    kinds = ["true", "false", "="] + (["rel"] if relations else [])
    if depth > 0:
        kinds += ["and", "or", "not", "exists", "forall"]
    kind = draw(st.sampled_from(kinds))
    if kind in ("true", "false"):
        return [kind]
    if kind == "=":
        return ["=", draw(terms(scope, functions, consts, 2)),
                draw(terms(scope, functions, consts, 2))]
    if kind == "rel":
        name, arity = draw(st.sampled_from(relations))
        return ["rel", name,
                *(draw(terms(scope, functions, consts, 1)) for _ in range(arity))]
    if kind == "not":
        return ["not", draw(trees(scope, sig, depth - 1, nvars))]
    if kind in ("and", "or"):
        count = draw(st.integers(0, 3))
        return [kind, *(draw(trees(scope, sig, depth - 1, nvars)) for _ in range(count))]
    i = draw(st.integers(0, nvars))
    return [kind, i, draw(trees(scope | {i}, sig, depth - 1, nvars))]


RING = [("+", 2, True), ("*", 2, True), ("-", 2, True), ("neg", 1, True),
        ("+", 2, False)]


def assert_matches_walker(structure, node, kx, kp):
    xs, params = (list(itertools.product(structure.universe, repeat=k)) for k in (kx, kp))
    got = evaluate_formula(structure, node, kx, kp, params)
    assert len(got) == len(params)
    for mask, b in zip(got, params):
        assert mask >> len(xs) == 0
        for j, x in enumerate(xs):
            want = formula_walker.evaluate_formula(structure, node, dict(enumerate(x + b)))
            assert bool(mask >> j & 1) == want, (node, x, b)


@st.composite
def field_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    kx = draw(st.integers(1, 2))
    kp = draw(st.integers(0, 1))
    sig = (RING, [], list(range(-2, 9)))
    node = draw(trees(frozenset(range(kx + kp)), sig, 3, kx + kp + 1))
    return FieldStructure.for_prime(p), node, kx, kp


@st.composite
def structure_cases(draw):
    size = draw(st.integers(1, 4))
    if draw(st.booleans()):
        uni = tuple(range(size))
    else:
        uni = tuple(draw(st.lists(st.integers(-50, 50), min_size=size,
                                  max_size=size, unique=True)))
    values = st.sampled_from(uni)

    def table(arity):
        return {args: draw(values) for args in itertools.product(uni, repeat=arity)}

    def rows(arity):
        cells = list(itertools.product(uni, repeat=arity))
        return {r for r in cells if draw(st.booleans())}

    functions = {"f": (1, table(1)), "g": (2, table(2)), "+": (2, table(2)),
                 "c": (0, table(0))}
    relations = {"P": (1, rows(1)), "R": (2, rows(2)), "T": (0, rows(0))}
    structure = FiniteStructure(uni, relations, functions)
    kx = draw(st.integers(1, 2))
    kp = draw(st.integers(0, 1))
    sig = ([("f", 1, False), ("g", 2, False), ("+", 2, True), ("c", 0, False)],
           [("P", 1), ("R", 2), ("T", 0)], list(uni))
    node = draw(trees(frozenset(range(kx + kp)), sig, 3, kx + kp + 1))
    return structure, node, kx, kp


@settings(max_examples=200, deadline=None)
@given(field_cases())
def test_array_evaluator_matches_walker_over_fields(case):
    assert_matches_walker(*case)


@settings(max_examples=200, deadline=None)
@given(structure_cases())
def test_array_evaluator_matches_walker_over_structures(case):
    assert_matches_walker(*case)


def test_chunk_boundaries_do_not_change_results(monkeypatch):
    F7 = FieldStructure.for_prime(7)
    phi = ["or", ["exists", 4, ["=", ["*", ["var", 4], ["var", 4]],
                                ["+", ["var", 0], ["var", 2]]]],
           ["=", ["var", 1], ["*", ["var", 3], ["var", 0]]]]
    params = list(itertools.product(range(7), repeat=2))
    whole = evaluate_formula(F7, phi, 2, 2, params)
    for cells in (1, 7, 50, 343):
        monkeypatch.setattr(formulas, "_CHUNK_CELLS", cells)
        assert evaluate_formula(F7, phi, 2, 2, params) == whole
