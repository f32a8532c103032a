"""The report encoder: its value rules, and the reports no CLI command prints.

The golden files pin every report a subcommand writes.  The colorful,
measure, dividing and power-saving reports, and a few edge cases of the
others, are reached only from the library, so their encoding is pinned
here by a digest taken from the hand-written `to_json_dict` methods that
`to_json` replaced.
"""

import hashlib
import json
from fractions import Fraction as F
from typing import NamedTuple

from fhplab import fraclp, pseudofield, setfam, sqfint, typecount, vc
from fhplab._jsonutil import SCHEMA_VERSION, to_json


class Plain(NamedTuple):
    b: F
    a: frozenset


class Ints(NamedTuple):
    y: int
    x: int


class Shaped:
    """Names its fields, but its own shape wins."""

    _fields = ("x",)

    def __init__(self, x: int):
        self.x = x

    def to_json_dict(self):
        return {"x": (self.x, F(self.x, 2))}


class Named:
    """A plain class encoded field by field, in the order it names."""

    _fields = ("z", "y")

    def __init__(self, y, z):
        self.y = y
        self.z = z


def test_value_rules():
    assert to_json(F(-6, 4)) == {"num": -3, "den": 2}
    assert to_json(frozenset({3, 1, 2})) == [1, 2, 3]
    assert to_json({2: (1, {5, 4}), 1: None}) == {"2": [1, [4, 5]], "1": None}
    assert list(to_json({2: 0, 1: 0})) == ["2", "1"]
    assert to_json(Plain(F(1, 3), frozenset({2, 0}))) == {
        "schema": SCHEMA_VERSION,
        "b": {"num": 1, "den": 3},
        "a": [0, 2],
    }
    assert to_json(Shaped(3)) == {"x": [3, {"num": 3, "den": 2}]}
    assert list(to_json(Named(F(1, 2), (4, 3)))) == ["schema", "z", "y"]
    assert to_json(Named(F(1, 2), (4, 3)))["y"] == {"num": 1, "den": 2}
    assert to_json([True, "s", 7, None]) == [True, "s", 7, None]


def test_int_lists_copied_and_mixed_lists_encoded():
    ints = (3, 1, 2)
    out = to_json(ints)
    assert out == [3, 1, 2] and type(out) is list
    assert to_json([1, F(1, 2)]) == [1, {"num": 1, "den": 2}]
    assert to_json([2, {5, 4}]) == [2, [4, 5]]
    assert to_json([1, True]) == [1, True]


def test_named_tuples_encode_as_objects():
    plain = {"schema": SCHEMA_VERSION, "b": {"num": 1, "den": 3}, "a": [0, 2]}
    # inside a list, a NamedTuple is still an object, not a nested list
    assert to_json([Plain(F(1, 3), frozenset({2, 0}))]) == [plain]
    # all-int fields never take the int-list fast path
    assert to_json(Ints(2, 1)) == {"schema": SCHEMA_VERSION, "y": 2, "x": 1}
    assert to_json((Ints(2, 1),)) == [{"schema": SCHEMA_VERSION, "y": 2, "x": 1}]
    # plain int tuples are still lists
    out = to_json((2, 1))
    assert out == [2, 1] and type(out) is list
    assert to_json(((2, 1), (3,))) == [[2, 1], [3]]


def _library_reports():
    field = pseudofield.FieldStructure.for_prime(5)
    specs = [
        (["=", ["var", 1], ["+", ["*", ["var", 2], ["var", 0]], ["var", 3]]],
         2, ["true"], 2, ()),
        (["=", ["var", 0], ["var", 2]], 2, ["true"], 2, ()),
    ]
    fam = setfam.SetFamily(5, [{0, 1}, {1, 2}, {2, 3}, {0, 3, 4}, {4}])
    weights = setfam.RationalWeights({0: F(1, 2), 3: F(1, 4), 4: F(1, 4)})
    out = {
        "colorful_ff": pseudofield.colorful_ff_experiment(field, specs, F(1, 3)),
        "colorful": setfam.colorful_check([fam, fam], F(1, 2)),
        "measure": setfam.measure_fhp_check(fam, weights, 2, F(1, 3)),
        "fhp": setfam.check_fhp_instance(fam, 2, F(1, 2)),
        "cons": setfam.cons_k(fam, 2),
        "fit": pseudofield.dim_meas_fit(0, 5, 2),
    }
    s, phi, pool = typecount.structure_from_family(fam)
    for l in (2, 3):
        out[f"count{l}"] = typecount.f_phi(s, phi, 1, 1, 2, pool, l)
    out["power"] = typecount.power_saving_probe(s, phi, 1, 1, 2, pool, [2, 3, 4], 2)
    for i, p in enumerate(typecount.enumerate_types(s, phi, 1, pool, 1)[:3]):
        for budget in (1, 200000):
            out[f"div{i}_{budget}"] = typecount.internal_dividing_check(
                s, phi, 1, p, pool, pool, [], 2, 2, budget=budget
            )
    out["tr_empty"] = fraclp.fractional_transversal(setfam.SetFamily(3, []))
    out["tr_inf"] = fraclp.fractional_transversal(
        setfam.SetFamily(3, [set(), {1}])
    )
    out["tr_cap"] = fraclp.fractional_transversal(fam, integer_cap=3)
    out["vc_plain"] = vc.vc_dimension(fam, 3)
    # degenerate: the tail bound 1 - 2*5/7 leaves no lower bound
    out["cert_degenerate"] = sqfint.density_certificate(
        sqfint.shift_system([0, 1, 2, 3, 4]).formula, 7
    )
    return out


def test_library_reports_pinned():
    text = json.dumps({k: to_json(v) for k, v in _library_reports().items()})
    digest = hashlib.sha256(text.encode()).hexdigest()
    # tr_cap's weights are the packing LP's dual vertex, the cover {0, 2, 4}
    assert digest == "62e739c21c8afb7dacbe41d4c2a39af2b09b33a85e151c5bb9c332ef7a7962c9"
