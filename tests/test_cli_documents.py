"""Input documents: a malformed one is an input error, never a traceback.

Every JSON document the CLI reads (`--family`, `--system`, `--formula`,
`--structure`, `--pool`, `--phi`) goes through a reader that must turn
any shape into a report or a one-line `error:` with exit 2.  The fuzz
test writes arbitrary JSON values to one flag at a time and keeps every
other input small and fixed, so each example runs in milliseconds: dict
keys come mostly from the documents' own vocabulary, integers stay in
[-2, 5], and a fuzzed formula runs over two elements, so its quantifier
nest stays small.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fhplab._jsonutil import to_json
from fhplab.cli import main
from fhplab.sqfint import GSystem

from conftest import run_cli

STRUCTURE = {
    "universe_size": 2,
    "relations": {"R": {"arity": 2, "bits": "0110"}},
    "functions": {"f": {"arity": 1, "table": [1, 0]}},
}
PHI = ["or", ["rel", "R", ["var", 0], ["var", 1]],
       ["=", ["func", "f", ["var", 0]], ["var", 1]]]
POOL = [[0], [1]]
FAMILY = {"ground": 4, "sets": [[0, 1], [1, 2], [2, 3]]}


def _argv(flag, doc, fixed):
    """argv reading the document at doc through flag; fixed holds valid
    files for the command's other documents."""
    structure_mode = [
        "count-types", "--structure", fixed["structure"], "--phi", fixed["phi"],
        "--pool", fixed["pool"], "--m", "1", "--k", "2", "--l", "1",
    ]
    if flag == "--family":
        return ["analyze", "--family", doc, "--k", "2", "--alpha", "1/2"]
    if flag == "--system":
        return ["sqf", "count", "--system", doc, "--window", "30"]
    if flag == "--formula":
        return ["sqf", "density", "--formula", doc, "--tail-prime", "11"]
    if flag in ("--structure", "--phi", "--pool"):
        argv = list(structure_mode)
        argv[argv.index(flag) + 1] = doc
        return argv
    if flag == "--phi (ff custom)":
        return ["ff", "custom", "--p", "2", "--phi", doc, "--x-arity", "1",
                "--psi", fixed["psi"], "--y-arity", "1", "--k", "2",
                "--alpha", "1/2"]
    raise AssertionError(flag)


@pytest.fixture(scope="module")
def fixed(tmp_path_factory):
    root = tmp_path_factory.mktemp("documents")
    paths = {}
    for name, doc in (("structure", STRUCTURE), ("phi", PHI), ("pool", POOL),
                      ("psi", ["true"]), ("family", FAMILY)):
        paths[name] = str(root / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    paths["doc"] = str(root / "doc.json")
    return paths


def _run(argv):
    """(exit code, stdout, stderr) of cli.main; an exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("doc", [5, [], {}], ids=json.dumps)
@pytest.mark.parametrize("flag", ["--system", "--formula", "--structure", "--pool"])
def test_malformed_document_is_input_error(flag, doc, fixed):
    with open(fixed["doc"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, out, err = _run(_argv(flag, fixed["doc"], fixed))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert fixed["doc"] in err


BAD_NUMBERS = {"formula": {
    "lead_k": 1, "modulus_m": 1, "positive_slots": 1,
    "p_conditions": {"3": {"op": "notinU", "form": {"coeffs": {"x": 1.5},
                                                    "const": "2"},
                           "level": 1.9}}},
    "c": [0]}


@pytest.mark.parametrize(
    "flag, doc",
    [
        # a condition's numbers are integers, never truncated or parsed
        ("--system", BAD_NUMBERS),
        # a universe above X_CAP is refused before it is built
        ("--structure", {"universe_size": 2000000}),
        # one table entry per tuple of universe^arity, no more
        ("--structure", {**STRUCTURE,
                         "functions": {"f": {"arity": 1, "table": [1, 0, 1]}}}),
        # JSON true and false are not the integers 1 and 0
        ("--family", {"ground": 3, "sets": [[True, 2], [1, 2], [0, False]]}),
        ("--family", {"ground": True, "sets": [[0], [0]]}),
        ("--structure", {**STRUCTURE,
                         "functions": {"f": {"arity": True, "table": [1, 0]}}}),
        # every parameter tuple has one length
        ("--pool", [[0], [0, 1]]),
    ],
    ids=["float-condition", "huge-universe", "long-table", "bool-element",
         "bool-ground", "bool-arity", "mixed-pool"],
)
def test_document_over_its_grammar_is_input_error(flag, doc, fixed):
    with open(fixed["doc"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, out, err = _run(_argv(flag, fixed["doc"], fixed))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "tables, message",
    [
        ({"relations": {"R": {"arity": 10**9, "bits": "0"}}},
         "relation 'R': arity 1000000000 outside 0..16"),
        # a function arity is tested only where it is refused before an
        # itertools.product over it, which holds arity references
        ({"functions": {"f": {"arity": 17, "table": [0]}}},
         "function 'f': arity 17 outside 0..16"),
    ],
    ids=["relation", "function"],
)
def test_arity_refused_before_built(tables, message, fixed, tmp_path):
    """|U|**arity is never built above ARITY_CAP; run as a subprocess so a
    regression fails on the timeout instead of hanging."""
    doc = tmp_path / "structure.json"
    doc.write_text(json.dumps({"universe_size": 3, **tables}))
    proc = run_cli(*_argv("--structure", str(doc), fixed), timeout=20)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {doc}: {message}\n"


def _nested_not(depth):
    cond = {"op": "true"}
    for _ in range(depth):
        cond = {"op": "not", "item": cond}
    return cond


@pytest.mark.parametrize(
    "flag, text",
    [
        # the JSON decoder itself runs out of recursion depth
        ("--family", '{"ground": 3, "sets": ' + "[" * 5000 + "]" * 5000 + "}"),
        # decoded, but deeper than COND_DEPTH, which every tree walk recurses
        ("--system", json.dumps({
            "formula": {"lead_k": 1, "modulus_m": 1, "positive_slots": 1,
                        "p_conditions": {"3": _nested_not(600)}},
            "c": [0]})),
    ],
    ids=["nested-lists", "nested-not"],
)
def test_deeply_nested_document_is_input_error(flag, text, fixed):
    with open(fixed["doc"], "w", encoding="utf-8") as fh:
        fh.write(text)
    code, out, err = _run(_argv(flag, fixed["doc"], fixed))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {fixed['doc']}: ")


@pytest.mark.parametrize("flag", ["--family", "--structure", "--phi", "--pool"])
def test_valid_documents_run(flag, fixed):
    """The fixed documents are valid, so the fuzz reaches each reader's
    document and not a neighbour's."""
    code, out, _ = _run(_argv(flag, fixed[flag[2:]], fixed))
    assert code in (0, 1)
    assert json.loads(out)["tool"] == "fhplab"


VOCABULARY = [
    "ground", "sets", "labels", "tool", "report", "fhplab",
    "formula", "c", "c_prime", "nontrivial", "lead_k", "modulus_m",
    "positive_slots", "negative_slots", "p_conditions", "op", "form",
    "coeffs", "const", "level", "items", "item", "notinU", "and", "or",
    "not", "true", "false", "x", "z0", "zp0", "2", "3", "5",
    "universe_size", "relations", "functions", "arity", "bits", "table",
    "R", "f", "01", "0110", "var", "=", "rel", "func", "exists", "forall",
    "+", "*", "-", "neg",
]
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.floats(-2, 5, allow_nan=False)
    | st.sampled_from(VOCABULARY)
    | st.text(max_size=3)
)
KEYS = st.sampled_from(VOCABULARY) | st.text(alphabet="abz_", max_size=2)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(KEYS, inner, max_size=5),
    max_leaves=10,
)
FLAGS = ["--family", "--system", "--formula", "--structure", "--pool",
         "--phi", "--phi (ff custom)"]
# condition trees: the node shapes of the tree grammar, with fuzzed leaves
FORMS = st.fixed_dictionaries({}, optional={
    "coeffs": st.dictionaries(st.sampled_from(["x", "z0", "zp0", "z5"]),
                              SCALARS, max_size=3),
    "const": SCALARS,
})
ATOMS = (
    st.fixed_dictionaries({"op": st.just("notinU"), "form": FORMS,
                           "level": SCALARS})
    | st.just({"op": "true"})
    | DOCUMENTS
)
TREES = st.recursive(
    ATOMS,
    lambda inner: st.fixed_dictionaries({
        "op": st.sampled_from(["and", "or"]),
        "items": st.lists(inner, max_size=3)})
    | st.fixed_dictionaries({"op": st.just("not"), "item": inner}),
    max_leaves=6,
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(flag=st.sampled_from(FLAGS), doc=DOCUMENTS)
def test_fuzzed_document_exits_cleanly(flag, doc, fixed):
    with open(fixed["doc"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, _, err = _run(_argv(flag, fixed["doc"], fixed))
    assert code in (0, 1, 2)
    if code == 2:
        assert err.splitlines()[-1].startswith("error: ")


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(p=st.sampled_from(["2", "3", "5", "4", "x"]), tree=TREES)
def test_fuzzed_condition_tree_exits_cleanly(p, tree, fixed):
    """A fuzzed tree inside an otherwise valid --system document: a report
    whose system reads back to itself, or an input error."""
    doc = {"formula": {"lead_k": 1, "modulus_m": 1, "positive_slots": 1,
                       "negative_slots": 1, "p_conditions": {p: tree}},
           "c": [0], "c_prime": [1]}
    with open(fixed["doc"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, out, err = _run(_argv("--system", fixed["doc"], fixed))
    assert code in (0, 2)
    if code == 2:
        assert err.splitlines()[-1].startswith("error: ")
        return
    system = json.loads(out)["report"]["system"]
    assert to_json(GSystem.from_json_dict(system)) == system
