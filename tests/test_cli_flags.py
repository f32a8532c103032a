"""Flag values: an out-of-range one is an input error, never a traceback.

Each subcommand runs against small fixed documents while hypothesis
draws its integer, fraction and list flags: integers from [-2, 5],
fractions that include `1/0` and a non-number, lists that may be empty.
Integers stop at 5 because the builders' bit loops are quadratic
(`construct tp2 --k 6 --m 6` fits under SIZE_CAP and still takes
seconds).  Values are passed as `--flag=value`, so a negative number or
list is never mistaken for an option.  Every run must exit 0, 1 or 2;
exit 2 prints nothing on stdout and ends stderr with an `error:` line,
and exits 0 and 1 print exactly one report envelope.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fhplab.cli import main

FAMILY = {"ground": 4, "sets": [[0, 1], [1, 2], [2, 3]]}
FORMULA = {
    "lead_k": 1, "modulus_m": 1, "positive_slots": 2,
    "p_conditions": {"5": {"op": "notinU", "form": {"coeffs": {"x": 1}},
                           "level": 1}},
}
STRUCTURE = {"universe_size": 2,
             "relations": {"R": {"arity": 2, "bits": "0110"}}}
PHI = ["rel", "R", ["var", 0], ["var", 1]]
POOL = [[0], [1]]
# psi pins y0 = 0, so ff custom has at most p^2 members at y arity 3
PSI = ["=", ["var", 0], ["const", 0]]
ENVELOPE = ("schema", "tool", "version", "command", "seed", "caps", "report")

INT = st.integers(-2, 5).map(str)
FRACTION = st.sampled_from(
    ["0", "1", "1/2", "2/3", "3/2", "-1/2", "5", "1/0", "x"]
)
INTS = st.lists(st.integers(-2, 5), max_size=4)
LIST = INTS.map(lambda vs: ",".join(map(str, vs)))
FORMS = st.lists(st.tuples(st.integers(-2, 5), st.integers(-2, 5)),
                 max_size=3).map(lambda fs: ";".join(f"{a},{b}" for a, b in fs))
PARAMS = st.lists(INTS, max_size=3).map(
    lambda ls: ";".join(",".join(map(str, vs)) for vs in ls))

COUNT_TYPES = {"--x-arity": INT, "--d": INT, "--samples": INT, "--l": INT,
               "--l-values": LIST}
BUILD = {"--verify": st.just(None)}
# subcommand -> (fixed argv with {name} for a document path, required
# flags, optional flags)
COMMANDS = {
    "analyze": ("analyze --family {family}",
                {"--k": INT, "--alpha": FRACTION}, {"--pk": INT}),
    "lp": ("lp --family {family}", {}, {"--integer-cap": INT}),
    "vc": ("vc --family {family}", {}, {"--cap": INT, "--dual-sizes": LIST}),
    "construct block": (
        "construct block", {"--k": INT, "--r": INT, "--m": INT},
        {"--alpha": FRACTION, "--gamma": FRACTION, "--pprime": INT,
         "--kprime": INT, **BUILD}),
    "construct tp2": ("construct tp2", {"--k": INT, "--m": INT},
                      {"--d": INT, **BUILD}),
    "construct cross": ("construct cross", {"--n": INT}, BUILD),
    "construct caps": ("construct caps", {"--w": INT, "--depth": INT}, BUILD),
    "construct shattered": ("construct shattered", {"--m": INT}, BUILD),
    "construct furedi": ("construct furedi --family {family}", {},
                         {"--trials": INT}),
    "sqf count": ("sqf count", {"--shifts": LIST, "--window": INT},
                  {"--modulus": INT, "--tail-prime": INT}),
    "sqf psat": ("sqf psat", {"--shifts": LIST, "--p": INT},
                 {"--modulus": INT}),
    "sqf density": ("sqf density --formula {formula}",
                    {"--tail-prime": INT}, {}),
    "sqf dickson": ("sqf dickson", {"--forms": FORMS},
                    {"--prime-bound": INT}),
    "sqf experiment": (
        "sqf experiment --formula {formula}",
        {"--params": PARAMS, "--k": INT, "--alpha": FRACTION,
         "--window": INT}, {}),
    "ff lines": ("ff lines", {"--p": INT}, {"--k": INT, "--alpha": FRACTION}),
    "ff custom": (
        "ff custom --phi {phi} --psi {psi}",
        {"--p": INT, "--x-arity": INT, "--y-arity": INT, "--k": INT,
         "--alpha": FRACTION}, {"--e": LIST}),
    "ff fit": ("ff fit", {"--count": INT, "--q": INT, "--n": INT},
               {"--C": FRACTION}),
    "count-types family": ("count-types --family {family}",
                           {"--m": INT, "--k": INT}, COUNT_TYPES),
    "count-types structure": (
        "count-types --structure {structure} --phi {phi} --pool {pool}",
        {"--m": INT, "--k": INT}, COUNT_TYPES),
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("flags")
    out = {}
    for name, doc in (("family", FAMILY), ("formula", FORMULA),
                      ("structure", STRUCTURE), ("phi", PHI), ("pool", POOL),
                      ("psi", PSI)):
        out[name] = str(root / f"{name}.json")
        with open(out[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return out


def _flags(command):
    _, required, optional = COMMANDS[command]
    return st.fixed_dictionaries(
        {**required, "--seed": INT}, optional=optional
    )


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_flag_values_exit_cleanly(command, data, paths):
    flags = data.draw(_flags(command), label="flags")
    argv = COMMANDS[command][0].format(**paths).split()
    argv += [f if v is None else f"{f}={v}" for f, v in flags.items()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().splitlines()[-1].startswith("error: ")
    else:
        assert tuple(json.loads(out.getvalue())) == ENVELOPE
