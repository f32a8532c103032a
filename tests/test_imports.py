"""Which modules each README command loads, read from sys.modules.

The CLI must start without sympy on every command, without numpy on the
commands that never evaluate a formula, without `dataclasses` and the
`inspect` it pulls in, and without the library modules a command does not
run.  The checks look at module sets, not times, so they
do not depend on the machine.
"""

import json
import subprocess
import sys

import pytest

from conftest import subprocess_env

# runs one command, then prints the names in sys.modules
DRIVER = """
import json, sys
from fhplab import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
# a command that exits 2 stops before the code whose imports are checked
assert code in (0, 1), code
print(json.dumps(sorted(sys.modules)))
"""

README_COMMANDS = [
    "analyze --family {fam} --k 2 --alpha 2/3 --pk 4",
    "lp --family {fam}",
    "vc --family {fam} --dual-sizes 2,3,4",
    "construct block --k 2 --r 3 --m 4 --verify",
    "construct shattered --m 4",
    "construct furedi --family {triples} --trials 100 --seed 7",
    "sqf count --shifts 0,2,6 --window 1000 --tail-prime 10007",
    "sqf psat --shifts 0,1,2,3 --p 2",
    "sqf dickson --forms 1,0;1,2;1,6",
    "ff lines --p 5 --k 2 --alpha 1/2",
    "ff fit --count 31 --q 31 --n 2",
    "count-types --family {fam} --m 1 --k 2 --l 4",
]
# command prefixes that never build a numpy array
NUMPY_FREE = (
    "construct", "analyze", "lp", "sqf", "vc", "ff fit", "ff lines",
    "count-types --family",
)
# slow standard modules no command needs: dataclasses imports inspect,
# which imports ast, dis and tokenize
STARTUP_FREE = ("dataclasses", "inspect")
# each handler imports only the library modules it runs
LIBRARY = {
    "fhplab.constructs", "fhplab.formulas", "fhplab.fraclp", "fhplab.pseudofield",
    "fhplab.sqfint", "fhplab.typecount", "fhplab.vc",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    docs = {
        "fam": {"ground": 6, "sets": [[0, 1, 2], [1, 2, 3], [2, 4], [0, 5]]},
        "triples": {"ground": 6, "sets": [[0, 1, 2], [1, 3, 4], [2, 4, 5]]},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(root / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    paths["out"] = str(root / "report.json")
    return paths


# imports one module, then prints the names in sys.modules
IMPORT_DRIVER = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(sys.modules)))
"""


def loaded_modules(argv, driver=DRIVER):
    proc = subprocess.run(
        [sys.executable, "-c", driver, *argv],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_command_imports(command, inputs):
    argv = command.format(**inputs).split() + ["--output", inputs["out"]]
    modules = loaded_modules(argv)
    assert "fhplab" in modules
    assert "sympy" not in modules
    assert not modules.intersection(STARTUP_FREE)
    if command.startswith(NUMPY_FREE):
        assert "numpy" not in modules


def test_count_types_family_l_values_loads_no_numpy(inputs):
    # a family's instance masks are its own masks: nothing is evaluated
    argv = ["count-types", "--family", inputs["fam"], "--m", "1", "--k", "2",
            "--l-values", "2,3,4", "--output", inputs["out"]]
    modules = loaded_modules(argv)
    assert "fhplab.typecount" in modules
    assert "numpy" not in modules


def test_count_types_structure_loads_numpy(inputs, tmp_path):
    # every formula goes through the evaluator, a bare relation atom too
    docs = {
        "structure": {"universe_size": 3,
                      "relations": {"R": {"arity": 2, "bits": "110011001"}}},
        "phi": ["rel", "R", ["var", 0], ["var", 1]],
        "pool": [[0], [1], [2]],
    }
    argv = ["count-types"]
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv += [f"--{name}", str(path)]
    argv += ["--m", "1", "--k", "2", "--l", "2", "--output", inputs["out"]]
    assert "numpy" in loaded_modules(argv)


def test_construct_loads_no_lp_or_type_counting(inputs):
    argv = ["construct", "block", "--k", "2", "--r", "3", "--m", "4", "--verify"]
    modules = loaded_modules(argv + ["--output", inputs["out"]])
    assert "fhplab.constructs" in modules
    assert not modules & LIBRARY - {"fhplab.constructs"}


def test_bare_cli_import_is_light():
    modules = loaded_modules(["--version"])
    assert "sympy" not in modules
    assert not modules.intersection(STARTUP_FREE)
    assert "numpy" not in modules
    assert not modules & LIBRARY


def test_package_import_loads_no_submodule():
    modules = loaded_modules(["fhplab"], driver=IMPORT_DRIVER)
    assert "fhplab" in modules
    assert not {m for m in modules if m.startswith("fhplab.")}


@pytest.mark.parametrize(
    "module",
    ["fhplab.formulas", "fhplab.typecount", "fhplab.sqfint", "fhplab.vc",
     "fhplab.pseudofield"],
)
def test_formula_modules_import_without_numpy(module):
    # numpy loads only when a formula is evaluated, not when a field is
    # built; sqfint and vc never load it
    modules = loaded_modules([module], driver=IMPORT_DRIVER)
    assert module in modules
    assert "numpy" not in modules


# builds F_61 and its lines, then asks for the field's tables
FIELD_DRIVER = """
import json, sys
from fhplab.pseudofield import FieldStructure, line_family
field = FieldStructure.for_prime(61)
assert line_family(field).n == 61 * 61
before = "numpy" in sys.modules
field.tables()
print(json.dumps([before, "numpy" in sys.modules]))
"""


def test_field_tables_load_numpy_on_first_use():
    proc = subprocess.run(
        [sys.executable, "-c", FIELD_DRIVER],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    assert json.loads(proc.stdout) == [False, True]
