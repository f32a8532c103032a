"""Golden reports: fixed commands whose stdout must stay byte-identical.

Each case runs `cli.main` in process and compares stdout, byte for byte,
with `tests/golden/<name>.out`, and the exit code with the one recorded
next to it.  The inputs live in `tests/golden/` as well.  A change that
alters one of these files changes a report, and must say so.
"""

import os

import pytest

from fhplab.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# name -> argv, with {dir} standing for the golden directory
CASES = {
    "ff_lines_p11": "ff lines --p 11 --k 2 --alpha 1/2",
    "ff_lines_p31": "ff lines --p 31 --k 2 --alpha 1/2",
    "ff_custom_quadric": (
        "ff custom --p 13 --phi {dir}/quadric_phi.json --x-arity 2"
        " --psi {dir}/quadric_psi.json --y-arity 2 --k 2 --alpha 1/3"
    ),
    "ff_custom_exists": (
        "ff custom --p 11 --phi {dir}/exists_phi.json --x-arity 2"
        " --psi {dir}/exists_psi.json --y-arity 1 --e 1 --k 3 --alpha 1/4"
    ),
    "count_types_family": "count-types --family {dir}/fam.json --m 1 --k 2 --l 4",
    "count_types_structure": (
        "count-types --structure {dir}/structure.json"
        " --phi {dir}/structure_phi.json --pool {dir}/structure_pool.json"
        " --m 2 --k 2 --l 4"
    ),
}


def golden_argv(name):
    return CASES[name].format(dir=GOLDEN).split()


def read_expected(name):
    with open(os.path.join(GOLDEN, f"{name}.out"), "rb") as fh:
        out = fh.read()
    with open(os.path.join(GOLDEN, f"{name}.code"), "r", encoding="ascii") as fh:
        code = int(fh.read())
    return out, code


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, capsysbinary):
    want_out, want_code = read_expected(name)
    code = main(golden_argv(name))
    assert capsysbinary.readouterr().out == want_out
    assert code == want_code
