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
    "count_types_l_values": (
        "count-types --family {dir}/fam.json --m 1 --k 2 --l-values 3,4,5,6"
    ),
    "analyze": "analyze --family {dir}/fam.json --k 2 --alpha 1/2",
    "analyze_pk": "analyze --family {dir}/fam.json --k 3 --alpha 1/4 --pk 3",
    "analyze_empty_member": (
        "analyze --family {dir}/empty_member.json --k 2 --alpha 3/4"
    ),
    "analyze_csv": (
        "analyze --family {dir}/fam.json --k 2 --alpha 1/2 --pk 3 --format csv"
    ),
    "lp": "lp --family {dir}/fam.json",
    "lp_integer_cap": "lp --family {dir}/fam.json --integer-cap 3",
    "lp_empty_member": "lp --family {dir}/empty_member.json",
    "lp_csv": "lp --family {dir}/fam.json --integer-cap 4 --format csv",
    "vc": "vc --family {dir}/fam.json",
    "vc_dual_exhaustive": "vc --family {dir}/fam.json --dual-sizes 1,2,3",
    "vc_dual_sampled": (
        "vc --family {dir}/dense.json --cap 3 --dual-sizes 2,4,8 --seed 7"
    ),
    "construct_block": "construct block --k 2 --r 3 --m 4 --verify",
    "construct_tp2": "construct tp2 --k 2 --m 3 --verify",
    "construct_cross": "construct cross --n 4 --verify",
    "construct_caps": "construct caps --w 2 --depth 3 --verify",
    "construct_shattered_verify": "construct shattered --m 4 --verify",
    "construct_shattered": "construct shattered --m 3",
    "construct_furedi_found": (
        "construct furedi --family {dir}/triples.json --trials 100 --seed 7"
    ),
    "construct_furedi_not_found": (
        "construct furedi --family {dir}/twin_pairs.json --trials 1 --seed 0"
    ),
    "sqf_count_shifts": "sqf count --shifts 0,2,6 --window 1000",
    "sqf_count_tail_prime": (
        "sqf count --shifts 0,1,3 --modulus 2 --window 2000 --tail-prime 101"
    ),
    "sqf_count_system": "sqf count --system {dir}/sqf_system.json --window 500",
    "sqf_psat": "sqf psat --system {dir}/sqf_system.json --p 3",
    "sqf_psat_unsat": "sqf psat --shifts 0,1,2,3 --p 2",
    "sqf_density": (
        "sqf density --formula {dir}/sqf_formula_pos.json --tail-prime 97"
        " --constants 0,2"
    ),
    "sqf_dickson": "sqf dickson --forms 1,0;1,2;1,6",
    "sqf_dickson_prime_bound": "sqf dickson --forms 1,0;1,2;1,4 --prime-bound 5",
    "sqf_experiment": (
        "sqf experiment --formula {dir}/sqf_formula_pos.json"
        " --params 0,2;1,3;4,6;5,7 --k 2 --alpha 1/2 --window 60"
    ),
    "sqf_experiment_negative": (
        "sqf experiment --formula {dir}/sqf_formula_neg.json"
        " --params 0,1;1,3;2,4;3,7 --k 2 --alpha 1/2 --window 60"
    ),
    "sqf_experiment_csv": (
        "sqf experiment --formula {dir}/sqf_formula_neg.json"
        " --params 0,1;1,3;2,4;3,7 --k 2 --alpha 1/2 --window 60 --format csv"
    ),
    "ff_fit": "ff fit --count 120 --q 11 --n 2 --C 1/2",
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
