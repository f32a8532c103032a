import argparse
import csv
import io
import json
import time
from fractions import Fraction
from math import comb

import pytest

from fhplab import constructs, setfam, typecount
from fhplab.cli import _render, _verify_construction, main, parse_family

from conftest import run_cli


def family_file(tmp_path, members, ground, name="fam.json"):
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "ground": ground,
                "sets": [sorted(m) for m in members],
            }
        )
    )
    return str(path)


def structure_files(tmp_path, size):
    """--structure/--phi/--pool argv for R = the even elements of range(size)."""
    structure = tmp_path / "structure.json"
    bits = "".join("1" if v % 2 == 0 else "0" for v in range(size))
    structure.write_text(json.dumps(
        {"universe_size": size, "relations": {"R": {"arity": 1, "bits": bits}}}
    ))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(["rel", "R", ["var", 0]]))
    pool = tmp_path / "pool.json"
    pool.write_text(json.dumps([[v] for v in range(size)]))
    return ["--structure", str(structure), "--phi", str(phi),
            "--pool", str(pool)]


@pytest.fixture
def triangle_path(tmp_path):
    return family_file(tmp_path, [{0, 1}, {1, 2}, {0, 2}], 3)


@pytest.fixture
def disjoint_path(tmp_path):
    return family_file(tmp_path, [{0}, {1}, {2}, {3}], 4)


def run_json(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestExitCodes:
    def test_analyze_pass(self, triangle_path, capsys):
        code, rep = run_json(
            ["analyze", "--family", triangle_path, "--k", "2",
             "--alpha", "2/3"],
            capsys,
        )
        assert code == 0
        assert rep["report"]["fhp"]["hypothesis_holds"]

    def test_analyze_fail_is_one(self, disjoint_path, capsys):
        code, rep = run_json(
            ["analyze", "--family", disjoint_path, "--k", "2",
             "--alpha", "1/2"],
            capsys,
        )
        assert code == 1
        assert not rep["report"]["fhp"]["hypothesis_holds"]

    def test_pk_failure_is_one(self, disjoint_path, capsys):
        code, rep = run_json(
            ["analyze", "--family", disjoint_path, "--k", "2",
             "--alpha", "0", "--pk", "2"],
            capsys,
        )
        assert code == 1
        assert rep["report"]["pk"]["holds"] is False

    def test_psat_unsat_is_one(self, capsys):
        code, rep = run_json(
            ["sqf", "psat", "--shifts", "0,1,2,3", "--p", "2"], capsys
        )
        assert code == 1
        assert rep["report"]["satisfiable"] is False

    def test_psat_sat_is_zero(self, capsys):
        code, rep = run_json(
            ["sqf", "psat", "--shifts", "0,4", "--p", "2"], capsys
        )
        assert code == 0
        assert rep["report"]["satisfiable"] is True

    def test_dickson_obstruction_is_one(self, capsys):
        code, rep = run_json(
            ["sqf", "dickson", "--forms", "1,0;1,2;1,4"], capsys
        )
        assert code == 1
        assert rep["report"]["admissible"] is False
        assert rep["report"]["obstruction"] == 3

    @pytest.mark.wallclock
    def test_fit_huge_n_is_refused(self):
        proc = run_cli("ff", "fit", "--count", "31", "--q", "31",
                       "--n", "100000", timeout=5)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: n * bit_length(q) = 500000 exceeds FIT_BITS_CAP 10000\n"
        )

    @pytest.mark.wallclock
    def test_dickson_huge_prime_bound_is_fast(self):
        # only the automatic candidates can obstruct, so the bound only
        # filters them; no prime up to it is scanned
        proc = run_cli("sqf", "dickson", "--forms", "1,0",
                       "--prime-bound", "1000000000", timeout=5)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["report"]["admissible"] is True

    @pytest.mark.parametrize("argv, message", [
        # no prime at all would be checked: "admissible" would be vacuous
        (["--forms", "1,0;1,1", "--prime-bound", "1"],
         "--prime-bound must be >= 2, got 1"),
        (["--forms", "1,0;1,1", "--prime-bound", "-5"],
         "--prime-bound must be >= 2, got -5"),
        (["--forms", "1"], "--forms: '1' is not a pair a,b of integers"),
        (["--forms", "1,0;1,2,3"],
         "--forms: '1,2,3' is not a pair a,b of integers"),
        (["--forms", "1,x"], "--forms: '1,x' is not a pair a,b of integers"),
    ])
    def test_dickson_bad_flags_are_two(self, argv, message, capsys):
        code = main(["sqf", "dickson", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_missing_file_is_two(self, capsys):
        code = main(["analyze", "--family", "/no/such/file.json",
                     "--k", "2", "--alpha", "1/2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("element", [[0], 3, -1, "0"], ids=json.dumps)
    def test_bad_element_is_one_error_line(self, element, tmp_path, capsys):
        # SetFamily checks each raw element before frozenset sees it, so an
        # unhashable one reads like any other
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"ground": 3, "sets": [[1], [2, element]]}))
        code = main(["analyze", "--family", str(path), "--k", "2",
                     "--alpha", "1/2"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: set 1: element {element!r} outside ground "
            "range [0, 3)\n"
        )

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"ground": 3,\n "sets": [[0], }')
        code = main(["analyze", "--family", str(bad), "--k", "2",
                     "--alpha", "1/2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2" in err


class TestCountTypesValidation:
    def test_family_and_structure_exclusive(self, triangle_path, capsys):
        code = main(["count-types", "--family", triangle_path,
                     "--structure", triangle_path,
                     "--m", "1", "--k", "2", "--l", "2"])
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_neither_source(self, capsys):
        code = main(["count-types", "--m", "1", "--k", "2", "--l", "2"])
        assert code == 2

    def test_structure_needs_phi_and_pool(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text("{}")
        code = main(["count-types", "--structure", str(path),
                     "--m", "1", "--k", "2", "--l", "2"])
        assert code == 2
        assert "--phi" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--phi", "/no/such/phi.json"],
        ["--pool", "/no/such/pool.json"],
        ["--x-arity", "3"],
        ["--x-arity", "1"],
    ])
    def test_family_mode_refuses_structure_flags(self, extra, triangle_path,
                                                 capsys):
        code = main(["count-types", "--family", triangle_path, *extra,
                     "--m", "1", "--k", "2", "--l", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: --family mode takes no --phi, --pool or --x-arity\n"
        )

    @pytest.mark.parametrize("x_arity", ["0", "-1"])
    def test_x_arity_below_one(self, x_arity, tmp_path, capsys):
        code = main(["count-types", *structure_files(tmp_path, 3), "--m", "1",
                     "--k", "2", "--l", "2", "--x-arity", x_arity])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: x_arity must be >= 1, got {x_arity}\n"

    @pytest.mark.parametrize("size, x_arity", [(3, "30000000"), (1, "100")])
    def test_x_arity_above_cap(self, size, x_arity, tmp_path, capsys):
        # refused before |U|**x_arity or an x_arity-dimensional grid exists
        started = time.monotonic()
        code = main(["count-types", *structure_files(tmp_path, size),
                     "--m", "1", "--k", "2", "--l", "1",
                     "--x-arity", x_arity])
        assert time.monotonic() - started < 5
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: x_arity {x_arity} exceeds X_ARITY_CAP 16\n"
        )

    def test_document_fault_comes_before_flag_fault(self, tmp_path, capsys):
        # the mask table is built before the counting flags are checked
        argv = structure_files(tmp_path, 3)
        (tmp_path / "phi.json").write_text(json.dumps(["rel", "R", ["const", 7]]))
        code = main(["count-types", *argv, "--m", "1", "--k", "2", "--l", "0"])
        assert code == 2
        assert capsys.readouterr().err == "error: constant 7 not in universe\n"

    def test_empty_l_values(self, triangle_path, capsys):
        code = main(["count-types", "--family", triangle_path,
                     "--m", "1", "--k", "2", "--l-values", ""])
        assert code == 2
        assert capsys.readouterr().err == "error: need at least three l values\n"

    def test_k_below_one(self, triangle_path, capsys):
        code = main(["count-types", "--family", triangle_path,
                     "--m", "1", "--k", "0", "--l", "2"])
        assert code == 2
        assert capsys.readouterr().err == "error: k must be >= 1\n"

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one(self, samples, tmp_path, capsys):
        # C(12, 6) = 924 parameter sets: sampled mode
        path = family_file(tmp_path, [{i} for i in range(12)], 12)
        code = main(["count-types", "--family", path, "--m", "1", "--k", "1",
                     "--l", "6", "--samples", samples])
        assert code == 2
        assert capsys.readouterr().err == "error: samples must be >= 1\n"

    def test_l_values_samples_below_one(self, triangle_path, capsys):
        code = main(["count-types", "--family", triangle_path, "--m", "1",
                     "--k", "2", "--l-values", "1,2,3", "--samples", "0"])
        assert code == 2
        assert capsys.readouterr().err == "error: samples must be >= 1\n"

    def test_l_and_l_values_exclusive(self, triangle_path, capsys):
        code = main(["count-types", "--family", triangle_path,
                     "--m", "1", "--k", "2", "--l", "2",
                     "--l-values", "2,3,4"])
        assert code == 2


class TestConstructRoundTrip:
    def test_shattered_output_parses(self, tmp_path, capsys):
        out = tmp_path / "sh.json"
        code = main(["construct", "shattered", "--m", "3",
                     "--output", str(out)])
        capsys.readouterr()
        assert code == 0
        body = json.loads(out.read_text())["report"]
        assert body["construction"] == "shattered"
        # report body doubles as a family document; extra keys ignored
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(json.dumps(body))
        fam = parse_family(str(fam_path))
        assert fam.n == len(body["sets"]) == 6
        assert all(len(m) == 2 for m in body["sets"])

    def test_saved_envelope_feeds_family_readers(self, tmp_path, capsys):
        # the README pipeline: construct --output, then --family on the file
        out = str(tmp_path / "fam.json")
        assert main(["construct", "shattered", "--m", "4", "--output", out]) == 0
        assert json.loads(open(out).read())["tool"] == "fhplab"
        assert parse_family(out).n == 12
        code, rep = run_json(["lp", "--family", out], capsys)
        assert code == 0
        assert rep["report"]["transversal"]["status"] == "optimal"
        code, rep = run_json(
            ["analyze", "--family", out, "--k", "2", "--alpha", "1/2"], capsys
        )
        assert rep["report"]["fhp"]["n"] == 12

    def test_block_verify_checks_cons(self, capsys):
        code, rep = run_json(
            ["construct", "block", "--k", "2", "--r", "3", "--m", "4",
             "--alpha", "3/5", "--verify"],
            capsys,
        )
        assert code == 0
        assert rep["report"]["verified"] is True

    def test_caps_verify_single_column(self, capsys):
        # W = 1: no row has two members, and the one branch is the chain
        code, rep = run_json(
            ["construct", "caps", "--w", "1", "--depth", "3", "--verify"],
            capsys,
        )
        assert code == 0
        assert rep["report"]["verified"] is True
        assert len(rep["report"]["sets"]) == 3

    def test_caps_verify_rejects_broken_families(self):
        opt = argparse.Namespace(w=2, depth=2)
        fam = constructs.build_caps_family(2, 2)
        assert _verify_construction("caps", opt, fam)
        members = list(fam.members)
        # rows overlap: F[0,1] also holds an element of F[0,0]
        overlap = members[:1] + [members[1] | members[0]] + members[2:]
        assert not _verify_construction(
            "caps", opt, setfam.SetFamily(fam.ground_size, overlap)
        )
        # one branch misses: F[1,1] loses every element under F[0,0]
        missing = members[:3] + [members[3] - members[0]]
        assert not _verify_construction(
            "caps", opt, setfam.SetFamily(fam.ground_size, missing)
        )

    def test_tp2_window_verify(self, capsys):
        # every point lies in k*(d-1) = 4 of the 8 members: best beta 2/4
        code, rep = run_json(
            ["construct", "tp2", "--k", "2", "--m", "4", "--d", "3", "--verify"],
            capsys,
        )
        assert code == 0
        assert rep["report"]["verified"] is True

    def test_cross_two_members_verify(self, capsys):
        # two members have no 3-subsets, so the 3-wise check holds vacuously
        code, rep = run_json(["construct", "cross", "--n", "2", "--verify"], capsys)
        assert code == 0
        assert rep["report"]["verified"] is True

    def test_block_default_alpha_valid(self, capsys):
        # default alpha must sit below the k=2, r=3 product bound of 2/3
        code, rep = run_json(
            ["construct", "block", "--k", "2", "--r", "3", "--m", "4"],
            capsys,
        )
        assert code == 0
        assert len(rep["report"]["sets"]) == 12

    def test_furedi_reports_target(self, triangle_path, capsys):
        code, rep = run_json(
            ["construct", "furedi", "--family", triangle_path,
             "--seed", "7"],
            capsys,
        )
        assert code == 0
        assert rep["report"]["construction"] == "furedi"
        assert rep["seed"] == 7


class TestOutputContract:
    def test_envelope_keys(self, triangle_path, capsys):
        _, rep = run_json(
            ["lp", "--family", triangle_path], capsys
        )
        assert set(rep) == {
            "schema", "tool", "version", "command", "seed", "caps", "report"
        }
        assert rep["tool"] == "fhplab"
        assert rep["command"] == "lp"

    def test_timing_flag_adds_runtime(self, triangle_path, capsys):
        _, plain = run_json(["lp", "--family", triangle_path], capsys)
        assert "runtime_seconds" not in plain
        _, timed = run_json(
            ["lp", "--family", triangle_path, "--timing"], capsys
        )
        assert timed["runtime_seconds"] >= 0

    def test_byte_identical_reruns(self, triangle_path, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code = main(["analyze", "--family", triangle_path, "--k", "2",
                         "--alpha", "1/2", "--seed", "11",
                         "--output", str(target)])
            assert code == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_csv_renders_fractions(self, triangle_path, capsys):
        code = main(["lp", "--family", triangle_path, "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        val = dict(line.split(",", 1) for line in lines[1:])
        assert val["report.intersection_number"] == "2/3"
        assert val["report.transversal.tau_star"] == "3/2"

    def test_csv_quotes_commas_and_quotes(self, capsys):
        code = main(["construct", "block", "--k", "2", "--r", "3", "--m", "4",
                     "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        rows = dict(csv.reader(io.StringIO(out)))
        assert rows["report.labels[1]"] == "S[0,1]"
        assert 'report.labels[1],"S[0,1]"\n' in out
        text = _render({"a": 'say "hi", twice'}, "csv")
        assert text == 'key,value\na,"say ""hi"", twice"\n'
        assert list(csv.reader(io.StringIO(text)))[1] == ["a", 'say "hi", twice']

    def test_output_into_missing_directory_is_two(self, triangle_path,
                                                  tmp_path, capsys):
        target = tmp_path / "missing" / "rep.json"
        code = main(["lp", "--family", triangle_path, "--output", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not target.parent.exists()

    def test_output_onto_directory_leaves_no_tmp(self, triangle_path,
                                                 tmp_path, capsys):
        target = tmp_path / "taken"
        target.mkdir()
        code = main(["lp", "--family", triangle_path, "--output", str(target)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.glob("*.tmp"))

    def test_output_file_written_whole(self, triangle_path, tmp_path,
                                       capsys):
        out = tmp_path / "rep.json"
        main(["vc", "--family", triangle_path, "--output", str(out)])
        capsys.readouterr()
        rep = json.loads(out.read_text())
        assert rep["command"] == "vc"
        assert not list(tmp_path.glob("*.tmp*"))


class TestCapsEnv:
    def test_size_cap_blocks_construction(self, capsys, monkeypatch):
        monkeypatch.setattr(setfam, "SIZE_CAP", 10)
        code = main(["construct", "tp2", "--k", "2", "--m", "5"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: ground size 25 exceeds SIZE_CAP 10\n"
        )

    def test_cross_checks_ground_size(self, capsys):
        # 501^2 = 251001 points: refused before any member is built
        code = main(["construct", "cross", "--n", "501"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: ground size 251001 exceeds SIZE_CAP 250000\n"
        )

    @pytest.mark.parametrize("command", [["analyze", "--k", "2", "--alpha", "1/2"], ["lp"]])
    def test_family_document_ground_capped(self, command, tmp_path, capsys):
        path = family_file(tmp_path, [{0, 1}, {1, 2}], 1000000000000)
        code = main([command[0], "--family", path, *command[1:]])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: ground size 1000000000000 exceeds SIZE_CAP 250000\n"
        )

    @pytest.mark.parametrize("argv, power", [
        (["tp2", "--k", "3000000", "--m", "3"], "3**3000000"),
        (["shattered", "--m", "30000000"], "2**30000000"),
        (["caps", "--w", "2", "--depth", "3000000"], "2**3000000"),
        (["block", "--k", "3000", "--r", "3000", "--m", "4"], "4**3000"),
    ])
    def test_power_refused_before_built(self, argv, power, capsys):
        started = time.monotonic()
        code = main(["construct", *argv])
        assert time.monotonic() - started < 5
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: ground size {power} exceeds SIZE_CAP 250000\n"
        )

    def test_type_cap_blocks_count(self, triangle_path, capsys,
                                   monkeypatch):
        monkeypatch.setattr(typecount, "TYPE_CAP", 1)
        code = main(["count-types", "--family", triangle_path,
                     "--m", "1", "--k", "2", "--l", "3"])
        assert code == 2
        # the enumeration's own partial count, not a made-up 0
        assert capsys.readouterr().err == (
            "error: type enumeration exceeded cap 1 (partial count 4)\n"
        )

    def test_cap_env_vars_ignored(self, capsys, monkeypatch):
        argv = ["construct", "tp2", "--k", "2", "--m", "3"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("FHPLAB_SIZE_CAP", "not-a-number")
        monkeypatch.setenv("FHPLAB_TYPE_CAP", "-1")
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == plain
        assert json.loads(out)["caps"] == {}


class TestMiscCommands:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "fhplab" in capsys.readouterr().out

    def test_ff_lines_values(self, capsys):
        code, rep = run_json(
            ["ff", "lines", "--p", "5", "--k", "2", "--alpha", "1/2"],
            capsys,
        )
        assert code == 0
        body = rep["report"]["report"]
        assert body["q"] == 5
        assert body["fhp"]["n"] == 25
        assert body["fhp"]["best_beta"] == {"num": 1, "den": 5}

    def test_sqf_count_window(self, capsys):
        code, rep = run_json(
            ["sqf", "count", "--shifts", "0", "--window", "1000"],
            capsys,
        )
        assert code == 0
        assert rep["report"]["count"] == 608

    def test_sqf_count_tail_prime(self, capsys):
        code, rep = run_json(
            ["sqf", "count", "--shifts", "0,2,6", "--window", "100000",
             "--tail-prime", "10007"],
            capsys,
        )
        assert code == 0
        assert rep["report"]["bound_holds"] is True
        cert = rep["report"]["certificate"]
        for end in ("epsilon_lower", "epsilon_upper"):
            den = cert[end]["den"]
            assert den & (den - 1) == 0
            assert cert[end]["num"].bit_length() == 64

    def test_count_types_family_mode(self, triangle_path, capsys):
        code, rep = run_json(
            ["count-types", "--family", triangle_path,
             "--m", "1", "--k", "2", "--l", "3"],
            capsys,
        )
        assert code == 0
        assert rep["report"]["count"]["value"] >= 1
        assert rep["report"]["count"]["exact"] is True

    def test_count_types_family_past_x_cap(self, tmp_path, capsys):
        # the family's masks are the table; no witness space over its
        # ground plus member labels is built, so X_CAP does not bound it
        ground = 60000
        assert ground + 3 > typecount.X_CAP
        path = family_file(tmp_path, [{0, ground - 1}, {1, ground - 1}, {2}], ground)
        code, rep = run_json(
            ["count-types", "--family", path, "--m", "1", "--k", "2", "--l", "3"],
            capsys,
        )
        assert code == 0
        # {2} against any one of {A}, {B}, {A, B}
        assert rep["report"]["count"]["value"] == 2

    @pytest.mark.parametrize(
        "members", [[{0, 1}, {1, 2}], [{0, 1}, {1, 2}, set()]],
        ids=["nonempty", "empty-member"],
    )
    def test_negative_integer_cap_is_two(self, members, tmp_path, capsys):
        path = family_file(tmp_path, members, 3)
        assert main(["lp", "--family", path, "--integer-cap", "-1"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: cap must be >= 0\n")

    def test_zero_member_warning(self, tmp_path, capsys):
        path = family_file(tmp_path, [], 3, name="empty.json")
        code = main(["vc", "--family", path])
        err = capsys.readouterr().err
        assert "zero members" in err
        assert code == 0


MALFORMED_PHI = [
    ["=", ["var", [1]], ["var", 0]],
    ["exists", [2], ["true"]],
    ["=", ["var", 0], ["const", None]],
    ["or", ["true"], ["var", 7]],
]


@pytest.mark.parametrize("phi", MALFORMED_PHI, ids=json.dumps)
@pytest.mark.parametrize("command", ["ff custom", "count-types"])
def test_malformed_formula_is_input_error(command, phi, tmp_path, capsys):
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps(phi))
    if command == "ff custom":
        psi_path = tmp_path / "psi.json"
        psi_path.write_text(json.dumps(["true"]))
        argv = ["ff", "custom", "--p", "5", "--phi", str(phi_path),
                "--x-arity", "1", "--psi", str(psi_path), "--y-arity", "1",
                "--k", "2", "--alpha", "1/2"]
    else:
        structure = tmp_path / "structure.json"
        structure.write_text(json.dumps(
            {"universe_size": 3, "relations": {"R": {"arity": 1, "bits": "101"}}}
        ))
        pool = tmp_path / "pool.json"
        pool.write_text(json.dumps([[0], [1], [2]]))
        argv = ["count-types", "--structure", str(structure), "--phi",
                str(phi_path), "--pool", str(pool), "--m", "1", "--k", "2",
                "--l", "2"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("const", [1.5, True, "3"], ids=json.dumps)
def test_ff_custom_non_integer_constant_is_input_error(const, tmp_path, capsys):
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps(["=", ["var", 0], ["const", const]]))
    psi_path = tmp_path / "psi.json"
    psi_path.write_text(json.dumps(["true"]))
    argv = ["ff", "custom", "--p", "5", "--phi", str(phi_path), "--x-arity", "1",
            "--psi", str(psi_path), "--y-arity", "1", "--k", "2", "--alpha", "1/2"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: constant {const!r} is not an integer\n"


@pytest.mark.parametrize("const", [True, False, 1.0], ids=json.dumps)
def test_count_types_non_integer_constant_is_input_error(const, tmp_path, capsys):
    # True and 1.0 hash like the universe element 1, False like 0
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps(["=", ["var", 0], ["const", const]]))
    structure = tmp_path / "structure.json"
    structure.write_text(json.dumps(
        {"universe_size": 3, "relations": {"R": {"arity": 1, "bits": "101"}}}
    ))
    pool = tmp_path / "pool.json"
    pool.write_text(json.dumps([[0], [1], [2]]))
    argv = ["count-types", "--structure", str(structure), "--phi", str(phi_path),
            "--pool", str(pool), "--m", "1", "--k", "2", "--l", "2"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: constant {const!r} not in universe\n"


HUGE_LEVEL_FORMULA = {
    "lead_k": 1, "modulus_m": 1, "positive_slots": 0,
    "p_conditions": {"3": {
        "op": "notinU", "form": {"coeffs": {"x": 1}, "const": 1},
        "level": 100000000}},
}


def test_sqf_count_huge_level(tmp_path):
    """A level-10^8 p-condition counts a 30-number window at once; run as
    a subprocess so a regression fails on the timeout instead of hanging."""
    doc = tmp_path / "system.json"
    doc.write_text(json.dumps({"formula": HUGE_LEVEL_FORMULA, "c": [], "c_prime": []}))
    proc = run_cli("sqf", "count", "--system", str(doc), "--window", "30")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["count"] == 29


@pytest.mark.wallclock
def test_sqf_psat_huge_level_refused(tmp_path):
    """p_satisfiable would scan 3^(10^8) residues: refused before p^L is
    built, in a subprocess under a short timeout."""
    doc = tmp_path / "system.json"
    doc.write_text(json.dumps({"formula": HUGE_LEVEL_FORMULA, "c": [], "c_prime": []}))
    proc = run_cli("sqf", "psat", "--system", str(doc), "--p", "3", timeout=5)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: p^L = 3^100000000 residues exceed PSAT_CAP 1048576\n"
    )


@pytest.mark.parametrize("action", ["count", "density"])
def test_sqf_certificate_huge_level_refused(action, tmp_path):
    """The certificate's head would be D = 3^(10^8): refused, not built."""
    doc = tmp_path / "doc.json"
    if action == "count":
        doc.write_text(json.dumps({"formula": HUGE_LEVEL_FORMULA, "c": [], "c_prime": []}))
        argv = ["--system", str(doc), "--window", "30"]
    else:
        doc.write_text(json.dumps(HUGE_LEVEL_FORMULA))
        argv = ["--formula", str(doc)]
    proc = run_cli("sqf", action, *argv, "--tail-prime", "5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: head prime 3 at level 100000000: D exceeds 4300 digits\n"
    )


def dyadic_system(level, slots):
    """slots zero shifts plus one p = 2 condition: D = 2^level, so each
    epsilon end is about 1/2^level, which rounding cannot shorten."""
    formula = {
        "lead_k": 1, "modulus_m": 1, "positive_slots": slots,
        "p_conditions": {"2": {
            "op": "notinU", "form": {"coeffs": {"x": 1}, "const": 1},
            "level": level}},
    }
    return {"formula": formula, "c": [0] * slots, "c_prime": []}


@pytest.mark.parametrize("action, level, slots, tail, refused", [
    ("density", 14283, 0, "5", None),
    ("density", 14284, 0, "5", "epsilon_lower"),
    ("count", 14213, 3, "7", None),
    ("count", 14214, 3, "7", "lower_bound"),
])
def test_sqf_unprintable_rational_refused(action, level, slots, tail, refused,
                                          tmp_path):
    """A rational with more digits than Python prints is refused with the
    head prime and level named; the longest printable ones still render."""
    doc = tmp_path / "doc.json"
    system = dyadic_system(level, slots)
    if action == "count":
        doc.write_text(json.dumps(system))
        argv = ["--system", str(doc), "--window", "30"]
    else:
        doc.write_text(json.dumps(system["formula"]))
        argv = ["--formula", str(doc)]
    proc = run_cli("sqf", action, *argv, "--tail-prime", tail)
    if refused is None:
        assert proc.returncode == 0, proc.stderr
        return
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: head prime 2 at level {level}: {refused} exceeds 4300 digits\n"
    )


def test_sqf_window_capped():
    proc = run_cli("sqf", "count", "--shifts", "0,2,6", "--window", "1000000000")
    assert proc.returncode == 2
    assert proc.stderr == "error: window 1000000000 exceeds WINDOW_CAP 10000000\n"


def test_sqf_experiment_checks_ground_size(tmp_path):
    """The window is the family's ground set: refused above SIZE_CAP before
    any system is sieved."""
    doc = tmp_path / "formula.json"
    doc.write_text(json.dumps({"lead_k": 1, "modulus_m": 1, "positive_slots": 1}))
    proc = run_cli("sqf", "experiment", "--formula", str(doc), "--params", "0;1;2",
                   "--k", "2", "--alpha", "1/2", "--window", "400000")
    assert proc.returncode == 2
    assert proc.stderr == "error: ground size 400000 exceeds SIZE_CAP 250000\n"


def test_pk_scan_on_large_cross(tmp_path):
    """200 pairwise-meeting crosses pass (4, 2) at once: every 2-prefix
    already has a point of depth 2, so no 4-multiset is visited."""
    fam = tmp_path / "cross.json"
    assert run_cli("construct", "cross", "--n", "200", "--output", str(fam)).returncode == 0
    proc = run_cli("analyze", "--family", str(fam), "--k", "2", "--alpha", "1/2", "--pk", "4")
    assert proc.returncode == 0, proc.stderr
    pk = json.loads(proc.stdout)["report"]["pk"]
    assert pk["holds"] and pk["counterexample"] is None


def test_console_script_entry():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "fhplab" in proc.stdout


@pytest.mark.wallclock
def test_tp2_at_the_size_cap_in_seconds():
    """250,000 points and 1,000 members, built as masks: at most a few seconds."""
    proc = run_cli("construct", "tp2", "--k", "2", "--m", "500", timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count('"S[') == 1000


@pytest.mark.wallclock
def test_cross_verify_in_seconds():
    """Every pair of crosses meets in two points, so the k = 3 count of
    --verify never narrows a branch to one point; it counts by points."""
    proc = run_cli("construct", "cross", "--n", "200", "--verify", timeout=10)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["report"]
    assert report["verified"] is True
    assert len(report["sets"]) == 200


@pytest.mark.wallclock
def test_cross_40_lp_in_seconds(tmp_path):
    """cross-40's packing LP has 820 atom rows and 40 member columns; the
    solver keeps only the 40 nonbasic columns, not the 820 basic ones."""
    doc = str(tmp_path / "cross40.json")
    proc = run_cli("construct", "cross", "--n", "40", "--output", doc, timeout=5)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("lp", "--family", doc, timeout=5)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["report"]
    assert report["intersection_number"] == {"num": 1, "den": 20}
    assert report["transversal"]["tau_star"] == {"num": 20, "den": 1}


@pytest.mark.wallclock
def test_lines_f61_k3_in_seconds():
    """3,721 lines over F_61: cons_3 = 61^2 C(61, 3) of C(61^2, 3); the
    fraction is below 1/2, so the FHP hypothesis fails and the exit is 1."""
    proc = run_cli("ff", "lines", "--p", "61", "--k", "3", timeout=5)
    assert proc.returncode == 1, proc.stderr
    frac = json.loads(proc.stdout)["report"]["report"]["fhp"]["cons"]["fraction"]
    assert Fraction(frac["num"], frac["den"]) == Fraction(
        comb(61, 3) * 61**2, comb(61**2, 3)
    )
