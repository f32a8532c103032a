"""Command-line front door: batch analyses with reproducible reports.

Every report is a single JSON object (or flattened CSV) that embeds the
tool version and the seed, so a report alone is enough to rerun its
experiment.  The search caps are module constants (`setfam.SIZE_CAP`,
`typecount.TYPE_CAP` and their neighbours) that no flag or environment
variable changes, so the envelope's `caps` is always `{}`.  Outputs are
byte-deterministic for a fixed command line; wall-clock runtime is
attached only under --timing.

Exit codes: 0 success, 1 a requested property check failed (FHP
hypothesis false, LP infeasible, construction verification failed,
unsatisfiable or inadmissible system), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import Optional

from . import __version__
from ._jsonutil import SCHEMA_VERSION, to_json
# Each handler imports the modules it runs, so a command loads only what it
# uses; numpy loads only where a formula is evaluated.  The parser is built
# per command: build_parser adds the arguments of the invoked one only.
from . import setfam


def parse_family(path: str) -> setfam.SetFamily:
    """Load a family JSON file with line-addressed schema errors.

    A saved fhplab report (e.g. `construct ... --output fam.json`) is
    read through its envelope: the family is the `report` body.
    """
    family = _read_document(path, _family_from_document)
    if family.n == 0:
        print(f"warning: {path}: family has zero members", file=sys.stderr)
    return family


def _family_from_document(obj) -> setfam.SetFamily:
    if isinstance(obj, dict) and obj.get("tool") == "fhplab" and "report" in obj:
        obj = obj["report"]
    return setfam.SetFamily.from_json_dict(obj)


def _pool_from_document(obj) -> list:
    if not isinstance(obj, list) or not all(
        isinstance(a, list) and all(type(v) is int for v in a) for a in obj
    ):
        raise ValueError("parameter pool must be a list of integer lists")
    if not obj:
        raise ValueError("parameter pool is empty")
    if len({len(a) for a in obj}) > 1:
        raise ValueError("parameter pool tuples must have one length")
    return [tuple(a) for a in obj]


def _read_document(path: str, reader):
    """Build an object from the JSON document at path with reader.

    A document of the wrong shape (a missing key, a value of the wrong
    type) raises ValueError naming the path, which run() reports as an
    input error.
    """
    obj = _load_json(path)
    try:
        return reader(obj)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (LookupError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed document ({exc})") from None
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        )
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _int_list(text: str):
    text = text.strip()
    if not text:
        return []
    return [int(v) for v in text.replace(";", ",").split(",")]


# ---------------------------------------------------------------- handlers


def _handle_analyze(opt):
    family = parse_family(opt.family)
    report = setfam.check_fhp_instance(family, opt.k, Fraction(opt.alpha))
    out = {"fhp": report}
    ok = report.hypothesis_holds
    if opt.pk is not None:
        pk = setfam.check_pk_property(family, opt.pk, opt.k)
        out["pk"] = {
            "p": opt.pk,
            "k": opt.k,
            "holds": pk.holds,
            "counterexample": pk.counterexample,
        }
        out["wfhp_bound"] = setfam.wfhp_counting_bound(family.n, opt.pk, opt.k)
        ok = ok and pk.holds
    return out, (0 if ok else 1)


def _handle_lp(opt):
    from . import fraclp

    family = parse_family(opt.family)
    # both read the family's one packing LP solve
    value, dist = fraclp.intersection_number(family)
    tr = fraclp.fractional_transversal(family, integer_cap=opt.integer_cap)
    out = {"intersection_number": value, "distribution": dist, "transversal": tr}
    return out, (0 if tr.status == "optimal" else 1)


def _handle_vc(opt):
    from . import vc

    family = parse_family(opt.family)
    sizes = _int_list(opt.dual_sizes) if opt.dual_sizes else None
    report = vc.vc_dimension(family, opt.cap, dual_sizes=sizes, seed=opt.seed)
    return {"vc": report}, 0


def _build_construction(opt):
    from . import constructs

    name = opt.construction
    if name == "block":
        params = constructs.BlockParams(
            k=opt.k,
            alpha=Fraction(opt.alpha),
            gamma=Fraction(opt.gamma),
            p_prime=opt.pprime,
            k_prime=opt.kprime,
            r=opt.r,
            m=opt.m,
        )
        fam = constructs.build_block_counterexample(params)
        meta = {
            "k": opt.k,
            "r": opt.r,
            "m": opt.m,
            "alpha": params.alpha,
            "gamma": params.gamma,
            "p_prime": opt.pprime,
            "k_prime": opt.kprime,
        }
    elif name == "tp2":
        fam = constructs.build_tp2_grid(opt.k, opt.m, d=opt.d)
        meta = {"k": opt.k, "m": opt.m, "d": opt.d}
    elif name == "cross":
        fam = constructs.build_two_order_cross(opt.n)
        meta = {"n": opt.n}
    elif name == "caps":
        fam = constructs.build_caps_family(opt.w, opt.depth)
        meta = {"W": opt.w, "D": opt.depth}
    else:  # shattered
        fam = constructs.build_shattered_pairs(opt.m)
        meta = {"m": opt.m}
    return fam, meta


def _verify_construction(name: str, opt, fam: setfam.SetFamily) -> bool:
    if name == "block":
        import math

        cons = setfam.cons_k(fam, opt.k)
        return cons.cons_count == math.comb(opt.r, opt.k) * opt.m**opt.k
    if name == "tp2":
        # each value lies in d-1 windows of its row: depth k*(d-1) of k*m
        best = setfam.max_intersecting(fam)
        return Fraction(best.size, fam.n) == Fraction(opt.d - 1, opt.m)
    if name == "cross":
        return (
            setfam.cons_k(fam, 2).fraction == 1
            and (fam.n < 3 or setfam.cons_k(fam, 3).cons_count == 0)
            and setfam.max_intersecting(fam).size == 2
        )
    if name == "caps":
        # rows pairwise disjoint, and every branch (one member per row) meets
        W, D = opt.w, opt.depth
        rows = [
            setfam.SetFamily.from_masks(fam.ground_size, fam.masks[i * W : (i + 1) * W])
            for i in range(D)
        ]
        if W > 1 and any(setfam.cons_k(row, 2).cons_count for row in rows):
            return False
        return setfam.colorful_check(rows, 0).rainbow_count == W**D
    # shattered
    want = 2 ** (opt.m - 2)
    return all(m.bit_count() == want for m in fam.masks)


def _handle_construct(opt):
    if opt.construction == "furedi":
        from . import constructs

        family = parse_family(opt.family)
        res = constructs.furedi_extract(family, opt.trials, opt.seed)
        out = {
            "construction": "furedi",
            "params": {"trials": opt.trials},
            "found": res is not None,
        }
        if res is not None:
            out["result"] = {
                "parts": res.parts,
                "indices": res.indices,
                "trial": res.trial,
                "target": res.target,
            }
        return out, (0 if res is not None else 1)
    fam, meta = _build_construction(opt)
    out = fam.to_json_dict()
    out["construction"] = opt.construction
    out["params"] = meta
    if opt.verify:
        ok = _verify_construction(opt.construction, opt, fam)
        out["verified"] = ok
        return out, (0 if ok else 1)
    return out, 0


def _load_system(opt):
    from . import sqfint

    if getattr(opt, "shifts", None):
        return sqfint.shift_system(_int_list(opt.shifts), m=opt.modulus)
    if getattr(opt, "system", None):
        return _read_document(opt.system, sqfint.GSystem.from_json_dict)
    raise ValueError("provide --shifts or --system")


def _handle_sqf(opt):
    from . import sqfint

    action = opt.action
    if action == "count":
        sys_ = _load_system(opt)
        count = sqfint.count_solutions_window(sys_, opt.window)
        out = {
            "action": "count",
            "system": sys_,
            "window": opt.window,
            "count": count,
        }
        if opt.tail_prime:
            cert = sqfint.density_certificate(
                sys_.formula, opt.tail_prime, constants=sys_.c
            )
            bound = cert.epsilon_lower * opt.window - cert.error_term(opt.window)
            out["certificate"] = cert
            out["lower_bound"] = cert.printable("lower_bound", bound)
            out["bound_holds"] = Fraction(count) >= bound
        return out, 0
    if action == "psat":
        sys_ = _load_system(opt)
        sat, witness = sqfint.p_satisfiable(sys_, opt.p)
        out = {
            "action": "psat",
            "system": sys_,
            "p": opt.p,
            "satisfiable": sat,
            "witness": witness,
        }
        return out, (0 if sat else 1)
    if action == "density":
        formula = _read_document(opt.formula, sqfint.SpecialFormula.from_json_dict)
        constants = _int_list(opt.constants) if opt.constants else None
        cert = sqfint.density_certificate(
            formula, opt.tail_prime, constants=constants
        )
        return {"action": "density", "certificate": cert}, 0
    if action == "dickson":
        forms = []
        for chunk in opt.forms.split(";"):
            try:
                a, b = chunk.split(",")
                forms.append((int(a), int(b)))
            except ValueError:
                raise ValueError(
                    f"--forms: {chunk!r} is not a pair a,b of integers"
                ) from None
        if opt.prime_bound is not None and opt.prime_bound < 2:
            raise ValueError(f"--prime-bound must be >= 2, got {opt.prime_bound}")
        admissible, obstruction = sqfint.dickson_admissible(
            forms, prime_bound=opt.prime_bound
        )
        out = {
            "action": "dickson",
            "forms": forms,
            "admissible": admissible,
            "obstruction": obstruction,
        }
        return out, (0 if admissible else 1)
    # experiment
    formula = _read_document(opt.formula, sqfint.SpecialFormula.from_json_dict)
    params = []
    for chunk in opt.params.split(";"):
        cs = _int_list(chunk)
        s = formula.positive_slots
        params.append((tuple(cs[:s]), tuple(cs[s:])))
    rep = sqfint.sqf_fhp_experiment(
        formula, params, opt.k, Fraction(opt.alpha), opt.window
    )
    return (
        {"action": "experiment", "report": rep},
        0 if rep.fhp.hypothesis_holds else 1,
    )


def _handle_ff(opt):
    from . import pseudofield

    if opt.action == "fit":
        fit = pseudofield.dim_meas_fit(
            opt.count, opt.q, opt.n, C=Fraction(opt.C)
        )
        return {"action": "fit", "fit": fit}, 0
    field_ = pseudofield.FieldStructure.for_prime(opt.p)
    if opt.action == "lines":
        family = pseudofield.line_family(field_)
        alpha = Fraction(opt.alpha)
        rep = pseudofield.FfReport(
            q=field_.p,
            k=opt.k,
            alpha=alpha,
            fhp=setfam.check_fhp_instance(family, opt.k, alpha),
        )
        return (
            {"action": "lines", "report": rep},
            0 if rep.fhp.hypothesis_holds else 1,
        )
    # custom
    phi = _load_json(opt.phi)
    psi = _load_json(opt.psi)
    e = tuple(_int_list(opt.e)) if opt.e else ()
    rep = pseudofield.ff_fhp_experiment(
        field_,
        phi,
        opt.x_arity,
        psi,
        opt.y_arity,
        e,
        opt.k,
        Fraction(opt.alpha),
    )
    return (
        {"action": "custom", "report": rep},
        0 if rep.fhp.hypothesis_holds else 1,
    )


def _handle_count_types(opt):
    if (opt.family is None) == (opt.structure is None):
        raise ValueError("provide exactly one of --family / --structure")
    if opt.structure is not None and (opt.phi is None or opt.pool is None):
        raise ValueError("--structure mode needs --phi and --pool")
    if opt.family is not None and (opt.phi, opt.pool, opt.x_arity) != (
        None, None, None
    ):
        raise ValueError("--family mode takes no --phi, --pool or --x-arity")
    if (opt.l is None) == (opt.l_values is None):
        raise ValueError("provide exactly one of --l / --l-values")

    from . import typecount

    samples = typecount.DEFAULT_SAMPLES if opt.samples is None else opt.samples
    if opt.family:
        masks = typecount.family_masks(parse_family(opt.family))
        phi, x_arity = typecount.IN_PHI, 1
    else:
        structure = _read_document(
            opt.structure, typecount.FiniteStructure.from_json_dict
        )
        phi = _load_json(opt.phi)
        pool = _read_document(opt.pool, _pool_from_document)
        x_arity = 1 if opt.x_arity is None else opt.x_arity
        masks = typecount.instance_masks(structure, phi, x_arity, pool)
    if opt.l_values is not None:
        report = typecount.power_saving(
            masks,
            phi,
            x_arity,
            opt.m,
            opt.k,
            _int_list(opt.l_values),
            opt.d,
            samples=samples,
            seed=opt.seed,
        )
        return {"power_saving": report}, 0
    report = typecount.count_types(
        masks, phi, x_arity, opt.m, opt.k, opt.l, samples=samples, seed=opt.seed
    )
    return {"count": report}, 0


_HANDLERS = {
    "analyze": _handle_analyze,
    "lp": _handle_lp,
    "vc": _handle_vc,
    "construct": _handle_construct,
    "sqf": _handle_sqf,
    "ff": _handle_ff,
    "count-types": _handle_count_types,
}


# ---------------------------------------------------------------- emission


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        if set(obj.keys()) == {"num", "den"}:
            rows.append((prefix, f"{obj['num']}/{obj['den']}"))
            return rows
        for key in obj:
            sub = f"{prefix}.{key}" if prefix else str(key)
            rows.extend(_flatten(obj[key], sub))
        return rows
    if isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}[{i}]"))
        return rows
    rows.append((prefix, obj))
    return rows


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    lines = ["key,value"]
    for key, value in _flatten(report):
        text = "" if value is None else str(value)
        if "," in text or '"' in text:
            text = '"' + text.replace('"', '""') + '"'
        lines.append(f"{key},{text}")
    return "\n".join(lines) + "\n"


def _emit(text: str, output: Optional[str]):
    if output is None:
        sys.stdout.write(text)
        return
    tmp = output + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    try:
        os.replace(tmp, output)
    except OSError:
        os.remove(tmp)
        raise


def run(opt: argparse.Namespace) -> int:
    """Dispatch parsed options, emit their report, return the exit code."""
    handler = _HANDLERS[opt.command]
    started = time.monotonic()
    try:
        body, code = handler(opt)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "schema": SCHEMA_VERSION,
        "tool": "fhplab",
        "version": __version__,
        "command": opt.command,
        "seed": opt.seed,
        "caps": {},
        "report": body,
    }
    if opt.timing:
        report["runtime_seconds"] = round(time.monotonic() - started, 6)
    try:
        _emit(_render(to_json(report), opt.fmt), opt.output)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


# ---------------------------------------------------------------- parser


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=0, help="64-bit seed")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", dest="fmt"
    )
    parser.add_argument("--output", default=None, help="write report to file")
    parser.add_argument(
        "--timing",
        action="store_true",
        help="attach wall-clock runtime (breaks byte determinism)",
    )


def _analyze_args(p):
    p.add_argument("--family", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--pk", type=int, default=None, help="also check the (PK, k)-property")


def _lp_args(p):
    p.add_argument("--family", required=True)
    p.add_argument("--integer-cap", type=int, default=None, dest="integer_cap")


def _vc_args(p):
    p.add_argument("--family", required=True)
    p.add_argument("--cap", type=int, default=6)
    p.add_argument("--dual-sizes", default=None, dest="dual_sizes")


def _block_args(p):
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", default="1/2")
    p.add_argument("--gamma", default="1")
    p.add_argument("--pprime", type=int, default=4)
    p.add_argument("--kprime", type=int, default=2)
    p.add_argument("--verify", action="store_true")


def _tp2_args(p):
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--verify", action="store_true")


def _cross_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true")


def _caps_args(p):
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--verify", action="store_true")


def _shattered_args(p):
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--verify", action="store_true")


def _furedi_args(p):
    p.add_argument("--family", required=True)
    p.add_argument("--trials", type=int, default=10000)


def _sqf_count_args(p):
    p.add_argument("--shifts", default=None, help="comma list, e.g. 0,2,6")
    p.add_argument("--modulus", type=int, default=1)
    p.add_argument("--system", default=None, help="GSystem JSON path")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--tail-prime", type=int, default=None, dest="tail_prime")


def _sqf_psat_args(p):
    p.add_argument("--shifts", default=None)
    p.add_argument("--modulus", type=int, default=1)
    p.add_argument("--system", default=None)
    p.add_argument("--p", type=int, required=True)


def _sqf_density_args(p):
    p.add_argument("--formula", required=True, help="SpecialFormula JSON path")
    p.add_argument("--tail-prime", type=int, required=True, dest="tail_prime")
    p.add_argument("--constants", default=None)


def _sqf_dickson_args(p):
    p.add_argument("--forms", required=True, help="a,b pairs joined by ';'")
    p.add_argument("--prime-bound", type=int, default=None, dest="prime_bound")


def _sqf_experiment_args(p):
    p.add_argument("--formula", required=True)
    p.add_argument("--params", required=True, help="constant lists joined by ';'")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--window", type=int, required=True)


def _ff_lines_args(p):
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--alpha", default="1/2")


def _ff_custom_args(p):
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--x-arity", type=int, required=True, dest="x_arity")
    p.add_argument("--psi", required=True)
    p.add_argument("--y-arity", type=int, required=True, dest="y_arity")
    p.add_argument("--e", default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", required=True)


def _ff_fit_args(p):
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--C", default="1")


def _count_types_args(p):
    p.add_argument("--family", default=None, help="encode a family as a structure")
    p.add_argument("--structure", default=None, help="FiniteStructure JSON path")
    p.add_argument("--phi", default=None, help="formula JSON (structure mode)")
    p.add_argument("--pool", default=None, help="parameter pool JSON (structure mode)")
    p.add_argument(
        "--x-arity", type=int, default=None, dest="x_arity",
        help="x arity (structure mode, default 1)",
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--l-values", default=None, dest="l_values")
    p.add_argument("--d", type=int, default=2)
    p.add_argument(
        "--samples", type=int, default=None,
        help="parameter sets drawn in sampled mode (default typecount.DEFAULT_SAMPLES)",
    )


# command -> (help, argument adder); a command with actions has
# (dest, {action: argument adder}) in place of its adder
_COMMANDS = {
    "analyze": ("intersection statistics of a family", _analyze_args),
    "lp": ("intersection number and fractional transversal", _lp_args),
    "vc": ("VC dimension and dual shatter growth", _vc_args),
    "construct": ("emit a generated family", ("construction", {
        "block": _block_args,
        "tp2": _tp2_args,
        "cross": _cross_args,
        "caps": _caps_args,
        "shattered": _shattered_args,
        "furedi": _furedi_args,
    })),
    "sqf": ("square-free arithmetic systems", ("action", {
        "count": _sqf_count_args,
        "psat": _sqf_psat_args,
        "density": _sqf_density_args,
        "dickson": _sqf_dickson_args,
        "experiment": _sqf_experiment_args,
    })),
    "ff": ("definable families over small prime fields", ("action", {
        "lines": _ff_lines_args,
        "custom": _ff_custom_args,
        "fit": _ff_fit_args,
    })),
    "count-types": ("positive type counting", _count_types_args),
}


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv: every command name, and the arguments of argv's
    command only.

    The top level takes no option but -h and --version, so argv[0] names
    the command when there is one, and argv[1] its action.
    """
    parser = argparse.ArgumentParser(
        prog="fhplab",
        description="Exact intersection-pattern analytics for finite set families",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, args) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if argv[:1] != [name]:
            continue
        if callable(args):
            args(p)
            _add_common(p)
            continue
        dest, actions = args
        ps = p.add_subparsers(dest=dest, required=True)
        for action, adder in actions.items():
            a = ps.add_parser(action)
            if argv[1:2] == [action]:
                adder(a)
                _add_common(a)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    return run(build_parser(argv).parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
