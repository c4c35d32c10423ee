"""Command-line interface: analyze | smith | constraints | solve | verify | simulate | probe.

Reports go to stdout (JSON by default, deterministic key order), diagnostics
to stderr.  Exit codes: 0 success, 1 model/analysis error, a failed `verify`
(its report is still printed), `simulate` without numpy or past the float range,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .canon import RedundantEquationsError, UnitCircleRootError
from .dimension import dimension_report, genericity_probe, run_pipeline
from .exactalg import Poly, PolyMatrix, RationalMatrix, rat_str
from .model import (
    ModelFormatError,
    REModel,
    SCHEMA_VERSION,
    parse_model,
    parse_xi,
    validate_semantics,
)
from .solver import (
    FactorizationError,
    KernelPointError,
    UnsupportedModelError,
    simulate,
    solve_causal,
    verify_solution,
)


def _poly_doc(p: Poly):
    return [rat_str(c) for c in p.coeffs]


def _polymatrix_doc(m: PolyMatrix):
    return [[_poly_doc(e) for e in row] for row in m.entries]


def _ratmatrix_doc(m: RationalMatrix):
    return [[rat_str(e) for e in row] for row in m.entries]


def _vector_doc(v):
    return [rat_str(x) for x in v]


def _load_model(path: str, xi_override) -> REModel:
    with open(path, "r", encoding="utf-8") as fh:
        m = parse_model(fh.read())
    return m if xi_override is None else m._replace(xi=xi_override)


def _parse_options(args) -> str | None:
    """Parse --xi in place by parse_model's rule and range-check --trials and --seed
    for simulate and probe, the commands that read them.

    Returns why an option is invalid, or None.
    """
    try:
        args.xi = None if args.xi is None else parse_xi(args.xi)
    except ModelFormatError as exc:
        return f"--xi: {exc}"
    if args.command in ("simulate", "probe"):
        if args.trials < 1:
            return "--trials must be at least 1"
        if args.command == "simulate" and args.trials < 3:
            return "--trials must be at least 3 for simulate"
        if args.seed < 0:
            return "--seed must be non-negative"
    return None


def _emit(doc: dict, fmt: str):
    doc["schema_version"] = SCHEMA_VERSION
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _emit_text(doc)


def _emit_text(doc, prefix=""):
    if isinstance(doc, dict):
        for k in sorted(doc):
            v = doc[k]
            if isinstance(v, (dict, list)):
                print(f"{prefix}{k}:")
                _emit_text(v, prefix + "  ")
            else:
                print(f"{prefix}{k}: {v}")
    elif isinstance(doc, list):
        for v in doc:
            if isinstance(v, (dict, list)):
                _emit_text(v, prefix + "  ")
            else:
                print(f"{prefix}- {v}")
    else:
        print(f"{prefix}{doc}")


def cmd_analyze(m: REModel, args) -> dict:
    rep = dimension_report(m)
    return {
        "command": "analyze",
        "validation": validate_semantics(m),
        "flavor": rep.flavor,
        "free_parameters": rep.free_parameters,
        "kernel_dim": rep.kernel_dim,
        "rank_w": rep.rank_w,
        "effective_unknowns": rep.effective_unknowns,
        "upper_bound": rep.upper_bound,
        "lower_bound": rep.lower_bound,
        "special_case_used": rep.special_case_used,
        "distinctness_guaranteed": rep.distinctness_guaranteed,
        "bounds": rep.bounds,
    }


def cmd_smith(m: REModel, args) -> dict:
    pipe = run_pipeline(m)
    sf = pipe.sf
    return {
        "command": "smith",
        "J0": pipe.pi.J0,
        "J1": pipe.pi.J1,
        "pi": _polymatrix_doc(pipe.pi.pi),
        "P": _polymatrix_doc(sf.P),
        "Q": _polymatrix_doc(sf.Q),
        "P_inv": _polymatrix_doc(sf.P_inv),
        "Q_inv": _polymatrix_doc(sf.Q_inv),
        "g": list(sf.g),
        "phi": [_poly_doc(p) for p in sf.phi],
        "invariant_factors": [_poly_doc(p) for p in sf.invariant_factors()],
    }


def cmd_constraints(m: REModel, args) -> dict:
    pipe = run_pipeline(m)
    cs = pipe.cs
    return {
        "command": "constraints",
        "flavor": cs.flavor,
        "C": _ratmatrix_doc(cs.C),
        "D": _ratmatrix_doc(cs.D),
        "rhs": _ratmatrix_doc(cs.rhs),
        "rank_w": cs.rank_w,
        "kernel": [_vector_doc(v) for v in cs.kernel],
        "effective_unknowns": cs.effective_unknowns,
    }


def cmd_solve(m: REModel, args) -> dict:
    sr = solve_causal(m, kernel_point=args.kernel_point)
    doc = {
        "command": "solve",
        "classification": sr.classification,
        "indeterminacy_dim": sr.indeterminacy_dim,
        "kernel_point": sr.kernel_point,
    }
    if sr.h is not None:
        doc["h"] = _ratmatrix_doc(sr.h)
        doc["kernel"] = [_vector_doc(v) for v in sr.kernel]
        doc["transfer_numerator"] = _polymatrix_doc(sr.transfer_num)
        doc["transfer_denominator"] = _poly_doc(sr.transfer_den)
    return doc


def cmd_verify(m: REModel, args) -> dict:
    sr = solve_causal(m, kernel_point=args.kernel_point)
    if sr.classification == "no_causal_solution":
        raise UnsupportedModelError("model has no causal solution; nothing to verify")
    rep = verify_solution(m, sr, max_lag=args.max_lag)
    rep["command"] = "verify"
    rep["classification"] = sr.classification
    return rep


def cmd_simulate(m: REModel, args) -> dict:
    sr = solve_causal(m, kernel_point=args.kernel_point)
    if sr.classification == "no_causal_solution":
        raise UnsupportedModelError("model has no causal solution; nothing to simulate")
    rep = simulate(sr, T=args.trials, seed=args.seed)
    rep["command"] = "simulate"
    return rep


def cmd_probe(m: REModel, args) -> dict:
    rep = genericity_probe(m, trials=args.trials, seed=args.seed)
    rep["command"] = "probe"
    return rep


_COMMANDS = {
    "analyze": cmd_analyze,
    "smith": cmd_smith,
    "constraints": cmd_constraints,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "probe": cmd_probe,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="recausal",
        description="Exact analysis of linear rational-expectations models",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("model", help="path to the model JSON file")
        p.add_argument("--xi", default=None, help="growth bound, rational >= 1")
        p.add_argument("--max-lag", type=int, default=50, dest="max_lag")
        p.add_argument("--trials", type=int, default=10 if name == "probe" else 100000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument(
            "--kernel-point", default="min-norm", dest="kernel_point",
            help="'min-norm' or a kernel basis index 0..k-1 (k = kernel dimension)",
        )
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    invalid = _parse_options(args)
    if invalid:
        print(f"error: {invalid}", file=sys.stderr)
        return 2
    try:
        m = _load_model(args.model, args.xi)
        if args.command == "verify" and args.max_lag < m.H:  # only verify reads --max-lag
            print(f"error: --max-lag must be at least H = {m.H}", file=sys.stderr)
            return 2
        doc = _COMMANDS[args.command](m, args)
        _emit(doc, args.format)
        if args.command == "verify" and not doc["ok"]:
            lag = f" at lag {doc['failures'][0]['lag']}" if doc["failures"] else ""
            print(f"error: verification failed{lag}", file=sys.stderr)
            return 1
        return 0
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KernelPointError as exc:
        print(f"error: --kernel-point {exc}", file=sys.stderr)
        return 2
    except (
        ModelFormatError,
        RedundantEquationsError,
        UnitCircleRootError,
        UnsupportedModelError,
        FactorizationError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print(f"error: {args.command} needs numpy, which cannot be imported", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
