"""Command-line interface: recausal <command> <model.json> [options].

One parser reads the command (analyze | smith | constraints | solve | verify |
simulate | probe), the model path and six options, before or after the path;
each command checks only the options it reads.  Reports go to stdout (JSON by
default, deterministic key order), diagnostics to stderr.  Exit codes: 0 success,
1 model/analysis error, a failed `verify` (its report is still printed), `simulate`
without numpy or past the float range, a reader that closed stdout (no traceback),
2 usage error or an unreadable model path.

`run` is the script entry (`python -m recausal.cli` and the `recausal` script);
`main(argv)` is the in-process API and changes no process-wide state.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .canon import RedundantEquationsError, UnitCircleRootError
from .dimension import dimension_report, genericity_probe, run_pipeline
from .exactalg import Poly, PolyMatrix, rat_rows, rat_str
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


def _vector_doc(v):
    return [rat_str(x) for x in v]


def _load_model(path: str, xi_override) -> REModel:
    """The model at path with --xi applied; an OSError if the file cannot be read."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    m = parse_model(text)
    return m if xi_override is None else m._replace(xi=xi_override)


def _parse_options(args) -> str | None:
    """Parse --xi in place by parse_model's rule, default --trials per command and
    range-check --trials and --seed for simulate and probe, the commands that read them.

    Returns why an option is invalid, or None.
    """
    try:
        args.xi = None if args.xi is None else parse_xi(args.xi)
    except ModelFormatError as exc:
        return f"--xi: {exc}"
    if args.trials is None:
        args.trials = 10 if args.command == "probe" else 100000
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
    """Keys sorted, one `- v` line per scalar of a list, `key: []` or `key: {}` if empty.
    A list inside a list keeps its shape: a list of scalars (a matrix row, a polynomial)
    is one `- [a, b]` line, a list of lists (a row of polynomials) a bare `-` above its items."""
    if isinstance(doc, dict):
        for k in sorted(doc):
            v = doc[k]
            if isinstance(v, (dict, list)) and v:
                print(f"{prefix}{k}:")
                _emit_text(v, prefix + "  ")
            else:
                print(f"{prefix}{k}: {v}")
    elif isinstance(doc, list):
        for v in doc:
            if isinstance(v, dict):
                _emit_text(v, prefix + "  ")
            elif not isinstance(v, list):
                print(f"{prefix}- {v}")
            elif any(isinstance(x, (dict, list)) for x in v):
                print(f"{prefix}-")
                _emit_text(v, prefix + "  ")
            else:
                print(f"{prefix}- [{', '.join(map(str, v))}]")
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
        "C": rat_rows(cs.C),
        "D": rat_rows(cs.D),
        "rhs": rat_rows(cs.rhs),
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
        doc["h"] = rat_rows(sr.h)
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
    ap.add_argument("command", choices=_COMMANDS)
    ap.add_argument("model", help="path to the model JSON file")
    ap.add_argument("--xi", default=None, help="growth bound, rational >= 1")
    ap.add_argument("--max-lag", type=int, default=50, dest="max_lag")
    ap.add_argument("--trials", type=int, default=None,
                    help="default 100000 for simulate, 10 for probe")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--format", choices=("json", "text"), default="json")
    ap.add_argument(
        "--kernel-point", default="min-norm", dest="kernel_point",
        help="'min-norm' or a kernel basis index 0..k-1 (k = kernel dimension)",
    )
    return ap


def _error(message, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    invalid = _parse_options(args)
    if invalid:
        return _error(invalid, 2)
    try:
        m = _load_model(args.model, args.xi)
    except OSError as exc:  # around reading alone: a BrokenPipeError of print is no usage error
        return _error(exc, 2)
    except ModelFormatError as exc:
        return _error(exc, 1)
    if args.command == "verify" and args.max_lag < m.H:  # only verify reads --max-lag
        return _error(f"--max-lag must be at least H = {m.H}", 2)
    try:
        doc = _COMMANDS[args.command](m, args)
        _emit(doc, args.format)
        if args.command == "verify" and not doc["ok"]:
            lag = f" at lag {doc['failures'][0]['lag']}" if doc["failures"] else ""
            return _error(f"verification failed{lag}", 1)
        return 0
    except KernelPointError as exc:
        return _error(f"--kernel-point {exc}", 2)
    except (
        RedundantEquationsError,
        UnitCircleRootError,
        UnsupportedModelError,
        FactorizationError,
    ) as exc:
        return _error(exc, 1)
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        return _error(f"{args.command} needs numpy, which cannot be imported", 1)


def run() -> int:
    """The script entry: main() on sys.argv, then gc.freeze(), so that the interpreter's
    shutdown skips collecting the objects that exiting frees anyway (recausal holds no
    finalizer or cyclic resource that needs it).  A reader that closes stdout early
    gives exit 1 without a traceback, as the "Note on SIGPIPE" in Python's signal docs
    recommends."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, inside the try
        return code
    except BrokenPipeError:
        # the final flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
