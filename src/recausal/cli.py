"""Command-line interface: recausal <command> <model.json> [options].

`parse_args` reads the command (analyze | smith | constraints | solve | verify |
simulate | probe), the model path and six options, before or after the path;
each command checks only the options it reads.  Reports go to stdout (JSON by
default, deterministic key order), diagnostics to stderr.  Exit codes: 0 success,
1 model/analysis error, a failed `verify` (its report is still printed), `simulate`
without numpy or past the float range, a reader that closed stdout (no traceback),
2 usage error or an unreadable model path.

A cold call compiles only what its command runs.  This module imports `canon`,
`exactalg` and `model`, whose models carry their own stages, and no argparse.
On top of those, `analyze` and `probe` import `dimension` and `constraints`, the
command `constraints` imports `constraints` (from the model's stage), `solve`,
`verify` and `simulate` import `solver`, and `smith` imports nothing more.

`run` is the script entry (`python -m recausal.cli` and the `recausal` script);
`main(argv)` is the in-process API and changes no process-wide state.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
from types import SimpleNamespace

from .canon import (
    FactorizationError,
    KernelPointError,
    RedundantEquationsError,
    UnitCircleRootError,
    UnsupportedModelError,
)
from .exactalg import Poly, PolyMatrix, rat_rows, rat_str
from .model import (
    ModelFormatError,
    REModel,
    SCHEMA_VERSION,
    parse_model,
    parse_xi,
    validate_semantics,
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
    from .dimension import dimension_report

    report = dimension_report(m)  # first: a model it cannot count raises before validation
    return {"command": "analyze", "validation": validate_semantics(m), **report}


def cmd_smith(m: REModel, args) -> dict:
    sf = m.sf
    return {
        "command": "smith",
        "J0": m.pi.J0,
        "J1": m.pi.J1,
        "pi": _polymatrix_doc(m.pi.pi),
        "P": _polymatrix_doc(sf.P),
        "Q": _polymatrix_doc(sf.Q),
        "P_inv": _polymatrix_doc(sf.P_inv),
        "Q_inv": _polymatrix_doc(sf.Q_inv),
        "g": list(sf.g),
        "phi": [_poly_doc(p) for p in sf.phi],
        "invariant_factors": [_poly_doc(p) for p in sf.invariant_factors()],
    }


def cmd_constraints(m: REModel, args) -> dict:
    cs = m.cs
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
    from .solver import solve_causal

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


def _causal_solution(m: REModel, args, verb: str):
    """The solve of cmd_verify and cmd_simulate; refused when there is no solution to `verb`."""
    from .solver import solve_causal

    sr = solve_causal(m, kernel_point=args.kernel_point)
    if sr.classification == "no_causal_solution":
        raise UnsupportedModelError(f"model has no causal solution; nothing to {verb}")
    return sr


def cmd_verify(m: REModel, args) -> dict:
    from .solver import verify_solution

    sr = _causal_solution(m, args, "verify")
    rep = verify_solution(m, sr, max_lag=args.max_lag)
    rep["command"] = "verify"
    rep["classification"] = sr.classification
    return rep


def cmd_simulate(m: REModel, args) -> dict:
    from .solver import simulate

    sr = _causal_solution(m, args, "simulate")
    rep = simulate(sr, T=args.trials, seed=args.seed)
    rep["command"] = "simulate"
    return rep


def cmd_probe(m: REModel, args) -> dict:
    from .dimension import genericity_probe

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


_USAGE = """\
usage: recausal [-h] [--xi XI] [--max-lag MAX_LAG] [--trials TRIALS]
                [--seed SEED] [--format {json,text}]
                [--kernel-point KERNEL_POINT]
                {analyze,smith,constraints,solve,verify,simulate,probe} model
"""

_HELP = _USAGE + """
Exact analysis of linear rational-expectations models

positional arguments:
  {analyze,smith,constraints,solve,verify,simulate,probe}
  model                 path to the model JSON file

options:
  -h, --help            show this help message and exit
  --xi XI               growth bound, rational >= 1
  --max-lag MAX_LAG
  --trials TRIALS       default 100000 for simulate, 10 for probe
  --seed SEED
  --format {json,text}
  --kernel-point KERNEL_POINT
                        'min-norm' or a kernel basis index 0..k-1 (k = kernel
                        dimension)
"""

# option -> (attribute, default, int for an integer or the tuple of valid values)
_OPTIONS = {
    "--xi": ("xi", None, None),
    "--max-lag": ("max_lag", 50, int),
    "--trials": ("trials", None, int),
    "--seed": ("seed", 0, int),
    "--format": ("format", "json", ("json", "text")),
    "--kernel-point": ("kernel_point", "min-norm", None),
}


def _is_option(token: str) -> bool:
    """Whether token reads as an option, by argparse's rule: -1, -.5 and "-a b" are values."""
    return (token[:1] == "-" and token != "-" and " " not in token
            and not re.match(r"-\d+$|-\d*\.\d+$", token))


def _usage_error(message):
    print(f"{_USAGE}recausal: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _invalid_choice(what, value, choices):
    _usage_error(f"argument {what}: invalid choice: {value!r} "
                 f"(choose from {', '.join(map(repr, choices))})")


def parse_args(argv) -> SimpleNamespace:
    """The command, the model path and the six options of argv, in any order.

    An option is `--opt value` or `--opt=value`; its last occurrence wins.  A
    value after a space must not read as an option: a leading "-" that is not
    a negative number.  -h or --help prints the help and exits 0; a usage
    error prints the usage line and `recausal: error: ...` on stderr and exits 2.
    Errors come in argparse's order: a bad command or option value where it
    stands, then a missing command or model, then all unrecognized tokens.
    """
    args = {name: default for name, default, _ in _OPTIONS.values()}
    positional, extras = [], []
    tokens = iter(argv)
    for token in tokens:
        option, eq, value = token.partition("=")
        if option in ("-h", "--help"):
            if eq:
                _usage_error(f"argument -h/--help: ignored explicit argument {value!r}")
            print(_HELP, end="")
            raise SystemExit(0)
        if option not in _OPTIONS:
            if _is_option(token) or len(positional) == 2:
                extras.append(token)
            elif positional or token in _COMMANDS:
                positional.append(token)
            else:
                _invalid_choice("command", token, _COMMANDS)
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or _is_option(value):
                _usage_error(f"argument {option}: expected one argument")
        name, _, kind = _OPTIONS[option]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument {option}: invalid int value: {value!r}")
        elif kind is not None and value not in kind:
            _invalid_choice(option, value, kind)
        args[name] = value
    if len(positional) < 2:
        missing = ", ".join(["command", "model"][len(positional):])
        _usage_error(f"the following arguments are required: {missing}")
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=positional[0], model=positional[1], **args)


def _error(message, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
    # CPython refuses str() of an int past 4300 digits (by default, where the limit exists),
    # which guards against quadratic conversion of untrusted text; `rat` bounds the model's
    # exponents already, so the limit is lifted while the report is formed and printed
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(0)
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
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


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
