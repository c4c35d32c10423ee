"""Span recorder that wraps recausal's public functions from the outside.

Each wrapped call records (name, start, end, parent span, tag, error, bits).
Spans stay in memory and are written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# module -> public functions timed as layers
TARGETS = {
    "model": ("parse_model", "build_pi", "validate_semantics"),
    "exactalg": ("det_adjugate", "rank_kernel", "solve_affine", "poly_gcd"),
    "canon": ("smith_form", "classify_roots"),
    "constraints": (
        "build_selectors", "build_plain_system", "build_predetermined_system", "check_rank_bounds",
    ),
    "dimension": ("run_pipeline", "dimension_report"),
    "solver": (
        "factor_stable_unstable", "solve_causal", "build_transfer", "verify_solution", "simulate",
    ),
    "cli": ("main",),
}


def _frac_bits(x):
    return x.numerator.bit_length() + x.denominator.bit_length()


def _smith_bits(sf):
    return max(e.bit_size() for M in (sf.P, sf.Q, sf.P_inv, sf.Q_inv) for row in M.entries for e in row)


def _constraint_bits(cs):
    return max((_frac_bits(x) for row in cs.C.entries for x in row), default=0)


def _transfer_bits(out):
    num, den, _a_theta = out
    return max([den.bit_size()] + [e.bit_size() for row in num.entries for e in row])


# layer -> (name of the bit-size metric, measure on the return value)
MEASURES = {
    "canon.smith_form": ("canon.smith_form", _smith_bits),
    "constraints.build_plain_system": ("constraints.C", _constraint_bits),
    "constraints.build_predetermined_system": ("constraints.C", _constraint_bits),
    "solver.build_transfer": ("solver.transfer", _transfer_bits),
}


class Recorder:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, tag, error, bits, excluded]
        self.stack = []
        self.tag = None      # id of the operation the spans belong to
        self.paused = False  # when set, calls pass through unrecorded

    def wrap(self, name, fn):
        measure = MEASURES.get(name, (None, None))[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.tag, None, None, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if measure is not None:
                t0 = perf_counter()
                span[6] = measure(out)
                cost = perf_counter() - t0
                for idx in self.stack:  # keep measuring out of every enclosing span
                    self.spans[idx][7] += cost
            return out

        return wrapper

    def install(self):
        """Rebind every target on its module and wherever recausal re-imported it."""
        importlib.import_module("recausal.cli")
        mods = [m for n, m in list(sys.modules.items()) if n == "recausal" or n.startswith("recausal.")]
        for modname, names in TARGETS.items():
            mod = importlib.import_module("recausal." + modname)
            for fname in names:
                orig = getattr(mod, fname, None)
                if orig is None:
                    continue
                wrapped = self.wrap(f"{modname}.{fname}", orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def aggregate(spans, tag=None):
    """Per layer: calls, errors, inclusive and self seconds, max bits.

    Inclusive time counts only outermost calls of a layer, so recursion is
    not double counted; self time subtracts the direct children's time.
    With a tag, only spans of that operation are counted.
    """
    dur = [(sp[2] - sp[1] - sp[7]) for sp in spans]
    child = [0.0] * len(spans)
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            child[sp[3]] += dur[i]
    out = {}
    for i, sp in enumerate(spans):
        if tag is not None and sp[4] != tag:
            continue
        name = sp[0]
        row = out.setdefault(name, {"calls": 0, "errors": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        if sp[5] is not None and sp[5] != "CaseTimeout":
            row["errors"] += 1
        row["self_s"] += dur[i] - child[i]
        p = sp[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["s"] += dur[i]
        if sp[6] is not None:
            key = MEASURES[name][0]
            bits = out.setdefault(key + ".bits", {"max_bits": 0})
            bits["max_bits"] = max(bits["max_bits"], sp[6])
    return out


def parse_importtime(text):
    """Cumulative import seconds from `python -X importtime` stderr.

    Returns (recausal, sympy, numpy): recausal sums the top-level recausal
    entries (`import recausal.cli` nests the package under recausal.cli);
    sympy and numpy are their cumulative times wherever nested.
    """
    rec = sym = num = 0.0
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cum = int(parts[1]) / 1e6
        except ValueError:
            continue  # header line
        raw = parts[2]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        if depth == 0 and (name == "recausal" or name.startswith("recausal.")):
            rec += cum
        elif name == "sympy":
            sym += cum
        elif name == "numpy":
            num += cum
    return rec, sym, num
