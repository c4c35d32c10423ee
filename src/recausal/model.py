"""Model specification, JSON parsing, and construction of pi(z).

A model is the system

    sum_{k=0}^{K} sum_{h=0}^{H} A_kh E_{t-k}(y_{t+h-k}) = -u_t,

with s endogenous variables, q innovations, finite moving-average exogenous
process u_t = sum_j w_j eps_{t-j}, and predeterminedness multi-index
gamma = (s_0, ..., s_H) with sum(gamma) = s.

`REModel` and `PiPolynomial` are named tuples: build a changed model with
`m._replace(...)`.  A model is immutable once built: the artifacts derived
from it (pi(z) with det pi, adj pi, its Smith form, the constraint systems)
are memoized on the instance in `REModel.artifacts`, filled by
`recausal.dimension.Pipeline`, and its A_kh as integers in `REModel.numerators`,
which every other module reads; a model from `_replace` starts with an empty memo.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import lcm

from .canon import RedundantEquationsError
from .exactalg import Poly, PolyMatrix, RationalMatrix, _poly, _rmat, determinant, rat

SCHEMA_VERSION = 1


class ModelFormatError(ValueError):
    pass


class REModel(namedtuple("REModel", "s K H q A gamma wold xi", defaults=(Fraction(1),))):
    """A (k, h) -> RationalMatrix with zero matrices omitted, gamma = (s_0, ..., s_H),
    wold = (w_0, ..., w_L) with each w_j s x q."""

    @cached_property
    def artifacts(self) -> dict:
        """stage name -> derived artifact, filled on first use (dimension.Pipeline).
        It lives in the instance __dict__ (REModel declares no __slots__), not in
        a field: == ignores it and `_replace` starts an empty one."""
        return {}

    @cached_property
    def numerators(self) -> tuple:
        """(L, {(k, h): A_kh times L as integer rows}), L the lcm of the A_kh denominators:
        the one place the A_kh become integers, memoized like `artifacts`."""
        L = lcm(*[x.denominator for a in self.A.values() for row in a.entries for x in row])
        return L, {kh: [[x.numerator * (L // x.denominator) for x in row] for row in a.entries]
                   for kh, a in self.A.items()}

    def a(self, k: int, h: int) -> RationalMatrix:
        return self.A[k, h] if (k, h) in self.A else RationalMatrix.zero(self.s, self.s)

    @property
    def predetermined(self) -> bool:
        return any(si != 0 for si in self.gamma[1:])

    def free_unknowns(self) -> tuple:
        """Indices j s + r of one h column that predeterminedness leaves free:
        the first s_0 + ... + s_j rows of block j.  The other entries are zero."""
        s, gamma = self.s, self.gamma
        return tuple(j * s + r for j in range(self.H) for r in range(sum(gamma[: j + 1])))

    def wold_coeff(self, j: int) -> RationalMatrix:
        if 0 <= j < len(self.wold):
            return self.wold[j]
        return RationalMatrix.zero(self.s, self.q)

    def wold_poly(self) -> PolyMatrix:
        return PolyMatrix([[Poly([w.entries[i][j] for w in self.wold]) for j in range(self.q)]
                           for i in range(self.s)])


def _parse_matrix(obj, rows, cols, what, seen: dict) -> RationalMatrix:
    if not isinstance(obj, list) or len(obj) != rows:
        raise ModelFormatError(f"{what}: expected {rows} rows")
    out = []
    for row in obj:
        if not isinstance(row, list) or len(row) != cols:
            raise ModelFormatError(f"{what}: expected {cols} columns per row")
        try:  # seen: the document's entries parsed so far; the type test first: True == 1
            out.append([_bad(e) if type(e) not in (str, int) else seen[e] if e in seen
                        else seen.setdefault(e, rat(e)) for e in row])
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ModelFormatError(f"{what}: malformed rational entry: {exc}") from exc
    return _rmat(out)


def _bad(e):
    raise TypeError(f"rationals must be strings or integers, got {type(e).__name__}")


def parse_xi(value) -> Fraction:
    """The growth bound xi from an integer or a string "p/q"; it must be at least 1."""
    try:
        xi = rat(value) if type(value) is not bool else _bad(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ModelFormatError(f"xi must be a rational number, got {value!r}") from exc
    if xi < 1:
        raise ModelFormatError("xi must be at least 1")
    return xi


def parse_model(text: str) -> REModel:
    """Parse and validate a model from its JSON document."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ModelFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    for key in ("s", "K", "H", "q", "gamma", "A", "wold"):
        if key not in doc:
            raise ModelFormatError(f"missing required field '{key}'")
    s, K, H, q = doc["s"], doc["K"], doc["H"], doc["q"]
    # type(v) is int, not isinstance: JSON true and false load as bool, an int subclass
    for name, v in (("s", s), ("K", K), ("H", H), ("q", q)):
        if type(v) is not int or v < 0:
            raise ModelFormatError(f"'{name}' must be a non-negative integer")
    if s < 1:
        raise ModelFormatError("'s' must be positive")
    if q > s:
        raise ModelFormatError(f"stochastic singularity requires q <= s, got q={q} > s={s}")
    gamma = doc["gamma"]
    if not isinstance(gamma, list) or len(gamma) != H + 1:
        raise ModelFormatError(f"gamma must list H+1 = {H + 1} entries")
    if any(type(g) is not int or g < 0 for g in gamma):
        raise ModelFormatError("gamma entries must be non-negative integers")
    if sum(gamma) != s:
        raise ModelFormatError(f"gamma sum mismatch: sum(gamma)={sum(gamma)} != s={s}")
    if not isinstance(doc["A"], list) or not all(isinstance(e, dict) for e in doc["A"]):
        raise ModelFormatError("'A' must be a list of objects")
    if not isinstance(doc["wold"], list):
        raise ModelFormatError("'wold' must be a list of matrices")
    A, seen = {}, {}
    for item in doc["A"]:
        k, h = item.get("k"), item.get("h")
        if type(k) is not int or type(h) is not int:
            raise ModelFormatError("each A entry needs integer 'k' and 'h'")
        if not (0 <= k <= K and 0 <= h <= H):
            raise ModelFormatError(f"A index (k={k}, h={h}) out of range")
        if (k, h) in A:
            raise ModelFormatError(f"duplicate A entry for (k={k}, h={h})")
        mat = _parse_matrix(item.get("matrix"), s, s, f"A[{k},{h}]", seen)
        if not mat.is_zero():
            A[(k, h)] = mat
    if K > 0 and not any(k == K for (k, _h) in A):
        raise ModelFormatError(f"K={K} is not realized: all A_Kh are zero")
    if H > 0 and not any(h == H for (_k, h) in A):
        raise ModelFormatError(f"H={H} is not realized: all A_kH are zero")
    if not A:
        raise ModelFormatError("all coefficient matrices are zero")
    wold = tuple(
        _parse_matrix(w, s, q, f"wold[{j}]", seen) for j, w in enumerate(doc["wold"])
    )
    if not wold:
        raise ModelFormatError("wold list must contain at least w_0")
    xi = parse_xi(doc.get("xi", 1))
    return REModel(s=s, K=K, H=H, q=q, A=A, gamma=tuple(gamma), wold=wold, xi=xi)


# det = det pi(z), never identically zero (the adjugate is the pipeline's own
# stage, `Pipeline.adj`)
PiPolynomial = namedtuple("PiPolynomial", "pi J0 J1 det")


def build_pi(m: REModel) -> PiPolynomial:
    """pi(z) = sum_i A*_i z^{J1 - i}, A*_i = sum_k A_{k, k+i}, summed on `m.numerators`."""
    L, num = m.numerators
    sums = {}
    for (k, h), a in num.items():
        b = sums.get(h - k)
        sums[h - k] = a if b is None else [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    stars = [i for i in sorted(sums) if any(map(any, sums[i]))]
    if not stars:
        raise RedundantEquationsError(
            "pi(z) is identically zero (all diagonal sums A*_i vanish): "
            "system contains redundant equations"
        )
    J0, J1 = stars[0], stars[-1]
    zero = [[0] * m.s] * m.s
    coeffs = [sums.get(J1 - d, zero) for d in range(J1 - J0 + 1)]  # L times that of z^d
    pi = PolyMatrix([[_poly(list(f), L) for f in zip(*rows)] for rows in zip(*coeffs)])
    det = determinant(pi)
    if det.is_zero():
        raise RedundantEquationsError(
            "det pi(z) is identically zero: system contains redundant equations"
        )
    return PiPolynomial(pi=pi, J0=J0, J1=J1, det=det)


def validate_semantics(m: REModel) -> dict:
    """Point checks of the solvability assumptions; report style, no raise."""
    report = {"checks": [], "warnings": [], "ok": True}

    def check(name, ok, detail=""):
        report["checks"].append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            report["ok"] = False

    check("q_le_s", m.q <= m.s, f"q={m.q}, s={m.s}")
    check(
        "K_realized",
        m.K == 0 or any(k == m.K for (k, _h) in m.A),
        f"K={m.K}",
    )
    check(
        "H_realized",
        m.H == 0 or any(h == m.H for (_k, h) in m.A),
        f"H={m.H}",
    )
    check("gamma_sum", sum(m.gamma) == m.s, f"gamma={m.gamma}")
    from .dimension import run_pipeline  # dimension imports this module

    pipe = run_pipeline(m)
    try:
        pp, g = pipe.pi, pipe.local.g
        check("det_pi_nonzero", True, f"G = {sum(g)} zero(s) at zero, g = {g}")
        if any(gi > pp.J1 for gi in g):
            report["warnings"].append(
                f"partial multiplicities exceed J1={pp.J1}: g={g} "
                "(finite non-causality structure present)"
            )
        if pp.J1 < 0:
            report["warnings"].append(
                f"J1={pp.J1} < 0: the system dates every equation in the strict past"
            )
    except RedundantEquationsError as exc:
        check("det_pi_nonzero", False, str(exc))
    return report
