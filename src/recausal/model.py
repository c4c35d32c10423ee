"""Model specification, JSON parsing, pi(z) and the pipeline of derived artifacts.

A model is the system

    sum_{k=0}^{K} sum_{h=0}^{H} A_kh E_{t-k}(y_{t+h-k}) = -u_t,

with s endogenous variables, q innovations, finite moving-average exogenous
process u_t = sum_j w_j eps_{t-j}, and predeterminedness multi-index
gamma = (s_0, ..., s_H) with sum(gamma) = s.

`REModel` and `PiPolynomial` are named tuples: build a changed model with
`m._replace(...)`.  A model is immutable once built and is its own pipeline: its
stages (`m.pi`, pi(z) with det pi and its integer rows, `m.adj`, `m.sf` its Smith
form, ..., `m.cs`) are read-only properties, each computed on first use and
memoized on the instance in `REModel.artifacts`, which refers to no model, so a
dropped model is freed at once.  Its A_kh and its Wold coefficients as integers
are in `REModel.numerators` and `REModel.wold_numerators`, and pi's rows in
`PiPolynomial.numerators`, which every other module reads; a model from
`_replace` starts with an empty memo.
`build_m_stack` stacks the m_i of zeta(z) = sum_i m_i z^i on integer rows, from
`REModel.numerators` alone: the constraint systems read them over H + max(g -
J1, 0) blocks, and the solve builds its right factor from K + H of them.
This module imports `canon` and `exactalg` alone; the stages that build a
constraint system import `recausal.constraints` on first use, so a command
that builds none never compiles it.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import lcm

from .canon import RedundantEquationsError, classify_roots, factor_stable_unstable
from .canon import LocalSmith, local_form, smith_form
from .exactalg import PolyMatrix, RationalMatrix, _numerators, _poly, _rmat, det_adjugate
from .exactalg import determinant, rat

SCHEMA_VERSION = 1


class ModelFormatError(ValueError):
    pass


def _stage(build):
    """An `REModel` stage: computed on first use and memoized in `REModel.artifacts`,
    the one place a stage is computed.  A stage that raises is not memoized; it
    raises again on the next use.  No setter: a stage cannot be assigned."""
    name = build.__name__

    def get(self):
        memo = self.artifacts
        if name not in memo:
            memo[name] = build(self)
        return memo[name]

    return property(get, doc=build.__doc__)


class REModel(namedtuple("REModel", "s K H q A gamma wold xi", defaults=(Fraction(1),))):
    """A (k, h) -> RationalMatrix with zero matrices omitted, gamma = (s_0, ..., s_H),
    wold = (w_0, ..., w_L) with each w_j s x q."""

    @cached_property
    def artifacts(self) -> dict:
        """stage name -> derived artifact, filled on first use (`_stage`).
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

    @cached_property
    def wold_numerators(self) -> tuple:
        """(L, W): W[i][c] the coefficients of entry (i, c) of w(z) = sum_j w_j z^j times L,
        lowest first, L the lcm of the w_j denominators; memoized like `numerators`."""
        L = lcm(*[x.denominator for w in self.wold for row in w.entries for x in row])
        return L, [[[(x := w.entries[i][c]).numerator * (L // x.denominator) for w in self.wold]
                     for c in range(self.q)] for i in range(self.s)]

    @_stage
    def pi(self):
        """pi(z) with its determinant and its integer rows (`PiPolynomial.numerators`)."""
        return build_pi(self)

    @_stage
    def adj(self):
        """adj pi(z) = A / L as `det_adjugate`'s pair (A, L): integer coefficient lists,
        lowest first, over one L > 0.  Read only by the solve after its split."""
        return det_adjugate(self.pi.pi)[1]

    @_stage
    def sf(self):
        """Smith form of pi(z): read by `recausal smith` and by `local` on a
        predetermined model with G > 0, never by solve, verify or simulate."""
        return smith_form(self.pi.pi)

    @_stage
    def local(self):
        """The `LocalSmith` (g, P^-1) the constraints read, by `local_form` on pi's rows; a
        predetermined model with G > 0, whose system depends on the factors, reads `sf`'s."""
        pp = self.pi
        if not (self.predetermined and pp.det[0] == 0):
            return local_form(pp.numerators[0], pp.det.zero_multiplicity())
        return LocalSmith(self.sf.g, _numerators(self.sf.P_inv.entries))

    @_stage
    def roots(self):
        """Roots of det pi(z) relative to the unit circle and xi."""
        return classify_roots(self.pi.det, self.xi)

    @_stage
    def split(self):
        """(D, S) of det pi = D S, D = z^G U: read only by the solve."""
        return factor_stable_unstable(self.pi.det, self.pi.J1, self.roots)

    @_stage
    def pb(self):
        from .constraints import frak_p_blocks

        return frak_p_blocks(self.local, self.pi.J1, self.H)

    @_stage
    def m_stack(self):
        """The m_i of zeta(z) stacked on integer rows (N, L), as many as p_stack
        has column blocks, H + max(g - J1, 0), or none at H = 0, where p_stack
        has no rows: the systems and bounds read it."""
        return build_m_stack(self, self.H and self.H + max(max(self.local.g) - self.pi.J1, 0))

    @_stage
    def plain_cs(self):
        """The plain system, on the row reduction's data at G > 0 too."""
        from .constraints import build_plain_system

        return build_plain_system(self, self.m_stack, self.pb)

    @_stage
    def cs(self):
        """The model's constraint system, in its own flavor."""
        if not self.predetermined:
            return self.plain_cs
        from .constraints import build_predetermined_system

        return build_predetermined_system(self, self.m_stack, self.pb, self.local)


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


# det = det pi(z), never identically zero (the adjugate is the stage `REModel.adj`); numerators =
# `_numerators(pi.entries)`, pi = N / L, L the lcm of the reduced entry denominators
PiPolynomial = namedtuple("PiPolynomial", "pi J0 J1 det numerators")


def build_pi(m: REModel) -> PiPolynomial:
    """pi(z) = sum_i A*_i z^{J1 - i}, A*_i = sum_k A_{k, k+i}, summed on `m.numerators`, with
    det pi by `determinant` on pi's integer rows, derived here once for every reader."""
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
    numerators = _numerators(pi.entries)
    det = determinant(*numerators)
    if det.is_zero():
        raise RedundantEquationsError(
            "det pi(z) is identically zero: system contains redundant equations"
        )
    return PiPolynomial(pi=pi, J0=J0, J1=J1, det=det, numerators=numerators)


def build_m_stack(m: REModel, n: int) -> tuple:
    """(N, L): the coefficients m_0, ..., m_(n-1) of zeta(z) stacked are N / L,
    N integer rows summed on (L, the A_kh times L) = m.numerators.  Column block j of
    m_i is minus the sum of the A_kh with k + j - h = i, h <= j < H."""
    s, H, (L, num) = m.s, m.H, m.numerators
    N = [[0] * (s * H) for _ in range(n * s)]
    for (k, h), A in num.items():
        for j in range(h, min(H, n + h - k)):
            for acc, row in zip(N[(k + j - h) * s :], A):
                for c, a in enumerate(row, j * s):
                    acc[c] -= a
    return N, L


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
    try:
        pp, g = m.pi, m.local.g
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
