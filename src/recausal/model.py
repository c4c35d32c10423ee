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
dropped model is freed at once.  Its A_kh and its Wold coefficients as integers over
one denominator are in `REModel.numerators`, and pi's rows in `PiPolynomial.numerators`,
which every other module reads; a model from `_replace` starts with an empty memo.
`build_m_stack` stacks the coefficients [m_i | w_i] of [zeta(z) | w(z)],
zeta(z) = sum_i m_i z^i, on integer rows from `REModel.numerators`, once: the stage
`m_stack`, the model's one coefficient stack, which each `ConstraintSystem` multiplies
its p_stack by.  `on_unknowns` maps integer rows on the sH entries of h to the solve's
unknowns on a predetermined model, the free entries of h and ker L (the stage `ker_l`):
the stage `causal`, the causal rows at z = 0, maps its product, and the stage `rf`, read
by the solve's product with adj pi alone, maps m_stack itself.  `causal` is the
predetermined system and the solve's rows mod z^(G+H), so analyze needs no
`recausal.solver` and solve no `recausal.constraints`.  This module imports `canon` and
`exactalg` alone; the stage plain_cs imports `recausal.constraints` on first use, whose
`build_plain_system` takes the model and nothing else.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm
from operator import mul

from .canon import RedundantEquationsError, classify_roots, factor_stable_unstable
from .canon import local_form, smith_form
from .exactalg import PolyMatrix, RationalMatrix, _combine, _echelon_kernel, _numerators, _poly
from .exactalg import _rmat, _row_echelon, _scaled, det_adjugate, determinant, rat

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
        """(L, {(k, h): A_kh times L as integer rows}, W), L the lcm of the denominators of the
        A_kh and the w_j, W the w_j times L stacked as integer rows, row j s + r holding row r
        of w_j: the one place the A_kh and the w_j become integers, memoized like `artifacts`."""
        L = lcm(*[x.denominator for a in (*self.A.values(), *self.wold) for row in a.entries
                  for x in row])
        return L, {kh: [[x.numerator * (L // x.denominator) for x in row] for row in a.entries]
                   for kh, a in self.A.items()}, [[x.numerator * (L // x.denominator) for x in row]
                                                  for w in self.wold for row in w.entries]

    @property
    def predetermined(self) -> bool:
        return any(si != 0 for si in self.gamma[1:])

    def free_unknowns(self) -> tuple:
        """Indices j s + r of one h column that predeterminedness leaves free:
        the first s_0 + ... + s_j rows of block j.  The other entries are zero."""
        s, gamma = self.s, self.gamma
        return tuple(j * s + r for j in range(self.H) for r in range(sum(gamma[: j + 1])))

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
        """Smith form of pi(z): read only by `recausal smith`."""
        return smith_form(self.pi.pi)

    @_stage
    def local(self):
        """The `LocalSmith` (g, P^-1) the constraints read, by `local_form` on pi's rows."""
        return local_form(self.pi.numerators[0], self.pi.det.zero_multiplicity())

    @_stage
    def ker_l(self):
        """A basis of ker L, L(d) = sum_(k,h) sum_(j<h) A_kh d_j z^(k+j-h) for d in Q^sH: the
        terms of pi(z) d(z) + M d = z^J1 L(d) that zeta(z) leaves, summed like build_m_stack,
        by one integer elimination.  Empty with none at J1 = H and G = 0: pi(0) = A_0H is then
        invertible, and the z^(j-H) coefficient of L(d) is A_0H d_j plus terms in d_(<j)."""
        s, H, pp = self.s, self.H, self.pi
        if pp.J1 == H and pp.det[0] != 0:
            return []
        rows = [[0] * (s * H) for _ in range((self.K + H) * s)]  # L(d) times numerators' L
        for (k, h), A in self.numerators[1].items():
            for j, (i, row) in product(range(h), enumerate(A)):
                for c, a in enumerate(row, j * s):
                    rows[(k + j - h + H) * s + i][c] += a
        return _echelon_kernel(rows, _row_echelon(rows, s * H), s * H)

    @_stage
    def roots(self):
        """Roots of det pi(z) relative to the unit circle and xi."""
        return classify_roots(self.pi.det, self.xi)

    @_stage
    def split(self):
        """(D, S) of det pi = D S, D = z^G U: read only by the solve."""
        return factor_stable_unstable(self.pi.det, self.pi.J1, self.roots)

    @_stage
    def m_stack(self):
        """[zeta | w] on integer rows (N, L), all of zeta(z) and w(z) (`build_m_stack`): the
        right factor of both systems, and of the solve on a plain model."""
        return build_m_stack(self)

    @_stage
    def rf(self):
        """The solve's right factor: m_stack on its unknowns, the free entries of h and ker L
        (`on_unknowns`), or m_stack itself on a plain model, whose unknowns are all sH
        entries of h.  Read only by the solve's product with adj pi."""
        return on_unknowns(self, *self.m_stack) if self.predetermined else self.m_stack

    @_stage
    def causal(self):
        """The causal rows at z = 0, a `ConstraintSystem` on the solve's unknowns: the free
        entries of h and ker L, or all sH entries of h on a plain model.  Row (i, t),
        t < H + g_i - J1, holds the z^t coefficients of row i of P^-1 (zeta p - w), zero for a
        causal solution: as pi = P diag(z^g) E with E and det pi / z^G units of Q[[z]], they
        say that z^(G+H) divides adj(pi) (M p - W), M = z^J1 zeta(z) and W = z^J1 w(z)."""
        return ConstraintSystem(self, frak_p_blocks(self.local, self.pi.J1, self.H, causal=True),
                                self.predetermined)

    @_stage
    def plain_cs(self):
        """The plain system, on the row reduction's data at G > 0 too."""
        from .constraints import build_plain_system

        return build_plain_system(self)

    @_stage
    def cs(self):
        """The model's constraint system, in its own flavor: the predetermined one is
        the stage `causal`."""
        return self.causal if self.predetermined else self.plain_cs


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
    L, num, _ = m.numerators
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


def build_m_stack(m: REModel) -> tuple:
    """(N, L): [m_i | w_i] for i < max(K + H, len(wold)), the coefficients of zeta(z) and w(z)
    stacked, are N / L, N integer rows summed on (L, the A_kh times L, W) = m.numerators.
    Column block j of m_i is minus the sum of the A_kh with k + j - h = i, h <= j < H;
    w_i is zero past w's degree."""
    s, H, (L, num, W) = m.s, m.H, m.numerators
    N = [[0] * (s * H) + (W[i] if i < len(W) else [0] * m.q)
         for i in range(max(m.K + H, len(m.wold)) * s)]
    for (k, h), A in num.items():
        for j in range(h, H):
            for acc, row in zip(N[(k + j - h) * s :], A):
                for c, a in enumerate(row, j * s):
                    acc[c] -= a
    return N, L


def on_unknowns(m: REModel, rows: list, den: int) -> tuple:
    """(rows', den'): integer rows [X | B] / den, X on the sH entries of h, as
    [X's free columns | X v for v in ker L | B] / den' on the solve's unknowns, the free
    entries of h (`REModel.free_unknowns`) and the coordinates of d in ker L (the stage
    `ker_l`): each v is scaled to integers by one lcm lk, and den' = den lk."""
    n, free, kv = m.s * m.H, m.free_unknowns(), [_scaled(v) for v in m.ker_l]
    lk = lcm(*(lv for _, lv in kv))
    kv = [(v, lk // lv) for v, lv in kv]
    return [[x[a] * lk for a in free] + [sum(map(mul, x, v)) * c for v, c in kv]
            + [b * lk for b in x[n:]] for x in rows], den * lk


def frak_p_blocks(loc, J1: int, H: int, causal: bool = False) -> tuple:
    """(rows, L): p_stack = rows / L, the per-row coefficient blocks of P^-1 shaped
    by the partial multiplicities on loc.p_inv's integers (loc a `LocalSmith`), stacked by
    row k of P^-1, each s(H + max(g - J1, 0)) wide: the row of coefficient t of row k of
    P^-1 zeta holds coefficients t, ..., 0 of row k of P^-1.  Block k has the H rows
    t = g_k - J1 .. g_k - J1 + H - 1, a row t < 0 zero, or, causal, the rows
    t = 0 .. H + g_k - J1 - 1, none if H + g_k <= J1."""
    g, (N, L) = loc.g, loc.p_inv
    n = H + max(max(g) - J1, 0)
    return [[f[t - j] if 0 <= t - j < len(f) else 0 for j in range(n) for f in N[k]]
            for k, gk in enumerate(g) for t in range(0 if causal else gk - J1, H + gk - J1)], L


class ConstraintSystem:
    """C x = rhs from [C | rhs] = D R on integer rows: D = pb = (P, L') a stack of coefficient
    rows of P^-1 (`frak_p_blocks`) and R = (B, L) the model's stage `m_stack`, [zeta | w], one
    `_combine` per row of P on B's rows.  The n unknowns x are all sH entries of h (flavor
    "plain"), or, predetermined, the free entries of h and the coordinates of d in ker L, onto
    which `on_unknowns` maps the product rows.  rank_w and the kernel are read off a copy of
    the rows eliminated on C's columns (`_row_echelon`), `echelon` with its pivot columns
    `pivots`, and `consistent` says that no row below them has a nonzero rhs; C, D and rhs,
    Fraction matrices, are built on first read, D with no columns when it has no rows."""

    def __init__(self, m: REModel, pb: tuple, predetermined: bool = False):
        self.flavor = "predetermined" if predetermined else "plain"
        (P, lp), (B, L), n = pb, m.m_stack, m.s * m.H
        rows, den, self.effective_unknowns = [_combine(zip(r, B), n + m.q) for r in P], lp * L, n
        if predetermined:  # the p-space: the free entries and ker L's part on the forced ones
            free = m.free_unknowns()
            d = [_scaled([v[a] for a in range(n) if a not in free])[0] for v in m.ker_l]
            self.effective_unknowns = len(free) + len(_row_echelon(d, n - len(free)))
            (rows, den), n = on_unknowns(m, rows, den), len(free) + len(m.ker_l)
        self._pb, self._den, self._rows, self.n, self._q = pb, den, rows, n, m.q
        self.echelon = [list(r) for r in rows]
        self.pivots = _row_echelon(self.echelon, n)
        self.rank_w = len(self.pivots)

    kernel_dim = property(lambda self: self.effective_unknowns - self.rank_w)
    consistent = property(lambda self: not any(map(any, self.echelon[self.rank_w :])))
    C = property(lambda self: self._matrices[0])
    D = property(lambda self: self._matrices[1])
    rhs = property(lambda self: self._matrices[2])

    @cached_property
    def _matrices(self) -> tuple:
        (P, lp), n = self._pb, self.n
        C, rhs = ([[Fraction(x, self._den) for x in r[cols]] for r in self._rows]
                  for cols in (slice(n), slice(n, None)))
        D = _rmat([[Fraction(x, lp) for x in row] for row in P])
        return _rmat(C, n), D, _rmat(rhs, self._q)

    @cached_property
    def kernel(self) -> tuple:
        return tuple(_echelon_kernel(self.echelon, self.pivots, self.n))


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
