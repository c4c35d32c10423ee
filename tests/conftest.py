"""Shared fixtures: random model corpus, oracle helpers, paper fixtures.

Everything random is seeded, so the whole suite is deterministic.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from fractions import Fraction
from itertools import chain, combinations, product
from math import isqrt, lcm, prod

import pytest

from recausal.canon import (
    LocalSmith,
    RedundantEquationsError,
    RootClassification,
    SmithForm,
    UnitCircleRootError,
    classify_roots,
    root_discs,
)
from recausal.exactalg import (
    Poly,
    PolyMatrix,
    RationalMatrix,
    _int_product,
    _numerators,
    _poly,
    _echelon_kernel,
    _rmat,
    _row_echelon,
    _scaled,
    _solve_rows,
    det_adjugate,
    determinant,
    poly_gcd,
    rat,
    rat_rows,
    rat_str,
)
from recausal.model import SCHEMA_VERSION, REModel, build_m_stack, build_pi, frak_p_blocks
from recausal.solver import FactorizationError, _cancellation_rows, factor_stable_unstable


# one PASS/FAIL line per acceptance criterion, emitted after the run summary
# (filled in by tests/test_acceptance.py)
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# random rational building blocks


def rand_frac(rng: random.Random, lo=-4, hi=4, maxden=3, nonzero=False) -> Fraction:
    while True:
        f = Fraction(rng.randint(lo, hi), rng.randint(1, maxden))
        if f != 0 or not nonzero:
            return f


def rand_matrix(rng, rows, cols, **kw) -> RationalMatrix:
    return RationalMatrix([[rand_frac(rng, **kw) for _ in range(cols)] for _ in range(rows)])


def rand_invertible(rng, n) -> RationalMatrix:
    while True:
        m = rand_matrix(rng, n, n)
        if rank_of(m) == n:
            return m


def rand_poly(rng, deg, **kw) -> Poly:
    coeffs = [rand_frac(rng, **kw) for _ in range(deg)] + [rand_frac(rng, nonzero=True, **kw)]
    return Poly(coeffs)


def rand_polymatrix(rng, n, max_deg, cols=None, **kw) -> PolyMatrix:
    return PolyMatrix(
        [
            [
                Poly([rand_frac(rng, **kw) for _ in range(rng.randint(0, max_deg) + 1)])
                for _ in range(n if cols is None else cols)
            ]
            for _ in range(n)
        ]
    )


def rand_unimodular(rng, n, ops=4) -> PolyMatrix:
    """Product of elementary shear matrices: unimodular by construction."""
    u = identity_polymatrix(n)
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        e = [[Poly.const(1 if a == b else 0) for b in range(n)] for a in range(n)]
        e[i][j] = Poly([rand_frac(rng, -2, 2, 2) for _ in range(rng.randint(1, 2))])
        u = mat_mul(u, PolyMatrix(e))
    return u


def unimodular_inverse(M: PolyMatrix) -> PolyMatrix:
    det, adj = det_adjugate(M)
    assert det.is_constant() and not det.is_zero()
    return adj_matrix(adj) * (Fraction(1) / det[0])


def adj_matrix(adj: tuple) -> PolyMatrix:
    """The PolyMatrix A / L of det_adjugate's pair (A, L)."""
    A, L = adj
    return PolyMatrix([[_poly(list(f), L) for f in row] for row in A])


# ---------------------------------------------------------------------------
# algebra only the tests use


def identity_polymatrix(n: int) -> PolyMatrix:
    return diag_matrix([Poly.const(1)] * n)


def identity_matrix(n: int) -> RationalMatrix:
    return RationalMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def zero_matrix(rows: int, cols: int) -> RationalMatrix:
    """The rows x cols zero matrix, which keeps cols when it has no rows."""
    return _rmat([[Fraction(0)] * cols for _ in range(rows)], cols)


def mat_mul(*factors: PolyMatrix) -> PolyMatrix:
    """The product of the factors, left to right, one `Poly.addmul` per entry product: the
    reference the commands' packed integer products (`_int_product`) are checked against."""
    out = factors[0]
    for B in factors[1:]:
        assert out.cols == B.rows
        rows = []
        for row in out.entries:
            acc = [Poly()] * B.cols
            for a, brow in zip(row, B.entries):
                acc = [x.addmul(a, b) for x, b in zip(acc, brow)]
            rows.append(acc)
        out = PolyMatrix(rows, B.cols)
    return out


def mat_add(A: PolyMatrix, B: PolyMatrix) -> PolyMatrix:
    assert (A.rows, A.cols) == (B.rows, B.cols)
    return PolyMatrix([[a + b for a, b in zip(r, o)] for r, o in zip(A.entries, B.entries)], A.cols)


def mat_sub(A: PolyMatrix, B: PolyMatrix) -> PolyMatrix:
    return mat_add(A, B * -1)


def rmat_mul(*factors) -> RationalMatrix:
    """The product of the RationalMatrix factors, left to right, by the textbook Fraction
    loop; an int or Fraction factor scales every entry."""
    out = factors[0]
    for B in factors[1:]:
        if isinstance(B, (int, Fraction)):
            out = _rmat([[e * B for e in row] for row in out.entries], out.cols)
            continue
        assert out.cols == B.rows, (out.cols, B.rows)
        out = _rmat([[sum((a * brow[j] for a, brow in zip(row, B.entries)), Fraction(0))
                      for j in range(B.cols)] for row in out.entries], B.cols)
    return out


def rmat_add(A: RationalMatrix, B: RationalMatrix) -> RationalMatrix:
    assert (A.rows, A.cols) == (B.rows, B.cols)
    return _rmat([[a + b for a, b in zip(r, o)] for r, o in zip(A.entries, B.entries)], A.cols)


def rmat_sub(A: RationalMatrix, B: RationalMatrix) -> RationalMatrix:
    return rmat_add(A, rmat_mul(B, -1))


def rmat_transpose(M: RationalMatrix) -> RationalMatrix:
    return _rmat([[row[j] for row in M.entries] for j in range(M.cols)], M.rows)


def wold_coeff(m: REModel, j: int) -> RationalMatrix:
    """w_j of m, the zero matrix beyond the Wold terms."""
    return m.wold[j] if 0 <= j < len(m.wold) else zero_matrix(m.s, m.q)


def mat_shift(M: PolyMatrix, k: int) -> PolyMatrix:
    """Every entry times z^k, by Poly.shift (a negative k divides, which must be exact)."""
    return PolyMatrix([[e.shift(k) for e in row] for row in M.entries], M.cols)


def max_degree(M: PolyMatrix):
    """The largest degree of an entry of M; -inf for a zero matrix."""
    degs = [e.degree for row in M.entries for e in row if not e.is_zero()]
    return max(degs) if degs else float("-inf")


def coeff(M: PolyMatrix, k: int) -> RationalMatrix:
    """Coefficient matrix of z^k."""
    return _rmat([[e[k] for e in row] for row in M.entries])


def a_kh(m: REModel, k: int, h: int) -> RationalMatrix:
    """A_kh of m, the zero matrix for an omitted pair."""
    return m.A[k, h] if (k, h) in m.A else zero_matrix(m.s, m.s)


def root_total(rc: RootClassification) -> int:
    """The number of roots a classification lists, each by its multiplicity."""
    return rc.zero_multiplicity + len(rc.stable_roots) + len(rc.unstable_roots)


def diag_matrix(polys) -> PolyMatrix:
    n = len(polys)
    return PolyMatrix([[polys[i] if i == j else Poly() for j in range(n)] for i in range(n)])


def smith_size(sf: SmithForm) -> int:
    return len(sf.g)


def poly_eval(p: Poly, x) -> Fraction:
    """p(x) by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_lcm(a: Poly, b: Poly) -> Poly:
    """Monic least common multiple; 0 if either is 0."""
    if a.is_zero() or b.is_zero():
        return Poly()
    return (a * b).exact_div(poly_gcd(a, b)).monic()


def zero_polymatrix(rows: int, cols: int) -> PolyMatrix:
    return PolyMatrix([[Poly() for _ in range(cols)] for _ in range(rows)])


def polymatrix_from_rational(m: RationalMatrix) -> PolyMatrix:
    """The constant polynomial matrix with coefficient m."""
    return PolyMatrix([[Poly.const(e) for e in row] for row in m.entries])


def submatrix(M: RationalMatrix, row_idx, col_idx) -> RationalMatrix:
    return _rmat([[M.entries[i][j] for j in col_idx] for i in row_idx], len(col_idx))


def vstack(mats) -> RationalMatrix:
    mats = list(mats)
    cols = mats[0].cols
    assert all(m.cols == cols for m in mats)
    return _rmat([list(row) for m in mats for row in m.entries], cols)


def hstack(mats) -> RationalMatrix:
    mats = list(mats)
    rows = mats[0].rows
    assert all(m.rows == rows for m in mats)
    return _rmat(
        [sum((m.entries[i] for m in mats), []) for i in range(rows)], sum(m.cols for m in mats)
    )


def solve_affine(M: RationalMatrix, B: RationalMatrix):
    """(particular X or None if inconsistent, kernel basis of M) of M X = B for matrix
    right-hand sides: `exactalg._solve_rows` on the rows of [M | B] scaled to integers."""
    X, kern = _solve_rows([_scaled(a + b)[0] for a, b in zip(M.entries, B.entries)], M.cols, B.cols)
    return None if X is None else _rmat(X, B.cols), kern


def invert(M: RationalMatrix) -> RationalMatrix:
    assert M.rows == M.cols
    X, kern = solve_affine(M, identity_matrix(M.rows))
    if X is None or kern:
        raise ValueError("matrix is singular")
    return X


def residual_map(m: REModel, zc: PolyMatrix, J1: int):
    """(M, W) with M = z^J1 zeta(z) and W = z^J1 w(z), so that the residual
    R(z; h) = M h - W is N(z; h) without its pi(z) h(z) term; the map is the
    same for every innovation column.  The solver reads the same product
    unshifted and prepends J1 zero coefficients to each entry."""
    return mat_shift(zc, J1), mat_shift(ref_wold_poly(m), J1)


def smith_reconstruct(sf: SmithForm) -> PolyMatrix:
    """P diag(z^g) diag(phi) Q, the matrix sf is the Smith form of."""
    alpha = diag_matrix([Poly.monomial(gi) for gi in sf.g])
    return mat_mul(sf.P, alpha, diag_matrix(list(sf.phi)), sf.Q)


def assemble_rhs(m: REModel, zc, J1: int, pi: PolyMatrix):
    """(A, W) with N(z; h) = A h - W, the s x q right-hand polynomial of the SDE.

    N(z; h) = pi(z) (sum_j h_j z^j) + (sum_i m_i z^{J1+i}) h_stack - w(z) z^{J1},
    so column a = j s + r of the s x sH matrix A is z^j pi[:, r] + z^J1 zeta[:, a];
    the map is identical across innovation columns.  The solver's residual
    M h - W is this without the pi(z) h(z) term.
    """
    M, W = residual_map(m, zc, J1)
    s = m.s
    return PolyMatrix([[pi.entries[i][a % s].shift(a // s) + M.entries[i][a] for a in range(M.cols)]
                       for i in range(s)]), W


def map_at(A: PolyMatrix, W: PolyMatrix, h: RationalMatrix) -> PolyMatrix:
    """A h - W for a constant loading stack h."""
    return mat_sub(mat_mul(A, PolyMatrix(h.entries, h.cols)), W)


# ---------------------------------------------------------------------------
# plain-Fraction reference polynomial (oracle for exactalg.Poly)


class RefPoly:
    """Polynomial as a tuple of Fractions, lowest first, trailing zeros trimmed.

    Every operation is the textbook per-coefficient Fraction loop, so it is
    the oracle the integer-numerator `Poly` is checked against.
    """

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        return isinstance(other, RefPoly) and self.coeffs == other.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return RefPoly([self[i] + other[i] for i in range(n)])

    def __neg__(self):
        return RefPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RefPoly):
            return RefPoly([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return RefPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RefPoly(out)

    def divmod(self, other):
        rem = list(self.coeffs)
        db = len(other.coeffs) - 1
        if len(rem) - 1 < db:
            return RefPoly(), RefPoly(rem)
        quo = [Fraction(0)] * (len(rem) - db)
        for i in range(len(rem) - db - 1, -1, -1):
            c = rem[i + db] / other.coeffs[-1]
            quo[i] = c
            for j, b in enumerate(other.coeffs):
                rem[i + j] -= c * b
        return RefPoly(quo), RefPoly(rem[:db])

    def monic(self):
        return self * (1 / self.coeffs[-1]) if self.coeffs else self

    def shift(self, k):
        return RefPoly((Fraction(0),) * k + self.coeffs) if self.coeffs else self

    def eval(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def bit_size(self):
        return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in self.coeffs)


def ref_gcd(a: RefPoly, b: RefPoly) -> RefPoly:
    while b.coeffs:
        a, b = b, a.divmod(b)[1].monic()
    return a.monic()


def ref_det(M):
    """Determinant of a square list-of-lists RefPoly matrix by Laplace expansion.

    Expands along the top row; each minor of the bottom rows is computed once
    per column set, so an n x n matrix takes n 2^(n-1) products, not about n!.
    """
    n = len(M)
    memo = {(): RefPoly([1])}

    def minor(cols):
        if cols not in memo:
            r, acc = n - len(cols), RefPoly()
            for j, c in enumerate(cols):
                term = M[r][c] * minor(cols[:j] + cols[j + 1 :])
                acc = acc + term if j % 2 == 0 else acc - term
            memo[cols] = acc
        return memo[cols]

    return minor(tuple(range(n)))


def ref_adjugate(M):
    """Adjugate from cofactors: adj[i][j] = (-1)^(i+j) det(M without row j, col i)."""
    n = len(M)
    return [
        [
            ref_det([[M[r][c] for c in range(n) if c != i] for r in range(n) if r != j])
            * (1 if (i + j) % 2 == 0 else -1)
            for j in range(n)
        ]
        for i in range(n)
    ]


def ref_det_adjugate(M: PolyMatrix):
    """(det M, adj M) by the Faddeev-LeVerrier recursion over Q[z].

    The same recursion as `exactalg.det_adjugate`, run with one `Poly` product
    per entry operation instead of on one packed integer matrix.
    """
    n = M.rows
    if n == 0:
        return Poly.const(1), PolyMatrix([])
    N = identity_polymatrix(n)
    for k in range(1, n):
        MN = mat_mul(M, N)
        c = sum((MN.entries[i][i] for i in range(n)), Poly()) * Fraction(-1, k)
        N = mat_add(MN, diag_matrix([c] * n))
    MN = mat_mul(M, N)
    det = sum((MN.entries[i][i] for i in range(n)), Poly()) * Fraction(1, n)
    # det M = (-1)^n c_n = -(-1)^n tr(M N_{n-1}) / n, adj M = (-1)^(n-1) N_{n-1}
    sign = 1 if n % 2 else -1
    return det * sign, N * sign


# ---------------------------------------------------------------------------
# reference eliminations: Fraction Gauss-Jordan and the four-factor Smith form


def _ref_row_echelon(entries, ncols):
    """In-place Fraction Gauss-Jordan; returns the pivot columns.  Pivot: the
    entry of least bit size, ties by lowest row.  Rows are not normalised."""
    nrows, pivots = len(entries), []
    for c in range(ncols):
        cands = [(e.numerator.bit_length() + e.denominator.bit_length(), r)
                 for r in range(len(pivots), nrows) if (e := entries[r][c]) != 0]
        if not cands:
            continue
        t, r = len(pivots), min(cands)[1]
        entries[t], entries[r] = entries[r], entries[t]
        prow = entries[t]
        for r2, row2 in enumerate(entries):
            if r2 != t and row2[c] != 0:
                ratio = row2[c] / prow[c]
                for c2 in range(c, len(row2)):
                    row2[c2] -= prow[c2] * ratio
        pivots.append(c)
        if len(pivots) == nrows:
            break
    return pivots


def _ref_kernel(entries, pivots, ncols):
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -entries[r][fc] / entries[r][pc]
        basis.append(v)
    return basis


def ref_rank_kernel(M: RationalMatrix):
    entries = [list(row) for row in M.entries]
    pivots = _ref_row_echelon(entries, M.cols)
    return len(pivots), _ref_kernel(entries, pivots, M.cols)


def ref_rank_of(M: RationalMatrix) -> int:
    return len(_ref_row_echelon([list(row) for row in M.entries], M.cols))


def ref_rref(M: RationalMatrix) -> list:
    """The nonzero rows of the reduced row echelon form of M."""
    entries = [list(row) for row in M.entries]
    pivots = _ref_row_echelon(entries, M.cols)
    return [[x / row[pc] for x in row] for row, pc in zip(entries, pivots)]


def ref_solve_affine(M: RationalMatrix, B: RationalMatrix):
    """(particular X as entry lists, or None if inconsistent; kernel of M)."""
    aug = [list(mrow) + list(brow) for mrow, brow in zip(M.entries, B.entries)]
    pivots = _ref_row_echelon(aug, M.cols)
    kern = _ref_kernel(aug, pivots, M.cols)
    for row in aug:
        if all(x == 0 for x in row[: M.cols]) and any(x != 0 for x in row[M.cols :]):
            return None, kern
    part = [[Fraction(0)] * B.cols for _ in range(M.cols)]
    for r, pc in enumerate(pivots):
        for j in range(B.cols):
            part[pc][j] = aug[r][M.cols + j] / aug[r][pc]
    return part, kern


RefSmith = namedtuple("RefSmith", "P Q g phi P_inv Q_inv")


def ref_smith_form(M: PolyMatrix) -> RefSmith:
    """M = P diag(z^g) diag(phi) Q by the elimination smith_form runs, with all
    four unimodular factors P, Q, P^-1, Q^-1 updated by every operation."""
    n = M.rows
    D = [list(row) for row in M.entries]
    P, Pinv, Q, Qinv = ([list(r) for r in identity_polymatrix(n).entries] for _ in range(4))

    def add_row(i, j, f):  # row_i += f row_j; P: col_j -= f col_i
        for c in range(n):
            D[i][c] += f * D[j][c]
            Pinv[i][c] += f * Pinv[j][c]
            P[c][j] -= f * P[c][i]

    def add_col(i, j, f):  # col_i += f col_j; Q: row_j -= f row_i
        for r in range(n):
            D[r][i] += f * D[r][j]
            Qinv[r][i] += f * Qinv[r][j]
            Q[j][r] -= f * Q[i][r]

    for t in range(n):
        while True:
            cands = [(D[i][j].degree, D[i][j].bit_size(), i, j)
                     for i in range(t, n) for j in range(t, n) if not D[i][j].is_zero()]
            if not cands:
                raise RedundantEquationsError("det is identically zero")
            _, _, bi, bj = min(cands)
            D[t], D[bi], Pinv[t], Pinv[bi] = D[bi], D[t], Pinv[bi], Pinv[t]
            for r in range(n):
                P[r][t], P[r][bi] = P[r][bi], P[r][t]
                D[r][t], D[r][bj] = D[r][bj], D[r][t]
                Qinv[r][t], Qinv[r][bj] = Qinv[r][bj], Qinv[r][t]
            Q[t], Q[bj] = Q[bj], Q[t]
            pivot, dirty = D[t][t], False
            for i in range(t + 1, n):
                if not D[i][t].is_zero():
                    q, r = D[i][t].divmod(pivot)
                    add_row(i, t, -q)
                    dirty = dirty or not r.is_zero()
            for j in range(t + 1, n):
                if not D[t][j].is_zero():
                    q, r = D[t][j].divmod(pivot)
                    add_col(j, t, -q)
                    dirty = dirty or not r.is_zero()
            if dirty:
                continue
            offender = next((i for i in range(t + 1, n) for j in range(t + 1, n)
                             if not (D[i][j] % pivot).is_zero()), None)
            if offender is None:
                break
            add_row(t, offender, Poly.const(1))
    g, phi = [], []
    for t in range(n):
        c = 1 / D[t][t].coeffs[-1]
        for k in range(n):
            Pinv[t][k] *= c
            P[k][t] *= 1 / c
        d = D[t][t] * c
        g.append(d.zero_multiplicity())
        phi.append(Poly(d.coeffs[g[-1]:]))
    return RefSmith(PolyMatrix(P), PolyMatrix(Q), tuple(g), tuple(phi),
                    PolyMatrix(Pinv), PolyMatrix(Qinv))


# ---------------------------------------------------------------------------
# Smith-form and root-location oracles


def invariant_factors_oracle(M: PolyMatrix):
    """Invariant factors as quotients of gcds of k x k minors."""
    if M.rows != M.cols:
        raise ValueError("square matrix required")
    n = M.rows
    det, _ = det_adjugate(M)
    if det.is_zero():
        raise RedundantEquationsError("det is identically zero")
    d_prev = Poly.const(1)
    out = []
    for k in range(1, n + 1):
        gcd = Poly()
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                sub = PolyMatrix([[M.entries[i][j] for j in cols] for i in rows])
                minor, _ = det_adjugate(sub)
                if not minor.is_zero():
                    gcd = poly_gcd(gcd, minor)
            if gcd.is_constant() and not gcd.is_zero():
                break
        d_k = gcd.monic()
        out.append(d_k.exact_div(d_prev).monic())
        d_prev = d_k
    return out


def is_unimodular(M: PolyMatrix) -> bool:
    if M.rows != M.cols:
        raise ValueError("square matrix required")
    det, _ = det_adjugate(M)
    return (not det.is_zero()) and det.degree == 0


def ref_classify_roots(p: Poly, xi=1, tol: float = 1e-9) -> RootClassification:
    """Float classifier: companion-matrix eigenvalues from numpy, gated by tol.

    Factors z^m out exactly; a root with modulus within tol of the ring
    [1/xi, 1] raises UnitCircleRootError.
    """
    import numpy as np

    xi = rat(xi)
    if p.is_zero():
        raise ValueError("cannot classify roots of the zero polynomial")
    if xi < 1:
        raise ValueError("xi must be at least 1")
    m = p.zero_multiplicity()
    coeffs = [float(c) for c in p.coeffs[m:]]
    deg = len(coeffs) - 1
    if deg == 0:
        return RootClassification(m, (), (), xi)
    comp = np.zeros((deg, deg))
    comp[0, :] = [-c / coeffs[-1] for c in coeffs[-2::-1]]
    comp[1:, :-1] = np.eye(deg - 1)
    lo = 1.0 / float(xi)
    stable, unstable = [], []
    for r in np.linalg.eigvals(comp):
        if lo - tol <= abs(r) <= 1.0 + tol:
            raise UnitCircleRootError(f"root {r:.12g} lies in the ring [{lo:.6g}, 1]")
        (stable if abs(r) > 1.0 else unstable).append(complex(r))
    key = lambda c: (c.real, c.imag)
    return RootClassification(
        m, tuple(sorted(stable, key=key)), tuple(sorted(unstable, key=key)), xi
    )


# ---------------------------------------------------------------------------
# random model generation


def random_model(
    rng: random.Random,
    s,
    K,
    H,
    q=None,
    gamma=None,
    sparsity=0.75,
    wold_len=None,
    force_g0=False,
    kill_a0h=False,
    tries=80,
):
    """Random valid model; rejects singular pi and unit-circle roots.

    force_g0 makes A*_{J1} invertible (so all partial multiplicities vanish);
    kill_a0h zeroes A_{0H} (with K >= 1 this pushes J1 below H).
    """
    q = q or rng.randint(1, s)
    if gamma is None:
        gamma = tuple([s] + [0] * H)
    assert sum(gamma) == s and len(gamma) == H + 1
    for _ in range(tries):
        A = {}
        for k in range(K + 1):
            for h in range(H + 1):
                if rng.random() < sparsity:
                    mat = rand_matrix(rng, s, s)
                    if not mat.is_zero():
                        A[(k, h)] = mat
        # make sure K and H are realized
        if K > 0 and not any(k == K for (k, _h) in A):
            A[(K, rng.randint(0, H))] = rand_matrix(rng, s, s, nonzero=True)
        if H > 0 and not any(h == H for (_k, h) in A):
            A[(rng.randint(0, K), H)] = rand_matrix(rng, s, s, nonzero=True)
        if kill_a0h:
            A.pop((0, H), None)
            if K == 0 or H == 0:
                raise ValueError("kill_a0h needs K >= 1 and H >= 1")
            A[(1, H)] = rand_invertible(rng, s)
        elif force_g0:
            A[(0, H)] = rand_invertible(rng, s)
        if not A:
            continue
        wl = wold_len or rng.randint(1, 2)
        wold = tuple(rand_matrix(rng, s, q) for _ in range(wl))
        if wold[0].is_zero():
            continue
        m = REModel(s=s, K=K, H=H, q=q, A=A, gamma=tuple(gamma), wold=wold)
        try:
            det, _ = det_adjugate(build_pi(m).pi)
            classify_roots(det, m.xi)
        except (RedundantEquationsError, UnitCircleRootError):
            continue
        return m
    raise RuntimeError("could not generate a valid random model")


def random_gamma(rng, s, H):
    """Random predeterminedness multi-index with s_0 >= 1."""
    gamma = [0] * (H + 1)
    gamma[0] = 1
    for _ in range(s - 1):
        gamma[rng.randrange(H + 1)] += 1
    return tuple(gamma)


UNSTABLE_ROOTS = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3))
STABLE_ROOTS = (Fraction(2), Fraction(-2), Fraction(3, 2), Fraction(-3, 2), Fraction(5, 2))


def planted_model(rng: random.Random, s, H, g_last, predetermined=False) -> REModel:
    """Model with pi = U diag(z^g_i (z - r_i)) V for unimodular U, V.

    g = (0, ..., 0, g_last) and one root r_i inside the unit circle, the rest
    outside, so the Smith form and the stable/unstable split are known. As
    g_0 = 0 keeps pi(0) != 0, J1 = H; pi = sum_i A*_i z^{H - i} is realized
    with A_{0,h} = A*_h and A_{k,0} = A*_{-k}.
    """
    g = [0] * (s - 1) + [g_last]
    roots = [rng.choice(UNSTABLE_ROOTS)] + [rng.choice(STABLE_ROOTS) for _ in range(s - 1)]
    rng.shuffle(roots)
    diag = diag_matrix([Poly.monomial(gi) * Poly([-r, 1]) for gi, r in zip(g, roots)])
    pi = mat_mul(rand_unimodular(rng, s), diag, rand_unimodular(rng, s))
    D = int(max_degree(pi))
    A = {}
    for d in range(D + 1):
        mat = coeff(pi, d)
        if not mat.is_zero():
            A[(0, H - d) if d <= H else (d - H, 0)] = mat
    q = rng.randint(1, s)
    while True:
        w0 = rand_matrix(rng, s, q)
        if not w0.is_zero():
            break
    gamma = random_gamma(rng, s, H) if predetermined else tuple([s] + [0] * H)
    return REModel(s=s, K=max(D - H, 0), H=H, q=q, A=A, gamma=gamma, wold=(w0,))


def defect_model() -> REModel:
    """The predetermined J1 < H model whose solution fails substitution at lag 0."""
    rng = random.Random(6)
    return random_model(rng, 3, 1, 2, gamma=random_gamma(rng, 3, 2))


def planted_models():
    """Planted models over s = 3, 4, H = 1, 2, g_last = 1 or H + 1, both flavors."""
    rng = random.Random(20261018)
    return [
        planted_model(rng, s, H, g_last, predetermined)
        for s in (3, 4)
        for H in (1, 2)
        for g_last in (1, H + 1)
        for predetermined in (False, True)
    ]


def deep_planted_models():
    """Planted models with g_last = H + 2, so g > J1 + 1 (planted models have J1 = H)."""
    rng = random.Random(77)
    return [planted_model(rng, s, H, H + 2, pre)
            for s in (2, 3) for H in (1, 2) for pre in (False, True)]


def ladder_shaped_models():
    """Generic models in the shapes of the benchmark ladder, 40 in all.

    Rungs (s, K, H) up to (4, 1, 1), plain and predetermined, each with J1 = H
    (force_g0: A_{0,H} invertible, so det pi(0) != 0) and J1 = H - 1
    (kill_a0h: A_{0,H} dropped and A_{1,H} invertible), two draws each.
    """
    rng = random.Random(20261101)
    return [
        random_model(
            rng, s, K, H, gamma=random_gamma(rng, s, H) if predetermined else None,
            force_g0=not below, kill_a0h=below,
        )
        for s, K, H in ((2, 1, 1), (2, 2, 2), (3, 1, 1), (3, 2, 2), (4, 1, 1))
        for predetermined in (False, True)
        for below in (False, True)
        for _ in range(2)
    ]


@pytest.fixture(scope="session")
def predetermined_probe():
    return probe_models()


def probe_models():
    """150 predetermined draws: s in {2, 3}, K, H in {1, 2}, kill_a0h with probability 1/2."""
    rng = random.Random(99)
    models = []
    for _ in range(150):
        s, K, H = rng.choice((2, 3)), rng.choice((1, 2)), rng.choice((1, 2))
        kill = rng.random() < 0.5
        models.append(random_model(rng, s, K, H, gamma=random_gamma(rng, s, H), kill_a0h=kill))
    return models


@pytest.fixture(scope="session")
def corpus():
    return corpus_models()


def corpus_models():
    """100 random models, all with s <= 3 and K, H <= 2 (see acceptance)."""
    rng = random.Random(20260823)
    models = []
    for _ in range(38):  # plain, assorted shapes
        s = rng.randint(1, 3)
        models.append(
            random_model(rng, s, rng.randint(0, 2), rng.randint(1, 2), q=rng.randint(1, s))
        )
    for _ in range(2):  # H = 0 degenerate corner
        s = rng.randint(1, 3)
        models.append(random_model(rng, s, rng.randint(0, 2), 0, q=rng.randint(1, s)))
    for _ in range(30):  # predetermined
        s = rng.randint(2, 3)
        H = rng.randint(1, 2)
        models.append(
            random_model(rng, s, rng.randint(0, 2), H, q=rng.randint(1, s),
                         gamma=random_gamma(rng, s, H))
        )
    for _ in range(15):  # all partial multiplicities zero
        s = rng.randint(1, 3)
        models.append(random_model(rng, s, rng.randint(0, 2), rng.randint(1, 2), force_g0=True))
    for _ in range(15):  # J1 < H
        s = rng.randint(1, 3)
        models.append(random_model(rng, s, rng.randint(1, 2), rng.randint(1, 2), kill_a0h=True))
    assert len(models) == 100
    return models


def serialize_model(m: REModel) -> str:
    """Normalized JSON form: lowest terms, sorted (k, h), zero matrices omitted.
    `parse_model` reads it back to an equal model."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "s": m.s,
        "K": m.K,
        "H": m.H,
        "q": m.q,
        "gamma": list(m.gamma),
        "A": [
            {"k": k, "h": h, "matrix": rat_rows(m.A[(k, h)])}
            for (k, h) in sorted(m.A)
        ],
        "wold": [rat_rows(w) for w in m.wold],
        "xi": rat_str(m.xi),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# constraints from the global Smith form (references for the local stage)


def smith_reference(m: REModel, sf: SmithForm | None = None) -> REModel:
    """A copy of m whose stages read the constraints from a Smith factorization of pi:
    sf, or the global Smith form without one.

    The copy has its own memo, in which the `local` stage is the data at z = 0
    of that factorization whatever det pi(0) is, so its dimension_report,
    plain_cs and solve_causal are those of a model that always runs the elimination.
    """
    ref = m._replace()
    ref.artifacts["local"] = smith_local(ref.sf if sf is None else sf)
    return ref


# ---------------------------------------------------------------------------
# brute-force constraint oracle (independent derivation, see tests)


def brute_force_plain(m: REModel, pp, sf: SmithForm):
    """Plain-flavor constraints derived directly from the revision conditions.

    This oracle covers the non-predetermined ansatz only: with predetermined
    variables, part of these conditions is absorbed by the variables' own
    innovation responses (the source's Sims discussion is exactly such a case),
    so the reduced predetermined system is checked against its own published
    values and special-case formulas instead.

    The ansatz requires the revisions (E_{t-i} - E_{t-i-1}), i = 0..H-1, of
    alpha(z)^{-1} P(z)^{-1} (zeta - u)_{t-J1} to vanish.  Row k of that vector
    is z^{J1 - g_k} times row k of P^{-1}(z)(sum_i m_i z^i eps_stack - w(z)),
    and the i-th revision extracts the coefficient of z^i — so the constraint
    for (k, i) is: coefficient i + g_k - J1 of the polynomial row must vanish.
    """
    s, H, q = m.s, m.H, m.q
    T = mat_mul(sf.P_inv, ref_zeta_coefficients(m))
    W = mat_mul(sf.P_inv, ref_wold_poly(m))
    rows, rhs = [], []
    for k in range(s):
        for i in range(H):
            pw = i + sf.g[k] - pp.J1
            if pw < 0:
                rows.append([Fraction(0)] * (s * H))
                rhs.append([Fraction(0)] * q)
            else:
                rows.append([T.entries[k][a][pw] for a in range(s * H)])
                rhs.append([W.entries[k][c][pw] for c in range(q)])
    if not rows:
        return zero_matrix(0, 0), zero_matrix(0, q)
    return RationalMatrix(rows), RationalMatrix(rhs)


def affine_set(M: RationalMatrix, B: RationalMatrix, n_unknowns: int):
    """(particular | None, kernel basis) of M x = B in R^{n_unknowns}."""
    if M.rows == 0:
        part = zero_matrix(n_unknowns, B.cols)
        kern = [
            [Fraction(1) if i == j else Fraction(0) for i in range(n_unknowns)]
            for j in range(n_unknowns)
        ]
        return part, kern
    assert M.cols == n_unknowns
    return solve_affine(M, B)


def same_affine_set(set_a, set_b) -> bool:
    """Equality of two affine solution sets given as (particular, kernel)."""
    (xa, ka), (xb, kb) = set_a, set_b
    if xa is None or xb is None:
        return (xa is None) and (xb is None)
    if len(ka) != len(kb):
        return False
    if ka:
        union = RationalMatrix([list(v) for v in ka] + [list(v) for v in kb])
        if rank_of(union) != len(ka):
            return False
    diff = rmat_sub(xa, xb)
    if diff.is_zero():
        return True
    if not ka:
        return False
    # difference of particulars must lie in the common kernel span
    kmat = rmat_transpose(RationalMatrix([list(v) for v in ka]))
    x, _ = solve_affine(kmat, diff)
    return x is not None


def ref_build_pi(m: REModel):
    """(pi, J0, J1, det, (N, L)) by the Fraction assembly: each A*_i = sum_k A_{k, k+i} a
    RationalMatrix sum, the zero sums dropped, each entry of pi(z) = sum_i A*_i z^(J1 - i)
    over the lcm of its own coefficients' denominators, and pi's rows N / L, L the lcm
    of all its coefficients' denominators.  The reference for `build_pi`, which sums
    `REModel.numerators`; None when every A*_i is zero."""
    sums = {}
    for (k, h), a in m.A.items():
        sums[h - k] = rmat_add(sums[h - k], a) if h - k in sums else a
    stars = {i: a for i, a in sums.items() if not a.is_zero()}
    if not stars:
        return None
    J0, J1 = min(stars), max(stars)
    entries = [[None] * m.s for _ in range(m.s)]
    for r, c in product(range(m.s), repeat=2):
        fs = {J1 - i: a.entries[r][c] for i, a in stars.items()}
        den = lcm(*(f.denominator for f in fs.values()))
        num = [0] * (J1 - J0 + 1)
        for d, f in fs.items():
            num[d] = f.numerator * (den // f.denominator)
        entries[r][c] = _poly(num, den)
    L = lcm(*(c.denominator for row in entries for e in row for c in e.coeffs))
    rows = [[[int(c * L) for c in e.coeffs] for e in row] for row in entries], L
    return PolyMatrix(entries), J0, J1, determinant(*rows), rows


def ref_zeta_coefficients(m: REModel) -> PolyMatrix:
    """zeta(z) (s x sH) by one Fraction subtraction per term into each coefficient
    list: the reference for `build_m_stack`, which sums integer numerators."""
    s, H = m.s, m.H
    coeffs = [[[Fraction(0)] * (H + m.K) for _ in range(s * H)] for _ in range(s)]
    for (k, h), A in m.A.items():
        for j in range(h, H):
            for r, row in enumerate(A.entries):
                for c, a in enumerate(row):
                    coeffs[r][j * s + c][k + j - h] -= a
    return PolyMatrix([[Poly(cs) for cs in row] for row in coeffs])


def ref_m_stack(zc: PolyMatrix, pb: tuple) -> RationalMatrix:
    """The coefficient matrices m_0, m_1, ... of zeta(z) stacked by
    `coeff`, as many as p_stack, pb = (rows, L), has column blocks
    (none without rows): the reference for the prefix of `REModel.m_stack` that the
    constraint systems read."""
    n = len(pb[0][0]) // zc.rows if pb[0] else 0
    return vstack([coeff(zc, i) for i in range(n)]) if n else zero_matrix(0, zc.cols)


def ref_constraint_matrix(m: REModel) -> RationalMatrix:
    """The plain system's Fraction C by matrix products: p_stack m_stack."""
    pb = frak_p_blocks(m.local, m.pi.J1, m.H)
    return rmat_mul(vstack(fraction_blocks(pb, m.s)), ref_m_stack(ref_zeta_coefficients(m), pb))


def ref_causal_system(m: REModel, loc: LocalSmith) -> tuple:
    """(D, C, rhs) of the predetermined system by Poly products: row (i, t), t < H + g_i - J1,
    holds the z^t coefficients of row i of P^-1 zeta(z) [e_a for the free a | d for the d of
    ker L] (C) and of P^-1 w(z) (rhs), P^-1 from loc as a PolyMatrix, and coefficients t, t - 1,
    ..., 0 of row i of P^-1 in its column blocks 0, 1, ..., t (D, as wide as p_stack:
    H + max(g - J1, 0) blocks)."""
    s, J1, free, ker = m.s, m.pi.J1, m.free_unknowns(), ref_expectation_kernel(m)
    (N, L), width = loc.p_inv, m.s * (m.H + max(max(loc.g) - m.pi.J1, 0))
    p_inv = PolyMatrix([[_poly(list(f), L) for f in row] for row in N])
    T = mat_mul(p_inv, PolyMatrix([
        [row[a] for a in free] + [sum((e * x for e, x in zip(row, v)), Poly()) for v in ker] + w
        for row, w in zip(ref_zeta_coefficients(m).entries, ref_wold_poly(m).entries)],
        len(free) + len(ker) + m.q))
    at = [(i, t) for i, gi in enumerate(loc.g) for t in range(m.H + gi - J1)]
    n = len(free) + len(ker)
    D = _rmat([[p_inv.entries[i][c % s][t - c // s] if c // s <= t else Fraction(0)
                for c in range(width)] for i, t in at], width)
    C = _rmat([[T.entries[i][c][t] for c in range(n)] for i, t in at], n)
    return D, C, _rmat([[T.entries[i][c][t] for c in range(n, T.cols)] for i, t in at], m.q)


def causal_rows_oracle(m: REModel) -> tuple:
    """(kernel dimension, heads rank, consistency, reduced echelon form) of the causal rows
    mod z^(G+H): z^(G+H) divides adj(pi) (M p - W), M = z^J1 zeta(z) and W = z^J1 w(z), for
    p = h + d with h zero outside the free entries and d in ker L, the unknowns the free
    entries and d's coordinates (all sH entries of h and no ker L on a plain model).
    adj(pi) from `det_adjugate`, the right factor from the Poly residual map, the rows
    [X | B] from `_cancellation_rows` with z^(G+H) in place of `full_unknown_system`'s
    z^H D.  The heads rank is the dimension of the p of the kernel, as the solve counts its
    heads; the reduced echelon form is `ref_rref`'s of the [X | B] rows, pivots in B too,
    so it names their row space."""
    H, q, n, free = m.H, m.q, m.s * m.H, m.free_unknowns()
    M, W = residual_map(m, ref_zeta_coefficients(m), m.pi.J1)
    ker = ref_expectation_kernel(m) if m.predetermined else []
    width = len(free) + len(ker)
    right, _den = _numerators([[row[a] for a in free]
                               + [sum((row[a] * v[a] for a in range(n)), Poly()) for v in ker] + w
                               for row, w in zip(M.entries, W.entries)])
    det, (A, _la) = det_adjugate(m.pi.pi)
    rows = _cancellation_rows(_int_product(A, right, width + q),
                              Poly.monomial(det.zero_multiplicity() + H))
    X, kern = affine_set(RationalMatrix([r[:width] for r in rows]),
                         RationalMatrix([r[width:] for r in rows]), width)
    return len(kern), heads_rank(kern, free, ker, n), X is not None, ref_rref(RationalMatrix(rows))


def heads_rank(kern, free, ker, n: int) -> int:
    """The rank of the heads p = h + sum_i c_i d_i of the kernel vectors v = (h's entries
    at free, then the c_i), d_i the vectors of ker, h zero outside free, p in Q^n: the
    dimension of the distinct solutions in a kernel, as Psi is a function of its head p."""
    heads = [[(v[free.index(a)] if a in free else 0)
              + sum(c * d[a] for c, d in zip(v[len(free):], ker)) for a in range(n)] for v in kern]
    return rank_of(RationalMatrix(heads)) if heads else 0


def rank_kernel(M: RationalMatrix):
    """Exact rank and a basis of the right kernel by src's integer elimination: M's rows
    scaled to integers (`_scaled`), `_row_echelon` and `_echelon_kernel`, as the constraint
    systems count theirs."""
    entries = [_scaled(row)[0] for row in M.entries]  # integer rows, same row space
    pivots = _row_echelon(entries, M.cols)
    return len(pivots), _echelon_kernel(entries, pivots, M.cols)


def rank_of(M: RationalMatrix) -> int:
    return rank_kernel(M)[0]


def int_stack(M: RationalMatrix) -> tuple:
    """(N, L) with M = N / L on integer rows, L the lcm of M's denominators:
    a stack as the constraint systems take m_stack."""
    L = lcm(*(x.denominator for row in M.entries for x in row))
    return [[x.numerator * (L // x.denominator) for x in row] for row in M.entries], L


def ref_expectation_kernel(m: REModel):
    """A basis of the d in Q^sH with pi(z) d(z) + M d = 0, M = z^J1 zeta(z),
    from the polynomial products: the reference for `REModel.ker_l`."""
    s, n = m.s, m.s * m.H
    M, _ = residual_map(m, ref_zeta_coefficients(m), m.pi.J1)
    images = [mat_add(mat_mul(m.pi.pi, PolyMatrix([[Poly.monomial(a // s) if r == a % s else Poly()]
                                                   for r in range(s)])),
                      PolyMatrix([[row[a]] for row in M.entries])) for a in range(n)]
    top = max((int(max_degree(v)) + 1 for v in images if max_degree(v) >= 0), default=0)
    return rank_kernel(RationalMatrix([[v.entries[r][0][k] for v in images]
                                       for r in range(s) for k in range(top)]))[1]


def full_unknown_system(m: REModel):
    """The causal solve's affine set of h over all sH entries of each h column.

    Built over every entry: a unit row for every entry that predeterminedness
    forces to zero (read here from gamma directly), and the divisibility of
    adj(pi) (M p - W) by z^H D for p = h + d, d in the kernel of
    d -> pi(z) d(z) + M d taken from the polynomial products themselves
    (predetermined flavor only).  Returns the h part of the affine set in
    (h, d): no nonzero d has h = 0, as p is then the head of pi^-1 N(z; 0).
    """
    X, kern, _ker = _full_unknown_affine(m)
    n = m.s * m.H
    if X is None:
        return None, [v[:n] for v in kern]
    return submatrix(X, range(n), range(m.q)), [v[:n] for v in kern]


def ref_min_norm_shift(X: list, kernel) -> list:
    """The min-norm point of X + span K on Fractions, K's columns the kernel vectors and X
    a list of Fraction rows: X - K coef for K^T K coef = K^T X, every product a Fraction sum.
    The reference for `solver._min_norm_shift`, which forms them on integers."""
    if not kernel:
        return X

    def dot(u, v):
        return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))

    G = [[dot(u, v) for v in kernel] for u in kernel]
    KX = [[dot(u, col) for col in zip(*X)] for u in kernel]
    coef = solve_affine(_rmat(G), _rmat(KX, len(X[0])))[0].entries
    return [[x - dot(ka, c) for x, c in zip(row, zip(*coef))] for row, ka in zip(X, zip(*kernel))]


def full_unknown_heads(m: REModel) -> int:
    """The dimension of the distinct causal solutions by a rank of their heads: the heads
    rank (`heads_rank`) of the kernel of `full_unknown_system`'s (h, d) rows, or 0 when they
    are inconsistent; the reference for `solve_causal`'s indeterminacy_dim / q."""
    X, kern, ker = _full_unknown_affine(m)
    n = m.s * m.H
    return 0 if X is None else heads_rank(kern, range(n), ker, n)


def _full_unknown_affine(m: REModel) -> tuple:
    """(particular or None, kernel, ker L's basis) of `full_unknown_system`'s rows in (h, d)."""
    s, H, q = m.s, m.H, m.q
    n = s * H
    M, W = residual_map(m, ref_zeta_coefficients(m), m.pi.J1)
    ker = ref_expectation_kernel(m) if m.predetermined else []
    width = n + len(ker)
    cols = [[row[a] for a in range(n)] + [sum((row[a] * v[a] for a in range(n)), Poly())
                                          for v in ker] for row in M.entries]
    rows, rhs = [], []
    for j in range(H):
        for r in range(sum(m.gamma[: j + 1]), s):
            rows.append([Fraction(int(a == j * s + r)) for a in range(width)])
            rhs.append([Fraction(0)] * q)
    D, _ = factor_stable_unstable(m.pi.det, m.pi.J1, m.roots)
    right, _den = _numerators([c + w for c, w in zip(cols, W.entries)])
    P = _int_product(m.adj[0], right, width + q)  # adj(pi) [M | W] over a positive factor
    canc = _cancellation_rows(P, D.shift(H))
    rows, rhs = rows + [r[:width] for r in canc], rhs + [r[width:] for r in canc]
    if not rows:  # keep the column counts of an empty system
        return (*affine_set(zero_matrix(0, width), zero_matrix(0, q), width), ker)
    return (*affine_set(RationalMatrix(rows), RationalMatrix(rhs), width), ker)


def substitution_set(m: REModel):
    """The affine set of h whose causal stable transfer verify_solution accepts,
    and the dimension of the distinct solutions in it.

    Returns ((particular or None, kernel basis), dim) over all sH entries of one
    h column.  Built from the residual series, not from the solver's rows:
    the unknowns are h and the coefficients of a polynomial P, Psi = P / S with
    S the stable part of det pi / z^G from sympy (ref_split_phi), so Psi is
    causal and stable.  The rows say that Psi is the transfer of h,
    pi P = S N(z; h) for N = pi(z) h(z) + z^J1 (zeta(z) h - w(z)); that the
    residuals R_d = sum_(k,h) A_kh Psi_(d-k+h) + w_d vanish for d = 0 .. B,
    which makes S R, a polynomial of degree at most B, zero; that the forced
    entries of h are zero; and, in the plain flavor, that Psi_j = h_j for
    j < H.  pi P = 0 forces P = 0, so h determines P: the h parts of the kernel
    are independent, and the rank of their P parts counts the distinct Psi.
    """
    s, H, q = m.s, m.H, m.q
    pp = build_pi(m)
    pi, J1, n = pp.pi, pp.J1, s * H
    G = pp.det.zero_multiplicity()
    S = ref_split_phi(pp.det.shift(-G).monic(), m.xi)[0]
    zc = ref_zeta_coefficients(m)
    # N(z; h) one unknown at a time, and its constant -z^J1 w(z)
    cols = [[pi.entries[i][a % s].shift(a // s) + zc.entries[i][a].shift(J1) for i in range(s)]
            for a in range(n)]
    const = mat_shift(ref_wold_poly(m) * Fraction(-1), J1)
    dN = max(int(e.degree) for e in chain(chain.from_iterable(cols), *const.entries)
             if not e.is_zero())
    dS, dpi = int(S.degree), int(max_degree(pi))
    nP = max((s - 1) * dpi + dN - (int(pp.det.degree) - dS), 0) + 1  # coefficients of P
    nU = n + s * nP

    def form(unknown=None, c=None):
        f = [Fraction(0)] * (nU + q)
        if unknown is not None:
            f[unknown] = Fraction(1)
        if c is not None:
            f[nU:] = c
        return f

    def axpy(acc, x, f):
        if x:
            for i, v in enumerate(f):
                if v:
                    acc[i] += x * v

    rows = []
    # pi P = S N(z; h), coefficient by coefficient
    for i in range(s):
        s_cols, s_const = [S * col[i] for col in cols], [S * e for e in const.entries[i]]
        for d in range(max(dpi + nP, dS + dN + 1)):
            f = form()
            for r in range(s):
                for k in range(max(0, d - dpi), min(d, nP - 1) + 1):
                    f[n + r * nP + k] += pi.entries[i][r][d - k]
            for a in range(n):
                f[a] -= s_cols[a][d]
            f[nU:] = [-e[d] for e in s_const]
            rows.append(f)
    # Psi = P / S as a series, far enough for the residuals to lag B
    B = max(dS + len(m.wold) - 1, m.K + nP - 1, m.K + dS + H)
    psi = []
    for j in range(B + H + 1):
        out = []
        for r in range(s):
            f = form(n + r * nP + j) if j < nP else form()
            for l in range(1, min(j, dS) + 1):
                axpy(f, -S[l], psi[j - l][r])
            out.append([v / S[0] for v in f])
        psi.append(out)
    for d in range(B + 1):
        for i in range(s):
            f = form(c=wold_coeff(m, d).entries[i])
            for (k, h), A in m.A.items():
                if k <= d:
                    for r in range(s):
                        axpy(f, A.entries[i][r], psi[d - k + h][r])
            rows.append(f)
    for j in range(H):
        for r in range(s):
            if r >= sum(m.gamma[: j + 1]):
                rows.append(form(j * s + r))
            elif not m.predetermined:
                f = list(psi[j][r])
                f[j * s + r] -= 1
                rows.append(f)
    X, kern = affine_set(RationalMatrix([f[:nU] for f in rows]),
                         RationalMatrix([[-v for v in f[nU:]] for f in rows]), nU)
    dim = rank_of(RationalMatrix([v[n:] for v in kern])) if X is not None and kern else 0
    h_set = (None if X is None else submatrix(X, range(n), range(q)), [v[:n] for v in kern])
    return h_set, dim


# ---------------------------------------------------------------------------
# Fraction and Poly forms of the integer layouts (references for them)


def ref_wold_poly(m: REModel) -> PolyMatrix:
    """w(z) = sum_j w_j z^j (s x q) as a polynomial matrix: the Poly form of
    `REModel.wold_numerators`."""
    return PolyMatrix([[Poly([w.entries[i][j] for w in m.wold]) for j in range(m.q)]
                       for i in range(m.s)], m.q)


def m_stack_zeta(m: REModel) -> PolyMatrix:
    """zeta(z) (s x sH) read off build_m_stack(m, K + H), row i s + r coefficient i
    of zeta's row r over the stack's L: the layout the solve's right factor reads."""
    s, n = m.s, m.K + m.H
    N, L = build_m_stack(m, n)
    return PolyMatrix([[_poly([N[i * s + r][c] for i in range(n)], L) for c in range(s * m.H)]
                       for r in range(s)], s * m.H)


def ref_adj_product(m: REModel, adj: tuple, J1: int, free, ker_l) -> PolyMatrix:
    """z^J1 adj(pi) [zeta's free columns | zeta ker L | w] by Poly arithmetic, adj(pi) the
    pipeline's pair (A, L): the right factor assembled as a PolyMatrix from
    `ref_zeta_coefficients` and `ref_wold_poly`, the reference for `solver._adj_product`
    over its denominator."""
    zc = ref_zeta_coefficients(m)
    right = PolyMatrix([
        [row[a] for a in free] + [sum((e * x for e, x in zip(row, v)), Poly()) for v in ker_l] + w
        for row, w in zip(zc.entries, ref_wold_poly(m).entries)], len(free) + len(ker_l) + m.q)
    return mat_shift(mat_mul(adj_matrix(adj), right), J1)


# g, the coefficients of P^-1 (lowest power first) and E(0), as Fraction matrices
RefLocal = namedtuple("RefLocal", "g p_inv e0")


def smith_local(sf: SmithForm) -> LocalSmith:
    """The `LocalSmith` of the global Smith form, on integers as `local_form` returns one."""
    return LocalSmith(sf.g, _numerators(sf.P_inv.entries))


def fraction_local(pi: PolyMatrix, loc: LocalSmith, n: int | None = None) -> RefLocal:
    """The integer `LocalSmith` of pi as Fractions: its first n coefficient matrices of
    P^-1 (all it holds without n), and E(0), row i the z^g_i coefficient of row i of
    the Poly product P^-1 pi."""
    N, L = loc.p_inv
    n = max(len(f) for row in N for f in row) if n is None else n
    p_inv = tuple(_rmat([[Fraction(f[t] if t < len(f) else 0, L) for f in row] for row in N])
                  for t in range(n))
    prod_rows = mat_mul(PolyMatrix([[_poly(list(f), L) for f in row] for row in N]), pi).entries
    e0 = _rmat([[f[gi] for f in row] for row, gi in zip(prod_rows, loc.g)])
    return RefLocal(loc.g, p_inv, e0)


def ref_local_form(pi: PolyMatrix, G: int) -> RefLocal:
    """`local_form`'s row reduction with its results assembled as Fraction matrices,
    and pi(0) for E(0) at G = 0: the reference for the integer LocalSmith's layout."""
    s = pi.rows
    if not G:
        return RefLocal((0,) * s, (identity_matrix(s),), coeff(pi, 0))
    N, L = _numerators(pi.entries)
    rows = [list(r) + [[int(i == k)] for k in range(s)] for i, r in enumerate(N)]
    at = lambda f, t: f[t] if 0 <= t < len(f) else 0
    val = lambda f: next((t for t, x in enumerate(f) if x), G)
    while sum(v := [min(map(val, r[:s])) for r in rows]) < G:
        low = [[at(f, vi) for f in r[:s]] + [int(i == k) for k in range(s)]
               for i, (r, vi) in enumerate(zip(rows, v))]
        c = low[len(_row_echelon(low, s))][s:]
        j = max((i for i in range(s) if c[i]), key=v.__getitem__)
        sup = [(ci, v[j] - vi, r) for ci, vi, r in zip(c, v, rows) if ci]
        rows[j] = [[sum(ci * at(r[k], t - d) for ci, d, r in sup)
                    for t in range(max(d + len(r[k]) for _, d, r in sup))] for k in range(2 * s)]
    order = sorted(range(s), key=v.__getitem__)
    p_inv = tuple(RationalMatrix([[at(f, t) for f in rows[i][s:]] for i in order])
                  for t in range(max(len(f) for r in rows for f in r[s:])))
    E0 = RationalMatrix([[Fraction(at(f, v[i]), L) for f in rows[i][:s]] for i in order])
    return RefLocal(tuple(v[i] for i in order), p_inv, E0)


def ref_smith_local(sf: SmithForm, order: int | None = None) -> RefLocal:
    """The Smith form's `LocalSmith` and E(0) as Fraction matrices: P^-1's coefficient
    matrices below z^order (all of them without an order) and E(0), row i the z^g_i
    coefficient of row i of the Poly product P^-1 pi."""
    order = int(max_degree(sf.P_inv)) + 1 if order is None else order  # P^-1 is not zero
    p_inv = (coeff(sf.P_inv, k) for k in range(order))
    E0 = _rmat([[f[gi] for f in row] for row, gi in zip(mat_mul(sf.P_inv, sf.pi).entries, sf.g)])
    return RefLocal(sf.g, tuple(p_inv), E0)


def int_local(g: tuple, p_inv: tuple) -> LocalSmith:
    """The integer `LocalSmith` of Fraction data: g and P^-1's coefficient matrices."""
    L = lcm(*(x.denominator for c in p_inv for row in c.entries for x in row))
    N = [[[c.entries[i][k].numerator * (L // c.entries[i][k].denominator) for c in p_inv]
          for k in range(len(g))] for i in range(len(g))]
    return LocalSmith(g, (N, L))


def fraction_blocks(pb: tuple, s: int) -> tuple:
    """p_stack = (rows, L) as its s blocks of Fraction rows, a block without rows 0 x 0."""
    rows, L = pb
    H = len(rows) // s
    return tuple(_rmat([[Fraction(x, L) for x in row] for row in rows[k * H : (k + 1) * H]])
                 for k in range(s))


# ---------------------------------------------------------------------------
# the per-unknown residual map (references for the solver's M h - W)


def ref_residual_map(m: REModel, zc: PolyMatrix, J1: int):
    """The residual R(z; h) one unknown at a time: (const, per_unknown).

    const = -z^J1 w(z) is s x q; per_unknown[a] is the s x 1 column
    z^J1 zeta[:, a] for entry a = j s + r of an h column.
    """
    const = ref_wold_poly(m) * Poly.monomial(J1) * Fraction(-1)
    per_unknown = [
        PolyMatrix([[Poly([0] * J1 + [coeff(zc, i).entries[r][a] for i in range(m.H + m.K)])]
                    for r in range(m.s)])
        for a in range(m.s * m.H)
    ]
    return const, per_unknown


def n_of_h(m: REModel, const, per_unknown, h: RationalMatrix) -> PolyMatrix:
    """const + sum_a per_unknown[a] h_a, the map of ref_residual_map at a stack h."""
    entries = [[const.entries[i][c] for c in range(m.q)] for i in range(m.s)]
    for a, v in enumerate(per_unknown):
        for c in range(m.q):
            for i in range(m.s):
                entries[i][c] = entries[i][c] + v.entries[i][0] * h.entries[a][c]
    return PolyMatrix(entries)


def divisibility_rows(adj: PolyMatrix, D: Poly, vec: PolyMatrix) -> list:
    """Remainder coefficients of adj vec mod D for an s x 1 column vec; all zero
    iff D divides adj vec."""
    out = []
    for row in mat_mul(adj, vec).entries:
        r = row[0] % D
        out += [r[k] for k in range(int(D.degree))]
    return out


def ref_residual_rows(adj: PolyMatrix, D: Poly, const, per_unknown):
    """Cancellation rows (X, B) for the map (const, per_unknown), one column at
    a time: (adj mod D) times each per-unknown column and each column of const."""
    adj = PolyMatrix([[e % D for e in row] for row in adj.entries])
    basis = [divisibility_rows(adj, D, v) for v in per_unknown]
    rhs = [divisibility_rows(adj, D, PolyMatrix([[row[c]] for row in const.entries]))
           for c in range(const.cols)]
    n = len(rhs[0])
    return [[b[r] for b in basis] for r in range(n)], [[-c[r] for c in rhs] for r in range(n)]


def ref_numerator(m: REModel, adj: PolyMatrix, split, const, per_unknown, h) -> PolyMatrix:
    """adj(pi) R / D + S h(z) for the residual R = n_of_h(m, const, per_unknown, h)."""
    D, S = split
    adj_r = mat_mul(adj, n_of_h(m, const, per_unknown, h))
    return PolyMatrix([
        [e.exact_div(D) + S * Poly([h.entries[j * m.s + i][c] for j in range(m.H)])
         for c, e in enumerate(row)]
        for i, row in enumerate(adj_r.entries)
    ])


# ---------------------------------------------------------------------------
# lag-by-lag substitution oracle for solver.verify_solution


def ref_series(num: PolyMatrix, den: Poly, n: int):
    """First n series coefficients of num/den as lists of Fraction rows."""
    assert den[0] == 1
    dd = int(den.degree)
    out = []
    for j in range(n):
        lags = range(1, min(j, dd) + 1)
        out.append(
            [
                [e[j] - sum((den[l] * out[j - l][i][c] for l in lags), Fraction(0))
                 for c, e in enumerate(row)]
                for i, row in enumerate(num.entries)
            ]
        )
    return out


def ref_verify(m: REModel, sr, max_lag: int) -> dict:
    """Substitute the transfer into the model lag by lag, d = 0 .. max_lag.

    R_d = sum_(k,h) A_kh Psi_(d-k+h) + w_d with Psi = num/den; the first
    nonzero entry (row-major) of each nonzero R_d is a failure.  The
    predetermined and first-coefficient checks follow verify_solution's
    definitions, so the whole report can be compared for equality.
    """
    s, q = m.s, m.q
    psi = ref_series(sr.transfer_num, sr.transfer_den, max_lag + m.H + 1)
    failures = []
    for d in range(max_lag + 1):
        res = [list(row) for row in wold_coeff(m, d).entries]
        for (k, h), a_kh in m.A.items():
            if k <= d:
                for i in range(s):
                    for c in range(q):
                        res[i][c] += sum(a * psi[d - k + h][r][c]
                                         for r, a in enumerate(a_kh.entries[i]))
        bad = [(i, c) for i in range(s) for c in range(q) if res[i][c] != 0]
        if bad:
            i, c = bad[0]
            failures.append({"lag": d, "row": i, "col": c, "value": str(res[i][c])})
    return _ref_report(m, sr, max_lag, failures)


def _ref_report(m: REModel, sr, max_lag: int, failures) -> dict:
    """The whole verify report around the substitution failures: adds the
    predetermined zero-pattern and first-coefficient checks."""
    s, q = m.s, m.q
    psi = ref_series(sr.transfer_num, sr.transfer_den, m.H)
    predet, first = [], []
    if sr.h is not None:
        for j in range(m.H):
            for r in range(sum(m.gamma[: j + 1]), s):
                if any(sr.h.entries[j * s + r]):
                    predet.append({"j": j, "row": r})
        if not m.predetermined:
            first = [
                {"j": j, "row": r, "col": c}
                for j in range(m.H)
                for r in range(s)
                for c in range(q)
                if psi[j][r][c] != sr.h.entries[j * s + r][c]
            ]
    return {
        "ok": not failures and not predet and not first,
        "max_lag": max_lag,
        "failures": failures,
        "predetermined_failures": predet,
        "first_coefficient_failures": first,
        "wold_truncation": len(m.wold) - 1,
    }


def ref_verify_per_h(m: REModel, sr, max_lag: int) -> dict:
    """verify_solution's report from T = den R built one h at a time.

    T = den W + sum_h lead_h (num - den Psi_<h) / z^h with
    lead_h = sum_k A_kh z^k: H + 1 products, each division by z^h exact.
    R_0 .. R_L vanish iff T = 0 mod z^(L+1); only when they do not is
    R = T / den expanded to report the failing lags.  _ref_report adds the
    other two checks.
    """
    s, q = m.s, m.q
    num, den = sr.transfer_num, sr.transfer_den
    head = ref_series(num, den, m.H)
    T = ref_wold_poly(m) * den
    for h in range(m.H + 1):
        lead = PolyMatrix([[Poly([a_kh(m, k, h).entries[i][r] for k in range(m.K + 1)])
                            for r in range(s)] for i in range(s)])
        psi_h = PolyMatrix([[Poly([psi[i][c] for psi in head[:h]]) for c in range(q)]
                            for i in range(s)])
        T = mat_add(T, mat_mul(lead, mat_shift(mat_sub(num, psi_h * den), -h)))
    failures = []
    if any(e[d] for row in T.entries for e in row for d in range(max_lag + 1)):
        for d, res in enumerate(ref_series(T, den, max_lag + 1)):
            bad = [(i, c, v) for i, row in enumerate(res) for c, v in enumerate(row) if v]
            if bad:
                i, c, v = bad[0]
                failures.append({"lag": d, "row": i, "col": c, "value": str(v)})
    return _ref_report(m, sr, max_lag, failures)


# ---------------------------------------------------------------------------
# symbolic stable/unstable split (oracle for the certified split)


def ref_split_phi(phi: Poly, xi=1, tol: float = 1e-9):
    """(stable, unstable) parts of a monic phi from sympy's factor_list over Q.

    Each irreducible factor's roots are located by the float ref_classify_roots,
    so this oracle shares no code with the certified locator; a factor with
    roots on both sides of the unit circle raises FactorizationError.
    """
    import sympy

    if phi.is_constant():
        return Poly.const(1), Poly.const(1)
    QQ = sympy.QQ
    rep = [QQ(c.numerator, c.denominator) for c in reversed(phi.coeffs)]
    _, factors = sympy.Poly.from_list(rep, sympy.Symbol("z"), domain=QQ).factor_list()
    stable = unstable = Poly.const(1)
    for fac, exp in factors:
        f = Poly([Fraction(int(c.p), int(c.q)) for c in fac.all_coeffs()[::-1]]).monic()
        if f.is_constant():
            continue
        rc = ref_classify_roots(f, xi, tol)
        if rc.zero_multiplicity or (rc.stable_roots and rc.unstable_roots):
            raise FactorizationError(f"irreducible factor {f!r} straddles the unit circle")
        for _ in range(exp):
            if rc.stable_roots:
                stable = stable * f
            else:
                unstable = unstable * f
    assert stable * unstable == phi.monic()
    return stable, unstable


def ref_unstable_part(f: Poly, xi, certified) -> Poly:
    """canon._unstable_part without its test on the sum of the unstable centers:
    the rounding of U~ = prod (z - c_i) alone decides, refining as it needs.

    With m of the n discs D(c_i, r_i) inside, E = prod(2 + r_i) - 2^m bounds
    |U - U~|_1, as |c_i| < 1.  den U is integral (Gauss's lemma), so if
    den E < 1/2 a rational U is U~ rounded onto (1/den) Z[z]; a coefficient
    farther than E from there, or f mod U^ != 0, proves U irrational.  A divisor
    U^ is a product of m roots of f, and sep^m > 3 m E leaves only the unstable ones.
    """
    n, den = int(f.degree), f.den
    for bits, Z, R, inside in chain([certified], root_discs(f, xi, certified[:2])):
        unstable = [i for i in range(n) if inside[i]]
        m = len(unstable)
        if m in (0, n):
            return f if m else Poly.const(1)
        S = 1 << bits
        Sm, E = S**m, prod(2 * S + R[i] for i in unstable) - (2 * S) ** m  # E over S^m
        sep = min(
            isqrt((Z[i][0] - Z[j][0]) ** 2 + (Z[i][1] - Z[j][1]) ** 2) - R[i] - R[j]
            for i in range(n) for j in range(i)
        )
        if 2 * den * E >= Sm or sep <= 0 or sep**m <= 3 * m * E:
            continue
        coeffs = [(1, 0)]  # S^m U~, lowest first
        for zr, zi in (Z[i] for i in unstable):
            coeffs = [  # times (S z - Z_i)
                (S * a - zr * c + zi * d, S * b - zr * d - zi * c)
                for (a, b), (c, d) in zip([(0, 0)] + coeffs, coeffs + [(0, 0)])
            ]
        ks = [(2 * den * re + Sm) // (2 * Sm) for re, _ in coeffs]
        if all(abs(im) <= E and abs(den * re - k * Sm) <= den * E
               for (re, im), k in zip(coeffs, ks)):
            U = Poly([Fraction(k, den) for k in ks])
            if (f % U).is_zero():
                return U
        raise FactorizationError(
            f"{m} of the {n} distinct roots of phi lie inside |z| < 1/xi and "
            f"{n - m} outside |z| > 1, but their product is not rational; "
            "no exact rational stable/unstable split exists"
        )


def ref_disc_radius(n: int, den: int, ar: int, ai: int, dr: int, di: int) -> int:
    """The exact radius ceil(n |W_i| S) of a root disc: with W_i S = g / q for
    g = (ar + i ai)(dr - i di) and q = den |dr + i di|^2, the least integer r with
    r^2 q^2 >= n^2 |g|^2, from the full-size products and one isqrt."""
    g, q = (ar * dr + ai * di, ai * dr - ar * di), den * (dr * dr + di * di)
    r2 = -(-n * n * (g[0] ** 2 + g[1] ** 2) // (q * q))
    r = isqrt(r2)
    return r + (r * r < r2)


def ref_float_radii(f: Poly, q: int, Z) -> list:
    """The exact radii ceil(n |W_i| 2^q) at the centers Z_i / 2^q of root_discs'
    float discs on f: 2^(qn) num(z_i) and 2^(q(n-1)) prod_(j != i) (z_i - z_j)
    on Gaussian integers, then `ref_disc_radius`."""
    n, num, den = int(f.degree), f.num, f.den
    radii = []
    for i, (x, y) in enumerate(Z):
        ar, ai = 0, 0
        for k in range(n, -1, -1):
            ar, ai = ar * x - ai * y + (num[k] << q * (n - k)), ar * y + ai * x
        dr, di = 1, 0
        for j, (u, v) in enumerate(Z):
            if j != i:
                dr, di = dr * (x - u) - di * (y - v), dr * (y - v) + di * (x - u)
        radii.append(ref_disc_radius(n, den, ar, ai, dr, di))
    return radii


def ref_squarefree_factors(f: Poly) -> list:
    """[a_1, ..., a_k] of a nonzero f from sympy's sqf_list over Q: a_j is the
    monic product of the factors of multiplicity j, and 1 where there is none."""
    import sympy

    QQ = sympy.QQ
    rep = [QQ(c.numerator, c.denominator) for c in reversed(f.coeffs)]
    _, parts = sympy.Poly.from_list(rep, sympy.Symbol("z"), domain=QQ).sqf_list()
    out = [Poly.const(1)] * max((k for _fac, k in parts), default=0)
    for fac, k in parts:
        out[k - 1] = Poly([Fraction(int(c.p), int(c.q)) for c in fac.all_coeffs()[::-1]]).monic()
    return out


# ---------------------------------------------------------------------------
# Smith-split cancellation (reference for the solver's divisibility rows)


def ref_smith_split(sf: SmithForm, J1: int, U: Poly):
    """pi = pi_u pi_s with pi_u = P D_u and pi_s = D_s Q from the Smith form.

    D_u = diag(z^max(g_i - J1, 0) gcd(phi_i, U)) takes the unstable and the
    z^(g_i - J1) part of each invariant factor z^g_i phi_i, D_s the rest.  Both
    determinants and adjugates come from det_adjugate.  Returns
    (det_u, adj_u, det_s, adj_s, m0) with m0 = sum min(g_i, J1), the
    multiplicity of z = 0 in det pi_s.
    """
    diag_u, diag_s = [], []
    for gi, phi in zip(sf.g, sf.phi):
        un = poly_gcd(phi, U)
        diag_u.append(Poly.monomial(max(gi - J1, 0)) * un)
        diag_s.append(Poly.monomial(min(gi, J1)) * phi.exact_div(un))
    det_u, adj_u = det_adjugate(mat_mul(sf.P, diag_matrix(diag_u)))
    det_s, adj_s = det_adjugate(mat_mul(diag_matrix(diag_s), sf.Q))
    return det_u, adj_matrix(adj_u), det_s, adj_matrix(adj_s), sum(min(gi, J1) for gi in sf.g)


def ref_cancellation_rows(vec: PolyMatrix, split):
    """Two-stage cancellation rows for an s x 1 column under ref_smith_split.

    The remainder coefficients of adj(pi_u) vec mod det pi_u (pi_u^-1 vec is
    polynomial), then the z^0 .. z^(m0 - 1) coefficients of adj(pi_s) times
    the quotient (pi_s^-1 pi_u^-1 vec has no pole at z = 0).
    """
    det_u, adj_u, _det_s, adj_s, m0 = split
    out, quo = [], []
    for row in mat_mul(adj_u, vec).entries:
        q, r = row[0].divmod(det_u)
        out += [r[k] for k in range(int(det_u.degree))]
        quo.append([q])
    out += [row[0][k] for row in mat_mul(adj_s, PolyMatrix(quo)).entries for k in range(m0)]
    return out


def ref_transfer(N: PolyMatrix, split):
    """(num, den) of pi^-1 N through the Smith split, den(0) = 1.

    With a_theta = pi_u^-1 N, num / den = pi_s^-1 a_theta, reduced by the gcd of
    den and every entry of num.
    """
    det_u, adj_u, det_s, adj_s, m0 = split
    a_theta = PolyMatrix([[e.exact_div(det_u) for e in row] for row in mat_mul(adj_u, N).entries])
    num = [[e.shift(-m0) for e in row] for row in mat_mul(adj_s, a_theta).entries]
    den = det_s.shift(-m0)
    common = den
    for e in (e for row in num for e in row):
        common = poly_gcd(common, e)
    den = den.exact_div(common)
    inv = 1 / den[0]
    num = PolyMatrix([[e.exact_div(common) * inv for e in row] for row in num])
    return num, den * inv


def ref_mc_filter(coeffs, eps):
    """y_t = sum_j coeffs[j] eps_(t-j) by products with the transposed views
    `coeffs[j].T`, lag 0 first: the reference for `solver._mc_filter`."""
    import numpy as np

    truncation, T = len(coeffs), len(eps) - len(coeffs)
    y = np.zeros((T, coeffs.shape[1]))
    for j in range(truncation):
        y += eps[truncation - j : truncation - j + T] @ coeffs[j].T
    return y


def ref_simulate(sr, T, seed, truncation=200):
    """`solver.simulate` as one (T + truncation) x q draw filtered by `ref_mc_filter`,
    whole products per lag: the reference for the windowed filter's output."""
    import numpy as np

    from recausal.canon import UnsupportedModelError
    from recausal.solver import transfer_series

    stack = []
    for lag, mat in enumerate(transfer_series(sr.transfer_num, sr.transfer_den, truncation)):
        try:
            stack.append([[float(e) for e in row] for row in mat.entries])
        except OverflowError:
            raise UnsupportedModelError(
                f"transfer coefficient at lag {lag} is too large for a float") from None
    coeffs = np.array(stack)
    s = coeffs.shape[1]
    eps = np.random.default_rng(seed).standard_normal((T + truncation, coeffs.shape[2]))
    with np.errstate(over="ignore", invalid="ignore"):
        y = ref_mc_filter(coeffs, eps)
        autocov = [y[lag:].T @ y[: T - lag] / (T - lag) for lag in range(3)]
        exact = []
        for lag in range(3):
            acc = np.zeros((s, s))
            for j in range(truncation - lag):
                acc += coeffs[j + lag] @ coeffs[j].T
            exact.append(acc)
        se = float(np.sqrt(1.0 / T)) * float(np.abs(exact[0]).max() + 1.0)
    for name, mats in (("autocov", autocov), ("exact_autocov", exact)):
        for lag, a in enumerate(mats):
            if not np.isfinite(a).all():
                raise UnsupportedModelError(f"{name} at lag {lag} is not a finite float")
    return {
        "T": T, "seed": seed, "truncation": truncation,
        "autocov": {lag: a.tolist() for lag, a in enumerate(autocov)},
        "exact_autocov": {lag: a.tolist() for lag, a in enumerate(exact)},
        "mc_standard_error": se,
    }


# ---------------------------------------------------------------------------
# paper fixtures: the Sims model and its published factorization


SIMS_JSON = """{
  "s": 2, "K": 1, "H": 1, "q": 2, "gamma": [1, 1],
  "A": [
    {"k": 0, "h": 0, "matrix": [["-9/10", "0"], ["1/100000", "1"]]},
    {"k": 0, "h": 1, "matrix": [["1", "0"], ["0", "0"]]},
    {"k": 1, "h": 0, "matrix": [["0", "0"], ["0", "-11/10"]]}
  ],
  "wold": [[["-1", "0"], ["0", "-1"]]],
  "xi": "1"
}"""


def sims_model():
    from recausal.model import parse_model

    return parse_model(SIMS_JSON)


def sims_published_smith() -> SmithForm:
    """The Smith factorization printed in the source example (not ours).

    The printed P has -89,000 in entry (1,2), but that P is not unimodular and
    does not reconstruct pi; solving P = pi Q^{-1} Phi^{-1} alpha^{-1} exactly
    gives -89,100, which also matches the printed P^{-1} (det P = 99/100).
    """
    z = Poly([0, 1])
    P = PolyMatrix([[Poly([1, Fraction(-9, 10)]), Poly.const(-89100)],
                    [z * Fraction(1, 100000), Poly.const(Fraction(99, 100))]])
    Q = PolyMatrix([[Poly.const(1), Poly([0, 90000, -99000])],
                    [Poly(), Poly.const(1)]])
    phi2 = Poly([Fraction(100, 99), Fraction(-200, 99), 1])
    return smith_fixture(P, Q, (0, 1), (Poly.const(1), phi2))


def smith_fixture(P: PolyMatrix, Q: PolyMatrix, g, phi) -> SmithForm:
    """The SmithForm of pi = P diag(z^g) diag(phi) Q, which derives Q back from P^-1 and pi."""
    alpha = diag_matrix([Poly.monomial(gi) * ph for gi, ph in zip(g, phi)])
    return SmithForm(pi=mat_mul(P, alpha, Q), g=tuple(g), phi=tuple(phi),
                     P_inv=unimodular_inverse(P))


def check_smith_invariants(M: PolyMatrix, sf: SmithForm):
    """All SmithForm type invariants, assertion style."""
    assert smith_reconstruct(sf) == M
    assert is_unimodular(sf.P) and is_unimodular(sf.Q)
    assert mat_mul(sf.P, sf.P_inv) == identity_polymatrix(smith_size(sf))
    assert mat_mul(sf.Q, sf.Q_inv) == identity_polymatrix(smith_size(sf))
    assert list(sf.g) == sorted(sf.g)
    factors = sf.invariant_factors()
    for f in factors:
        assert f.coeffs[-1] == 1  # monic
    for a, b in zip(factors, factors[1:]):
        assert (b % a).is_zero()
    for ph in sf.phi:
        assert ph[0] != 0
