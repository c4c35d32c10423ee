"""Smith canonical form of polynomial matrices and determinant-root classification.

The Smith form is computed by exact elimination over Q[z], which also detects
a singular input: its elimination runs out of nonzero pivots.  The unimodular
inverses are tracked exactly, so later stages (the constraint blocks, the
stable/unstable factor adjugates) read them instead of inverting anew.  The
only numerical step in the whole package is the companion-matrix root location
used to sort determinant roots relative to the unit circle; numpy is imported
on its first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (
    Poly,
    PolyMatrix,
    det_adjugate,
    poly_gcd,
    rat,
)


class RedundantEquationsError(ValueError):
    """det of the input matrix is identically zero."""


class UnitCircleRootError(ValueError):
    """A determinant root sits within tolerance of the boundary ring [1/xi, 1]."""


@dataclass(frozen=True)
class SmithForm:
    P: PolyMatrix
    Q: PolyMatrix
    g: tuple            # partial multiplicities, non-decreasing
    phi: tuple          # diagonal of Phi, phi_i(0) != 0
    P_inv: PolyMatrix
    Q_inv: PolyMatrix

    @property
    def size(self) -> int:
        return len(self.g)

    def alpha(self) -> PolyMatrix:
        return PolyMatrix.diag([Poly.monomial(gi) for gi in self.g])

    def invariant_factors(self):
        return tuple(Poly.monomial(gi) * ph for gi, ph in zip(self.g, self.phi))

    def reconstruct(self) -> PolyMatrix:
        return self.P * self.alpha() * PolyMatrix.diag(list(self.phi)) * self.Q


def _pivot_key(p: Poly, i: int, j: int):
    return (p.degree, p.bit_size(), i, j)


def smith_form(M: PolyMatrix) -> SmithForm:
    """Smith decomposition M = P * diag(z^g_i) * diag(phi_i) * Q.

    P, Q are unimodular with polynomial inverses tracked exactly; the
    invariant factors z^g_i * phi_i are monic and satisfy the divisibility
    chain.  Raises RedundantEquationsError when det M is identically zero,
    which is exactly when a remaining block has no nonzero pivot.
    """
    if M.rows != M.cols:
        raise ValueError("smith_form requires a square matrix")
    n = M.rows

    D = [[M.entries[i][j] for j in range(n)] for i in range(n)]
    ident = PolyMatrix.identity(n)
    P = [list(r) for r in ident.entries]
    Pinv = [list(r) for r in ident.entries]
    Q = [list(r) for r in ident.entries]
    Qinv = [list(r) for r in ident.entries]

    def swap_rows(i, j):
        if i == j:
            return
        D[i], D[j] = D[j], D[i]
        for r in range(n):
            P[r][i], P[r][j] = P[r][j], P[r][i]
        Pinv[i], Pinv[j] = Pinv[j], Pinv[i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in range(n):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        Q[i], Q[j] = Q[j], Q[i]
        for r in range(n):
            Qinv[r][i], Qinv[r][j] = Qinv[r][j], Qinv[r][i]

    def add_row(i, j, f: Poly):
        # D: row_i += f * row_j
        if f.is_zero():
            return
        for c in range(n):
            D[i][c] = D[i][c] + f * D[j][c]
        for r in range(n):
            P[r][j] = P[r][j] - f * P[r][i]
        for c in range(n):
            Pinv[i][c] = Pinv[i][c] + f * Pinv[j][c]

    def add_col(i, j, f: Poly):
        # D: col_i += f * col_j
        if f.is_zero():
            return
        for r in range(n):
            D[r][i] = D[r][i] + f * D[r][j]
        for c in range(n):
            Q[j][c] = Q[j][c] - f * Q[i][c]
        for r in range(n):
            Qinv[r][i] = Qinv[r][i] + f * Qinv[r][j]

    def scale_row(i, c: Fraction):
        inv = Fraction(1) / c
        for k in range(n):
            D[i][k] = D[i][k] * c
        for r in range(n):
            P[r][i] = P[r][i] * inv
        for k in range(n):
            Pinv[i][k] = Pinv[i][k] * c

    for t in range(n):
        while True:
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    e = D[i][j]
                    if not e.is_zero():
                        key = _pivot_key(e, i, j)
                        if best is None or key < best[0]:
                            best = (key, i, j)
            if best is None:
                raise RedundantEquationsError(
                    "det pi(z) is identically zero: system contains redundant equations"
                )
            _, bi, bj = best
            swap_rows(t, bi)
            swap_cols(t, bj)
            pivot = D[t][t]
            dirty = False
            for i in range(t + 1, n):
                if D[i][t].is_zero():
                    continue
                q, r = D[i][t].divmod(pivot)
                add_row(i, t, -q)
                if not r.is_zero():
                    dirty = True
            for j in range(t + 1, n):
                if D[t][j].is_zero():
                    continue
                q, r = D[t][j].divmod(pivot)
                add_col(j, t, -q)
                if not r.is_zero():
                    dirty = True
            if dirty:
                continue
            if any(not D[i][t].is_zero() for i in range(t + 1, n)) or any(
                not D[t][j].is_zero() for j in range(t + 1, n)
            ):
                continue
            # divisibility fix-up: pivot must divide the rest of the block
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if not D[i][j].is_zero() and not (D[i][j] % pivot).is_zero():
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, Poly.const(1))

    for t in range(n):
        lead = D[t][t].coeffs[-1]
        if lead != 1:
            scale_row(t, Fraction(1) / lead)

    g = []
    phi = []
    for t in range(n):
        d = D[t][t]
        m = d.zero_multiplicity()
        g.append(m)
        phi.append(Poly(d.coeffs[m:]))
    return SmithForm(
        P=PolyMatrix(P),
        Q=PolyMatrix(Q),
        g=tuple(g),
        phi=tuple(phi),
        P_inv=PolyMatrix(Pinv),
        Q_inv=PolyMatrix(Qinv),
    )


def invariant_factors_oracle(M: PolyMatrix):
    """Invariant factors as quotients of gcds of k x k minors (test oracle)."""
    if M.rows != M.cols:
        raise ValueError("square matrix required")
    n = M.rows
    det, _ = det_adjugate(M)
    if det.is_zero():
        raise RedundantEquationsError("det is identically zero")
    from itertools import combinations

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


@dataclass(frozen=True)
class RootClassification:
    zero_multiplicity: int
    stable_roots: tuple    # complex approximations, |root| > 1
    unstable_roots: tuple  # complex approximations, |root| < 1/xi
    xi: Fraction

    @property
    def total(self) -> int:
        return self.zero_multiplicity + len(self.stable_roots) + len(self.unstable_roots)


def classify_roots(p: Poly, xi=1, tol: float = 1e-9) -> RootClassification:
    """Classify roots of p relative to the unit circle and growth bound xi.

    Factors z^m out exactly; remaining roots are located via companion-matrix
    eigenvalues (the package's single numerical step).  Roots within tol of
    the ring [1/xi, 1] are rejected.
    """
    import numpy as np

    xi = rat(xi)
    if p.is_zero():
        raise ValueError("cannot classify roots of the zero polynomial")
    if xi < 1:
        raise ValueError("xi must be at least 1")
    m = p.zero_multiplicity()
    reduced = Poly(p.coeffs[m:])
    if reduced.is_constant():
        return RootClassification(m, (), (), xi)
    coeffs = [float(c) for c in reduced.coeffs]
    # companion matrix of the monic normalization, roots = eigenvalues
    deg = len(coeffs) - 1
    comp = np.zeros((deg, deg))
    comp[0, :] = [-c / coeffs[-1] for c in coeffs[-2::-1]]
    comp[1:, :-1] = np.eye(deg - 1)
    roots = np.linalg.eigvals(comp)
    lo = 1.0 / float(xi)
    stable, unstable = [], []
    for r in roots:
        mod = abs(r)
        if lo - tol <= mod <= 1.0 + tol:
            raise UnitCircleRootError(
                f"root {r:.12g} has modulus {mod:.12g} inside the boundary ring "
                f"[1/xi, 1] = [{lo:.6g}, 1]; the theory assumes no such roots"
            )
        if mod > 1.0:
            stable.append(complex(r))
        else:
            unstable.append(complex(r))
    key = lambda c: (c.real, c.imag)
    return RootClassification(
        m, tuple(sorted(stable, key=key)), tuple(sorted(unstable, key=key)), xi
    )
