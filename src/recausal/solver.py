"""Causal solution construction: factor pi(z), cancel unstable roots, verify.

The cancellation requirements ("tune the free parameters so that the unstable
part divides out") are implemented as an exact linear system in the entries of
the revision-loading stack h: divisibility remainders and forbidden low-order
series coefficients are linear functionals of h, so solvability, uniqueness,
and the solution family are all decided by exact rational elimination.

det pi splits into stable and unstable parts over Q without factoring: the
certified discs that classified the roots of each squarefree factor of
det pi / z^G give its unstable roots, their product is rounded onto the lattice
Gauss's lemma allows, and one exact division accepts it or proves that no
rational split exists.  Each Smith factor phi_i divides det pi / z^G, so its
unstable part is its gcd with that product.  The factors pi_u = P D_u and
pi_s = D_s Q share the unimodular P and Q of the Smith form, whose inverses are
tracked exactly, so their determinants and adjugates follow in closed form
from the diagonal factors D_u, D_s.  Only `simulate` imports numpy.

A solution y = (num/den) eps is verified by one polynomial identity: with R the
series of model residuals, den R is a polynomial T built from num, den and the
head of the series, and den(0) = 1 makes den a unit of Q[[z]], so R vanishes
to lag L exactly when den R = T = 0 mod z^(L+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import isqrt, prod

from .canon import (
    FactorizationError, RootClassification, SmithForm, classify_roots, root_discs,
)
from .dimension import Pipeline, run_pipeline
from .exactalg import (
    Poly,
    PolyMatrix,
    RationalMatrix,
    poly_gcd,
    rational_det,
    solve_affine,
    vstack,
)
from .model import REModel


class UnsupportedModelError(ValueError):
    pass


def _unstable_part(f: Poly, xi, tol: float, certified) -> Poly:
    """The monic factor U of a squarefree monic f = num/den over its roots in |z| < 1/xi.

    certified is a first yield of root_discs(f, xi, tol), refined further only
    on demand.  With m of the n discs D(c_i, r_i) inside, E = prod(2 + r_i) - 2^m
    bounds |U - U~|_1 for U~ = prod (z - c_i), as |c_i| < 1.  den U is integral
    (Gauss's lemma), so if den E < 1/2 a rational U is U~ rounded onto (1/den) Z[z];
    a coefficient farther than E from there, or f mod U^ != 0, proves U irrational.
    A divisor U^ is a product of m roots of f, and sep^m > 3 m E (sep a lower
    bound on the root gaps; |U^ - U|_1 <= 3 m E) leaves only the unstable ones.
    """
    n, den = int(f.degree), f.den
    for bits, Z, R, inside in chain([certified], root_discs(f, xi, tol, certified[:2])):
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


def _unstable_factor(rc: RootClassification, tol: float = 1e-9) -> Poly:
    """The monic factor U = prod U_k^k of p / z^m over its roots in |z| < 1/xi.

    rc classifies p; U_k is the unstable part of its Yun factor a_k, split
    once from the discs that classified it.
    """
    U = Poly.const(1)
    for a, k, disc in rc.discs:
        U = U * _product([_unstable_part(a, rc.xi, tol, disc)] * k)
    return U


@dataclass(frozen=True)
class Factorization:
    pi_u: PolyMatrix
    pi_s: PolyMatrix
    alpha_split: tuple   # (min(g_i, J1), max(g_i - J1, 0)) per i
    phi_split: tuple     # (stable_factor, unstable_factor) per i
    det_u: Poly
    adj_u: PolyMatrix
    det_s: Poly
    adj_s: PolyMatrix
    zero_pole_order: int  # multiplicity of z = 0 in det(pi_s)


def _product(polys) -> Poly:
    return prod(polys, start=Poly.const(1))


def _cofactors(diag):
    """Diagonal of adj(diag(d)): entry i is the product of all d_j, j != i."""
    return [_product(diag[:i] + diag[i + 1:]) for i in range(len(diag))]


def factor_stable_unstable(
    sf: SmithForm, J1: int, xi=1, roots: RootClassification | None = None
) -> Factorization:
    """pi = pi_u * pi_s with pi_u = P alpha_u Phi_u and pi_s = alpha_s Phi_s Q.

    roots classifies det pi at xi; by default prod phi_i, which has the same
    roots except z = 0, is classified.  Every phi_i divides det pi / z^G, so
    its unstable part is gcd(phi_i, U) for the unstable factor U of
    det pi / z^G; U is rational iff each of these is.
    """
    if J1 < 0:
        raise UnsupportedModelError(
            f"J1 = {J1} < 0: the system is dated strictly in the past; "
            "causal factorization is not defined for this configuration"
        )
    U = _unstable_factor(roots or classify_roots(_product(sf.phi), xi))
    splits = []
    alpha_split = []
    for gi, phi in zip(sf.g, sf.phi):
        gs, gu = min(gi, J1), max(gi - J1, 0)
        alpha_split.append((gs, gu))
        un = poly_gcd(phi, U)
        splits.append((phi.exact_div(un), un))
    diag_u = [
        Poly.monomial(gu) * un for (gs, gu), (st, un) in zip(alpha_split, splits)
    ]
    diag_s = [
        Poly.monomial(gs) * st for (gs, gu), (st, un) in zip(alpha_split, splits)
    ]
    pi_u = sf.P * PolyMatrix.diag(diag_u)
    pi_s = PolyMatrix.diag(diag_s) * sf.Q
    # adj(P D_u) = adj(D_u) det(P) P^{-1} and adj(D_s Q) = det(Q) Q^{-1} adj(D_s);
    # det P and det Q are the constants det P(0) and det Q(0)
    det_p = rational_det(sf.P.coeff(0))
    det_q = rational_det(sf.Q.coeff(0))
    det_u = _product(diag_u) * det_p
    det_s = _product(diag_s) * det_q
    adj_u = PolyMatrix.diag(_cofactors(diag_u)) * sf.P_inv * det_p
    adj_s = sf.Q_inv * PolyMatrix.diag(_cofactors(diag_s)) * det_q
    return Factorization(
        pi_u=pi_u, pi_s=pi_s, alpha_split=tuple(alpha_split),
        phi_split=tuple(splits), det_u=det_u, adj_u=adj_u,
        det_s=det_s, adj_s=adj_s,
        zero_pole_order=sum(gs for gs, _gu in alpha_split),
    )


def assemble_rhs(m: REModel, zc, J1: int, pi: PolyMatrix):
    """Affine map h_stack -> N(z; h), the s x q right-hand polynomial of the SDE.

    N(z; h) = pi(z) (sum_j h_j z^j) + (sum_i m_i z^{J1+i}) h_stack - w(z) z^{J1}.
    Returned as (constant s x q PolyMatrix, list of s x 1 PolyMatrix columns,
    one per unknown slot of a single h column); the map is identical across
    innovation columns.
    """
    if J1 < 0:
        raise UnsupportedModelError(f"J1 = {J1} < 0 is not supported by the solver")
    s, H = m.s, m.H
    const = m.wold_poly() * Poly.monomial(J1) * Fraction(-1)
    per_unknown = []
    for j in range(H):
        for r in range(s):
            col = [Poly() for _ in range(s)]
            for i in range(s):
                col[i] = col[i] + pi.entries[i][r].shift(j)
            for i_lag, mi in enumerate(zc.m):
                a = j * s + r
                for i in range(s):
                    c = mi.entries[i][a]
                    if c != 0:
                        col[i] = col[i] + Poly.monomial(J1 + i_lag, c)
            per_unknown.append(PolyMatrix([[p] for p in col]))
    return const, per_unknown


def _cancellation_rows(vec: PolyMatrix, fac: Factorization):
    """Linear functionals that must vanish for an s x 1 polynomial column.

    Returns the list of rational values: remainder coefficients of
    adj(pi_u) * vec modulo det(pi_u), then the series coefficients of
    z^0..z^{m-1} of adj(pi_s) * quotient (the z = 0 poles of pi_s).
    """
    num = fac.adj_u * vec
    d = fac.det_u
    deg_d = int(d.degree) if not d.is_constant() else 0
    out = []
    quo_entries = []
    for i in range(num.rows):
        q, r = num.entries[i][0].divmod(d)
        for k in range(deg_d):
            out.append(r[k])
        quo_entries.append([q])
    quo = PolyMatrix(quo_entries)
    m0 = fac.zero_pole_order
    if m0 > 0:
        low = fac.adj_s * quo
        for i in range(low.rows):
            for k in range(m0):
                out.append(low.entries[i][0][k])
    return out


@dataclass(frozen=True)
class SolutionReport:
    classification: str          # "no_causal_solution" | "determinate" | "indeterminate"
    indeterminacy_dim: int       # free parameters; 0 unless indeterminate
    h: RationalMatrix | None     # chosen loading stack, sH x q
    h_particular: RationalMatrix | None
    kernel: tuple                # kernel basis vectors (length sH), shared by columns
    transfer_num: PolyMatrix | None
    transfer_den: Poly | None
    A_theta: PolyMatrix | None
    pipeline: Pipeline
    factorization: Factorization | None
    kernel_point: str


def _zero_pattern_rows(m: REModel):
    """Unknown indices within one h column that predeterminedness forces to zero."""
    s, H = m.s, m.H
    rows = []
    for j in range(H):
        keep = sum(m.gamma[: j + 1])
        for r in range(keep, s):
            rows.append(j * s + r)
    return rows


def _min_norm_shift(X: RationalMatrix, kernel):
    """Project the particular solution onto the min-norm representative."""
    if not kernel:
        return X
    K = RationalMatrix([list(v) for v in kernel]).transpose()
    Kt = K.transpose()
    G = Kt * K
    coef, _ = solve_affine(G, Kt * X)
    return X - K * coef


def solve_causal(
    m: REModel, pipe: Pipeline | None = None, kernel_point: str = "min-norm"
) -> SolutionReport:
    """Solve the RE model exactly and classify the causal solution set."""
    pipe = pipe or run_pipeline(m)
    s, H, q = m.s, m.H, m.q
    cs = pipe.cs
    fac = factor_stable_unstable(pipe.sf, pipe.pi.J1, m.xi, pipe.roots)
    const, per_unknown = assemble_rhs(m, pipe.zc, pipe.pi.J1, pipe.pi.pi)
    n_unknowns = s * H

    # rows: predetermined zero pattern, constraint system, cancellation
    rows = []
    rhs_rows = []
    for idx in _zero_pattern_rows(m):
        row = [Fraction(0)] * n_unknowns
        row[idx] = Fraction(1)
        rows.append(row)
        rhs_rows.append([Fraction(0)] * q)
    if H > 0:
        m_stack = vstack(pipe.zc.padded(pipe.pb.width_blocks))
        c_full = cs.D * m_stack
        for i in range(c_full.rows):
            rows.append(list(c_full.entries[i]))
            rhs_rows.append(list(cs.rhs.entries[i]))

    canc_const = [
        _cancellation_rows(
            PolyMatrix([[const.entries[i][c]] for i in range(s)]), fac
        )
        for c in range(q)
    ]
    canc_basis = [_cancellation_rows(v, fac) for v in per_unknown]
    n_canc = len(canc_const[0]) if q else 0
    for r in range(n_canc):
        rows.append([canc_basis[a][r] for a in range(n_unknowns)])
        rhs_rows.append([-canc_const[c][r] for c in range(q)])

    M = RationalMatrix(rows) if rows else RationalMatrix.zero(0, n_unknowns)
    B = RationalMatrix(rhs_rows) if rhs_rows else RationalMatrix.zero(0, q)
    X, kernel = solve_affine(M, B)
    if X is None:
        return SolutionReport(
            classification="no_causal_solution", indeterminacy_dim=0,
            h=None, h_particular=None, kernel=tuple(kernel),
            transfer_num=None, transfer_den=None, A_theta=None,
            pipeline=pipe, factorization=fac, kernel_point=kernel_point,
        )
    if n_unknowns == 0:
        X = RationalMatrix.zero(0, q)
    h_particular = X
    if kernel:
        if kernel_point == "min-norm":
            chosen = _min_norm_shift(X, kernel)
        else:
            idx = int(kernel_point)
            shift = RationalMatrix([[kernel[idx][a]] * q for a in range(n_unknowns)])
            chosen = X + shift
    else:
        chosen = X
    num, den, a_theta = build_transfer(m, pipe, fac, const, per_unknown, chosen)
    classification = "determinate" if not kernel else "indeterminate"
    return SolutionReport(
        classification=classification,
        indeterminacy_dim=len(kernel) * q if kernel else 0,
        h=chosen, h_particular=h_particular, kernel=tuple(kernel),
        transfer_num=num, transfer_den=den, A_theta=a_theta,
        pipeline=pipe, factorization=fac, kernel_point=kernel_point,
    )


def _n_of_h(m: REModel, const, per_unknown, h: RationalMatrix) -> PolyMatrix:
    s, q = m.s, m.q
    entries = [[const.entries[i][c] for c in range(q)] for i in range(s)]
    for a, v in enumerate(per_unknown):
        for c in range(q):
            coef = h.entries[a][c]
            if coef != 0:
                for i in range(s):
                    entries[i][c] = entries[i][c] + v.entries[i][0] * coef
    return PolyMatrix(entries)


def build_transfer(m, pipe, fac: Factorization, const, per_unknown, h):
    """Transfer function y = (num / den) eps for a loading stack h.

    num is s x q polynomial, den a scalar polynomial with den(0) = 1 and all
    roots outside the unit circle; A_theta is the unstable-cancelled quotient.
    """
    N = _n_of_h(m, const, per_unknown, h)
    a_theta_entries = []
    for i in range(m.s):
        row = []
        for c in range(m.q):
            acc = Poly()
            for k in range(m.s):
                acc = acc + fac.adj_u.entries[i][k] * N.entries[k][c]
            row.append(acc.exact_div(fac.det_u))
        a_theta_entries.append(row)
    a_theta = PolyMatrix(a_theta_entries)
    num = fac.adj_s * a_theta
    den = fac.det_s
    m0 = fac.zero_pole_order
    if m0 > 0:
        num = PolyMatrix([[e.shift(-m0) for e in row] for row in num.entries])
        den = den.shift(-m0)
    # cancel any common polynomial factor, then normalize den(0) = 1
    common = den
    for row in num.entries:
        for e in row:
            common = poly_gcd(common, e)
            if common.is_constant():
                break
        if common.is_constant():
            break
    if not common.is_constant() and not common.is_zero():
        num = PolyMatrix([[e.exact_div(common) for e in row] for row in num.entries])
        den = den.exact_div(common)
    c0 = den[0]
    assert c0 != 0, "denominator vanishes at zero after pole cancellation"
    inv = Fraction(1) / c0
    num = num * inv
    den = den * inv
    return num, den, a_theta


def transfer_series(num: PolyMatrix, den: Poly, n: int):
    """First n power-series coefficient matrices of num/den; den(0) must be 1."""
    if den[0] != 1:
        raise ValueError(f"transfer_den(0) = {den[0]}; the series needs den(0) = 1")
    s, q = num.rows, num.cols
    out = []
    dcoef = den.coeffs
    for j in range(n):
        mat = [[Fraction(0)] * q for _ in range(s)]
        for i in range(s):
            for c in range(q):
                acc = num.entries[i][c][j]
                for l in range(1, min(j, len(dcoef) - 1) + 1):
                    acc -= dcoef[l] * out[j - l][i][c]
                mat[i][c] = acc
        out.append(mat)
    return [RationalMatrix(mtx) for mtx in out]


def verify_solution(m: REModel, sr: SolutionReport, max_lag: int = 50) -> dict:
    """Substitute the candidate solution into the model; residuals must vanish.

    With Psi = num/den, the residuals R_d = sum_(k,h) A_kh Psi_(d-k+h) + w_d
    form the series R = W + sum_(k,h) A_kh z^k (Psi - Psi_<h) / z^h, where
    Psi_<h is the head Psi_0 .. Psi_(h-1).  So den R is the polynomial
    T = den W + sum_(k,h) A_kh z^k (num - den Psi_<h) / z^h, each division by
    z^h exact.  As den(0) = 1, den is a unit of Q[[z]]: R_0 .. R_L all vanish
    iff den R = T = 0 mod z^(L+1), an exact check without L+1 series products.
    Only if it fails is R rebuilt as the series of T/den, reporting each failing
    lag with its first nonzero position and value.  Also checks the
    predetermined zero-revision pattern on the leading series coefficients.
    """
    if sr.transfer_num is None:
        raise ValueError("no transfer function to verify")
    s, q = m.s, m.q
    num, den = sr.transfer_num, sr.transfer_den
    head = transfer_series(num, den, m.H)
    T = m.wold_poly() * den
    for h in range(m.H + 1):
        a_h = [m.a(k, h) for k in range(m.K + 1)]
        lead = PolyMatrix([[Poly([a[i, r] for a in a_h]) for r in range(s)] for i in range(s)])
        psi_h = PolyMatrix(
            [[Poly([psi.entries[i][c] for psi in head[:h]]) for c in range(q)]
             for i in range(s)]
        )
        tail = num - psi_h * den
        T = T + lead * PolyMatrix([[e.shift(-h) for e in row] for row in tail.entries])
    failures = []
    if any(any(e.num[: max_lag + 1]) for row in T.entries for e in row):
        for d, res in enumerate(transfer_series(T, den, max_lag + 1)):
            bad = [(i, c, v) for i, row in enumerate(res.entries) for c, v in enumerate(row) if v]
            if bad:
                i, c, v = bad[0]
                failures.append({"lag": d, "row": i, "col": c, "value": str(v)})
    # predetermined zero-revision pattern: the MDS inputs eps^{j,s_i} of the
    # SDE ansatz must vanish for i > j, i.e. the matching rows of h are zero.
    # (The realized solution may still load contemporaneously on innovations
    # through the exogenous term, as in the paper's own predetermined example.)
    predet_failures = []
    if sr.h is not None:
        for j in range(m.H):
            first_forced = sum(m.gamma[: j + 1])
            for r in range(first_forced, m.s):
                if any(sr.h.entries[j * m.s + r][c] != 0 for c in range(m.q)):
                    predet_failures.append({"j": j, "row": r})
    # in the plain flavor the ansatz MDS are exactly the revisions of y, so
    # the leading series coefficients must reproduce h
    first_coeff_failures = []
    if sr.h is not None and not m.predetermined:
        for j in range(m.H):
            for r in range(m.s):
                for c in range(m.q):
                    if head[j].entries[r][c] != sr.h.entries[j * m.s + r][c]:
                        first_coeff_failures.append({"j": j, "row": r, "col": c})
    return {
        "ok": not failures and not predet_failures and not first_coeff_failures,
        "max_lag": max_lag,
        "failures": failures,
        "predetermined_failures": predet_failures,
        "first_coefficient_failures": first_coeff_failures,
        "wold_truncation": len(m.wold) - 1,
    }


def simulate(sr: SolutionReport, T: int, seed: int, truncation: int = 200) -> dict:
    """Monte Carlo cross-check: filter N(0, I) innovations through the transfer."""
    if sr.transfer_num is None:
        raise ValueError("no transfer function to simulate")
    import numpy as np

    series = transfer_series(sr.transfer_num, sr.transfer_den, truncation)
    coeffs = np.array(
        [[[float(e) for e in row] for row in mat.entries] for mat in series]
    )
    s, q = coeffs.shape[1], coeffs.shape[2]
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((T + truncation, q))
    y = np.zeros((T, s))
    for j in range(truncation):
        y += eps[truncation - j : truncation - j + T] @ coeffs[j].T
    out = {"T": T, "seed": seed, "truncation": truncation, "autocov": {}}
    for lag in range(3):
        prod = y[lag:].T @ y[: T - lag] / (T - lag)
        out["autocov"][lag] = prod.tolist()
    exact = []
    for lag in range(3):
        acc = np.zeros((s, s))
        for j in range(truncation - lag):
            acc += coeffs[j + lag] @ coeffs[j].T
        exact.append(acc.tolist())
    out["exact_autocov"] = {lag: exact[lag] for lag in range(3)}
    out["mc_standard_error"] = float(np.sqrt(1.0 / T)) * float(
        np.abs(np.array(exact[0])).max() + 1.0
    )
    return out
