"""Causal solution construction: split det pi(z), cancel unstable roots, verify.

A causal stationary solution y = pi^-1 N(z; h) eps needs pi^-1 N to have no
pole at z = 0 or at an unstable root of det pi.  With D = z^G U, G the
multiplicity of z = 0 in det pi and U its unstable factor, that is one
divisibility condition: D divides adj(pi) N(z; h).  With N = pi(z) h(z) + R(z; h)
for the residual R = M h - W, M = z^J1 zeta(z) and W = z^J1 w(z),
adj(pi) pi = det(pi) I = D S I gives adj(pi) N = D S h(z) + adj(pi) R.

The rows are verify_solution's acceptance test, linearized (see README): the
head Psi_0 .. Psi_(H-1) of the solution must be h (plain flavor), so z^H D
divides adj(pi) R; or, with the entries of h outside `REModel.free_unknowns()`
zero, some p = h + d with d in ker L (the model's stage `ker_l`), so that
N(z; p) = N(z; h) (predetermined flavor), and z^H D divides adj(pi) (M p - W).
As U(0) != 0 this splits in two.  z^(G+H) dividing it is a statement about pi at
z = 0: the model's stage `causal`, rows from the local data that analyze's
predetermined count shares, already eliminated, with its count of the heads p.
U dividing it adds the cancellation of the unstable roots: the remainders mod U of
the entries of one integer product P = adj(pi) [M's solve columns | W] of the stages
`adj`, an integer pair (A, L), and `rf`, the model's coefficient stack [zeta | w] on
the solve's unknowns (`_adj_product`), which also gives the transfer
(adj(pi) R / D + S h(z)) / S, adj(pi) R summed from the columns of P.  Neither the
rows' echelon form nor the transfer sees a positive factor of P.  adj(pi), rf and P
are built only once the split, `REModel.split`, is accepted and the rows mod z^(G+H)
are consistent (`ConstraintSystem.consistent`): a refused model builds none of them,
and inconsistent rows end the solve in no_causal_solution.  Both linear solves, of
the rows and of the min-norm point's Gram system, are `_solve_rows` on integer rows.
Only `simulate` imports numpy.  The result, `SolutionReport`, is a named tuple: h and
num/den determine the solution, and a none report has no kernel.

A solution y = (num/den) eps is verified by one polynomial identity: with R the
series of model residuals and T = den R, z^H T = [Lambda | z^H W - U] [num ; den I]
(see verify_solution), one integer product, and den(0) = 1 makes den a unit of
Q[[z]], so R vanishes to lag L exactly when coefficients H .. H+L of z^H T are zero.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain
from operator import mul

from .canon import factor_stable_unstable  # re-exported: perfbench times it as solver's
from .canon import KernelPointError, UnsupportedModelError
from .exactalg import Poly, PolyMatrix, _ZERO, _combine, _int_product, _numerators
from .exactalg import _poly, _rmat, _scaled, _solve_rows, poly_gcd
from .model import REModel


def _adj_product(adj: tuple, rf: tuple, J1: int) -> tuple:
    """(P, den): adj(pi) [M's free columns | M ker L | W] = P / den, P's entries integer
    coefficient lists, lowest first, by one `_int_product` of A, adj(pi) = A / la the model's
    stage `adj`, and the columns of rf = (R, lb), its stage `rf` (m_stack on the solve's
    unknowns), read as polynomials times z^J1, every coefficient of zeta and w:
    M = z^J1 zeta(z), W = z^J1 w(z)."""
    (A, la), (R, lb), s = adj, rf, len(adj[0])
    B = [[[0] * J1 + list(f) for f in zip(*R[r::s])] for r in range(s)]
    return _int_product(A, B, len(R[0])), la * lb


def _cancellation_rows(P: list, D: Poly) -> list:
    """Integer rows [X | B], X x = B saying that the monic D divides adj(pi) (M x - W), from
    (P, den) = _adj_product(m.adj, m.rf, J1).  Row k < d = deg D of row i of P
    is den e^(N-1-k) times the z^k remainder coefficients of its entries mod D, e = lead(D.num):
    the y^k coefficients of e^(N-1) f(y / e) mod the monic integer e^(d-1) D.num(y / e)."""
    d, e = int(D.degree), D.num[-1]
    Dy = [(j, c * e ** (d - 1 - j)) for j, c in enumerate(D.num[:d]) if c]
    top = max([d] + [len(f) for row in P for f in row])  # N, at least d
    out, powers = [], [e**k for k in range(top - 1, -1, -1)]  # e^(N-1-t) for t = 0 .. N-1
    for row in P:
        V = [[x * p for x in coeff]
             for p, coeff in zip(powers, zip(*(f + [0] * (top - len(f)) for f in row)))]
        for t in range(top - 1, d - 1, -1):  # cancel y^t by V[t] y^(t-d) e^(d-1) D.num(y / e)
            v = V.pop()
            for j, c in Dy:
                V[t - d + j] = [x - c * y for x, y in zip(V[t - d + j], v)]
        out += V or [[] for _ in range(d)]  # a row of P with no columns gives d empty rows
    return out


# classification: "no_causal_solution" | "determinate" | "indeterminate";
# indeterminacy_dim: q times the dimension of the distinct solutions; h: the chosen
# loading stack, sH x q, or None like h_particular, transfer_num and
# transfer_den when there is no solution; kernel: basis vectors of length sH,
# shared by the columns, () when there is no solution
SolutionReport = namedtuple("SolutionReport", (
    "classification indeterminacy_dim h h_particular kernel transfer_num transfer_den kernel_point"))


def _min_norm_shift(X: list, kernel) -> list:
    """X - K coef for K^T K coef = K^T X, K's columns the kernel vectors, on lists of Fraction
    rows: the min-norm point of X + span K, each column orthogonal to every kernel vector.
    On integers K = K' diag(a)^-1 and X_c = X'_c / b_c, so coef_c = diag(a) c' / b_c for
    K'^T K' c' = K'^T X'_c and K coef_c = K' c' / b_c: one Fraction per entry it changes."""
    if not kernel:
        return X
    K = [_scaled(u)[0] for u in kernel]
    cols = [_scaled(col) for col in zip(*X)]
    rows = [[sum(map(mul, u, v)) for v in K] + [sum(map(mul, u, x)) for x, _ in cols] for u in K]
    coef = _solve_rows(rows, len(K), len(cols))[0]  # [K'^T K' | K'^T X'] on integers
    out, KT = [list(row) for row in X], list(zip(*K))
    for c, ((x, b), coef_c) in enumerate(zip(cols, zip(*coef))):
        cc, lc = _scaled(coef_c)  # c' = cc / lc
        for a, ka in enumerate(KT):
            if d := sum(map(mul, ka, cc)):
                out[a][c] = Fraction(x[a] * lc - d, b * lc)
    return out


def _kernel_index(kernel_point: str, n: int) -> int:
    """The kernel basis index kernel_point names, in 0..n-1."""
    try:
        idx = int(kernel_point)
    except ValueError:
        idx = -1
    if not 0 <= idx < n:
        valid = f"a kernel basis index in 0..{n - 1}" if n else "an index: the kernel is empty"
        raise KernelPointError(f"{kernel_point!r} is not 'min-norm' or {valid}")
    return idx


def solve_causal(m: REModel, kernel_point: str = "min-norm") -> SolutionReport:
    """Solve the RE model exactly and classify the causal solution set.

    h and the kernel vectors span all sH entries; the forced ones are zero.  Psi and the
    rows are functions of the head p = h + d, so the kernel holds the x with p = 0, of
    dimension n - effective_unknowns for the n unknowns of the stage `causal`:
    indeterminacy_dim counts the p of the rest.  On a predetermined model it differs from
    analyze's free_parameters only by the cancellation of the unstable roots."""
    n_unknowns, q, free = m.s * m.H, m.q, m.free_unknowns()
    (D, S), cs = m.split, m.causal
    X = None
    if cs.consistent:  # else no p passes z^(G+H), and adj pi is never built
        P = _adj_product(m.adj, m.rf, m.pi.J1)
        rows = list(cs.echelon)  # z^(G+H), then U = D / z^G
        rows += _cancellation_rows(P[0], D.shift(-m.roots.zero_multiplicity))
        X, kern = _solve_rows(rows, cs.n, q)
    if X is None:
        return SolutionReport(
            classification="no_causal_solution", indeterminacy_dim=0,
            h=None, h_particular=None, kernel=(),
            transfer_num=None, transfer_den=None, kernel_point=kernel_point,
        )
    at = {a: i for i, a in enumerate(free)}
    kernel = [[v[at[a]] if a in at else Fraction(0) for a in range(n_unknowns)] for v in kern]
    X = [X[at[a]] if a in at else [Fraction(0)] * q for a in range(n_unknowns)]
    if kernel_point == "min-norm":
        chosen = _min_norm_shift(X, kernel)
    else:
        v = kernel[_kernel_index(kernel_point, len(kernel))]
        chosen = [[x + v[a] for x in row] for a, row in enumerate(X)]
    X, chosen = _rmat(X, q), _rmat(chosen, q)
    num, den, _ = build_transfer(m, (D, S), P, free, chosen)
    dim = q * (len(kern) - cs.n + cs.effective_unknowns)
    return SolutionReport(
        classification="indeterminate" if dim else "determinate", indeterminacy_dim=dim,
        h=chosen, h_particular=X, kernel=tuple(kernel),
        transfer_num=num, transfer_den=den, kernel_point=kernel_point,
    )


def _numerator(m, split, P, free, h) -> PolyMatrix:
    """adj(pi) N(z; h) / D = adj(pi) R / D + S h(z), as adj(pi) pi = D S I, for R = M h - W
    and h(z) = sum_j h_j z^j.  With P the solve's product adj(pi) [M's free columns | ... | W],
    adj(pi) R = sum_(a free) P[:, a] h_a - P[:, W] on integers, as the entries of h outside
    free are zero.  Each column of h is scaled to integers once, for all rows."""
    D, S = split
    rows, den = P
    out = [[] for _ in rows]
    for c in range(m.q):
        hc, L = _scaled([h.entries[a][c] for a in free])
        for i, row in enumerate(rows):
            acc = _combine([*zip(hc, row), (-L, row[c - m.q])])
            hz = Poly([hj[c] for hj in h.entries[i :: m.s]])
            out[i].append(_poly(acc, den * L).exact_div(D).addmul(S, hz))
    return PolyMatrix(out)


def build_transfer(m, split, P, free, h):
    """Transfer function y = (num / den) eps for a loading stack h.

    split = (D, S), the model's stage `split`, and P the solve's product (_numerator).
    num = adj(pi) N / D is exact once h satisfies the rows, and den = S, so num/den = pi^-1 N;
    den ends with den(0) = 1 and all roots outside the unit circle.  The
    third value, once pi_s num / den for a stable Smith factor pi_s that the
    model does not determine, stays None for callers that unpack three.
    """
    den = split[1]
    num = _numerator(m, split, P, free, h)
    # cancel any common polynomial factor, then normalize den(0) = 1
    common = den
    for e in chain.from_iterable(num.entries):
        common = poly_gcd(common, e)
        if common.is_constant():
            break
    if not common.is_constant():
        num = PolyMatrix([[e.exact_div(common) for e in row] for row in num.entries])
        den = den.exact_div(common)
    c0 = den[0]
    assert c0 != 0, "denominator vanishes at zero after pole cancellation"
    inv = Fraction(1) / c0
    return num * inv, den * inv, None


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
    return [_rmat(mtx, q) for mtx in out]


def verify_solution(m: REModel, sr: SolutionReport, max_lag: int = 50) -> dict:
    """Substitute the candidate solution into the model; residuals must vanish.

    With Psi = num/den, the residuals R_d = sum_(k,h) A_kh Psi_(d-k+h) + w_d
    form the series R = W + sum_(k,h) A_kh z^k (Psi - Psi_<h) / z^h, where
    Psi_<h is the head Psi_0 .. Psi_(h-1).  So T = den R is a polynomial with
    z^H T = [Lambda | z^H W - U] [num ; den I_q], Lambda = sum A_kh z^(k+H-h) and
    U = sum A_kh z^(k+H-h) Psi_<h built from the model's own A_kh: one integer
    product (`_int_product`) with the left factor on integers: the A_kh and the
    w_j from `REModel.numerators` and Psi_<H by `_scaled`.
    As den(0) = 1, den is a unit of Q[[z]]: R_0 .. R_L all vanish iff
    coefficients H .. H+L of z^H T are zero.  Only if not is R rebuilt as the
    series of T/den, reporting each failing lag with its first nonzero position
    and value.  Also checks that the entries of h outside m.free_unknowns() are zero.
    """
    if sr.transfer_num is None:
        raise ValueError("no transfer function to verify")
    s, q, H = m.s, m.q, m.H
    num, den = sr.transfer_num, sr.transfer_den
    head = transfer_series(num, den, H)
    # [Lambda | z^H W - U] times L = la lh: the A_kh and the w_j over la, Psi_<H over lh
    (la, A, W), (hs, lh) = m.numerators, _scaled([y for c in head for r in c.entries for y in r])
    L = la * lh
    left = [[[0] * (max(m.K, len(m.wold) - 1) + H + 1) for _ in range(s + q)] for _ in range(s)]
    for (k, h), a in A.items():
        deg = k + H - h
        for lrow, arow in zip(left, a):
            for r, x in enumerate(arow):
                if x:
                    lrow[r][deg] += x * lh
                    for j in range(h):
                        for f, y in zip(lrow[s:], hs[(j * s + r) * q : (j * s + r + 1) * q]):
                            f[deg + j] -= x * y
    for i, row in enumerate(W):  # row i % s of w_(i // s)
        for f, y in zip(left[i % s][s:], row):
            f[H + i // s] += y * lh
    right, lr = _numerators(num.entries + [[den if i == c else _ZERO for c in range(q)]
                                           for i in range(q)])
    zT = _int_product(left, right, q)  # z^H T times L lr
    failures = []
    if any(any(f[H : H + max_lag + 1]) for row in zT for f in row):
        T = PolyMatrix([[_poly(f, L * lr).shift(-H) for f in row] for row in zT])
        for d, res in enumerate(transfer_series(T, den, max_lag + 1)):
            bad = [(i, c, v) for i, row in enumerate(res.entries) for c, v in enumerate(row) if v]
            if bad:
                i, c, v = bad[0]
                failures.append({"lag": d, "row": i, "col": c, "value": str(v)})
    # predetermined zero-revision pattern: the MDS inputs eps^{j,s_i} of the
    # SDE ansatz must vanish for i > j, i.e. the forced entries of h are zero.
    # (The realized solution may still load contemporaneously on innovations
    # through the exogenous term, as in the paper's own predetermined example.)
    free = set(m.free_unknowns())
    predet_failures = [] if sr.h is None else [
        {"j": a // s, "row": a % s} for a in range(s * H) if a not in free and any(sr.h.entries[a])]
    # in the plain flavor the ansatz MDS are exactly the revisions of y, so
    # the leading series coefficients must reproduce h
    first_coeff_failures = [] if sr.h is None or m.predetermined else [
        {"j": j, "row": r, "col": c} for j in range(H) for r in range(s) for c in range(q)
        if head[j].entries[r][c] != sr.h.entries[j * s + r][c]]
    return {
        "ok": not failures and not predet_failures and not first_coeff_failures,
        "max_lag": max_lag,
        "failures": failures,
        "predetermined_failures": predet_failures,
        "first_coefficient_failures": first_coeff_failures,
        "wold_truncation": len(m.wold) - 1,
    }


_BLOCK = 8192  # rows of y per block of simulate's innovation window, at least 2 (see _mc_filter)


def _mc_filter(coeffs, rng, y):
    """Add y_t = sum_j coeffs[j] eps_(t-j), lag 0 first, into the zeros y (T x s), eps the
    (T + len(coeffs)) x q stream of rng.standard_normal(out=...) read through one window
    of _BLOCK + len(coeffs) rows; each lag's block product goes to one _BLOCK x s buffer.
    A one-row block is multiplied as two rows: numpy's gemv path can differ from gemm."""
    import numpy as np

    truncation, n_rows = len(coeffs), len(y)
    coeffs_t = np.ascontiguousarray(coeffs.transpose(0, 2, 1))
    window, buf = np.zeros((_BLOCK + truncation, coeffs.shape[2])), np.empty((_BLOCK, y.shape[1]))
    rng.standard_normal(out=window[:truncation])
    for t in range(0, n_rows, _BLOCK):
        n = min(_BLOCK, n_rows - t)
        rng.standard_normal(out=window[truncation : truncation + n])
        for j in range(truncation):
            rows = window[truncation - j : truncation - j + max(n, 2)]
            y[t : t + n] += np.matmul(rows, coeffs_t[j], out=buf[: len(rows)])[:n]
        window[:truncation] = window[n : n + truncation]
    return y


def simulate(sr: SolutionReport, T: int, seed: int, truncation: int = 200) -> dict:
    """Monte Carlo cross-check: filter N(0, I) innovations through the transfer.

    `_mc_filter` multiplies by one contiguous copy of the transposed coefficient
    stack (numpy sends a product with the strided view `coeffs[j].T` down a slower
    BLAS path) and streams the draws, the same as one (T + truncation) x q draw,
    through one window of `_BLOCK` + truncation rows: beside y (T x s) it holds
    O(_BLOCK) floats.  Every row of y gets the same products, summed in the same
    order, as with the view.  A y numpy cannot allocate, or a coefficient or an
    autocovariance that is not a finite float, raises UnsupportedModelError naming
    it; mc_standard_error is finite when exact_autocov at lag 0 is.
    """
    if sr.transfer_num is None:
        raise ValueError("no transfer function to simulate")
    import numpy as np

    stack = []
    for lag, mat in enumerate(transfer_series(sr.transfer_num, sr.transfer_den, truncation)):
        try:
            stack.append([[float(e) for e in row] for row in mat.entries])
        except OverflowError:
            raise UnsupportedModelError(
                f"transfer coefficient at lag {lag} is too large for a float") from None
    coeffs = np.array(stack)
    s = coeffs.shape[1]
    try:
        y = np.zeros((T, s))
    except (ValueError, MemoryError):
        raise UnsupportedModelError(f"cannot allocate y, {8 * s * T} bytes for T = {T}") from None
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is an error below
        _mc_filter(coeffs, np.random.default_rng(seed), y)
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
