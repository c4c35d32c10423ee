"""Causal solution construction: split det pi(z), cancel unstable roots, verify.

A causal stationary solution y = pi^-1 N(z; h) eps needs pi^-1 N to have no
pole at z = 0 or at an unstable root of det pi.  With D = z^G U, G the
multiplicity of z = 0 in det pi and U its unstable factor, that is one
divisibility condition: D divides adj(pi) N(z; h).  With N = pi(z) h(z) + R(z; h)
for the residual R = M h - W, M = z^J1 zeta(z) and W = z^J1 w(z),
adj(pi) pi = det(pi) I = D S I gives adj(pi) N = D S h(z) + adj(pi) R.  One
integer product P = adj(pi) [M's solve columns | W] per solve (`_adj_product`:
adj(pi) is the model's stage `adj`, an integer pair (A, L), the right factor is built on
integers) serves twice: the conditions are the remainders of its entries mod D,
linear in h, and the transfer is (adj(pi) R / D + S h(z)) / S with adj(pi) R
summed from the columns of P.
Neither the rows' echelon form nor the transfer sees a positive factor of P.

The rows are verify_solution's acceptance test, linearized (see README): the
head Psi_0 .. Psi_(H-1) of the solution must be h (plain flavor), so z^H D
divides adj(pi) R; or, with the entries of h outside `REModel.free_unknowns()`
zero, some p = h + d with d in ker L (`_expectation_kernel`), so that
N(z; p) = N(z; h) (predetermined flavor), and z^H D divides adj(pi) (M p - W).
No factorization of pi enters.  adj(pi) and the product are built only once the
split, `REModel.split`, is accepted: a refused model builds neither.  Only
`simulate` imports numpy.  The result, `SolutionReport`, is a named tuple: h and
num/den determine the solution.

A solution y = (num/den) eps is verified by one polynomial identity: with R the
series of model residuals and T = den R, z^H T = [Lambda | z^H W - U] [num ; den I]
(see verify_solution), one integer product, and den(0) = 1 makes den a unit of
Q[[z]], so R vanishes to lag L exactly when coefficients H .. H+L of z^H T are zero.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain, product
from math import lcm
from operator import mul

from .canon import FactorizationError, factor_stable_unstable  # re-exported
from .canon import KernelPointError, UnsupportedModelError
from .exactalg import Poly, PolyMatrix, RationalMatrix, _ZERO, _combine, _int_product, _numerators
from .exactalg import _poly, _rmat, _scaled, _solve_rows, poly_gcd, rank_kernel, solve_affine
from .model import REModel, build_m_stack


def _adj_product(m: REModel, adj: tuple, J1: int, free, ker_l: list) -> tuple:
    """(P, den): adj(pi) [M's free columns | M ker L | W] = P / den, P's entries integer
    coefficient lists, lowest first, by one `_int_product` of A, adj(pi) = A / la the
    model's stage `adj`, and the right factor on integers over one denominator:
    M = z^J1 zeta(z) from build_m_stack(m, K + H), whose row i s + r is coefficient i of
    zeta's row r, and W = z^J1 w(z) from `REModel.wold_numerators`."""
    s, (A, la), (N, L), (lw, W) = m.s, adj, build_m_stack(m, m.K + m.H), m.wold_numerators
    kv = [_scaled(v) for v in ker_l]  # (v times lv, lv)
    lb, pad = lcm(L * lcm(*(lv for _, lv in kv)), lw), [0] * J1  # lb: B's denominator
    B = [[pad + [x[a] * (lb // L) for x in N[r::s]] for a in free]
         + [pad + [sum(map(mul, x, v)) * (lb // (L * lv)) for x in N[r::s]] for v, lv in kv]
         + [pad + [y * (lb // lw) for y in f] for f in wr] for r, wr in enumerate(W)]
    return _int_product(A, B, len(free) + len(kv) + m.q), la * lb


def _cancellation_rows(P: list, D: Poly) -> list:
    """Integer rows [X | B], X x = B saying that the monic D divides adj(pi) (M x - W), from
    (P, den) = _adj_product(m, adj, J1, free, ker L).  Row k < d = deg D of row i of P
    is den e^(N-1-k) times the z^k remainder coefficients of its entries mod D, e = lead(D.num):
    the y^k coefficients of e^(N-1) f(y / e) mod the monic integer e^(d-1) D.num(y / e)."""
    d, e = int(D.degree), D.num[-1]
    Dy = [(j, c * e ** (d - 1 - j)) for j, c in enumerate(D.num[:d]) if c]
    top = max([d] + [len(f) for row in P for f in row])  # N, at least d
    out = []
    for row in P:
        V = [[x * e ** (top - 1 - t) for x in coeff]
             for t, coeff in enumerate(zip(*(f + [0] * (top - len(f)) for f in row)))]
        for t in range(top - 1, d - 1, -1):  # cancel y^t by V[t] y^(t-d) e^(d-1) D.num(y / e)
            v = V.pop()
            for j, c in Dy:
                V[t - d + j] = [x - c * y for x, y in zip(V[t - d + j], v)]
        out += V or [[] for _ in range(d)]  # a row of P with no columns gives d empty rows
    return out


def _expectation_kernel(m: REModel) -> list:
    """A basis of ker L, L(d) = sum_(k,h) sum_(j<h) A_kh d_j z^(k+j-h) for d in Q^sH: the
    terms of pi(z) d(z) + M d = z^J1 L(d) that zeta(z) leaves, summed like build_m_stack."""
    s, H = m.s, m.H
    rows = [[0] * (s * H) for _ in range((m.K + H) * s)]  # L(d) times m.numerators' L
    for (k, h), A in m.numerators[1].items():
        for j, (i, row) in product(range(h), enumerate(A)):
            for c, a in enumerate(row, j * s):
                rows[(k + j - h + H) * s + i][c] += a
    return rank_kernel(_rmat(rows, s * H))[1]


# classification: "no_causal_solution" | "determinate" | "indeterminate";
# indeterminacy_dim: q times the dimension of the distinct solutions; h: the chosen
# loading stack, sH x q, or None like h_particular, transfer_num and
# transfer_den when there is no solution; kernel: basis vectors of length sH,
# shared by the columns
SolutionReport = namedtuple("SolutionReport", (
    "classification indeterminacy_dim h h_particular kernel transfer_num transfer_den kernel_point"))


def _min_norm_shift(X: RationalMatrix, kernel):
    """Project the particular solution onto the min-norm representative."""
    if not kernel:
        return X
    K = RationalMatrix([list(v) for v in kernel]).transpose()
    Kt = K.transpose()
    G = Kt * K
    coef, _ = solve_affine(G, Kt * X)
    return X - K * coef


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

    h and the kernel vectors span all sH entries; the forced ones are zero.  Psi is
    a function of its head p = h + d, so indeterminacy_dim counts the p; on a
    predetermined G > 0 or J1 < H model it may differ from analyze's free_parameters."""
    n_unknowns, q, free = m.s * m.H, m.q, m.free_unknowns()
    D, S = m.split
    ker_l = _expectation_kernel(m) if m.predetermined else []  # d's coordinates follow h's
    P = _adj_product(m, m.adj, m.pi.J1, free, ker_l)
    X, kern = _solve_rows(_cancellation_rows(P[0], D.shift(m.H)), len(free) + len(ker_l), q)
    at = {a: i for i, a in enumerate(free)}
    kernel = [[v[at[a]] if a in at else Fraction(0) for a in range(n_unknowns)] for v in kern]
    if X is None:
        return SolutionReport(
            classification="no_causal_solution", indeterminacy_dim=0,
            h=None, h_particular=None, kernel=tuple(kernel),
            transfer_num=None, transfer_den=None, kernel_point=kernel_point,
        )
    X = _rmat([list(X.entries[at[a]]) if a in at else [Fraction(0)] * q
               for a in range(n_unknowns)], q)
    if kernel_point == "min-norm":
        chosen = _min_norm_shift(X, kernel)
    else:
        v = kernel[_kernel_index(kernel_point, len(kernel))]
        chosen = X + RationalMatrix([[v[a]] * q for a in range(n_unknowns)])
    num, den, _ = build_transfer(m, (D, S), P, free, chosen)
    heads = [[x + sum(c * d[a] for c, d in zip(v[len(free):], ker_l)) for a, x in enumerate(hv)]
             for hv, v in zip(kernel, kern)]
    dim = q * (rank_kernel(_rmat(heads, n_unknowns))[0] if ker_l else len(kernel))
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
    if not common.is_constant() and not common.is_zero():
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
    return [RationalMatrix(mtx) for mtx in out]


def verify_solution(m: REModel, sr: SolutionReport, max_lag: int = 50) -> dict:
    """Substitute the candidate solution into the model; residuals must vanish.

    With Psi = num/den, the residuals R_d = sum_(k,h) A_kh Psi_(d-k+h) + w_d
    form the series R = W + sum_(k,h) A_kh z^k (Psi - Psi_<h) / z^h, where
    Psi_<h is the head Psi_0 .. Psi_(h-1).  So T = den R is a polynomial with
    z^H T = [Lambda | z^H W - U] [num ; den I_q], Lambda = sum A_kh z^(k+H-h) and
    U = sum A_kh z^(k+H-h) Psi_<h built from the model's own A_kh: one integer
    product (`_int_product`) with the left factor on integers: the A_kh from
    `REModel.numerators`, the w_j from `REModel.wold_numerators` and Psi_<H by
    `_scaled`.
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
    # [Lambda | z^H W - U] times L: the A_kh over la, Psi_<H over lh, the w_j over lw
    (la, A), (hs, lh) = m.numerators, _scaled([y for c in head for row in c.entries for y in row])
    lw, ws = m.wold_numerators
    L = lcm(la * lh, lw)
    left = [[[0] * (max(m.K, len(m.wold) - 1) + H + 1) for _ in range(s + q)] for _ in range(s)]
    for (k, h), a in A.items():
        deg = k + H - h
        for lrow, arow in zip(left, a):
            for r, x in enumerate(arow):
                if x:
                    x *= L // (la * lh)
                    lrow[r][deg] += x * lh
                    for j in range(h):
                        for f, y in zip(lrow[s:], hs[(j * s + r) * q : (j * s + r + 1) * q]):
                            f[deg + j] -= x * y
    for f, w in zip(chain.from_iterable(r[s:] for r in left), chain.from_iterable(ws)):
        f[H : H + len(w)] = [x + y * (L // lw) for x, y in zip(f[H:], w)]
    right, lr = _numerators(num.entries + [[den if i == c else _ZERO for c in range(q)]
                                           for i in range(q)])
    zT = _int_product(left, right, q)  # z^H T times L lr
    failures = []
    if any(any(f[H : H + max_lag + 1]) for row in zT for f in row):
        zT = PolyMatrix([[_poly(f, L * lr) for f in row] for row in zT])
        for d, res in enumerate(transfer_series(zT.shift(-H), den, max_lag + 1)):
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


def _mc_filter(coeffs, eps):
    """y_t = sum_j coeffs[j] eps_(t-j) over the last len(eps) - len(coeffs) draws, lag 0 first."""
    import numpy as np

    truncation, T = len(coeffs), len(eps) - len(coeffs)
    coeffs_t = np.ascontiguousarray(coeffs.transpose(0, 2, 1))
    y = np.zeros((T, coeffs.shape[1]))
    for j in range(truncation):
        y += eps[truncation - j : truncation - j + T] @ coeffs_t[j]
    return y


def simulate(sr: SolutionReport, T: int, seed: int, truncation: int = 200) -> dict:
    """Monte Carlo cross-check: filter N(0, I) innovations through the transfer.

    `_mc_filter` multiplies by one contiguous copy of the transposed coefficient
    stack: numpy sends a (T x q) @ (q x s) product with the strided view
    `coeffs[j].T` down a slower BLAS path.  The products and the order they are
    summed in are the same, so y has the same bytes as with the view.  A
    coefficient or an autocovariance that is not a finite float raises
    UnsupportedModelError naming it and its lag; mc_standard_error is finite
    when exact_autocov at lag 0 is.
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
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((T + truncation, coeffs.shape[2]))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is an error below
        y = _mc_filter(coeffs, eps)
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
