"""Exact rational arithmetic of the benchmark's own, independent of recausal.

Polynomials are lists of Fraction coefficients, lowest power first, with no
trailing zeros (the zero polynomial is []). Matrices are lists of rows.
"""

from __future__ import annotations

from fractions import Fraction


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(a, b):
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def peval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def bit_size(p):
    """Sum over coefficients of numerator plus denominator bit lengths."""
    return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in p)


def zero_multiplicity(p):
    m = 0
    while m < len(p) and p[m] == 0:
        m += 1
    return m


def matmul_poly(A, B):
    return [
        [
            _psum(pmul(A[i][k], B[k][j]) for k in range(len(B)))
            for j in range(len(B[0]))
        ]
        for i in range(len(A))
    ]


def _psum(polys):
    acc = []
    for p in polys:
        acc = padd(acc, p)
    return acc


def eval_matrix(P, x):
    return [[peval(e, x) for e in row] for row in P]


def _echelon(M):
    """Row-reduce a copy of M; returns (rows, pivot columns)."""
    rows = [list(r) for r in M]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                f /= pv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def det(M):
    rows = [list(r) for r in M]
    n = len(rows)
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            d = -d
        pv = rows[c][c]
        d *= pv
        for i in range(c + 1, n):
            f = rows[i][c]
            if f:
                f /= pv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return d


def rank(M):
    return len(_echelon(M)[1]) if M else 0


def interpolate(xs, ys):
    """Coefficients of the polynomial of degree < len(xs) through (xs, ys)."""
    n = len(xs)
    coef = list(ys)
    for j in range(1, n):  # Newton divided differences
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    out = [coef[-1]]
    for i in range(n - 2, -1, -1):  # Horner expansion of the Newton form
        out = padd(pmul(out, [-xs[i], Fraction(1)]), [coef[i]])
    return trim(out)


def poly_det(P):
    """Exact det of a square polynomial matrix by evaluation and interpolation."""
    bound = sum(max((len(e) - 1 for e in row), default=0) for row in P)
    xs = [Fraction(i) for i in range(bound + 1)]
    return interpolate(xs, [det(eval_matrix(P, x)) for x in xs])


def partial_multiplicities(P, s, G):
    """Partial multiplicities at z = 0 of P from block-Toeplitz kernel dimensions.

    dim ker T_k = sum_i min(g_i, k), where T_k is the block lower-triangular
    Toeplitz matrix of the first k coefficient matrices of P; G is the
    multiplicity of z = 0 in det P (the sum of the g_i).
    """
    coeff = lambda d: [[e[d] if d < len(e) else Fraction(0) for e in row] for row in P]
    dims = [0]
    k = 0
    while dims[-1] < G and (k == 0 or dims[-1] > dims[-2]):
        k += 1
        T = []
        for bi in range(k):
            blocks = [coeff(bi - bj) if bi >= bj else [[Fraction(0)] * s] * s for bj in range(k)]
            for r in range(s):
                T.append([x for blk in blocks for x in blk[r]])
        dims.append(k * s - rank(T))
    at_least = [dims[j] - dims[j - 1] for j in range(1, len(dims))]  # #{i: g_i >= j}
    g = [sum(1 for c in at_least if c > i) for i in range(s)]
    return sorted(g)


def series(num, den, n):
    """First n power-series coefficient matrices of num / den (den[0] != 0)."""
    inv0 = 1 / den[0]
    rows, cols = len(num), len(num[0])
    out = []
    for j in range(n):
        mat = []
        for i in range(rows):
            row = []
            for c in range(cols):
                e = num[i][c]
                acc = e[j] if j < len(e) else Fraction(0)
                for l in range(1, min(j, len(den) - 1) + 1):
                    acc -= den[l] * out[j - l][i][c]
                row.append(acc * inv0)
            mat.append(row)
        out.append(mat)
    return out


def substitution_residual(model, num, den, max_lag):
    """First lag at which y = (num/den) eps leaves a nonzero model residual.

    The model sum_{k,h} A_kh E_{t-k} y_{t+h-k} = -u_t, u_t = sum_d w_d eps_{t-d},
    holds for y_t = sum_j Psi_j eps_{t-j} iff for every lag d
    sum_{k <= d} A_kh Psi_{d+h-k} + w_d = 0. Returns None when all lags pass.
    """
    s, q, H = model["s"], model["q"], model["H"]
    psi = series(num, den, max_lag + H + 1)
    wold = model["wold"]
    for d in range(max_lag + 1):
        acc = [list(wold[d][i]) if d < len(wold) else [Fraction(0)] * q for i in range(s)]
        for (k, h), A in model["A"].items():
            if k > d:
                continue
            P = psi[d + h - k]
            for i in range(s):
                Ai = A[i]
                for c in range(q):
                    acc[i][c] += sum(Ai[r] * P[r][c] for r in range(s))
        if any(x != 0 for row in acc for x in row):
            return d
    return None
