"""Constraint systems on the martingale-difference revision processes.

Builds the per-row coefficient blocks of P(z)^{-1} and the selector S, and
assembles the linear system that every admissible stack of revision loadings
must satisfy, in both the plain and the predetermined flavor, as a
`ConstraintSystem`.  Its rank_w and the rank bounds are counted by
`_row_echelon` (Bareiss, Math. Comp. 22, 1968) on integer rows: m_stack, the
m_i of zeta(z) = sum_i m_i z^i summed on `REModel.numerators`
(`model.build_m_stack`), and p_stack on the integers of P^{-1} that the
`LocalSmith` holds over one denominator, multiplied in one zero-skipping
product.  The predetermined count puts A_i^T, A_i the first n_i columns of
E(0) (`omega0`), in place of S's block (A_i^T A_i)^-1 A_i^T: E(0) is invertible, so both
have the same row space, no pseudo-inverse is solved, and E(0)'s integer
columns combine p_stack's rows.  The kernel is read off that elimination.
Fractions are formed only for C, D and rhs, on first read, and for the
pseudo-inverse of E(0)'s columns (`build_selectors`).

Of a factorization pi = P diag(z^g) E (P unimodular, E(0) invertible; the Smith
form with E = diag(phi) Q is one) the systems read only g and P^{-1}, a `LocalSmith`,
and E(0), which `omega0` reads off them and pi once per predetermined system.  A model
builds its plain system, counted and printed, on `canon.local_form`'s: the
global Smith form's gives the same rank_w on the test sets, but the same
solution set of C eps = rhs only where every g_i <= J1.  The predetermined
system's rank can depend on the factors when g != 0 or J1 < H, so for
g != 0 the stage `local` keeps the factors of the global Smith form.

The predetermined system takes the rows of the P^{-1} blocks in time-block
order, applies S and keeps the columns of the entries of h that
`REModel.free_unknowns()` leaves free.  These systems give analyze's count;
the solve reads none of them.  Only the model's stages pb, plain_cs and cs
(`model.REModel`) and `recausal.dimension` import this module, so solve,
verify, simulate and smith never load it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .canon import LocalSmith
from .exactalg import (
    PolyMatrix,
    RationalMatrix,
    _combine,
    _echelon_kernel,
    _numerators,
    _rmat,
    _row_echelon,
    block_diag,
    pseudo_inverse_columns,
    vstack,
)
from .model import REModel


def frak_p_blocks(loc: LocalSmith, J1: int, H: int) -> tuple:
    """(rows, L): p_stack = rows / L, the per-row coefficient blocks of P^-1 shaped
    by the partial multiplicities on loc.p_inv's integers, stacked: s blocks of H
    rows, block k at rows k H .. k H + H - 1, each s(H + max(g - J1, 0)) wide."""
    g, (N, L) = loc.g, loc.p_inv
    n = H + max(max(g) - J1, 0)
    # row r of block k holds coefficients r + o, ..., 0 of row k of P^-1, o = g_k - J1;
    # rows r < -o (g_k < J1) and coefficients past the known ones stay zero
    return [[f[t] if 0 <= (t := r + gk - J1 - j) < len(f) else 0 for j in range(n) for f in N[k]]
            for k, gk in enumerate(g) for r in range(H)], L


def omega0(pi: PolyMatrix, loc: LocalSmith) -> tuple:
    """(E, d): E(0) = E / d of pi = P diag(z^g) E, row i the z^g_i coefficient of row i of
    P^-1 pi, summed over t <= g_i on loc.p_inv's integers and pi's `_numerators` with no term
    for a zero coefficient of P^-1; d = L(P^-1) L(pi)."""
    (N, L), (A, la), E = loc.p_inv, _numerators(pi.entries), []
    for row, gi in zip(N, loc.g):
        acc = [0] * pi.cols
        for f, a in zip(row, A):  # c z^t of entry (i, k) of L P^-1, a row k of L pi
            for t, c in enumerate(f[: gi + 1]):
                if c:
                    acc = [x + c * h[gi - t] if gi - t < len(h) else x for x, h in zip(acc, a)]
        E.append(acc)
    return E, L * la


def build_selectors(m: REModel, e0: tuple) -> RationalMatrix:
    """S: block i left-inverts the first columns of E(0) = E / d, e0 = (E, d), as many
    as block i of h has free entries."""
    free, (E, d) = m.free_unknowns(), e0
    E0 = _rmat([[Fraction(x, d) for x in row] for row in E])
    return block_diag(
        pseudo_inverse_columns(E0, sum(a // m.s == i for a in free)) for i in range(m.H)
    )


def _echelon_w(m: REModel, N: list, pb: tuple, cols, e0: tuple | None) -> tuple:
    """(rows, pivots): C's row space in reduced echelon form on integer rows, of
    p_stack's integer rows times N on the columns cols; the predetermined flavor
    combines them by the integer columns of E(0), e0 = (E, d)."""
    Nc, w = [[row[c] for c in cols] for row in N], len(cols)
    rows = [_combine(zip(r, Nc), w) for r in pb[0]]  # L times row r of p_stack N
    if e0 is not None:  # row j of block i: A_i^T's row j, E(0)'s column j, on rows k H + i
        s, H, E = m.s, m.H, e0[0]
        rows = [_combine(zip([e[j] for e in E], rows[i::H]), w)
                for i in range(H) for j in range(sum(a // s == i for a in cols))]
    pivots = _row_echelon(rows, w)
    return rows[: len(pivots)], pivots


class ConstraintSystem:
    """C eps_bullet = rhs, flavor "plain" or "predetermined": rank_w, and the
    reduced rows the kernel of C is read off, are counted on integer rows on
    construction; C, D and rhs (D applied to the stacked Wold coefficients)
    are built on first read.  C = D m_stack for D = p_stack (plain), or, given the
    LocalSmith loc and E(0), read once by `omega0`, for D = S U^T p_stack with C on the
    free columns of h; U^T takes p_stack's rows in time-block order, row k H + i to row
    i s + k.  ms = (N, L) is m_stack, N / L, and pb = (P, L') p_stack, P / L'."""

    def __init__(self, m: REModel, ms: tuple, pb: tuple, loc: LocalSmith | None = None):
        self.flavor = "plain" if loc is None else "predetermined"
        cols = range(m.s * m.H) if loc is None else m.free_unknowns()
        e0 = None if loc is None else omega0(m.pi.pi, loc)
        self._echelon = _echelon_w(m, ms[0], pb, cols, e0)
        self.effective_unknowns, self.rank_w = len(cols), len(self._echelon[1])
        self._src = m._replace(), ms, pb, e0, cols  # m's copy: no cycle

    kernel_dim = property(lambda self: self.effective_unknowns - self.rank_w)
    C = property(lambda self: self._matrices[0])
    D = property(lambda self: self._matrices[1])
    rhs = property(lambda self: self._matrices[2])

    @cached_property
    def _matrices(self) -> tuple:
        m, (N, L), (P, lp), e0, cols = self._src
        D = _rmat([[Fraction(x, lp) for x in row] for row in P], len(N))
        if e0 is not None:
            rows = [k * m.H + i for i in range(m.H) for k in range(m.s)]
            D = build_selectors(m, e0) * D.submatrix(rows, range(D.cols))
        W = [m.wold_coeff(j) for j in range(len(N) // m.s)]
        return (D * _rmat([[Fraction(row[c], L) for c in cols] for row in N], len(cols)), D,
                D * vstack(W) if W else RationalMatrix.zero(0, m.q))

    @cached_property
    def kernel(self) -> tuple:
        return tuple(_echelon_kernel(*self._echelon, self.effective_unknowns))


def build_plain_system(m: REModel, ms: tuple, pb: tuple) -> ConstraintSystem:
    """Constraint system C eps_bullet = D (innovation stack), no predeterminedness."""
    return ConstraintSystem(m, ms, pb)


def build_predetermined_system(m: REModel, ms: tuple, pb: tuple,
                               loc: LocalSmith) -> ConstraintSystem:
    """Constraint system on the non-trivial revision components eps^{p,bullet}."""
    return ConstraintSystem(m, ms, pb, loc)


def check_rank_bounds(
    cs: ConstraintSystem, loc: LocalSmith, ms: tuple, J1: int, H: int, s: int
) -> dict:
    """Evaluate the rank bounds for the plain system at this parameter point.

    ms = (N, L) is m_stack with at least H blocks m_i; the hypotheses read
    the ranks of N's rows.

    The published lower-bound summand for g_k > J1 reads H - J1 + g_k, but the
    proof establishes H - (g_k - J1) per block; we evaluate the proof form and
    report the published form alongside.
    """
    assert cs.flavor == "plain"
    N, n, g = ms[0], s * H, loc.g
    hyp, lower = H == 0 or len(_row_echelon(N[:n], n)) == n, 0
    for gk in g:
        term = H - J1 + gk if gk <= J1 else max(H - (gk - J1), 0)
        lower += term
        if gk > J1 and term > 0:  # the rows of m_stack from block g_k - J1 on
            hyp = hyp and len(_row_echelon(N[(gk - J1) * s : n], n)) == term * s
    upper = (H - J1) * s + sum(min(gk, J1) for gk in g)
    return {
        "rank_w": cs.rank_w,
        "upper_bound": upper,
        "lower_bound": lower,
        "published_lower_bound": sum(H - J1 + gk if gk <= J1 else max(H - J1 + gk, 0) for gk in g),
        "lower_bound_hypothesis_holds": hyp,
        "generic_rank_g_le_J1": (H - J1) * s + sum(g) if all(gk <= J1 for gk in g) else None,
        "upper_ok": cs.rank_w <= upper,
        "lower_ok": not hyp or cs.rank_w >= lower,
    }
