"""Constraint systems on the martingale-difference revision processes.

Builds the polynomial zeta(z) = sum_i m_i z^i, the per-row coefficient blocks
of P(z)^{-1} and the selector S, and assembles the linear system that every
admissible stack of revision loadings must satisfy, in both the plain and the
predetermined flavor, as a `ConstraintSystem` named tuple.  The systems and
the rank bounds read m_stack, the m_0, m_1, ... stacked, which the pipeline
sums from the A_kh (`build_m_stack`) once per model, as wide as the P^{-1} blocks.

Of a factorization pi = P diag(z^g) E (P unimodular, E(0) invertible; the
Smith form with E = diag(phi) Q is one) the systems read only its data at
z = 0, a `LocalSmith`: g, the coefficients of P^{-1} and E(0).  When
det pi(0) != 0 the pipeline uses g = 0, P = I and E(0) = pi(0), so C and D
are built from P = I.  The plain system's affine set, and with it every
verdict, does not depend on which factorization is used.  The predetermined
system's can when g != 0 or J1 < H, so for g != 0 the pipeline keeps the
factors of the global Smith form.

The predetermined system takes the rows of the P^{-1} blocks in time-block
order, applies S and keeps the columns of the entries of h that
`REModel.free_unknowns()` leaves free.  These systems give analyze's count;
the solve reads none of them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .canon import LocalSmith
from .exactalg import (
    PolyMatrix,
    RationalMatrix,
    _NIL,
    _poly,
    _rmat,
    block_diag,
    pseudo_inverse_columns,
    rank_kernel,
    rank_of,
    vstack,
)
from .model import REModel


def build_m_stack(m: REModel, n: int) -> RationalMatrix:
    """The coefficients m_0, ..., m_(n-1) of zeta(z) stacked, from the A_kh:
    column block j of m_i is minus the sum of the A_kh with k + j - h = i, h <= j < H."""
    s, H = m.s, m.H
    sums = [[0] * (s * H) for _ in range(n * s)]
    for (k, h), A in m.A.items():
        for j in range(h, min(H, n + h - k)):
            for acc, row in zip(sums[(k + j - h) * s :], A.entries):
                for c, a in enumerate(row, j * s):
                    if a:
                        acc[c] = acc[c] + a if acc[c] else a
    return _rmat([[-a if a else _NIL for a in row] for row in sums], s * H)


def zeta_coefficients(m: REModel) -> PolyMatrix:
    """The s x sH polynomial zeta(z) = sum_i m_i z^i of zeta_t = sum_i m_i eps_bullet_{t-i}.

    zeta_t collects -A_kh z^{k+(j-h)} eps^j_t over k, j in 0..H-1, h <= j;
    the entry of m_i at block j is minus the sum of all A_kh with k+j-h = i,
    summed on integer numerators over the lcm L of all A_kh denominators.
    """
    s, H = m.s, m.H
    L = lcm(*(a.denominator for A in m.A.values() for row in A.entries for a in row))
    num = [[[0] * (H + m.K) for _ in range(s * H)] for _ in range(s)]
    for (k, h), A in m.A.items():
        for j in range(h, H):
            for r, row in enumerate(A.entries):
                for c, a in enumerate(row):
                    if a:
                        num[r][j * s + c][k + j - h] -= a.numerator * (L // a.denominator)
    return PolyMatrix([[_poly(cs, L) for cs in row] for row in num])


def frak_p_blocks(loc: LocalSmith, J1: int, H: int) -> tuple:
    """Per-row coefficient blocks of P^{-1} shaped by the partial multiplicities:
    s matrices, each H x s(H + max(g - J1, 0))."""
    g, pc = loc.g, loc.p_inv
    s = len(g)
    width = s * (H + max(max(g) - J1, 0))
    blocks = []
    for k, gk in enumerate(g):
        # row r of block k holds coefficients r + o, ..., 0 of row k of P^-1;
        # rows r < -o (g_k < J1) and coefficients past the known ones stay zero
        o = gk - J1
        rows = [[Fraction(0)] * width for _ in range(H)]
        for r in range(H):
            for col_block in range(max(r + o + 1 - len(pc), 0), r + o + 1):
                rows[r][col_block * s : (col_block + 1) * s] = pc[r + o - col_block].entries[k]
        blocks.append(RationalMatrix(rows))
    return tuple(blocks)


def build_selectors(m: REModel, loc: LocalSmith) -> RationalMatrix:
    """S: block i left-inverts omega0's first columns, as many as block i of h
    has free entries."""
    free = m.free_unknowns()
    return block_diag(
        pseudo_inverse_columns(loc.omega0, sum(a // m.s == i for a in free)) for i in range(m.H)
    )


class ConstraintSystem(namedtuple(
        "ConstraintSystem", "C D rank_w kernel flavor effective_unknowns rhs")):
    """flavor is "plain" or "predetermined"; rhs is D applied to the stacked
    Wold coefficients."""

    __slots__ = ()

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel)


def _system(m: REModel, ms: RationalMatrix, pb: tuple, S) -> ConstraintSystem:
    """C = D m_stack and rhs = D w_stack for D = p_stack (plain), or, given the
    selector S (a RationalMatrix), for D = S U^T p_stack with C on the free
    columns of h; U^T takes p_stack's rows in time-block order, row k H + i to
    row i s + k.  ms is m_stack, as many blocks m_i as p_stack has column blocks."""
    flavor = "plain" if S is None else "predetermined"
    s, H = m.s, m.H
    if H == 0:
        empty = RationalMatrix.zero(0, 0)
        return ConstraintSystem(C=empty, D=empty, rank_w=0, kernel=(), flavor=flavor,
                                effective_unknowns=0, rhs=RationalMatrix.zero(0, m.q))
    D, M = vstack(pb), ms
    if S is not None:
        D = S * D.submatrix([k * H + i for i in range(H) for k in range(s)], range(D.cols))
        M = ms.submatrix(range(ms.rows), m.free_unknowns())
    C = D * M
    rank, kern = rank_kernel(C)
    rhs = D * vstack([m.wold_coeff(j) for j in range(ms.rows // s)])
    return ConstraintSystem(C=C, D=D, rank_w=rank, kernel=tuple(kern), flavor=flavor,
                            effective_unknowns=C.cols, rhs=rhs)


def build_plain_system(m: REModel, ms: RationalMatrix, pb: tuple) -> ConstraintSystem:
    """Constraint system C eps_bullet = D (innovation stack), no predeterminedness."""
    return _system(m, ms, pb, None)


def build_predetermined_system(
    m: REModel, ms: RationalMatrix, pb: tuple, S: RationalMatrix
) -> ConstraintSystem:
    """Constraint system on the non-trivial revision components eps^{p,bullet}."""
    return _system(m, ms, pb, S)


def check_rank_bounds(
    cs: ConstraintSystem, loc: LocalSmith, ms: RationalMatrix, J1: int, H: int, s: int
) -> dict:
    """Evaluate the rank bounds for the plain system at this parameter point.

    ms is m_stack with at least H blocks m_i; the hypotheses read its rows.

    The published lower-bound summand for g_k > J1 reads H - J1 + g_k, but the
    proof establishes H - (g_k - J1) per block; we evaluate the proof form and
    report the published form alongside.
    """
    assert cs.flavor == "plain"
    upper = (H - J1) * s + sum(min(gk, J1) for gk in loc.g)
    lower_terms = []
    hyp_all = True
    n = s * H
    m_stack_full_rank = H == 0 or rank_of(ms.submatrix(range(n), range(n))) == n
    for gk in loc.g:
        if gk <= J1:
            lower_terms.append((H - J1) + gk)
            hyp_all = hyp_all and m_stack_full_rank
        else:
            gamma_k = gk - J1
            term = max(H - gamma_k, 0)
            lower_terms.append(term)
            if term > 0:
                sub = ms.submatrix(range(gamma_k * s, n), range(n))
                hyp_all = hyp_all and rank_of(sub) == term * s
    lower = sum(lower_terms)
    published_lower = sum(
        ((H - J1) + gk) if gk <= J1 else max(H - J1 + gk, 0) for gk in loc.g
    )
    generic_rank = (H - J1) * s + sum(loc.g) if all(gk <= J1 for gk in loc.g) else None
    return {
        "rank_w": cs.rank_w,
        "upper_bound": upper,
        "lower_bound": lower,
        "published_lower_bound": published_lower,
        "lower_bound_hypothesis_holds": hyp_all and m_stack_full_rank,
        "generic_rank_g_le_J1": generic_rank,
        "upper_ok": cs.rank_w <= upper,
        "lower_ok": (not (hyp_all and m_stack_full_rank)) or cs.rank_w >= lower,
    }
