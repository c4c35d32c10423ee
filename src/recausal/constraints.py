"""Constraint systems on the martingale-difference revision processes.

Assembles the linear system that every admissible stack of revision loadings
must satisfy, in both the plain and the predetermined flavor, as a
`ConstraintSystem` C x = rhs.  Both read the Smith data at z = 0 of a
factorization pi = P diag(z^g) E (P unimodular, E(0) invertible), the
`LocalSmith` (g, P^-1) of the model's stage `local`, which `canon.local_form`
finds by a row reduction on pi's integer rows.  D = p_stack is a stack of
coefficient rows of P^-1, C is D times m_stack's columns of the unknowns,
the m_i of zeta(z) = sum_i m_i z^i (`model.build_m_stack`), and rhs is D times
the w_j stacked.  rank_w is counted by `_row_echelon` (Bareiss, Math. Comp. 22,
1968) on the integer rows of C, from one zero-skipping product of p_stack's and
m_stack's integers, and the kernel is read off the same elimination.  Fractions are
formed only on a first read of C, D or rhs: C is those integer rows over one denominator.

The plain system (`frak_p_blocks`) takes H rows per row i of P^-1, its
coefficients g_i - J1 .. g_i - J1 + H - 1, on all sH entries of h.  The
predetermined system takes the causal rows at z = 0: with p = h + d, h zero
outside `REModel.free_unknowns()` and d in ker L (`REModel.ker_l`), a causal
solution needs pi^-1 z^J1 (zeta p - w) = O(z^H), that is, row i of
P^-1 (zeta p - w) vanishes mod z^(H + g_i - J1), as E is a unit of Q[[z]].
Its unknowns are the free entries of h and the coordinates of d, and it
counts the distinct heads p: effective_unknowns is the dimension of the
p-space, the free entries plus ker L, and C factors through p, so
kernel_dim = effective_unknowns - rank_w is the dimension of the p of its
kernel.  Its solution set does not depend on the factorization.  These
systems give analyze's count; the solve reads none of them.  Only the
model's stages pb, plain_cs and cs (`model.REModel`) and `recausal.dimension`
import this module, so solve, verify, simulate and smith never load it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from .canon import LocalSmith
from .exactalg import _combine, _echelon_kernel, _rmat, _row_echelon, _scaled
from .model import REModel


def frak_p_blocks(loc: LocalSmith, J1: int, H: int, causal: bool = False) -> tuple:
    """(rows, L): p_stack = rows / L, the per-row coefficient blocks of P^-1 shaped
    by the partial multiplicities on loc.p_inv's integers, stacked by row k of P^-1,
    each s(H + max(g - J1, 0)) wide: the row of coefficient t of row k of P^-1 zeta
    holds coefficients t, ..., 0 of row k of P^-1.  Block k has the H rows
    t = g_k - J1 .. g_k - J1 + H - 1, a row t < 0 zero, or, causal, the rows
    t = 0 .. H + g_k - J1 - 1, none if H + g_k <= J1."""
    g, (N, L) = loc.g, loc.p_inv
    n = H + max(max(g) - J1, 0)
    return [[f[t - j] if 0 <= t - j < len(f) else 0 for j in range(n) for f in N[k]]
            for k, gk in enumerate(g) for t in range(0 if causal else gk - J1, H + gk - J1)], L


def _columns(ms: tuple, cols, ker_l: list) -> tuple:
    """(R, lb): [m_stack's columns cols | m_stack d for d in ker_l] = R / lb on integer rows,
    ms = (N, L) m_stack."""
    (N, L), kv = ms, [_scaled(v) for v in ker_l]  # (v times lv, lv)
    lb = L * lcm(*(lv for _, lv in kv))
    return [[x[a] * (lb // L) for a in cols]
            + [sum(map(mul, x, v)) * (lb // (L * lv)) for v, lv in kv] for x in N], lb


def _over(P: list, B: list, cols: int, den: int):
    """P B / den, cols wide, for integer rows P and B by one `_combine` per row of P."""
    return _rmat([[Fraction(x, den) for x in _combine(zip(r, B), cols)] for r in P], cols)


class ConstraintSystem:
    """C x = rhs, flavor "plain" or "predetermined", for D = p_stack: C = D [m_stack's
    columns of the unknowns], rhs = D (the w_j stacked).  The unknowns x are all sH
    entries of h (plain), or the free entries of h and the coordinates of d in ker L,
    ker_l its basis (predetermined).  rank_w, and the reduced rows the kernel of C is
    read off, are counted on integer rows on construction.  C, D and rhs are built on
    first read, C from the rows that were ranked and rhs from `REModel.wold_numerators`
    (`_over`).  ms = (N, L) is m_stack, N / L, and pb = (P, L') p_stack, P / L'."""

    def __init__(self, m: REModel, ms: tuple, pb: tuple, ker_l: list | None = None):
        self.flavor = "plain" if ker_l is None else "predetermined"
        cols = range(m.s * m.H) if ker_l is None else m.free_unknowns()
        ker_l = ker_l or []
        R, n = _columns(ms, cols, ker_l), len(cols) + len(ker_l)
        rows = [_combine(zip(r, R[0]), n) for r in pb[0]]  # L' lb times row r of p_stack R
        pivots = _row_echelon(rows, n)
        self._echelon, self._src = (rows[: len(pivots)], pivots, n), (pb, R, m.wold_numerators)
        self.rank_w, self.effective_unknowns = len(pivots), len(cols)
        if ker_l:  # the p-space: the free entries and ker L's part on the forced ones
            forced = sorted(set(range(m.s * m.H)) - set(cols))
            d = [_scaled([v[a] for a in forced])[0] for v in ker_l]
            self.effective_unknowns += len(_row_echelon(d, len(forced)))

    kernel_dim = property(lambda self: self.effective_unknowns - self.rank_w)
    C = property(lambda self: self._matrices[0])
    D = property(lambda self: self._matrices[1])
    rhs = property(lambda self: self._matrices[2])

    @cached_property
    def _matrices(self) -> tuple:
        (P, lp), (R, lb), (lw, W) = self._src
        n, q = self._echelon[2], len(W[0])
        ws = [[f[j] for f in wr] for j in range(q and len(W[0][0])) for wr in W]  # w_j stacked
        D = _rmat([[Fraction(x, lp) for x in row] for row in P], len(R))
        return _over(P, R, n, lp * lb), D, _over(P, ws, q, lp * lw)

    @cached_property
    def kernel(self) -> tuple:
        return tuple(_echelon_kernel(*self._echelon))


def build_plain_system(m: REModel, ms: tuple, pb: tuple) -> ConstraintSystem:
    """Constraint system C eps_bullet = D (innovation stack), no predeterminedness."""
    return ConstraintSystem(m, ms, pb)


def build_predetermined_system(m: REModel, ms: tuple, loc: LocalSmith,
                               ker_l: list) -> ConstraintSystem:
    """The causal rows at z = 0 on the free entries of h and ker L, ker_l its basis."""
    return ConstraintSystem(m, ms, frak_p_blocks(loc, m.pi.J1, m.H, causal=True), ker_l)


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
