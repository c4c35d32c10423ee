"""Constraint systems on the martingale-difference revision processes.

The linear system that every admissible stack of revision loadings must
satisfy, in both the plain and the predetermined flavor, as a
`model.ConstraintSystem` C x = rhs.  Both read the Smith data at z = 0 of a
factorization pi = P diag(z^g) E (P unimodular, E(0) invertible), the
`LocalSmith` (g, P^-1) of the model's stage `local`, which `canon.local_form`
finds by a row reduction on pi's integer rows.  [C | rhs] = D R for D = p_stack,
a stack of coefficient rows of P^-1 (`model.frak_p_blocks`), and R = m_stack, the
model's one stack of the coefficients [m_i | w_i] of [zeta(z) | w(z)],
zeta(z) = sum_i m_i z^i, by one zero-skipping product on integers; the
predetermined flavor maps the product's columns of h to its unknowns
(`model.on_unknowns`).  rank_w is counted by `_row_echelon` (Bareiss, Math. Comp.
22, 1968) on those rows, eliminated on C's columns, and the kernel is read off the
same elimination.

The plain system takes H rows per row i of P^-1, its coefficients
g_i - J1 .. g_i - J1 + H - 1, on all sH entries of h, which on a plain model are the
solve's unknowns.  `build_plain_system` takes the model alone and reads p_stack and
m_stack off its stages, so another factorization's system is that of a model copy
with another stage `local`.  The predetermined system is the model's stage `causal`,
the causal rows at z = 0: with p = h + d, h zero outside `REModel.free_unknowns()` and
d in ker L (`REModel.ker_l`), a causal solution needs pi^-1 z^J1 (zeta p - w) = O(z^H),
that is, row i of P^-1 (zeta p - w) vanishes mod z^(H + g_i - J1), as E is a unit of
Q[[z]].  It counts the distinct heads p: effective_unknowns is the dimension of the
p-space, the free entries plus ker L, and C factors through p, so
kernel_dim = effective_unknowns - rank_w is the dimension of the p of its kernel.  Its
solution set does not depend on the factorization.  The solve reads the same stage,
one elimination and one count shared, but not this module: only the stage plain_cs
and `recausal.dimension` import it, so solve, verify, simulate and smith never load it.
"""

from __future__ import annotations

from .exactalg import _row_echelon
from .model import ConstraintSystem, REModel, frak_p_blocks


def build_plain_system(m: REModel) -> ConstraintSystem:
    """Constraint system C eps_bullet = D (innovation stack), no predeterminedness, from the
    model's stages: its p_stack times the model's m_stack, on all sH entries of h."""
    return ConstraintSystem(m, frak_p_blocks(m.local, m.pi.J1, m.H))


def check_rank_bounds(m: REModel) -> dict:
    """Evaluate the rank bounds for the model's plain system at this parameter point.

    The hypotheses read the ranks of the rows of m_stack = (N, L) on zeta's sH
    columns; it has at least H blocks m_i.

    The published lower-bound summand for g_k > J1 reads H - J1 + g_k, but the
    proof establishes H - (g_k - J1) per block; we evaluate the proof form and
    report the published form alongside.
    """
    cs, s, H, J1, g = m.plain_cs, m.s, m.H, m.pi.J1, m.local.g
    N, n = m.m_stack[0], s * H
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
