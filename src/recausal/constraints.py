"""Constraint systems on the martingale-difference revision processes.

Builds the zeta-coefficient matrices m_i, the per-row coefficient blocks of
P(z)^{-1}, the selector matrices U, R, S, and assembles the linear system
that every admissible stack of revision loadings must satisfy, in both the
plain and the predetermined flavor.

Of a factorization pi = P diag(z^g) E (P unimodular, E(0) invertible; the
Smith form with E = diag(phi) Q is one) the systems read only its data at
z = 0, a `LocalSmith`: g, the coefficients of P^{-1} and E(0).  When
det pi(0) != 0 the pipeline uses g = 0, P = I and E(0) = pi(0), so C and D
are built from P = I.  The plain system's affine set, and with it every
verdict, does not depend on which factorization is used.  The predetermined
system's can when g != 0 or J1 < H, so for g != 0 the pipeline keeps the
factors of the global Smith form.

R keeps the entries of h that `REModel.free_unknowns()` leaves free, on which
the predetermined C is written; the solver reads C and its right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .canon import LocalSmith
from .exactalg import (
    RationalMatrix,
    block_diag,
    hstack,
    pseudo_inverse_columns,
    rank_kernel,
    rank_of,
    vstack,
)
from .model import REModel


@dataclass(frozen=True)
class ZetaCoeffs:
    m: tuple  # m_i of shape s x sH, i = 0 .. H+K-1

    def padded(self, n: int):
        """First n coefficient matrices, zero-extended."""
        if not self.m:
            return []
        s = self.m[0].rows
        w = self.m[0].cols
        out = list(self.m[:n])
        while len(out) < n:
            out.append(RationalMatrix.zero(s, w))
        return out


def zeta_coefficients(m: REModel) -> ZetaCoeffs:
    """Coefficients of zeta_t = sum_i m_i eps_bullet_{t-i}.

    zeta_t collects -A_kh z^{k+(j-h)} eps^j_t over k, j in 0..H-1, h <= j;
    the entry of m_i at block j is minus the sum of all A_kh with k+j-h = i.
    """
    s, H = m.s, m.H
    if H == 0:
        return ZetaCoeffs(m=())
    out = []
    for i in range(H + m.K):
        blocks = []
        for j in range(H):
            present = [m.A[i - j + h, h] for h in range(j + 1) if (i - j + h, h) in m.A]
            blocks.append(-sum(present[1:], present[0]) if present else RationalMatrix.zero(s, s))
        out.append(hstack(blocks))
    return ZetaCoeffs(m=tuple(out))


@dataclass(frozen=True)
class PBlocks:
    blocks: tuple       # s matrices, each H x s(H + gamma_excess_max)
    delta: tuple        # J1 - g_k for g_k <= J1, None otherwise
    gamma_excess: tuple  # g_k - J1 for g_k > J1, None otherwise

    @property
    def width_blocks(self) -> int:
        return self.blocks[0].cols // len(self.blocks) if self.blocks else 0


def frak_p_blocks(loc: LocalSmith, J1: int, H: int) -> PBlocks:
    """Per-row coefficient blocks of P^{-1} shaped by the partial multiplicities."""
    g, pc = loc.g, loc.p_inv
    s = len(g)

    def prow(k: int, mth: int):
        if 0 <= mth < len(pc):
            return pc[mth].entries[k]
        return [Fraction(0)] * s

    gamma_s = max(max(g) - J1, 0) if g else 0
    width = s * (H + gamma_s)
    blocks, delta, gexc = [], [], []
    for k, gk in enumerate(g):
        # row r of block k holds coefficients r + o, ..., 0 of row k of P^-1;
        # rows r < -o (g_k < J1) stay zero
        o = gk - J1
        rows = [[Fraction(0)] * width for _ in range(H)]
        for r in range(H):
            for col_block in range(r + o + 1):
                rows[r][col_block * s : (col_block + 1) * s] = prow(k, r + o - col_block)
        blocks.append(RationalMatrix(rows))
        delta.append(-o if o <= 0 else None)
        gexc.append(o if o > 0 else None)
    return PBlocks(blocks=tuple(blocks), delta=tuple(delta), gamma_excess=tuple(gexc))


@dataclass(frozen=True)
class Selectors:
    U: RationalMatrix
    R: RationalMatrix
    S: RationalMatrix
    omega0: RationalMatrix

    @property
    def p_dim(self) -> int:
        return self.R.rows


def build_selectors(m: REModel, loc: LocalSmith) -> Selectors:
    s, H = m.s, m.H
    omega0 = loc.omega0
    # U row (k*H + i) selects component k of time-block i
    U = RationalMatrix.zero(s * H, s * H)
    for k in range(s):
        for i in range(H):
            U.entries[k * H + i][i * s + k] = Fraction(1)
    # R keeps the free entries of h, and S block i left-inverts omega0's first
    # columns, as many as block i of h has free entries
    free = m.free_unknowns()
    R = RationalMatrix.zero(len(free), s * H)
    for i, a in enumerate(free):
        R.entries[i][a] = Fraction(1)
    S = block_diag(
        pseudo_inverse_columns(omega0, sum(a // s == i for a in free)) for i in range(H)
    )
    return Selectors(U=U, R=R, S=S, omega0=omega0)


@dataclass(frozen=True)
class ConstraintSystem:
    C: RationalMatrix
    D: RationalMatrix
    rank_w: int
    kernel: tuple
    flavor: str                  # "plain" | "predetermined"
    effective_unknowns: int
    rhs: RationalMatrix          # D applied to the stacked Wold coefficients

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel)


def _system(m: REModel, zc: ZetaCoeffs, pb: PBlocks, sel: Selectors | None) -> ConstraintSystem:
    """C = D m_stack and rhs = D w_stack for D = p_stack (plain), or, given the
    selectors, for D = S U^T p_stack with C restricted to the free columns by R^T."""
    flavor = "plain" if sel is None else "predetermined"
    if m.H == 0:
        empty = RationalMatrix.zero(0, 0)
        return ConstraintSystem(C=empty, D=empty, rank_w=0, kernel=(), flavor=flavor,
                                effective_unknowns=0, rhs=RationalMatrix.zero(0, m.q))
    width = pb.width_blocks  # H + gamma_s
    D = vstack(pb.blocks)
    m_stack = vstack(zc.padded(width))
    if sel is None:
        C, unknowns = D * m_stack, m.s * m.H
    else:
        D = sel.S * sel.U.transpose() * D
        C, unknowns = D * m_stack * sel.R.transpose(), sel.p_dim
    rank, kern = rank_kernel(C)
    rhs = D * vstack([m.wold_coeff(j) for j in range(width)])
    return ConstraintSystem(C=C, D=D, rank_w=rank, kernel=tuple(kern), flavor=flavor,
                            effective_unknowns=unknowns, rhs=rhs)


def build_plain_system(m: REModel, zc: ZetaCoeffs, pb: PBlocks) -> ConstraintSystem:
    """Constraint system C eps_bullet = D (innovation stack), no predeterminedness."""
    return _system(m, zc, pb, None)


def build_predetermined_system(
    m: REModel, zc: ZetaCoeffs, pb: PBlocks, sel: Selectors
) -> ConstraintSystem:
    """Constraint system on the non-trivial revision components eps^{p,bullet}."""
    return _system(m, zc, pb, sel)


def check_rank_bounds(
    cs: ConstraintSystem, loc: LocalSmith, zc: ZetaCoeffs, J1: int, H: int, s: int
) -> dict:
    """Evaluate the rank bounds for the plain system at this parameter point.

    The published lower-bound summand for g_k > J1 reads H - J1 + g_k, but the
    proof establishes H - (g_k - J1) per block; we evaluate the proof form and
    report the published form alongside.
    """
    assert cs.flavor == "plain"
    upper = (H - J1) * s + sum(min(gk, J1) for gk in loc.g)
    lower_terms = []
    hyp_all = True
    m_stack_sq = vstack(zc.padded(H)) if H else RationalMatrix.zero(0, s * H)
    m_stack_full_rank = H == 0 or rank_of(m_stack_sq) == s * H
    for gk in loc.g:
        if gk <= J1:
            lower_terms.append((H - J1) + gk)
            hyp_all = hyp_all and m_stack_full_rank
        else:
            gamma_k = gk - J1
            term = max(H - gamma_k, 0)
            lower_terms.append(term)
            if term > 0:
                sub = zc.padded(H)[gamma_k:H]
                ok = sub and rank_of(vstack(sub)) == len(sub) * s
                hyp_all = hyp_all and bool(ok)
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
