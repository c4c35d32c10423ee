"""Constraint-system construction against paper values and brute-force oracles."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recausal.constraints import check_rank_bounds
from recausal.canon import RedundantEquationsError
from recausal.exactalg import Poly, RationalMatrix
from recausal.model import ConstraintSystem, REModel, build_pi, frak_p_blocks
from recausal.solver import solve_causal, verify_solution
from conftest import (
    a_kh,
    affine_set,
    brute_force_plain,
    causal_rows_oracle,
    coeff,
    deep_planted_models,
    fraction_blocks,
    fraction_local,
    heads_rank,
    identity_matrix,
    identity_polymatrix,
    int_local,
    int_stack,
    ladder_shaped_models,
    m_stack_zeta,
    mat_add,
    mat_mul,
    max_degree,
    planted_model,
    planted_models,
    polymatrix_from_rational,
    rand_frac,
    rand_unimodular,
    random_model,
    rank_kernel,
    rank_of,
    ref_causal_system,
    ref_constraint_matrix,
    ref_m_stack,
    ref_rref,
    ref_zeta_coefficients,
    rmat_mul,
    rmat_sub,
    same_affine_set,
    sims_model,
    sims_published_smith,
    smith_local,
    smith_reference,
    smith_reconstruct,
    smith_size,
    submatrix,
    zero_matrix,
    zero_polymatrix,
)


def _sims_as_plain():
    m = sims_model()
    return REModel(s=m.s, K=m.K, H=m.H, q=m.q, A=m.A, gamma=(2, 0), wold=m.wold, xi=m.xi)


def _pi4_model(rng=None):
    """s=4 model whose pi(z) is two diagonal (z,1;0,z) blocks: g=(0,0,2,2) > J1=1."""
    rng = rng or random.Random(99)
    a01 = zero_matrix(4, 4)
    a01.entries[0][1] = Fraction(1)
    a01.entries[2][3] = Fraction(1)
    return REModel(
        s=4, K=0, H=1, q=2,
        A={(0, 0): identity_matrix(4), (0, 1): a01},
        gamma=(4, 0),
        wold=(RationalMatrix([[rand_frac(rng) for _ in range(2)] for _ in range(4)]),),
    )


# ---------------------------------------------------------------------------
# zeta coefficients


def test_zeta_univariate_k2h2():
    rng = random.Random(31)
    a = {(k, h): rand_frac(rng, nonzero=True) for k in range(3) for h in range(3)}
    a[(0, 0)] = Fraction(-1)
    m = REModel(s=1, K=2, H=2, q=1,
                A={kh: RationalMatrix([[v]]) for kh, v in a.items()},
                gamma=(1, 0, 0), wold=(RationalMatrix([[1]]),))
    zc = m_stack_zeta(m)
    expected = [
        [-a[(0, 0)], -a[(0, 1)]],
        [-a[(1, 0)], -(a[(0, 0)] + a[(1, 1)])],
        [-a[(2, 0)], -(a[(1, 0)] + a[(2, 1)])],
        [Fraction(0), -a[(2, 0)]],
    ]
    assert max_degree(zc) == 3
    for i, row in enumerate(expected):
        assert coeff(zc, i) == RationalMatrix([row]), i


def test_zeta_sims():
    m = sims_model()
    zc = m_stack_zeta(m)
    assert max_degree(zc) == 1
    assert coeff(zc, 0) == rmat_mul(a_kh(m, 0, 0), -1)
    assert coeff(zc, 1) == rmat_mul(a_kh(m, 1, 0), -1)


def test_zeta_symbolic_expansion_oracle():
    # expand -sum_k sum_{j} sum_{h<=j} A_kh z^{k+j-h} eps^j directly
    rng = random.Random(32)
    for _ in range(15):
        s = rng.randint(1, 3)
        K, H = rng.randint(0, 3), rng.randint(1, 3)
        m = random_model(rng, s, K, H)
        zc = m_stack_zeta(m)
        by_power = {}
        for k in range(K + 1):
            for j in range(H):
                for h in range(j + 1):
                    mat = a_kh(m, k, h)
                    if mat.is_zero():
                        continue
                    key = (k + j - h, j)
                    by_power[key] = rmat_sub(by_power.get(key, zero_matrix(s, s)), mat)
        assert (zc.rows, zc.cols) == (s, s * H)
        assert max_degree(zc) < H + K
        for i in range(H + K):
            mi = coeff(zc, i)
            for j in range(H):
                block = submatrix(mi, range(s), range(j * s, (j + 1) * s))
                assert block == by_power.get((i, j), zero_matrix(s, s))
        for key in by_power:
            assert 0 <= key[0] < H + K


def test_zeta_tail_vanishes(corpus):
    # m_i = 0 for i >= H - J0, under the stated applicability condition
    for m in corpus:
        if m.H == 0:
            continue
        pp = build_pi(m)
        if not (m.K <= m.H - 1 or -pp.J0 >= m.K - (m.H - 1)):
            continue
        zc = m_stack_zeta(m)
        assert max_degree(zc) < max(0, m.H - pp.J0), (m.K, m.H, pp.J0)


# ---------------------------------------------------------------------------
# P^{-1} coefficients and the frak-P blocks


def test_p_inverse_published_sims():
    sf = sims_published_smith()
    pc = fraction_local(sf.pi, smith_local(sf)).p_inv
    assert pc[0] == RationalMatrix([[1, 90000], [0, Fraction(100, 99)]])
    assert pc[1] == RationalMatrix([[0, 0], [Fraction(-1, 99000), Fraction(-10, 11)]])
    assert len(pc) == 2


def test_p_inverse_defining_identity():
    rng = random.Random(33)
    for _ in range(10):
        m = random_model(rng, rng.randint(1, 3), rng.randint(0, 2), rng.randint(1, 2))
        pc = fraction_local(m.pi.pi, smith_local(m.sf)).p_inv
        acc = zero_polymatrix(m.s, m.s)
        for i, ci in enumerate(pc):
            acc = mat_add(acc, polymatrix_from_rational(ci) * Poly.monomial(i))
        assert mat_mul(acc, m.sf.P) == identity_polymatrix(m.s)


def test_frak_blocks_published_sims():
    sf = sims_published_smith()
    loc = smith_local(sf)
    pb = fraction_blocks(frak_p_blocks(loc, J1=1, H=1), 2)
    # delta_k = J1 - g_k for g_k <= J1, and no g_k exceeds J1
    assert tuple(1 - gk for gk in loc.g) == (1, 0) and all(gk <= 1 for gk in loc.g)
    assert pb[0] == zero_matrix(1, 2)
    assert pb[1] == RationalMatrix([[0, Fraction(100, 99)]])


def test_frak_blocks_g_above_j1():
    m = _pi4_model()
    pb = fraction_blocks(frak_p_blocks(m.local, m.pi.J1, m.H), m.s)
    assert m.sf.g == (0, 0, 2, 2)
    # gamma_k = g_k - J1 for g_k > J1
    assert [gk - m.pi.J1 for gk in m.local.g[2:]] == [1, 1]
    assert len(pb) == m.s
    for blk in pb:
        assert (blk.rows, blk.cols) == (1, 4 * 2)  # H x s(H + gamma_s)


# ---------------------------------------------------------------------------
# the predetermined system: the causal rows at z = 0


def test_free_unknowns_are_the_columns_r_keeps(corpus, predetermined_probe):
    # s = 3, gamma = (1, 1, 1): block 0 of h keeps row 0, block 1 rows 0 and 1
    m = REModel(s=3, K=0, H=2, q=1, A={}, gamma=(1, 1, 1), wold=())
    assert m.free_unknowns() == (0, 3, 4)
    n_forced = 0
    for m in list(corpus) + list(predetermined_probe) + ladder_shaped_models() + planted_models():
        free, n = m.free_unknowns(), m.s * m.H
        assert list(free) == sorted(set(free)) and all(0 <= a < n for a in free)
        assert len(free) == sum(m.gamma[i] * (m.H - i) for i in range(m.H))
        if m.predetermined:  # the system's columns: the free entries of h, then ker L
            assert m.cs.C.cols == len(free) + len(m.ker_l)
        n_forced += len(free) < n
    assert n_forced >= 150, n_forced


def test_m_stack_matches_the_coefficient_stack(corpus, predetermined_probe):
    """The pipeline's one m_stack, which both constraint systems, the rank bounds and the
    solve's product read, is built from the A_kh and the w_j; it equals the coefficient
    matrices [m_i | w_i] of [zeta(z) | w(z)] stacked, all max(K + H, len(wold)) of them,
    also at H = 0, where zeta has no columns.  The systems' p_stack, wider than zeta's
    degree where g > J1, meets zero blocks past its end."""
    # pi = [[1, z^2], [z^2, 0]]: g = (0, 4) and J1 = 1, so p_stack has H + 3 = 4 column blocks
    # and m_stack max(K + H, len(wold)) = 2
    wide = [REModel(s=2, K=1, H=1, q=1, gamma=gamma, wold=(RationalMatrix([[1], [2]]),),
                    A={(0, 1): RationalMatrix([[1, 0], [0, 0]]),
                       (1, 0): RationalMatrix([[0, 1], [1, 0]])}) for gamma in ((2, 0), (1, 1))]
    models = (list(corpus) + list(predetermined_probe) + ladder_shaped_models()
              + planted_models() + deep_planted_models() + wide)
    n_h0 = n_wide = n_past = 0
    for m in models:
        zc, s, n = m_stack_zeta(m), m.s, m.s * m.H
        assert zc == ref_zeta_coefficients(m) and (zc.rows, zc.cols) == (m.s, n)
        N, L = m.m_stack
        assert len(N) == s * max(m.K + m.H, len(m.wold)) and all(len(r) == n + m.q for r in N)
        full = [coeff(zc, i).entries for i in range(len(N) // s)]
        assert [[Fraction(x, L) for x in row[:n]] for row in N] == [row for c in full for row in c]
        wold = [w.entries for w in m.wold] + [[[0] * m.q] * s] * (len(N) // s - len(m.wold))
        assert [[Fraction(x, L) for x in row[n:]] for row in N] == [row for w in wold for row in w]
        ref = ref_m_stack(zc, frak_p_blocks(m.local, m.pi.J1, m.H))  # as wide as p_stack
        assert [[Fraction(x, L) for x in row[:n]] for row in N[: ref.rows]] == ref.entries[: len(N)]
        assert not any(map(any, ref.entries[len(N) :]))  # past zeta's degree
        n_past += ref.rows > len(N)
        if m.H == 0:  # p_stack has no rows, and g <= J1 here, so no column blocks either
            assert ref.rows == ref.cols == 0
            n_h0 += 1
            continue
        n_wide += ref.rows > m.s * (max_degree(zc) + 1)
        assert ref.rows == m.plain_cs.D.cols and m.cs.D.cols == (ref.rows if m.cs.D.rows else 0)
    assert (n_h0, n_wide, n_past) == (2, 20, 2)


def test_predetermined_system_matches_the_poly_causal_rows(corpus, predetermined_probe):
    """D, C and rhs of the predetermined system are the causal rows by Poly products: the
    z^t coefficients, t < H + g_i - J1, of row i of P^-1 zeta(z) [e_a, a free | ker L] and
    of P^-1 w(z) (`ref_causal_system`), with ker L nonempty and rows t past H too."""
    n_checked = n_ker = n_long = 0
    models = list(corpus) + list(predetermined_probe) + planted_models() + deep_planted_models()
    for m in models:
        if not m.predetermined:
            continue
        cs = m.cs
        D, C, rhs = ref_causal_system(m, m.local)
        assert (cs.D, cs.C, cs.rhs) == (D, C, rhs), (m.s, m.H, m.gamma)
        assert (cs.C.rows, cs.C.cols) == (C.rows, len(m.free_unknowns()) + len(m.ker_l))
        n_checked += 1
        n_ker += bool(m.ker_l)
        n_long += C.rows > m.s * m.H
    assert (n_checked, n_ker, n_long) == (144, 11, 2), (n_checked, n_ker, n_long)


def _assert_causal_rows_oracle(m: REModel) -> bool:
    """The predetermined system's kernel dimension, heads rank (its kernel_dim, and the
    rank of the p = h + d of its kernel) and consistency are `causal_rows_oracle`'s.
    Returns the consistency."""
    cs = m.cs
    assert (len(cs.kernel), cs.kernel_dim, cs.consistent) == causal_rows_oracle(m)[:3], m.gamma
    assert heads_rank(cs.kernel, m.free_unknowns(), m.ker_l, m.s * m.H) == cs.kernel_dim
    return cs.consistent


def test_predetermined_system_is_the_causal_rows_oracle(corpus, predetermined_probe):
    """The causal rows at z = 0 and the rows of adj(pi) mod z^(G+H) have the same kernel
    dimension, heads rank and consistency on every predetermined model of the five sets."""
    n = n_inconsistent = n_g = 0
    for m in (list(corpus) + list(predetermined_probe) + ladder_shaped_models()
              + planted_models() + deep_planted_models()):
        if m.predetermined:
            n_inconsistent += not _assert_causal_rows_oracle(m)
            n_g += m.pi.det[0] == 0
            n += 1
    assert (n, n_g, n_inconsistent) == (162, 14, 66), (n, n_g, n_inconsistent)


def test_predetermined_system_is_the_causal_rows_oracle_on_planted_draws():
    """The same on seeded `planted_model` draws, predetermined with G > 0: s = 2, 3,
    H = 1, 2 and g_last = 1 .. 3, so some g_i > J1 + 1."""
    rng, n, n_deep = random.Random(41), 0, 0
    while n < 24:
        s, H, g_last = rng.choice((2, 3)), rng.choice((1, 2)), rng.randint(1, 3)
        m = planted_model(rng, s, H, g_last, predetermined=True)
        if m.predetermined:
            assert m.pi.det[0] == 0
            _assert_causal_rows_oracle(m)
            n += 1
            n_deep += g_last > H + 1
    assert n_deep > 0, n_deep


def _assert_same_row_space(m: REModel) -> bool:
    """The stage `causal`, the solve's rows mod z^(G+H) from local data, and the rows of
    adj(pi) reduced mod z^(G+H) (`causal_rows_oracle`) have one reduced echelon form of
    [X | B], so one row space, and the stage's `consistent` is the oracle's.  Returns it."""
    *_, consistent, rref = causal_rows_oracle(m)
    assert ref_rref(RationalMatrix(m.causal.echelon)) == rref, (m.s, m.H, m.gamma)
    assert m.causal.consistent == consistent, (m.s, m.H, m.gamma)
    return consistent


def test_causal_stage_has_the_row_space_of_the_adj_rows(corpus, predetermined_probe):
    """On every model of the five sets with pi nonsingular and J1 >= 0, in both flavors:
    so the solve, which stacks the stage on the rows mod U, has the row space of the rows
    mod z^(G+H) U, and with it the same reduced echelon form, h, kernel and transfer."""
    n = n_g = n_inconsistent = 0
    for m in (list(corpus) + list(predetermined_probe) + ladder_shaped_models()
              + planted_models() + deep_planted_models()):
        try:
            if m.pi.J1 < 0:
                continue
        except RedundantEquationsError:
            continue
        n_inconsistent += not _assert_same_row_space(m)
        n_g += m.pi.det[0] == 0
        n += 1
    assert (n, n_g, n_inconsistent) == (314, 29, 84), (n, n_g, n_inconsistent)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from((2, 3)), st.sampled_from((1, 2)),
       st.integers(1, 3), st.booleans())
def test_causal_stage_has_the_row_space_of_the_adj_rows_on_drawn_planted_models(
        seed, s, H, g_last, predetermined):
    """The same on `planted_model` draws, G = g_last > 0, some g_i > J1 + 1, both flavors."""
    m = planted_model(random.Random(seed), s, H, g_last, predetermined=predetermined)
    assert m.pi.det[0] == 0
    _assert_same_row_space(m)


@pytest.mark.parametrize("w0, verdict", [(1, "no_causal_solution"), (0, "determinate")])
def test_causal_stage_at_horizon_zero_constrains_w_alone(w0, verdict):
    """H = 0 and g = (0, 1) > J1 = 0: s = 2, K = 1, q = 1, A_00 = diag(1, 0), A_10 = I/2,
    w_0 = (1, w0).  pi = diag(1 + z/2, z/2), so z divides row 2 of pi^-1 w(z) only if
    w0 = 0.  zeta has no columns, and the stage still takes max(g) - J1 = 1 block of it
    and of w: its one row is w's alone."""
    m = REModel(s=2, K=1, H=0, q=1, gamma=(2,), wold=(RationalMatrix([[1], [w0]]),),
                A={(0, 0): RationalMatrix([[1, 0], [0, 0]]),
                   (1, 0): RationalMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])})
    assert (m.local.g, m.pi.J1, m.causal.C.cols) == ((0, 1), 0, 0)
    assert _assert_same_row_space(m) == (w0 == 0) and len(m.causal.echelon) == 1
    sr = solve_causal(m)
    assert sr.classification == verdict
    assert sr.transfer_num is None or verify_solution(m, sr)["ok"]


def test_integer_ranks_match_a_fraction_reference(corpus, predetermined_probe):
    """rank_w and the kernel, counted on integer rows, are rank_kernel's on the Fraction
    C built by Poly and matrix products, in both flavors and at H = 0: the plain system's
    kernel_dim is its nullity, the predetermined system's the rank of the p = h + d of its
    kernel; the kernel read off that count is rank_kernel's basis of the system's own C."""
    models = (list(corpus) + list(predetermined_probe) + ladder_shaped_models()
              + planted_models() + deep_planted_models())
    n_pred = n_h0 = n_wide = 0
    for m in models:
        systems = [(m.plain_cs, ref_constraint_matrix(m))]
        if m.predetermined:
            systems.append((m.cs, ref_causal_system(m, m.local)[1]))
        for cs, C in systems:
            rank, kern = rank_kernel(C)
            assert (cs.rank_w, len(cs.kernel)) == (rank, len(kern)), (m.s, m.H, m.gamma)
            assert cs.kernel == tuple(rank_kernel(cs.C)[1]), (m.s, m.H, m.gamma)
        assert m.plain_cs.effective_unknowns == m.plain_cs.rank_w + m.plain_cs.kernel_dim
        assert m.plain_cs.kernel_dim == len(m.plain_cs.kernel)
        n_pred += m.predetermined
        n_h0 += m.H == 0
        n_wide += max(m.local.g) > m.pi.J1  # p_stack wider than H blocks
    assert (n_pred, n_h0, n_wide) == (162, 2, 17)


def test_predetermined_count_weights_the_scaled_rows():
    """A p_stack row p_1 = c p_0 counts once, also when p_0 and p_1 have different lcms of
    their denominators: P^-1's rows are held over one denominator, and m_stack, [zeta | w],
    over another.  s = 2, H = 1, gamma = (1, 1), g = 0 and J1 = 0, so the system is the
    one row block P^-1 [m_0 | w_0] on the free entry of h, given no ker L."""
    rng = random.Random(35)
    n_unequal = n_rank = 0
    for _ in range(30):
        c = rand_frac(rng, nonzero=True)
        p0 = [rand_frac(rng, nonzero=True), rand_frac(rng)]
        loc = int_local((0, 0), (RationalMatrix([p0, [c * x for x in p0]]),))
        m = REModel(s=2, K=0, H=1, q=1, A={(0, 0): identity_matrix(2)}, gamma=(1, 1),
                    wold=(RationalMatrix([[rand_frac(rng)], [rand_frac(rng)]]),))
        m.artifacts["m_stack"] = int_stack(RationalMatrix(
            [[rand_frac(rng, nonzero=True), rand_frac(rng), w] for (w,) in m.wold[0].entries]))
        m.artifacts["ker_l"] = []
        cs = ConstraintSystem(m, frak_p_blocks(loc, 0, 1, causal=True), True)
        assert cs.C.rows == 2 and cs.C.entries[1] == [c * x for x in cs.C.entries[0]]
        assert cs.rank_w == rank_of(cs.C) == any(cs.C.entries[0]) and cs.kernel_dim == 1 - cs.rank_w
        n_unequal += lcm(*(x.denominator for x in p0)) != lcm(*((c * x).denominator for x in p0))
        n_rank += cs.rank_w
    assert n_unequal >= 10 and n_rank >= 25, (n_unequal, n_rank)


# ---------------------------------------------------------------------------
# constraint systems: paper values


def test_plain_system_sims():
    m = _sims_as_plain()
    cs = smith_reference(m, sims_published_smith()).plain_cs
    # the single constraint row printed in the source example
    c = Fraction(100, 99)
    assert cs.C == RationalMatrix([[0, 0], [c * Fraction(-1, 100000), -c]])
    assert cs.rhs == RationalMatrix([[0, 0], [0, -c]])
    assert cs.rank_w == 1 and cs.kernel_dim == 1
    assert (cs.effective_unknowns - cs.rank_w) * m.q == 2


def test_plain_system_sims_pipeline_choice_free():
    # same ranks with our own Smith factorization instead of the published one
    m = _sims_as_plain()
    assert m.cs.flavor == "plain"
    assert m.cs.rank_w == 1 and m.cs.kernel_dim == 1


def test_predetermined_system_sims():
    """The source reports no constraints on its system here; the causal rows are one
    row on the free entry of h and the one vector of ker L, and count the same one
    kernel direction."""
    m = sims_model()
    cs = m.cs
    assert cs.flavor == "predetermined"
    assert len(m.ker_l) == 1 and cs.effective_unknowns == 2
    assert cs.rank_w == 1 and cs.kernel_dim == 1
    assert cs.C == RationalMatrix([[Fraction(-1, 100000), -1]])
    assert cs.rhs == RationalMatrix([[0, -1]])


def test_predetermined_reduces_to_plain(corpus):
    # gamma = (s, 0, ..., 0) and no ker L: where every g_i <= J1 the causal rows, the stage
    # `causal` of a plain model, are the plain system's, which has a zero row where g_i - J1 + t < 0
    checked = 0
    for m in corpus:
        if m.predetermined or m.H == 0 or checked >= 10:
            continue
        assert all(gi <= m.pi.J1 for gi in m.local.g)
        pred = m.causal
        n = m.s * m.H
        assert pred.effective_unknowns == n
        assert pred.rank_w == m.cs.rank_w
        assert same_affine_set(
            affine_set(pred.C, pred.rhs, n), affine_set(m.cs.C, m.cs.rhs, n)
        )
        checked += 1
    assert checked == 10


# ---------------------------------------------------------------------------
# brute-force oracle (independent derivation of the plain constraints)


def test_brute_force_oracle_spot_check(corpus):
    # the plain-flavor system of every model (predetermined ones included:
    # their plain system ignores gamma) must match the direct derivation
    done = 0
    for m in corpus:
        if m.H == 0 or done >= 24:
            continue
        mbf, bbf = brute_force_plain(m, m.pi, m.sf)
        n = m.s * m.H
        assert same_affine_set(
            affine_set(m.plain_cs.C, m.plain_cs.rhs, n), affine_set(mbf, bbf, n)
        ), (m.s, m.K, m.H)
        done += 1
    assert done == 24


# ---------------------------------------------------------------------------
# Smith-choice invariance


def _diagonal_rescaled(sf, rng):
    from recausal.canon import SmithForm

    n = smith_size(sf)
    d = [rand_frac(rng, nonzero=True) for _ in range(n)]
    Winv = RationalMatrix([[1 / d[i] if i == j else 0 for j in range(n)] for i in range(n)])
    pwinv = polymatrix_from_rational(Winv)
    # P W diag(z^g phi) W^-1 Q = pi, as diagonal matrices commute: the derived Q is W^-1 Q
    return SmithForm(pi=sf.pi, g=sf.g, phi=sf.phi, P_inv=mat_mul(pwinv, sf.P_inv))


def test_smith_choice_invariance(corpus):
    rng = random.Random(34)
    checked = 0
    for m in corpus:
        if m.H == 0 or m.predetermined or checked >= 20:
            continue
        sf2 = _diagonal_rescaled(m.sf, rng)
        assert smith_reconstruct(sf2) == m.pi.pi
        cs2 = smith_reference(m, sf2).plain_cs
        assert cs2.rank_w == m.cs.rank_w
        assert cs2.kernel_dim == m.cs.kernel_dim
        n = m.s * m.H
        assert same_affine_set(
            affine_set(cs2.C, cs2.rhs, n), affine_set(m.cs.C, m.cs.rhs, n)
        )
        checked += 1
    assert checked == 20


def test_rank_agreement_across_published_factorizations():
    # the two published factorizations of the 4x4 block example give equal ranks
    from test_canon import _published_factorizations

    m = _pi4_model()
    pp = build_pi(m)
    pi, sf1, sf2 = _published_factorizations()
    assert pp.pi == pi
    ranks = []
    kdims = []
    for sf in (sf1, sf2, m.sf):
        cs = smith_reference(m, sf).plain_cs
        ranks.append(cs.rank_w)
        kdims.append(cs.kernel_dim)
    assert len(set(ranks)) == 1 and len(set(kdims)) == 1


# ---------------------------------------------------------------------------
# rank bounds


def test_rank_bounds_sims_as_plain():
    m = _sims_as_plain()
    rep = check_rank_bounds(m)
    assert rep["upper_bound"] == 1  # (H-J1)s + min(0,1) + min(1,1)
    assert rep["lower_bound"] == 1
    assert rep["rank_w"] == 1
    assert rep["upper_ok"] and rep["lower_ok"]


def test_rank_bounds_g_above_j1_published_typo():
    # with g = (0,0,2,2) and J1 = H = 1 the published lower-bound summand
    # H - J1 + g_k would exceed the upper bound; the proof's form does not
    m = _pi4_model()
    rep = check_rank_bounds(m)
    assert rep["upper_bound"] == 2
    assert rep["published_lower_bound"] == 4
    assert rep["lower_bound"] <= rep["upper_bound"]
    assert rep["upper_ok"] and rep["lower_ok"]


def test_rank_bounds_corpus(corpus):
    for m in corpus:
        rep = check_rank_bounds(m)
        assert rep["upper_ok"], (m.s, m.K, m.H, rep)
        assert rep["lower_ok"], (m.s, m.K, m.H, rep)
