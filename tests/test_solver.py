"""Stable/unstable split of det pi, causal solving, exact verification, simulation."""

import importlib
import random
from datetime import timedelta
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from recausal import canon, model, solver
from recausal.canon import (
    RedundantEquationsError, SmithForm, UnitCircleRootError, _unstable_part, classify_roots,
    smith_form,
)
from recausal.cli import _emit, cmd_smith, cmd_solve, cmd_verify, parse_args
from recausal.dimension import dimension_report
from recausal.exactalg import (
    Poly, PolyMatrix, RationalMatrix, _int_product, _numerators, _poly, det_adjugate,
)
from recausal.model import REModel, build_pi, parse_model, validate_semantics
from recausal.solver import (
    FactorizationError,
    SolutionReport,
    UnsupportedModelError,
    _adj_product,
    _cancellation_rows,
    _mc_filter,
    _min_norm_shift,
    _numerator,
    factor_stable_unstable,
    simulate,
    solve_causal,
    transfer_series,
    verify_solution,
)
from digest import model_sets
from test_model import _coefficient_arrays
from conftest import (
    adj_matrix,
    affine_set,
    assemble_rhs,
    coeff,
    deep_planted_models,
    defect_model,
    diag_matrix,
    divisibility_rows,
    full_unknown_heads,
    full_unknown_system,
    identity_polymatrix,
    ladder_shaped_models,
    map_at,
    mat_add,
    mat_mul,
    mat_sub,
    max_degree,
    planted_model,
    planted_models,
    polymatrix_from_rational,
    rand_frac,
    random_gamma,
    random_model,
    rank_of,
    ref_adj_product,
    ref_cancellation_rows,
    ref_expectation_kernel,
    ref_min_norm_shift,
    ref_mc_filter,
    ref_numerator,
    ref_residual_map,
    ref_residual_rows,
    ref_simulate,
    ref_smith_split,
    ref_split_phi,
    ref_transfer,
    ref_unstable_part,
    ref_verify,
    ref_verify_per_h,
    ref_wold_poly,
    ref_zeta_coefficients,
    residual_map,
    rmat_add,
    rmat_mul,
    rmat_sub,
    rmat_transpose,
    same_affine_set,
    sims_model,
    smith_size,
    solve_affine,
    substitution_set,
    wold_coeff,
    zero_matrix,
)

Z = Poly([0, 1])
GOLDEN = Path(__file__).resolve().parent / "golden"
MODELS = GOLDEN.parents[1] / "models"


def golden_models():
    """The models of models/ and tests/golden/, by file name."""
    paths = [*MODELS.glob("*.json"), *GOLDEN.glob("*.json")]
    return {p.stem: parse_model(p.read_text()) for p in paths
            if p.name not in ("cases.json", "digest.json", "outcomes.json")}


def scalar_model(a, wold_len=1):
    # y_t = a E_t(y_{t+1}) + u_t
    return REModel(
        s=1, K=0, H=1, q=1,
        A={(0, 0): RationalMatrix([[-1]]), (0, 1): RationalMatrix([[a]])},
        gamma=(1, 0),
        wold=tuple(RationalMatrix([[Fraction(1, j + 1)]]) for j in range(wold_len)),
    )


# ---------------------------------------------------------------------------
# stable/unstable split of det pi


def _split(pi, J1):
    """factor_stable_unstable on det pi, checking det pi = D S."""
    det, _ = det_adjugate(pi)
    D, S = factor_stable_unstable(det, J1, classify_roots(det))
    assert D * S == det
    return D, S


def test_factor_sims():
    m = sims_model()
    D, S = factor_stable_unstable(m.pi.det, m.pi.J1, m.roots)
    assert D * S == m.pi.det
    # D carries z = 0 and the unstable root 10/11, S the stable root 10/9
    assert D.monic() == Z * (Z - Fraction(10, 11))
    assert S.monic() == Z - Fraction(10, 9)


def test_factor_scalar_split():
    # pi = (1 - 2z)(1 - z/2): root 1/2 is unstable, root 2 stable
    D, S = _split(PolyMatrix([[Poly([1, -2]) * Poly([1, Fraction(-1, 2)])]]), J1=2)
    assert D.monic() == Z - Fraction(1, 2)
    assert S.monic() == Z - 2


def test_factor_all_roots_outside():
    # no unstable roots and G = 0: nothing to cancel, D = 1
    pi = PolyMatrix([[Poly([1, Fraction(-1, 3)]), Poly()],
                     [Poly.const(1), Poly([1, Fraction(-1, 4)])]])
    D, S = _split(pi, J1=1)
    assert D == Poly.const(1)
    assert S.monic() == (Z - 3) * (Z - 4)


def test_factor_rejects_straddling_irreducible():
    # z^2 - 3z + 1 has roots (3 +- sqrt(5))/2: one inside, one outside,
    # and it is irreducible over Q, so no exact split exists
    with pytest.raises(FactorizationError):
        _split(PolyMatrix([[Poly([1, -3, 1])]]), J1=2)


def test_factor_rejects_negative_j1():
    with pytest.raises(UnsupportedModelError):
        _split(PolyMatrix([[Poly([1, Fraction(-1, 2)])]]), J1=-1)


# ---------------------------------------------------------------------------
# right-hand side assembly


def test_assemble_rhs_h_zero():
    rng = random.Random(51)
    m = random_model(rng, 2, 1, 1)
    pp = build_pi(m)
    A, W = assemble_rhs(m, ref_zeta_coefficients(m), pp.J1, pp.pi)
    h0 = zero_matrix(m.s * m.H, m.q)
    n = map_at(A, W, h0)
    assert n == ref_wold_poly(m) * Poly.monomial(pp.J1) * Fraction(-1)
    assert A.cols == m.s * m.H


def test_assemble_rhs_sims_b_theta():
    # with h = (k_v, k_eps; 0, 0) the right-hand side is the example's
    # B_theta(z) = (k_v + z, k_eps; 0, z)
    m = sims_model()
    A, W = assemble_rhs(m, ref_zeta_coefficients(m), m.pi.J1, m.pi.pi)
    kv, keps = Fraction(-10, 11), Fraction(200000, 11)
    h = RationalMatrix([[kv, keps], [0, 0]])
    n = map_at(A, W, h)
    assert n == PolyMatrix([[Poly([kv, 1]), Poly.const(keps)], [Poly(), Z]])


def test_assemble_rhs_affine_linearity():
    rng = random.Random(52)
    m = random_model(rng, 2, 1, 2)
    zc = ref_zeta_coefficients(m)
    h1 = RationalMatrix([[Fraction(rng.randint(-3, 3))] * m.q for _ in range(m.s * m.H)])
    h2 = RationalMatrix([[Fraction(rng.randint(-3, 3))] * m.q for _ in range(m.s * m.H)])
    # both the full map N = A h - W and the solver's residual R = M h - W
    for A, W in (assemble_rhs(m, zc, m.pi.J1, m.pi.pi), residual_map(m, zc, m.pi.J1)):
        n0 = map_at(A, W, zero_matrix(m.s * m.H, m.q))
        lhs = mat_sub(map_at(A, W, rmat_add(h1, h2)), n0)
        rhs = mat_add(mat_sub(map_at(A, W, h1), n0), mat_sub(map_at(A, W, h2), n0))
        assert lhs == rhs


def test_assemble_rhs_matches_direct_formula():
    # N(z; h) = pi(z) h(z) + (sum_i m_i z^{J1+i}) h_stack - w(z) z^{J1}
    rng = random.Random(53)
    for _ in range(5):
        m = random_model(rng, rng.randint(1, 3), rng.randint(0, 2), rng.randint(1, 2))
        zc = ref_zeta_coefficients(m)
        A, W = assemble_rhs(m, zc, m.pi.J1, m.pi.pi)
        M, W_res = residual_map(m, zc, m.pi.J1)
        h = RationalMatrix(
            [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m.q)]
             for _ in range(m.s * m.H)]
        )
        got = map_at(A, W, h)
        hpoly = PolyMatrix(
            [
                [Poly([h.entries[j * m.s + r][c] for j in range(m.H)]) for c in range(m.q)]
                for r in range(m.s)
            ]
        )
        direct = mat_sub(mat_mul(m.pi.pi, hpoly), ref_wold_poly(m) * Poly.monomial(m.pi.J1))
        assert max_degree(zc) < m.H + m.K
        for i in range(m.H + m.K):
            mi = coeff(zc, i)
            mih = polymatrix_from_rational(rmat_mul(mi, h))
            direct = mat_add(direct, mih * Poly.monomial(m.pi.J1 + i))
        assert got == direct
        assert mat_add(mat_mul(m.pi.pi, hpoly), map_at(M, W_res, h)) == direct


# ---------------------------------------------------------------------------
# solving and classification


def test_solve_sims_exact():
    sr = solve_causal(sims_model())
    assert sr.classification == "determinate"
    assert sr.h == RationalMatrix([[Fraction(-10, 11), Fraction(200000, 11)], [0, 0]])
    assert sr.transfer_den == Poly([1, Fraction(-9, 10)])
    kv_num = Poly([Fraction(-10, 11), 1])
    assert sr.transfer_num == PolyMatrix(
        [
            # the source's final display shows 20000/11 here, but inverting its
            # own pi_s * y = A_theta display gives 200000/11, which is also the
            # unique value passing exact substitution into the model
            [kv_num, Poly.const(Fraction(200000, 11))],
            [Poly.const(Fraction(1, 110000)), Poly.const(Fraction(9, 11))],
        ]
    )


def test_scalar_determinacy_boundary():
    for a in (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3)):
        sr = solve_causal(scalar_model(a))
        assert sr.classification == "determinate", a
        assert verify_solution(scalar_model(a), sr)["ok"]
    for a in (Fraction(2), Fraction(-2), Fraction(3), Fraction(-3)):
        sr = solve_causal(scalar_model(a))
        assert sr.classification == "indeterminate", a
        assert sr.indeterminacy_dim == 1
        assert verify_solution(scalar_model(a), sr)["ok"]


def test_scalar_determinate_series_oracle():
    # |a| < 1: the unique causal solution is y_t = sum_k a^k E_t(u_{t+k});
    # for u with MA coefficients w_j this gives k_j = sum_{i>=0} a^i w_{j+i}
    for a in (Fraction(1, 2), Fraction(-1, 3)):
        m = scalar_model(a, wold_len=3)
        sr = solve_causal(m)
        assert sr.classification == "determinate"
        series = transfer_series(sr.transfer_num, sr.transfer_den, 10)
        for j in range(10):
            expect = sum(
                (a ** i) * wold_coeff(m, j + i).entries[0][0] for i in range(len(m.wold))
            )
            assert series[j].entries[0][0] == expect, (a, j)


def test_indeterminate_distinct_kernel_points():
    m = scalar_model(Fraction(2))
    sr0 = solve_causal(m, kernel_point="min-norm")
    sr1 = solve_causal(m, kernel_point="0")
    assert sr0.classification == sr1.classification == "indeterminate"
    assert sr0.h != sr1.h
    # distinct parameters give transfers differing within the first H blocks
    s0 = transfer_series(sr0.transfer_num, sr0.transfer_den, m.H)
    s1 = transfer_series(sr1.transfer_num, sr1.transfer_den, m.H)
    assert s0 != s1
    assert verify_solution(m, sr0)["ok"] and verify_solution(m, sr1)["ok"]


def test_default_h_is_the_min_norm_point(monkeypatch):
    """On every indeterminate model of the five sets and of perfbench's planted seeds
    101-103, i < 20, the default h is the min-norm point of h_particular + span(kernel):
    each kernel vector is orthogonal to every column of h, and h - h_particular lies in
    the span of the kernel."""
    monkeypatch.syspath_prepend(str(GOLDEN.parents[1] / "perfbench"))
    gen = importlib.import_module("gen")
    models = [m for ms in model_sets().values() for m in ms] + [
        parse_model(gen.to_json(gen.planted_model(seed, i))) for seed in (101, 102, 103)
        for i in range(20)]
    n = 0
    for m in models:
        try:
            sr = solve_causal(m)
        except (FactorizationError, UnsupportedModelError):
            continue
        if sr.classification != "indeterminate":
            continue
        K = RationalMatrix([list(v) for v in sr.kernel])
        assert rmat_mul(K, sr.h).is_zero(), (m.s, m.H, m.gamma)
        shift = rmat_sub(sr.h, sr.h_particular)
        assert solve_affine(rmat_transpose(K), shift)[0] is not None, (m.s, m.H, m.gamma)
        n += 1
    assert n == 68, n


def _assert_min_norm_is_ref(sr) -> None:
    """The integer min-norm shift of h_particular is the Fraction reference's, and h."""
    X, kernel = [list(r) for r in sr.h_particular.entries], [list(v) for v in sr.kernel]
    assert _min_norm_shift(X, kernel) == ref_min_norm_shift(X, kernel) == sr.h.entries


def test_min_norm_shift_matches_the_fraction_reference(corpus, predetermined_probe):
    """On every model of the five sets with a causal solution, in both flavors."""
    n = n_kernel = 0
    for m in (list(corpus) + list(predetermined_probe) + ladder_shaped_models()
              + planted_models() + deep_planted_models()):
        try:
            sr = solve_causal(m)
        except (FactorizationError, UnsupportedModelError):
            continue
        if sr.h is not None:
            _assert_min_norm_is_ref(sr)
            n, n_kernel = n + 1, n_kernel + bool(sr.kernel)
    assert (n, n_kernel) == (42, 31), (n, n_kernel)


def test_min_norm_shift_matches_the_fraction_reference_on_planted_draws():
    """The same on 40 seeded `planted_model` draws with a causal solution, G = g_last > 0,
    both flavors."""
    rng, n, n_kernel = random.Random(50), 0, 0
    while n < 40:
        s, H, g_last = rng.choice((2, 3)), rng.choice((1, 2)), rng.randint(1, 3)
        sr = solve_causal(planted_model(rng, s, H, g_last, predetermined=rng.random() < 0.5))
        if sr.h is not None:
            _assert_min_norm_is_ref(sr)
            n, n_kernel = n + 1, n_kernel + bool(sr.kernel)
    assert n_kernel >= 10, n_kernel


@pytest.mark.parametrize("kernel, want", [
    ([[1, 1, 0], [0, 0, 0]],  # a zero kernel vector
     [[Fraction(3, 4), Fraction(1, 3)], [Fraction(-3, 4), Fraction(-1, 3)], [5, Fraction(1, 7)]]),
    ([[1, Fraction(1, 2), 0], [1, Fraction(1, 2), 0]],  # a repeated one
     [[Fraction(2, 5), Fraction(2, 15)], [Fraction(-4, 5), Fraction(-4, 15)], [5, Fraction(1, 7)]]),
])
def test_min_norm_shift_with_a_singular_gram_matrix(kernel, want):
    """K^T K is singular, and the min-norm point is still the projection of each column of X
    off the span of the kernel vectors, (1, 1, 0) or (2, 1, 0): unique, though coef is not."""
    X = [[Fraction(1), Fraction(2, 3)], [Fraction(-1, 2), Fraction(0)], [Fraction(5), Fraction(1, 7)]]
    kernel = [[Fraction(x) for x in v] for v in kernel]
    assert _min_norm_shift(X, kernel) == ref_min_norm_shift(X, kernel) == want


def test_no_innovations_keep_zero_columns():
    """At q = 0 the min-norm and kernel-point h and the constraint rhs keep their rows
    and have no columns."""
    m = scalar_model(Fraction(2))._replace(q=0, wold=(RationalMatrix([[]]),) * 2)
    for point in ("min-norm", "0"):
        sr = solve_causal(m, kernel_point=point)
        assert (sr.h.rows, sr.h.cols, sr.h_particular.cols, len(sr.kernel)) == (1, 0, 0, 1)
    assert (m.cs.rhs.rows, m.cs.rhs.cols, m.cs.C.cols) == (m.cs.C.rows, 0, 1)


def test_h0_trivial_model():
    # H = 0: y_t = u_t with u = w(z) eps
    m = REModel(s=1, K=0, H=0, q=1, A={(0, 0): RationalMatrix([[-1]])},
                gamma=(1,), wold=(RationalMatrix([[1]]), RationalMatrix([[Fraction(1, 2)]])))
    sr = solve_causal(m)
    assert sr.classification == "determinate"
    series = transfer_series(sr.transfer_num, sr.transfer_den, 4)
    assert [x.entries[0][0] for x in series] == [1, Fraction(1, 2), 0, 0]
    assert verify_solution(m, sr)["ok"]


def test_verify_sims_and_negative_control():
    m = sims_model()
    sr = solve_causal(m)
    rep = verify_solution(m, sr, max_lag=50)
    assert rep["ok"] and rep["failures"] == []
    assert rep["predetermined_failures"] == []
    # perturb one transfer coefficient: residual must appear at a finite lag
    bad_num = PolyMatrix(
        [
            [e + (1 if (i, j) == (0, 0) else 0) for j, e in enumerate(row)]
            for i, row in enumerate(sr.transfer_num.entries)
        ]
    )
    bad = SolutionReport(
        classification=sr.classification, indeterminacy_dim=sr.indeterminacy_dim,
        h=sr.h, h_particular=sr.h_particular, kernel=sr.kernel,
        transfer_num=bad_num, transfer_den=sr.transfer_den, kernel_point=sr.kernel_point,
    )
    rep = verify_solution(m, bad, max_lag=10)
    assert not rep["ok"] and rep["failures"]


def test_verify_corpus_end_to_end(corpus):
    solved = 0
    for m in corpus:
        try:
            sr = solve_causal(m)
        except (FactorizationError, UnsupportedModelError):
            continue
        if sr.classification == "no_causal_solution":
            continue
        rep = verify_solution(m, sr, max_lag=30)
        assert rep["ok"], (m.s, m.K, m.H, m.gamma, rep)
        solved += 1
    # many random dets have irreducible factors straddling the unit circle,
    # which the exact splitter rightly refuses; about a quarter solve cleanly
    assert solved >= 20, solved


def _perturbed(rng, sr, max_lag):
    """(k, report) pairs: num + c z^k at random (i, j, c, k), and den + c z^k.

    k runs over 0 .. max_lag + 10 for num and 1 .. max_lag + 10 for den, so
    den(0) = 1 holds throughout.
    """
    num, den = sr.transfer_num, sr.transfer_den
    out = []
    for _ in range(2):
        i, j, k = rng.randrange(num.rows), rng.randrange(num.cols), rng.randint(0, max_lag + 10)
        entries = [list(row) for row in num.entries]
        entries[i][j] = entries[i][j] + Poly.monomial(k, rand_frac(rng, nonzero=True))
        out.append((k, sr._replace(transfer_num=PolyMatrix(entries))))
    k = rng.randint(1, max_lag + 10)
    bad_den = den + Poly.monomial(k, rand_frac(rng, nonzero=True))
    out.append((k, sr._replace(transfer_den=bad_den)))
    return out


def test_verify_matches_lag_by_lag_reference(corpus):
    rng = random.Random(4)
    cases = []
    for m in list(corpus) + planted_models() + [sims_model(), defect_model()]:
        try:
            sr = solve_causal(m)
        except (FactorizationError, UnsupportedModelError):
            continue
        if sr.transfer_num is not None:
            cases.append((m, sr))
    assert len(cases) >= 30
    n_failing = 0
    for n, (m, sr) in enumerate(cases):
        for max_lag in sorted({m.H, 10, 50}):
            base = verify_solution(m, sr, max_lag)
            assert base == ref_verify(m, sr, max_lag)
            perturbed = _perturbed(rng, sr, max_lag)
            if max_lag == 50:  # the reference is slow there: one of the three in turn
                perturbed = perturbed[n % 3 : n % 3 + 1]
            for k, bad in perturbed:
                rep = verify_solution(m, bad, max_lag)
                assert rep == ref_verify(m, bad, max_lag), (k, max_lag)
                if k > max_lag + m.H:
                    # Psi_j enters the residual at lags j - H and later only
                    assert rep == base, (k, max_lag)
                n_failing += rep["failures"] != base["failures"]
    assert n_failing >= 90, n_failing


def test_verify_matches_per_h_reference(corpus, predetermined_probe):
    """The z^H-scaled identity gives the report of T built one h at a time on
    every solution, each of which verifies, on perturbed numerators, which
    give the failing reports, and at H = 0 and K = 0."""
    h0 = random_model(random.Random(9), 2, 1, 0)
    k0 = random_model(random.Random(0), 2, 0, 2)
    models = (list(corpus) + list(predetermined_probe) + ladder_shaped_models() + planted_models()
              + deep_planted_models() + [defect_model(), sims_model(), h0, k0])
    rng = random.Random(16)
    n_solved = n_failing = n_perturbed = 0
    for m in models:
        try:
            sr = solve_causal(m)
        except (FactorizationError, UnsupportedModelError):
            assert m not in (h0, k0)
            continue
        if sr.transfer_num is None:
            assert m not in (h0, k0)
            continue
        n_solved += 1
        for max_lag in sorted({m.H, 50}):
            rep = verify_solution(m, sr, max_lag)
            assert rep == ref_verify_per_h(m, sr, max_lag), max_lag
        n_failing += not rep["ok"]
        for k, bad in _perturbed(rng, sr, 50)[:2]:  # the numerators
            rep = verify_solution(m, bad, 50)
            assert rep == ref_verify_per_h(m, bad, 50), k
            n_perturbed += bool(rep["failures"])
    assert n_solved >= 45 and n_failing == 0 and n_perturbed >= 60, (
        n_solved, n_failing, n_perturbed)


def _scaled_model(m, rng):
    """m with equation i times c_i and variable r times t_r, c_i and t_r of either sign
    with numerator and denominator above 2^64: A_kh -> diag(c) A_kh diag(t) and
    w -> diag(c) w, so y = diag(t) y' maps its solutions onto those of m."""
    def big():
        f = Fraction(rng.choice((3**41, 5**28, 7**23)) + rng.randint(1, 99), 2**65 + rng.randint(1, 99))
        return f if rng.random() < 0.5 else -f
    c, t = [big() for _ in range(m.s)], [big() for _ in range(m.s)]
    return m._replace(
        A={key: RationalMatrix([[c[i] * x * t[r] for r, x in enumerate(row)]
                                for i, row in enumerate(a.entries)]) for key, a in m.A.items()},
        wold=tuple(RationalMatrix([[c[i] * x for x in row] for i, row in enumerate(w.entries)])
                   for w in m.wold))


def test_verify_packed_product_on_wide_integers():
    """verify_solution's one integer product matches the lag-by-lag reference on
    models whose entries have numerators and denominators above 2^64.  With
    A_0H invertible, num + c z^k changes z^H T first at coefficient k, so a
    perturbation at k = H + max_lag is the last one the check must flag."""
    rng = random.Random(64)
    cases = []
    while len(cases) < 4:
        s, H = rng.choice((2, 3)), len(cases) % 2 + 1
        gamma = random_gamma(rng, s, H) if len(cases) >= 2 else None
        m = _scaled_model(random_model(rng, s, 1, H, gamma=gamma, force_g0=True), rng)
        try:
            sr = solve_causal(m)
        except FactorizationError:
            continue
        if sr.transfer_num is not None:
            cases.append((m, sr))
    for m, sr in cases:
        assert max(abs(x.numerator) for a in m.A.values() for row in a.entries for x in row) > 2**64
        assert min(x.denominator for a in m.A.values() for row in a.entries for x in row if x) > 2**64
        assert any(x < 0 for a in m.A.values() for row in a.entries for x in row)
        for max_lag in sorted({m.H, 10, 50}):
            rep = verify_solution(m, sr, max_lag)
            assert rep["ok"] and rep == ref_verify(m, sr, max_lag), max_lag
            i, j = rng.randrange(m.s), rng.randrange(m.q)
            for k in (m.H + max_lag, m.H + max_lag + 1):
                entries = [list(row) for row in sr.transfer_num.entries]
                entries[i][j] = entries[i][j] + Poly.monomial(k, Fraction(-(2**70) - 1, 3**45))
                bad = sr._replace(transfer_num=PolyMatrix(entries))
                rep = verify_solution(m, bad, max_lag)
                assert rep == ref_verify(m, bad, max_lag), (max_lag, k)
                flagged = [f["lag"] for f in rep["failures"]]
                assert flagged == ([max_lag] if k == m.H + max_lag else []), (max_lag, k)


def test_transfer_series_requires_unit_den_at_zero():
    m = scalar_model(Fraction(1, 2))
    sr = solve_causal(m)._replace(transfer_den=Poly([2, -1]))
    with pytest.raises(ValueError, match=r"transfer_den\(0\) = 2"):
        transfer_series(sr.transfer_num, sr.transfer_den, 3)
    with pytest.raises(ValueError, match="transfer_den"):
        verify_solution(m, sr)
    with pytest.raises(ValueError, match="transfer_den"):
        simulate(sr, T=10, seed=0)


def _split_phi(phi, xi):
    """(stable, unstable) parts of a monic phi by the certified route: classify
    its roots, then split each Yun factor from the same discs."""
    phi = phi.monic()
    u, stable = factor_stable_unstable(phi, 0, classify_roots(phi, xi))
    return stable, u


def _split_outcome(split, phi):
    try:
        return split(phi, 1)
    except FactorizationError:
        return "no rational split"


def test_split_phi_matches_symbolic_split(corpus):
    phis = {
        ph
        for m in list(corpus) + planted_models() + [sims_model()]
        for ph in m.sf.phi
        if not ph.is_constant()
    }
    assert len(phis) >= 50
    outcomes = [_split_outcome(_split_phi, ph) for ph in phis]
    assert outcomes == [_split_outcome(ref_split_phi, ph) for ph in phis]
    refused = outcomes.count("no rational split")
    assert 0 < refused < len(phis) - 10


# phi from rational roots, irreducible quadratics and cubics, and root pairs
# 2^-40 apart, all at least 0.1 off the ring [1/xi, 1]; a factor is scaled
# by 1 + 1/(2^100 + j) to give coefficient denominators of 2^100 and more
_IRREDUCIBLE = (
    (1, -3, 1), (-1, -1, 1), (2, -4, 1),                  # straddling quadratics
    (Fraction(1, 8), Fraction(-1, 2), 1), (Fraction(-1, 3), 0, 1),  # inside
    (5, -5, 1), (-3, 0, 1), (3, 1, 1),                    # outside
    (2, -4, 0, 1), (1, -3, 0, 1),                         # straddling cubics
    (Fraction(-1, 5), 0, 0, 1), (-2, 0, 0, 1),            # one-sided cubics
)
_root = st.builds(
    lambda r, out: 1 / r if out else r,
    st.fractions(Fraction(-9, 10), Fraction(9, 10), max_denominator=40).filter(bool),
    st.booleans(),
)


def _scaled(f: Poly, j: int) -> Poly:
    lam = 1 + Fraction(1, 2**100 + j)  # f(lam z) / lam^n, roots divided by lam
    return Poly([c * lam ** (k - f.degree) for k, c in enumerate(f.coeffs)])


_factor = st.one_of(
    _root.map(lambda r: Z - r),
    _root.map(lambda r: (Z - r) * (Z - r - Fraction(1, 2**40))),
    st.sampled_from(_IRREDUCIBLE).map(Poly),
)
_phi = st.lists(
    st.tuples(_factor, st.integers(1, 2), st.none() | st.integers(1, 1000)),
    min_size=1, max_size=3,
)


@settings(derandomize=True, max_examples=60, deadline=timedelta(seconds=4))
@given(_phi)
def test_split_phi_matches_symbolic_split_on_generated_phi(parts):
    phi = Poly.const(1)
    for f, k, j in parts:
        f = f if j is None else _scaled(f, j)
        for _ in range(k):
            phi = phi * f
    assert _split_outcome(_split_phi, phi) == _split_outcome(ref_split_phi, phi)


def test_split_phi_rejects_roots_in_the_ring():
    with pytest.raises(UnitCircleRootError):
        _split_phi(Z - (1 + Fraction(1, 10**12)), 1)
    with pytest.raises(UnitCircleRootError):  # 7/10 lies in [1/xi, 1] for xi = 2
        _split_phi((Z - Fraction(7, 10)) * (Z - 3), 2)
    assert _split_phi(Z - Fraction(7, 10), 1) == (Poly.const(1), Z - Fraction(7, 10))


def test_split_phi_refuses_a_rounding_that_does_not_divide():
    # coarse but valid discs over 2^4 for z^2 - 3z + 1: D(1/8, 5/16) holds
    # (3 - sqrt 5)/2 and D(21/8, 1/16) holds (3 + sqrt 5)/2; U~ = z - 1/8
    # passes the rounding test as z, which does not divide phi
    coarse = (4, ((2, 0), (42, 0)), (5, 1), (True, False))
    with pytest.raises(FactorizationError, match="not rational"):
        _unstable_part(Poly([1, -3, 1]), 1, coarse)


def _has_roots(m):
    try:
        return m.roots is not None
    except UnitCircleRootError:
        return False


def _split_or_refusal(m):
    try:
        return factor_stable_unstable(m.pi.det, m.pi.J1, m.roots)[0]
    except FactorizationError as exc:
        return str(exc)


def test_refusals_and_splits_match_the_rounding_reference(
        monkeypatch, corpus, predetermined_probe):
    """The test on the unstable centers' sum refuses what rounding U~ refuses,
    with the same text, and accepts the same U.  On the ladder-shaped
    refusals it decides at the first certified discs: no refinement resumes
    and no separation bound (isqrt) is computed."""
    sets = {
        "corpus": corpus, "probe": predetermined_probe, "ladder": ladder_shaped_models(),
        "refused12": [parse_model((GOLDEN / "refused12.json").read_text())],
        "planted": planted_models() + deep_planted_models(),
    }
    kept = {name: [m for m in ms if _has_roots(m)] for name, ms in sets.items()}
    with monkeypatch.context() as mp:
        mp.setattr(canon, "_unstable_part", ref_unstable_part)
        expected = {name: [_split_or_refusal(m) for m in ms] for name, ms in kept.items()}
    calls = {"isqrt": 0, "resumed": 0}

    def isqrt(x, _isqrt=canon.isqrt):
        calls["isqrt"] += 1
        return _isqrt(x)

    def resumed_discs(*args, _discs=canon.root_discs):
        calls["resumed"] += 1
        yield from _discs(*args)

    monkeypatch.setattr(canon, "isqrt", isqrt)
    monkeypatch.setattr(canon, "root_discs", resumed_discs)
    refused = {}
    for name, ms in kept.items():
        refused[name] = 0
        for m, want in zip(ms, expected[name]):
            calls.update(isqrt=0, resumed=0)
            if isinstance(want, str):
                refused[name] += 1
                with pytest.raises(FactorizationError) as exc:
                    solve_causal(m)
                assert str(exc.value) == want
                assert name != "ladder" or calls == {"isqrt": 0, "resumed": 0}
            else:
                assert _split_or_refusal(m) == want
    assert refused == {"corpus": 67, "probe": 129, "ladder": 34, "refused12": 1, "planted": 0}


def test_split_phi_splits_one_sided_irreducible_quadratics():
    inside = Poly([Fraction(1, 8), Fraction(-1, 2), 1])  # |roots|^2 = 1/8
    outside = Poly([5, -5, 1])  # roots (5 +- sqrt 5) / 2
    assert _split_phi(inside * outside, 1) == (outside, inside)
    assert _split_phi(inside * inside * outside, 1) == (outside, inside * inside)


# ---------------------------------------------------------------------------
# divisibility rows against the Smith-split reference


def _columns(P: PolyMatrix):
    """The s x 1 columns of P."""
    return [PolyMatrix([[row[c]] for row in P.entries]) for c in range(P.cols)]


def _cancellation_affine_set(rows_of, A, W):
    """(row count, affine set of h) on which rows_of vanishes for N(z; h) = A h - W."""
    basis = [rows_of(v) for v in _columns(A)]
    rhs = [rows_of(v) for v in _columns(W)]
    n = len(rhs[0])
    M = RationalMatrix([[b[r] for b in basis] for r in range(n)])
    B = RationalMatrix([[c[r] for c in rhs] for r in range(n)])
    if not n:
        M, B = zero_matrix(0, len(basis)), zero_matrix(0, W.cols)
    return n, affine_set(M, B, len(basis))


def test_divisibility_rows_match_smith_split(corpus):
    n_sets = n_transfers = n_deep = 0
    for m in list(corpus) + planted_models() + deep_planted_models() + [sims_model()]:
        try:
            sr = solve_causal(m)
        except (FactorizationError, UnsupportedModelError):
            continue
        J1 = m.pi.J1
        D, _S = factor_stable_unstable(m.pi.det, J1, m.roots)
        split = ref_smith_split(m.sf, J1, D.shift(-m.roots.zero_multiplicity))
        A, W = assemble_rhs(m, ref_zeta_coefficients(m), J1, m.pi.pi)
        adj = adj_matrix(m.adj)
        n_new, new = _cancellation_affine_set(partial(divisibility_rows, adj, D), A, W)
        n_old, old = _cancellation_affine_set(partial(ref_cancellation_rows, split=split), A, W)
        assert n_new == n_old and same_affine_set(new, old), (m.s, m.H, m.sf.g, J1)
        n_sets += 1
        n_deep += max(m.sf.g) > J1 + 1
        if sr.h is not None:
            N = map_at(A, W, sr.h)
            assert ref_transfer(N, split) == (sr.transfer_num, sr.transfer_den)
            n_transfers += 1
    assert n_sets >= 50 and n_transfers >= 30 and n_deep >= 8, (n_sets, n_transfers, n_deep)


def _solve_product(adj: tuple, M: PolyMatrix, W: PolyMatrix, cols):
    """(P, den) = adj [M's columns cols | W] for the pipeline's pair adj = (A, L) and Poly
    matrices M and W: the solve's product, which `_adj_product` builds on integers, for
    any columns cols, by `_int_product` of A and the right factor's `_numerators`."""
    (A, la), (B, lb) = adj, _numerators([[row[a] for a in cols] + w
                                         for row, w in zip(M.entries, W.entries)])
    return _int_product(A, B, len(cols) + W.cols), la * lb


def _positive_multiple(row: list, ref: list) -> bool:
    """row = c ref for one rational c > 0; a zero ref needs a zero row."""
    k = next((i for i, x in enumerate(ref) if x), None)
    if k is None:
        return len(row) == len(ref) and not any(row)
    c = Fraction(row[k]) / ref[k]
    return c > 0 and len(row) == len(ref) and all(x == c * y for x, y in zip(row, ref))


def test_residual_rows_and_numerator_match_full_map(corpus):
    # the solver drops the pi(z) h(z) term of N; each integer row scales the
    # Fraction row of remainder coefficients of adj(pi) N mod D
    n_models = n_rows = n_nums = 0
    for m in list(corpus) + planted_models() + deep_planted_models():
        try:
            sr = solve_causal(m)
        except (FactorizationError, UnsupportedModelError):
            continue
        J1, adj, unknowns = m.pi.J1, adj_matrix(m.adj), range(m.s * m.H)
        split = factor_stable_unstable(m.pi.det, J1, m.roots)
        D = split[0]
        zc = ref_zeta_coefficients(m)
        A, W = assemble_rhs(m, zc, J1, m.pi.pi)
        M, W_res = residual_map(m, zc, J1)
        basis = [divisibility_rows(adj, D, v) for v in _columns(A)]
        rhs = [divisibility_rows(adj, D, v) for v in _columns(W)]
        n = len(rhs[0])
        P = _solve_product(m.adj, M, W_res, unknowns)
        rows = _cancellation_rows(P[0], D)
        assert len(rows) == n, (m.s, m.H, J1)
        for r, row in enumerate(rows):
            ref = [b[r] for b in basis] + [c[r] for c in rhs]
            assert _positive_multiple(row, ref), (m.s, m.H, J1, r)
        n_models += 1
        n_rows += n > 0
        if sr.h is not None:
            N = map_at(A, W, sr.h)
            full = PolyMatrix([[e.exact_div(D) for e in row] for row in mat_mul(adj, N).entries])
            assert _numerator(m, split, P, unknowns, sr.h) == full
            n_nums += 1
    assert n_models >= 50 and n_rows >= 35 and n_nums >= 30, (n_models, n_rows, n_nums)


def test_cancellation_rows_and_numerator_match_per_unknown_map(corpus, predetermined_probe):
    # one product adj [M's free columns | W] against one column per unknown
    n_models = n_forced = n_nums = 0
    models = list(corpus) + list(predetermined_probe) + planted_models() + deep_planted_models()
    for m in models:
        try:
            sr = solve_causal(m)
        except (FactorizationError, UnsupportedModelError):
            continue
        J1, adj, free = m.pi.J1, adj_matrix(m.adj), m.free_unknowns()
        split = factor_stable_unstable(m.pi.det, J1, m.roots)
        zc = ref_zeta_coefficients(m)
        M, W = residual_map(m, zc, J1)
        const, per_unknown = ref_residual_map(m, zc, J1)
        P = _solve_product(m.adj, M, W, free)
        rows = _cancellation_rows(P[0], split[0])
        ref_x, ref_b = ref_residual_rows(adj, split[0], const, [per_unknown[a] for a in free])
        assert len(rows) == len(ref_x), (m.s, m.H, m.gamma)
        for row, x, b in zip(rows, ref_x, ref_b):
            assert _positive_multiple(row, x + b), (m.s, m.H, m.gamma)
        n_models += 1
        n_forced += len(free) < m.s * m.H
        if sr.h is not None:
            assert _numerator(m, split, P, free, sr.h) == ref_numerator(
                m, adj, split, const, per_unknown, sr.h), (m.s, m.H, m.gamma)
            n_nums += 1
    assert n_models >= 75 and n_forced >= 25 and n_nums >= 40, (n_models, n_forced, n_nums)


def test_horizon_zero_solutions_have_q_columns(corpus):
    n_answered = 0
    for m in corpus:
        if m.H:
            continue
        try:
            sr = solve_causal(m)
        except (FactorizationError, UnsupportedModelError):
            continue
        if sr.h is not None:
            assert sr.h.cols == sr.h_particular.cols == m.q, (m.s, m.q)
            assert sr.h.rows == sr.h_particular.rows == 0
            n_answered += 1
    assert n_answered >= 1


# ---------------------------------------------------------------------------
# the solve over the free unknowns against the full-unknown assembly


def _assert_counts_the_distinct_heads(m: REModel) -> bool:
    """indeterminacy_dim, which the solve reads off the causal stage's effective_unknowns, is
    q times the rank of the heads p = h + sum c d of the kernel of `full_unknown_system`'s
    rows (`full_unknown_heads`).  Returns whether the solve answered."""
    try:
        sr = solve_causal(m)
    except (FactorizationError, UnsupportedModelError):
        return False
    assert sr.indeterminacy_dim == m.q * full_unknown_heads(m), (m.s, m.H, m.gamma)
    return True


def test_indeterminacy_dim_counts_the_distinct_heads(corpus, predetermined_probe):
    """On every answered model of the five sets, in both flavors."""
    counts = dict.fromkeys(("answered", "predetermined", "indeterminate", "ker"), 0)
    for m in (list(corpus) + list(predetermined_probe) + ladder_shaped_models()
              + planted_models() + deep_planted_models()):
        if _assert_counts_the_distinct_heads(m):
            for key, hit in (("answered", True), ("predetermined", m.predetermined),
                             ("indeterminate", solve_causal(m).indeterminacy_dim),
                             ("ker", m.predetermined and m.ker_l)):
                counts[key] += bool(hit)
    assert counts == {"answered": 84, "predetermined": 28, "indeterminate": 31, "ker": 11}, counts


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from((2, 3)), st.sampled_from((1, 2)),
       st.integers(1, 3), st.booleans())
def test_indeterminacy_dim_counts_the_distinct_heads_on_drawn_planted_models(
        seed, s, H, g_last, predetermined):
    """The same on `planted_model` draws, G = g_last > 0, both flavors; each is answered."""
    m = planted_model(random.Random(seed), s, H, g_last, predetermined=predetermined)
    assert m.pi.det[0] == 0 and _assert_counts_the_distinct_heads(m)



def test_free_unknown_solve_matches_full_unknown_system(corpus, predetermined_probe):
    """An answered solve has the particular solution and kernel of the system over all sH
    entries of h; a none report carries no kernel, and that system has no solution."""
    n_sets = n_forced = n_answered = 0
    for m in list(corpus) + list(predetermined_probe) + ladder_shaped_models() + planted_models():
        try:
            sr = solve_causal(m)
        except (FactorizationError, UnsupportedModelError):
            continue
        got, want = (sr.h_particular, list(sr.kernel)), full_unknown_system(m)
        if sr.h is None:
            assert sr.kernel == () and want[0] is None, (m.s, m.H, m.gamma)
        else:
            assert same_affine_set(got, want), (m.s, m.H, m.gamma)
            # solve_affine normalises by its pivots, and forced entries are pivots of
            # unit rows, so both solves give the same particular solution and kernel
            assert got == want, (m.s, m.H, m.gamma)
        n_sets += 1
        n_forced += len(m.free_unknowns()) < m.s * m.H
        n_answered += sr.h is not None
    assert n_sets >= 70 and n_forced >= 20 and n_answered >= 40, (n_sets, n_forced, n_answered)


def test_verify_reports_a_forced_entry_set_nonzero(corpus, predetermined_probe):
    n_checked = 0
    for m in list(corpus) + list(predetermined_probe) + planted_models() + [sims_model()]:
        forced = sorted(set(range(m.s * m.H)) - set(m.free_unknowns()))
        try:
            sr = solve_causal(m)
        except (FactorizationError, UnsupportedModelError):
            continue
        if not forced or sr.h is None:
            continue
        assert verify_solution(m, sr, m.H)["predetermined_failures"] == []
        for a in forced:
            h = [list(row) for row in sr.h.entries]
            h[a][n_checked % m.q] = Fraction(1)
            rep = verify_solution(m, sr._replace(h=RationalMatrix(h)), m.H)
            assert rep["predetermined_failures"] == [{"j": a // m.s, "row": a % m.s}]
            assert not rep["ok"]
            n_checked += 1
    assert n_checked >= 15, n_checked


def test_solve_and_verify_derive_no_smith_inverse():
    """Q, P and Q^-1 are derived on first read: validate, analyze, solve and
    verify read none of them, and only `recausal smith` derives them.  Solve,
    verify, validate and analyze compute no Smith form (all have G > 0)."""
    n_solved = 0
    for m in planted_models():
        sr = solve_causal(m)
        if sr.transfer_num is not None:
            assert verify_solution(m, sr)["ok"]
            n_solved += 1
        assert "sf" not in m.artifacts
        validate_semantics(m)
        dimension_report(m)
        assert "sf" not in m.artifacts
        m = m._replace()
        cmd_smith(m, None)
        assert {"Q", "P", "Q_inv"} <= set(vars(m.artifacts["sf"]))
    assert n_solved == 10, n_solved


def test_planted_models_with_s0_zero_answer():
    """gamma = (0, .., s, .., 0) with s at k >= 1 forces blocks 0 .. k-1 of h
    to zero, all of h for k = H: analyze's p-space is the free entries and ker L.
    Every planted model (all have J1 = H) gets a verdict, and each emitted
    solution verifies."""
    emitted = 0
    for m in planted_models():
        for k in range(1, m.H + 1):
            mk = m._replace(gamma=tuple(m.s if i == k else 0 for i in range(m.H + 1)))
            free = [[int(a == b) for b in range(m.s * m.H)] for a in mk.free_unknowns()]
            assert len(free) == m.s * (m.H - k)
            assert dimension_report(mk)["effective_unknowns"] == (
                rank_of(RationalMatrix(free + mk.ker_l)) if free or mk.ker_l else 0)
            sr = solve_causal(mk)
            if sr.transfer_num is not None:
                assert verify_solution(mk, sr)["ok"]
                emitted += 1
    assert emitted == 4


def _drop_smith_unimodulars(m):
    """Build m's constraint system, then leave only g, phi and the derived Q in
    its memoized Smith form: without P^-1 and pi, P cannot be derived either."""
    m.cs
    sf = m.sf
    m.artifacts["sf"] = SmithForm(pi=None, g=sf.g, phi=sf.phi, P_inv=None)
    m.artifacts["sf"].Q = sf.Q


def test_solve_reads_no_smith_unimodular_but_q(capsys):
    """The solve reads no Smith factor: from a memoized form stripped to g, phi
    and Q it prints the golden solve and answers as a fresh model does, whose
    solve and verify leave no Smith form in the memo."""
    m = sims_model()
    _drop_smith_unimodulars(m)
    _emit(cmd_solve(m, parse_args(["solve", "sims.json"])), "json")
    assert capsys.readouterr().out == (GOLDEN / "sims_solve.stdout").read_text()
    assert "Q_inv" not in vars(m.artifacts["sf"])
    # g = (0, 0, 2) > J1 = 1
    m = planted_models()[3]
    fresh = m._replace()
    want = solve_causal(fresh)
    assert verify_solution(fresh, want)["ok"] and "sf" not in fresh.artifacts
    _drop_smith_unimodulars(m)
    got = solve_causal(m)
    assert got.classification == want.classification == "determinate"
    assert "Q_inv" not in vars(m.artifacts["sf"])
    for field in ("h", "kernel", "transfer_num", "transfer_den"):
        assert getattr(got, field) == getattr(want, field), field


def _sheared_smith(sf: SmithForm) -> SmithForm:
    """The factors P' = P T^-1 and Q' = N Q of the same pi = P d Q, d = diag(z^g phi),
    for the shear N = I + e_(n-1,0): T = d N d^-1 adds d_(n-1) / d_0, a polynomial,
    times row 0 of P^-1 to its row n-1."""
    d = sf.invariant_factors()
    rows = [[Poly.const(int(i == j)) for j in range(smith_size(sf))] for i in range(smith_size(sf))]
    rows[-1][0] = d[-1].exact_div(d[0])
    return SmithForm(sf.pi, sf.g, sf.phi, mat_mul(PolyMatrix(rows), sf.P_inv))


def _printed(capsys, m, argv):
    """What `recausal <argv>` prints on stdout for the model object m, or its error."""
    args = parse_args([*argv, "model.json"])
    try:
        _emit({"solve": cmd_solve, "verify": cmd_verify}[argv[0]](m, args), "json")
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return capsys.readouterr().out


def test_solve_and_verify_print_the_same_from_another_smith_factorization(capsys):
    """solve and verify print only what the model determines: with another valid
    Smith factorization of pi in the memo, their stdout is byte-equal to the run
    that computes its own.  analyze, constraints and probe read no Smith form."""
    models = golden_models()
    for name in ("sims", "generic", "planted3"):
        sf = smith_form(build_pi(models[name]).pi)
        sheared = _sheared_smith(sf)
        assert sheared.Q != sf.Q and mat_mul(sheared.P_inv, sf.pi) == mat_mul(diag_matrix(
            sf.invariant_factors()), sheared.Q), name
        for argv in (["solve"], ["solve", "--kernel-point", "0"], ["verify"]):
            m = models[name]._replace()
            m.artifacts["sf"] = sheared
            want = _printed(capsys, models[name]._replace(), argv)
            assert _printed(capsys, m, argv) == want, (name, argv)
            assert m.artifacts["sf"] is sheared


def _verifies_at_every_kernel_point(m, sr):
    """The solution and, if it is indeterminate, the one at each kernel basis vector verify."""
    points = range(len(sr.kernel)) if sr.classification == "indeterminate" else ()
    return verify_solution(m, sr)["ok"] and all(
        verify_solution(m, solve_causal(m, kernel_point=str(i)))["ok"] for i in points)


def test_predetermined_verdicts_are_those_of_substitution(predetermined_probe):
    """Predetermined models with G > 0 or J1 < H: seven have no causal solution, four
    have exactly one and three have a family of the given dimension; every solution
    verifies at every kernel point."""
    planted = planted_models()
    none = [predetermined_probe[i] for i in (13, 40, 69, 99, 114)]
    for m in none + [ladder_shaped_models()[6], defect_model()]:
        assert build_pi(m).J1 < m.H
        assert solve_causal(m).classification == "no_causal_solution", (m.s, m.H, m.gamma)
    verdicts = [(predetermined_probe[97], "determinate", 0),
                (predetermined_probe[141], "determinate", 0),
                (predetermined_probe[20], "determinate", 0),
                (planted[11], "determinate", 0), (planted[13], "indeterminate", 4),
                (planted[15], "indeterminate", 3), (planted[9], "indeterminate", 2)]
    for m, classification, dim in verdicts:
        sr = solve_causal(m)
        assert (sr.classification, sr.indeterminacy_dim) == (classification, dim), (m.s, m.H)
        assert _verifies_at_every_kernel_point(m, sr)
    # on planted model 15 four directions of h give three of Psi
    assert len(solve_causal(planted[15]).kernel) == 4


def _predetermined_below_h(rng):
    """A seeded predetermined model with J1 < H (A_{0,H} dropped)."""
    s, K, H = rng.choice((2, 3)), rng.choice((1, 2)), rng.choice((1, 2))
    return random_model(rng, s, K, H, gamma=random_gamma(rng, s, H), kill_a0h=True)


def test_solver_matches_substitution_oracle(corpus, predetermined_probe):
    """The solver's affine set of h and its count of distinct solutions are
    those of the set built from the residual series, on every model set."""
    rng = random.Random(31)
    below = [_predetermined_below_h(rng) for _ in range(150)]
    models = (list(corpus) + list(predetermined_probe) + ladder_shaped_models()
              + planted_models() + deep_planted_models() + [defect_model(), sims_model()])
    counts = {"all": 0, "below": 0, "indeterminate": 0}
    for m, is_below in [(m, False) for m in models] + [(m, True) for m in below]:
        try:
            sr = solve_causal(m)
        except (FactorizationError, UnsupportedModelError):
            continue
        h_set, dim = substitution_set(m)
        assert same_affine_set((sr.h_particular, list(sr.kernel)), h_set), (m.s, m.H, m.gamma)
        assert sr.indeterminacy_dim == dim * m.q, (m.s, m.H, m.gamma)
        if sr.transfer_num is not None:
            assert _verifies_at_every_kernel_point(m, sr), (m.s, m.H, m.gamma)
        counts["all"] += 1
        counts["below"] += is_below
        counts["indeterminate"] += sr.classification == "indeterminate"
    assert counts == {"all": 125, "below": 39, "indeterminate": 37}, counts


def test_solve_and_verify_read_no_smith_or_constraint_stage(
        monkeypatch, corpus, predetermined_probe):
    """Solve, verify and simulate of a fresh model read only pi, roots, the split, the
    causal rows at z = 0 (the stage `causal`, on local data and m_stack), adj and zeta(z):
    no Smith form, no plain p_stack and no constraint system, on every model set and
    golden model, whatever G and the flavor.  A refused model reads no local data."""
    calls = []
    monkeypatch.setattr(model, "smith_form", lambda pi: calls.append(1) or smith_form(pi))
    models = (list(corpus) + list(predetermined_probe) + ladder_shaped_models() + planted_models()
              + deep_planted_models() + list(golden_models().values()))
    n_solved = 0
    for m in models:
        m = m._replace()
        try:
            sr = solve_causal(m)
        except (FactorizationError, UnsupportedModelError, RedundantEquationsError):
            sr = None
        if sr is not None and sr.transfer_num is not None:
            assert verify_solution(m, sr)["ok"]
            simulate(sr, T=10, seed=0, truncation=10)
            n_solved += 1
        assert not calls
        assert not {"sf", "plain_cs", "cs"} & set(m.artifacts)
        assert ("causal" in m.artifacts) == ("local" in m.artifacts) == (sr is not None)
    assert n_solved == 45, n_solved


def _assert_adj_product_is_ref(m: REModel) -> bool:
    """`_adj_product` over its denominator is z^J1 adj(pi) times the Poly right factor
    [zeta's free columns | zeta ker L | w] (`ref_adj_product`).  False where pi is
    singular or J1 < 0, where no solve forms it."""
    try:
        J1 = m.pi.J1
    except RedundantEquationsError:
        return False
    if J1 < 0:
        return False
    free = m.free_unknowns()
    ker_l = m.ker_l if m.predetermined else []
    P, den = _adj_product(m.adj, m.rf, J1)
    cols = len(free) + len(ker_l) + m.q
    assert len(P) == m.s and all(len(row) == cols for row in P)
    got = PolyMatrix([[_poly(list(f), den) for f in row] for row in P], cols)
    assert got == ref_adj_product(m, m.adj, J1, free, ker_l), (m.s, m.H, m.gamma)
    return True


def test_adj_product_is_the_poly_right_factor_times_adj(corpus, predetermined_probe):
    """The solve's integer product equals the Poly assembly on all five sets and sims,
    with G > 0, predetermined (ker L nonempty too), J1 < H and H = 0."""
    counts = dict.fromkeys(("models", "G>0", "predetermined", "ker", "J1<H", "H=0"), 0)
    for m in (list(corpus) + list(predetermined_probe) + ladder_shaped_models()
              + planted_models() + deep_planted_models() + [sims_model()]):
        m = m._replace()
        assert _assert_adj_product_is_ref(m)
        pp = m.artifacts["pi"]
        for key, hit in (("models", True), ("G>0", pp.det[0] == 0),
                         ("predetermined", m.predetermined), ("J1<H", pp.J1 < m.H),
                         ("ker", m.predetermined and m.ker_l), ("H=0", m.H == 0)):
            counts[key] += bool(hit)
    assert counts == {"models": 315, "G>0": 30, "predetermined": 163, "ker": 12, "J1<H": 141,
                      "H=0": 2}, counts


@settings(derandomize=True, max_examples=150, deadline=timedelta(seconds=2))
@given(_coefficient_arrays())
def test_adj_product_is_the_poly_right_factor_times_adj_on_draws(m):
    _assert_adj_product_is_ref(m)


def test_expectation_kernel_is_the_kernel_of_pi_d_plus_m_d(corpus, predetermined_probe):
    """ker L from the A_kh, the stage `REModel.ker_l`, is the basis of the d with
    pi(z) d(z) + M d = 0 that the elimination of the polynomial products gives; the
    stage is empty with no elimination at J1 = H and G = 0."""
    n_models = n_nonzero = n_short = 0
    for m in list(corpus) + list(predetermined_probe) + ladder_shaped_models() + planted_models():
        if m.H == 0:
            continue
        m = m._replace()
        short = m.pi.J1 == m.H and m.pi.det[0] != 0
        got = m.ker_l
        assert got == ref_expectation_kernel(m)
        assert not (short and got)
        n_models += 1
        n_nonzero += bool(got)
        n_short += short
    assert (n_models, n_nonzero) == (304, 17) and n_short > 0, n_short


def test_simulate_white_noise_and_determinism():
    white = SolutionReport(
        classification="determinate", indeterminacy_dim=0, h=None, h_particular=None,
        kernel=(), transfer_num=identity_polymatrix(2), transfer_den=Poly.const(1),
        kernel_point="min-norm",
    )
    rep = simulate(white, T=40000, seed=3)
    se = rep["mc_standard_error"]
    for i in range(2):
        for j in range(2):
            assert abs(rep["autocov"][0][i][j] - (1.0 if i == j else 0.0)) < 4 * se
    assert simulate(white, T=40000, seed=3) == rep
    assert simulate(white, T=40000, seed=4) != rep


class _Replay:
    """Stands in for a Generator: standard_normal(out=...) fills out with the next rows of eps."""

    def __init__(self, eps):
        self.eps, self.used = eps, 0

    def standard_normal(self, out):
        out[...] = self.eps[self.used : self.used + len(out)]
        self.used += len(out)


def _assert_filter_matches_reference(coeffs, eps):
    """The windowed filter, fed eps block by block, gives ref_mc_filter's y on the whole eps."""
    import numpy as np

    replay = _Replay(eps)
    got = _mc_filter(coeffs, replay, np.zeros((len(eps) - len(coeffs), coeffs.shape[1])))
    want = ref_mc_filter(coeffs, eps)
    assert replay.used == len(eps)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (
        f"the window changed y: (s, q) = {coeffs.shape[1:]}, {len(coeffs)} lags, "
        f"T = {len(eps) - len(coeffs)}, block {solver._BLOCK}, max |diff| {abs(got - want).max()!r}")


@pytest.mark.parametrize("path", [GOLDEN.parent.parent / "models" / "sims.json",
                                  GOLDEN / "generic.json", GOLDEN / "planted3.json"],
                         ids=["sims", "generic", "planted3"])
def test_mc_filter_matches_the_transposed_view_on_solved_models(path):
    """simulate's filter, at its default T and truncation (12 blocks), gives y bit for bit
    as whole products with `coeffs[j].T` did: the BLAS path differs, the sums do not."""
    import numpy as np

    sr = solve_causal(parse_model(path.read_text()))
    coeffs = np.array([[[float(e) for e in row] for row in mat.entries]
                       for mat in transfer_series(sr.transfer_num, sr.transfer_den, 200)])
    eps = np.random.default_rng(0).standard_normal((100000 + 200, coeffs.shape[2]))
    _assert_filter_matches_reference(coeffs, eps)


@st.composite
def _filter_input(draw):
    """A float coefficient stack with q <= s, at most 5, innovations for T >= 3, and a
    block of 2 to 9 rows, so that most draws cross block edges."""
    s = draw(st.integers(1, 5))
    q = draw(st.integers(1, s))
    truncation, T = draw(st.integers(1, 12)), draw(st.integers(3, 40))
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    coeffs = draw(hnp.arrays(float, (truncation, s, q), elements=finite))
    eps = draw(hnp.arrays(float, (truncation + T, q), elements=finite))
    return coeffs, eps, draw(st.integers(2, 9))


@settings(derandomize=True, max_examples=150, deadline=timedelta(seconds=4))
@given(_filter_input())
def test_mc_filter_matches_the_transposed_view_on_drawn_stacks(args):
    coeffs, eps, block = args
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_BLOCK", block)
        _assert_filter_matches_reference(coeffs, eps)


def test_mc_filter_matches_the_transposed_view_at_three_trials():
    import numpy as np

    rng = np.random.default_rng(5)
    for s, q in ((5, 2), (5, 5), (3, 1), (1, 1)):
        _assert_filter_matches_reference(rng.standard_normal((200, s, q)),
                                         rng.standard_normal((203, q)))


@pytest.mark.parametrize("blocks, rows", [(1, -1), (1, 0), (1, 1), (2, 7)],
                         ids=["B-1", "B", "B+1", "2B+7"])
def test_mc_filter_matches_the_transposed_view_at_block_edges(blocks, rows):
    """T = blocks B + rows at the module's block B (T = 3 is the test above): one short
    of, at, one past and two blocks past an edge.  A last block of one row goes down
    gemm, as the whole product did."""
    import numpy as np

    T, rng = blocks * solver._BLOCK + rows, np.random.default_rng(7)
    for s, q in ((5, 2), (5, 5), (4, 3), (3, 1), (1, 1)):
        _assert_filter_matches_reference(rng.standard_normal((200, s, q)),
                                         rng.standard_normal((T + 200, q)))


def test_blockwise_draws_are_one_draw():
    """The filter's standard_normal(out=...) calls read the stream of one whole draw, so a
    numpy change to how draws split across calls fails here, not only as a golden diff."""
    import numpy as np

    class Record:
        def __init__(self, seed):
            self.rng, self.parts = np.random.default_rng(seed), []

        def standard_normal(self, out):
            self.rng.standard_normal(out=out)
            self.parts.append(out.copy())

    T = 2 * solver._BLOCK + 7
    for q, seed in ((1, 0), (2, 11), (5, 3)):
        rec = Record(seed)
        _mc_filter(np.zeros((200, 5, q)), rec, np.zeros((T, 5)))
        assert [len(p) for p in rec.parts] == [200, solver._BLOCK, solver._BLOCK, 7]
        whole = np.random.default_rng(seed).standard_normal((T + 200, q))
        assert np.concatenate(rec.parts).tobytes() == whole.tobytes()


def test_simulate_is_the_whole_draw_reference_on_the_five_sets(corpus, predetermined_probe):
    """Every solvable model of the five sets simulates to ref_simulate's dict (one whole
    draw, whole products per lag) at T = 3 and at T = 20000 (3 blocks)."""
    shapes = {}  # (s, q) of the models simulated
    for m in (list(corpus) + list(predetermined_probe) + ladder_shaped_models()
              + planted_models() + deep_planted_models()):
        try:
            sr = solve_causal(m)
        except (FactorizationError, UnsupportedModelError):
            continue
        if sr.transfer_num is None:
            continue
        for T in (3, 20000):
            assert simulate(sr, T=T, seed=0) == ref_simulate(sr, T=T, seed=0), (m.s, m.q, T)
        shapes[m.s, m.q] = shapes.get((m.s, m.q), 0) + 1
    assert shapes == {(1, 1): 11, (2, 1): 8, (2, 2): 10, (3, 1): 1, (3, 2): 3, (3, 3): 3,
                      (4, 1): 3, (4, 2): 2, (4, 3): 1}, shapes


@pytest.mark.parametrize("path", [GOLDEN.parent.parent / "models" / "sims.json",
                                  GOLDEN / "planted3.json"], ids=["sims", "planted3"])
def test_simulate_footprint_is_y_plus_a_window(path):
    """Beside y (T x s doubles) simulate holds less than 2 MiB at T = 400000: the draws
    stream through the window, and no T-row product or (T + 200) x q draw is made."""
    import tracemalloc

    import numpy  # noqa: F401 -- loaded before tracing starts: the import is not the footprint

    sr = solve_causal(parse_model(path.read_text()))
    s, T = sr.transfer_num.rows, 400000
    tracemalloc.start()
    try:
        simulate(sr, T=T, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < s * T * 8 + 2 * 2**20, peak / 2**20


def test_simulate_sims_autocovariance():
    sr = solve_causal(sims_model())
    rep = simulate(sr, T=100000, seed=11)
    se = rep["mc_standard_error"]
    for lag in range(3):
        for i in range(2):
            for j in range(2):
                diff = rep["autocov"][lag][i][j] - rep["exact_autocov"][lag][i][j]
                assert abs(diff) < 4 * se, (lag, i, j, diff)
