"""Dimension reports, free-parameter formulas, genericity probe."""

import importlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from recausal import dimension
from recausal.dimension import _perturb, dimension_report, genericity_probe
from recausal.exactalg import Poly, RationalMatrix, det_adjugate
from recausal.canon import RedundantEquationsError, UnitCircleRootError
from recausal.model import REModel, build_pi, parse_model, validate_semantics
from recausal.solver import (
    FactorizationError,
    UnsupportedModelError,
    solve_causal,
    verify_solution,
)
from conftest import (
    affine_set,
    deep_planted_models,
    fraction_local,
    identity_matrix,
    ladder_shaped_models,
    mat_add,
    mat_mul,
    planted_models,
    polymatrix_from_rational,
    random_gamma,
    random_model,
    rand_invertible,
    rank_of,
    ref_rref,
    rmat_mul,
    sims_model,
    smith_reference,
    zero_polymatrix,
)

ROOT = Path(__file__).resolve().parents[1]


def test_sims_report():
    rep = dimension_report(sims_model())
    assert rep["flavor"] == "predetermined"
    assert rep["free_parameters"] == 2
    assert rep["kernel_dim"] == 1
    assert rep["rank_w"] == 1 and rep["effective_unknowns"] == 2  # h's free entry and ker L
    assert rep["special_case_used"] in ("general", "g<=J1")
    # one unstable root (10/11) remains, so distinctness is not guaranteed
    assert not rep["distinctness_guaranteed"]


def test_scalar_first_order_report():
    # y_t = a E_t(y_{t+1}) + u_t: one free parameter (J1 * s * q = 1)
    m = REModel(
        s=1, K=0, H=1, q=1,
        A={(0, 0): RationalMatrix([[-1]]), (0, 1): RationalMatrix([[Fraction(1, 2)]])},
        gamma=(1, 0), wold=(RationalMatrix([[1]]),),
    )
    rep = dimension_report(m)
    assert rep["free_parameters"] == 1
    assert rep["special_case_used"] == "g=0"


def test_free_parameters_g0_plain():
    # all partial multiplicities zero, no predetermined variables: J1 * s * q
    rng = random.Random(41)
    for _ in range(8):
        s = rng.randint(1, 3)
        m = random_model(rng, s, rng.randint(0, 2), rng.randint(1, 2), force_g0=True)
        assert all(g == 0 for g in m.sf.g)
        rep = dimension_report(m)
        assert rep["free_parameters"] == m.pi.J1 * m.s * m.q, (m.s, m.K, m.H)


def test_free_parameters_g0_predetermined():
    # predetermined analogue: [sum_i s_i (J1 - i)] * q
    rng = random.Random(42)
    for _ in range(8):
        s = rng.randint(2, 3)
        H = rng.randint(1, 2)
        m = random_model(rng, s, rng.randint(0, 2), H, gamma=random_gamma(rng, s, H),
                         force_g0=True)
        assert all(g == 0 for g in m.sf.g)
        rep = dimension_report(m)
        j1 = m.pi.J1
        expected = sum(m.gamma[i] * (j1 - i) for i in range(j1)) * m.q
        assert rep["free_parameters"] == expected, (m.s, m.K, m.H, m.gamma)


def test_bounds_embedded_in_report(corpus):
    for m in corpus[:20]:
        rep = dimension_report(m)
        assert rep["free_parameters"] == rep["kernel_dim"] * m.q
        assert rep["bounds"]["upper_ok"] and rep["bounds"]["lower_ok"]


def test_monotonicity_heuristic():
    # artifact heuristic (not a claim of the source): shifting one unit of
    # gamma mass rightward never increased free parameters on tested instances
    rng = random.Random(43)
    findings = []
    checked = 0
    while checked < 10:
        s, H = rng.randint(2, 3), rng.randint(1, 2)
        m = random_model(rng, s, rng.randint(0, 2), H)
        base = dimension_report(m)["free_parameters"]
        gamma = list(m.gamma)
        gamma[0] -= 1
        gamma[1] += 1
        if gamma[0] < 1:
            continue
        shifted = REModel(s=m.s, K=m.K, H=m.H, q=m.q, A=m.A, gamma=tuple(gamma),
                          wold=m.wold, xi=m.xi)
        moved = dimension_report(shifted)["free_parameters"]
        if moved > base:
            findings.append((m.s, m.K, m.H, base, moved))
        checked += 1
    assert not findings, f"monotonicity heuristic violated: {findings}"


def test_genericity_probe_generic_point():
    rng = random.Random(44)
    m = random_model(rng, 2, 1, 1, force_g0=True)
    rep = genericity_probe(m, trials=10, seed=5)
    assert rep["trials"] == 10
    assert not rep["non_generic"]


def test_genericity_probe_sims_stable():
    rep = genericity_probe(sims_model(), trials=10, seed=1)
    assert not rep["non_generic"]
    assert rep["base_rank"] == 1  # the causal row on h's free entry and ker L


def test_genericity_probe_flags_rank_drop():
    # proportional rows of (A00 | A01) force a rank drop at this exact point;
    # structure-preserving jitter of the nonzero entries restores full rank
    a00 = RationalMatrix([[1, 2], [2, 4]])
    a01 = RationalMatrix([[3, 1], [6, 2]])
    m = REModel(
        s=2, K=1, H=2, q=2,
        A={(0, 0): a00, (0, 1): a01, (1, 2): identity_matrix(2)},
        gamma=(2, 0, 0), wold=(identity_matrix(2),),
    )
    assert m.pi.J1 == 1  # A02 absent, A12 = I
    assert m.cs.rank_w == 1  # dependent rows at the supplied point
    rep = genericity_probe(m, trials=12, seed=7)
    assert rep["non_generic"]
    assert rep["modal_rank"] > rep["base_rank"]


def test_genericity_probe_counts_singular_points_and_propagates_other_errors(monkeypatch):
    # jitter can zero a diagonal entry of A00 = I/64, leaving det pi = 0
    e = Fraction(1, 64)
    m = REModel(
        s=2, K=0, H=0, q=1, A={(0, 0): RationalMatrix([[e, 0], [0, e]])},
        gamma=(2,), wold=(RationalMatrix([[1], [1]]),),
    )
    rng = random.Random(1)
    points = [_perturb(m, rng) for _ in range(30)]
    singular = sum(p.A[(0, 0)].entries[0][0] * p.A[(0, 0)].entries[1][1] == 0 for p in points)
    assert singular > 0
    rep = genericity_probe(m, trials=30, seed=1)
    assert rep["failed_trials"] == singular
    assert sum(rep["rank_histogram"].values()) == 30 - singular

    def broken(model, rng):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(dimension, "_perturb", broken)
    with pytest.raises(ZeroDivisionError, match="injected"):
        genericity_probe(sims_model(), trials=3)


def test_local_stage_is_a_factorization_at_zero(corpus):
    """The stage's data factor pi: P^-1 is unimodular, diag(z^-g) P^-1 pi is a
    polynomial E, and E(0) is invertible; g = 0 iff det pi(0) != 0.  Every
    model's comes from `local_form`, with no global Smith form."""
    for m in corpus + planted_models() + [sims_model()]:
        m = m._replace()  # an empty memo
        loc = fraction_local(m.pi.pi, m.local)
        assert (m.pi.det[0] != 0) == (loc.g == (0,) * m.s)
        p_inv = zero_polymatrix(m.s, m.s)
        for k, c in enumerate(loc.p_inv):
            p_inv = mat_add(p_inv, polymatrix_from_rational(c) * Poly.monomial(k))
        assert "sf" not in m.artifacts
        det, _ = det_adjugate(p_inv)
        assert det.is_constant() and not det.is_zero()
        E = mat_mul(p_inv, m.pi.pi).entries
        assert all(e[j] == 0 for k, gk in enumerate(loc.g) for e in E[k] for j in range(gk))
        E0 = RationalMatrix([[e[gk] for e in E[k]] for k, gk in enumerate(loc.g)])
        assert E0 == loc.e0 and rank_of(E0) == m.s


def _augmented(cs) -> RationalMatrix:
    """[C | rhs] of a constraint system."""
    return RationalMatrix([c + r for c, r in zip(cs.C.entries, cs.rhs.entries)])


def test_plain_reports_with_g_positive_match_the_global_smith_reference(
        corpus, predetermined_probe):
    """A plain model with G > 0 reads the row-reduced local data, not the
    global Smith form, also for its printed C and rhs.  Its report, probe and
    rank_w are those of the Smith form's; when every g_i <= J1 so is the
    solution set of C eps = rhs, and when some g_i > J1 it need not be."""
    n = n_le = n_differ = 0
    for m in (corpus + predetermined_probe + ladder_shaped_models() + planted_models()
              + deep_planted_models()):
        m = m._replace()
        if m.predetermined or build_pi(m).det[0] != 0:
            continue
        ref = smith_reference(m)
        assert dimension_report(m) == dimension_report(ref)
        assert genericity_probe(m, trials=3) == genericity_probe(ref, trials=3)
        assert m.cs.rank_w == ref.cs.rank_w
        same = ref_rref(_augmented(m.cs)) == ref_rref(_augmented(ref.cs))
        if all(gi <= m.pi.J1 for gi in m.local.g):
            assert same, (m.s, m.K, m.H, m.gamma)
            n_le += 1
        else:
            n_differ += not same
        assert "sf" not in m.artifacts
        n += 1
    assert (n, n_le, n_differ) == (15, 7, 5)


def _outcome(m):
    """(dimension_report, SolutionReport or None, the solve fields or the refusal)."""
    rep = dimension_report(m)
    try:
        sr = solve_causal(m)
    except (FactorizationError, UnsupportedModelError) as exc:
        return rep, None, f"{type(exc).__name__}: {exc}"
    return rep, sr, (
        sr.classification, sr.indeterminacy_dim, sr.h, sr.kernel,
        sr.transfer_num, sr.transfer_den,
    )


def test_local_stage_matches_global_smith_reference(corpus, predetermined_probe):
    """With det pi(0) != 0 the constraints read pi = I I pi instead of the
    global Smith form, and every answer stays the same, also the predetermined
    J1 < H count, whose causal rows do not depend on the factors; the solve
    reads no Smith data, and its solution verifies."""
    same = n_below = 0
    for m in corpus + predetermined_probe + ladder_shaped_models():
        pp = m.pi
        if pp.det[0] == 0:
            continue
        assert m.local.g == (0,) * m.s
        ref = smith_reference(m)
        new, old = _outcome(m), _outcome(ref)
        assert new[2] == old[2], (m.s, m.K, m.H, m.gamma)
        if new[1] is not None and new[1].transfer_num is not None:
            assert verify_solution(m, new[1])["ok"], (m.s, m.K, m.H, m.gamma)
        assert new[0] == old[0], (m.s, m.K, m.H, m.gamma)
        same += 1
        n_below += m.predetermined and pp.J1 < m.H
    assert (same, n_below) == (285, 82)


def _left_multiplied(m: REModel, T: RationalMatrix) -> REModel:
    """T m: every A_kh and w_j left-multiplied by the invertible T, the same solution set."""
    return m._replace(A={kh: rmat_mul(T, a) for kh, a in m.A.items()},
                      wold=tuple(rmat_mul(T, w) for w in m.wold))


def _analyze(m: REModel):
    """analyze's document, or the class of the error it stops at."""
    try:
        return {"validation": validate_semantics(m), **dimension_report(m)}
    except (UnitCircleRootError, RedundantEquationsError, UnsupportedModelError) as exc:
        return type(exc).__name__


def test_analyze_is_invariant_under_left_multiplication(corpus, predetermined_probe):
    """analyze's document is the same for m and for T m, over three seeded invertible T per
    model, on the five sets, and on a predetermined model with G > 0 also for the global
    Smith form's factors (`smith_reference`) in place of `local_form`'s."""
    rng, n, n_smith = random.Random(20261020), 0, 0
    for m in (corpus + predetermined_probe + ladder_shaped_models() + planted_models()
              + deep_planted_models()):
        doc = _analyze(m)
        for _ in range(3):
            assert _analyze(_left_multiplied(m, rand_invertible(rng, m.s))) == doc, m.gamma
        if m.predetermined and m.pi.det[0] == 0:
            assert _analyze(smith_reference(m)) == doc, m.gamma
            n_smith += 1
        n += 1
    assert (n, n_smith) == (314, 14), (n, n_smith)


def test_analyze_is_invariant_on_the_benchmark_planted_models(monkeypatch):
    """The same on the predetermined models of perfbench's planted seeds 101-103, i < 20,
    all with G > 0: one seeded T per model, and the global Smith form's factors."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    gen = importlib.import_module("gen")
    rng, n = random.Random(20261021), 0
    for seed in (101, 102, 103):
        for i in range(20):
            m = parse_model(gen.to_json(gen.planted_model(seed, i)))
            if not m.predetermined:
                continue
            doc = _analyze(m)
            assert _analyze(_left_multiplied(m, rand_invertible(rng, m.s))) == doc, (seed, i)
            assert m.pi.det[0] == 0 and _analyze(smith_reference(m)) == doc, (seed, i)
            n += 1
    assert n == 26, n


def test_free_parameters_are_the_solve_count_without_unstable_roots(corpus, predetermined_probe):
    """Where det pi has no unstable root, the solve's rows are the causal rows mod z^(G+H),
    so on a predetermined model whose rows are consistent analyze's free_parameters is the
    solve's indeterminacy_dim."""
    n = 0
    for m in (corpus + predetermined_probe + ladder_shaped_models() + planted_models()
              + deep_planted_models()):
        if not m.predetermined or m.roots.unstable_roots:
            continue
        rep, sr = dimension_report(m), solve_causal(m)
        cs = m.cs
        if affine_set(cs.C, cs.rhs, cs.C.cols)[0] is None:
            assert sr.classification == "no_causal_solution"
            continue
        assert rep["free_parameters"] == sr.indeterminacy_dim, m.gamma
        n += 1
    assert n == 5, n
