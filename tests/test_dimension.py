"""Dimension reports, free-parameter formulas, genericity probe."""

import random
from fractions import Fraction

import pytest

from recausal import dimension
from recausal.dimension import _perturb, dimension_report, genericity_probe, run_pipeline
from recausal.exactalg import RationalMatrix
from recausal.model import REModel, build_pi
from conftest import random_gamma, random_model, sims_model


def test_sims_report():
    rep = dimension_report(sims_model())
    assert rep.flavor == "predetermined"
    assert rep.free_parameters == 2
    assert rep.kernel_dim == 1
    assert rep.rank_w == 0
    assert rep.special_case_used in ("general", "g<=J1")
    # one unstable root (10/11) remains, so distinctness is not guaranteed
    assert not rep.distinctness_guaranteed


def test_scalar_first_order_report():
    # y_t = a E_t(y_{t+1}) + u_t: one free parameter (J1 * s * q = 1)
    m = REModel(
        s=1, K=0, H=1, q=1,
        A={(0, 0): RationalMatrix([[-1]]), (0, 1): RationalMatrix([[Fraction(1, 2)]])},
        gamma=(1, 0), wold=(RationalMatrix([[1]]),),
    )
    rep = dimension_report(m)
    assert rep.free_parameters == 1
    assert rep.special_case_used == "g=0"


def test_free_parameters_g0_plain():
    # all partial multiplicities zero, no predetermined variables: J1 * s * q
    rng = random.Random(41)
    for _ in range(8):
        s = rng.randint(1, 3)
        m = random_model(rng, s, rng.randint(0, 2), rng.randint(1, 2), force_g0=True)
        pipe = run_pipeline(m)
        assert all(g == 0 for g in pipe.sf.g)
        rep = dimension_report(m, pipe)
        assert rep.free_parameters == pipe.pi.J1 * m.s * m.q, (m.s, m.K, m.H)


def test_free_parameters_g0_predetermined():
    # predetermined analogue: [sum_i s_i (J1 - i)] * q
    rng = random.Random(42)
    for _ in range(8):
        s = rng.randint(2, 3)
        H = rng.randint(1, 2)
        m = random_model(rng, s, rng.randint(0, 2), H, gamma=random_gamma(rng, s, H),
                         force_g0=True)
        pipe = run_pipeline(m)
        assert all(g == 0 for g in pipe.sf.g)
        rep = dimension_report(m, pipe)
        j1 = pipe.pi.J1
        expected = sum(m.gamma[i] * (j1 - i) for i in range(j1)) * m.q
        assert rep.free_parameters == expected, (m.s, m.K, m.H, m.gamma)


def test_bounds_embedded_in_report(corpus):
    for m in corpus[:20]:
        rep = dimension_report(m)
        assert rep.free_parameters == rep.kernel_dim * m.q
        assert rep.bounds["upper_ok"] and rep.bounds["lower_ok"]


def test_monotonicity_heuristic():
    # artifact heuristic (not a claim of the source): shifting one unit of
    # gamma mass rightward never increased free parameters on tested instances
    rng = random.Random(43)
    findings = []
    checked = 0
    while checked < 10:
        s, H = rng.randint(2, 3), rng.randint(1, 2)
        m = random_model(rng, s, rng.randint(0, 2), H)
        base = dimension_report(m).free_parameters
        gamma = list(m.gamma)
        gamma[0] -= 1
        gamma[1] += 1
        if gamma[0] < 1:
            continue
        shifted = REModel(s=m.s, K=m.K, H=m.H, q=m.q, A=m.A, gamma=tuple(gamma),
                          wold=m.wold, xi=m.xi)
        moved = dimension_report(shifted).free_parameters
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
    assert rep["base_rank"] == 0


def test_genericity_probe_flags_rank_drop():
    # proportional rows of (A00 | A01) force a rank drop at this exact point;
    # structure-preserving jitter of the nonzero entries restores full rank
    a00 = RationalMatrix([[1, 2], [2, 4]])
    a01 = RationalMatrix([[3, 1], [6, 2]])
    m = REModel(
        s=2, K=1, H=2, q=2,
        A={(0, 0): a00, (0, 1): a01, (1, 2): RationalMatrix.identity(2)},
        gamma=(2, 0, 0), wold=(RationalMatrix.identity(2),),
    )
    pipe = run_pipeline(m)
    assert pipe.pi.J1 == 1  # A02 absent, A12 = I
    assert pipe.cs.rank_w == 1  # dependent rows at the supplied point
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
    singular = sum(p.A[(0, 0)][0, 0] * p.A[(0, 0)][1, 1] == 0 for p in points)
    assert singular > 0
    rep = genericity_probe(m, trials=30, seed=1)
    assert rep["failed_trials"] == singular
    assert sum(rep["rank_histogram"].values()) == 30 - singular

    def broken(model, rng):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(dimension, "_perturb", broken)
    with pytest.raises(ZeroDivisionError, match="injected"):
        genericity_probe(sims_model(), trials=3)
