"""Smith canonical form, invariant-factor oracle, root classification."""

import cmath
import hashlib
import importlib
import random
from datetime import timedelta
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from recausal import canon, exactalg
from recausal.canon import (
    FactorizationError,
    RedundantEquationsError,
    UnitCircleRootError,
    _start_points,
    classify_roots,
    local_form,
    root_discs,
    smith_form,
)
from recausal.exactalg import (
    Poly, PolyMatrix, RationalMatrix, _numerators, det_adjugate, poly_gcd, squarefree_factors,
)
from conftest import (
    check_smith_invariants,
    coeff,
    deep_planted_models,
    diag_matrix,
    fraction_local,
    identity_polymatrix,
    invariant_factors_oracle,
    is_unimodular,
    ladder_shaped_models,
    mat_add,
    mat_mul,
    max_degree,
    planted_models,
    polymatrix_from_rational,
    rand_invertible,
    rand_poly,
    rand_polymatrix,
    rand_unimodular,
    ref_classify_roots,
    ref_disc_radius,
    ref_float_radii,
    ref_local_form,
    ref_smith_form,
    ref_smith_local,
    rank_of,
    rmat_mul,
    root_total,
    serialize_model,
    sims_model,
    sims_published_smith,
    smith_fixture,
    smith_local,
    smith_size,
    zero_matrix,
    zero_polymatrix,
)
from recausal.model import build_pi, parse_model

Z = Poly([0, 1])
ROOT = Path(__file__).resolve().parents[1]


def test_smith_identity():
    sf = smith_form(identity_polymatrix(3))
    assert sf.g == (0, 0, 0)
    assert all(ph == 1 for ph in sf.phi)
    check_smith_invariants(identity_polymatrix(3), sf)


def test_smith_sims():
    pp = build_pi(sims_model())
    sf = smith_form(pp.pi)
    assert sf.g == (0, 1)
    # published invariant factors: 1 and z*(1/99)(9z-10)(11z-10)
    f2 = Poly([0, Fraction(100, 99), Fraction(-200, 99), 1])
    assert sf.invariant_factors() == (Poly.const(1), f2)
    check_smith_invariants(pp.pi, sf)


def _pi_two_jordan_blocks():
    # block-diagonal of two copies of (z, 1; 0, z)
    blk = [[Z, Poly.const(1)], [Poly(), Z]]
    entries = [[Poly() for _ in range(4)] for _ in range(4)]
    for b in range(2):
        for i in range(2):
            for j in range(2):
                entries[2 * b + i][2 * b + j] = blk[i][j]
    return PolyMatrix(entries)


def test_smith_jordan_blocks():
    pi = _pi_two_jordan_blocks()
    sf = smith_form(pi)
    assert sf.g == (0, 0, 2, 2)
    assert sf.invariant_factors() == (
        Poly.const(1), Poly.const(1), Z * Z, Z * Z,
    )
    check_smith_invariants(pi, sf)


# the source text gives two genuinely different factorizations of the same
# matrix; both must pass every SmithForm invariant
def _published_factorizations():
    pi = _pi_two_jordan_blocks()
    one, zero = Poly.const(1), Poly()
    p1 = PolyMatrix([[one, zero, zero, zero],
                     [Z, zero, -one, zero],
                     [zero, one, zero, zero],
                     [zero, Z, zero, -one]])
    q1 = PolyMatrix([[Z, one, zero, zero],
                     [zero, zero, Z, one],
                     [one, zero, zero, zero],
                     [zero, zero, one, zero]])
    p2 = PolyMatrix([[one, zero, zero, zero],
                     [Z, -(Z * Z), one, -one],
                     [zero, one, zero, zero],
                     [zero, Z, -one, zero]])
    q2 = PolyMatrix([[Z, one, zero, zero],
                     [zero, zero, Z, one],
                     [zero, zero, one, zero],
                     [one, zero, one - Z, -one]])
    g = (0, 0, 2, 2)
    phi = (Poly.const(1),) * 4
    return pi, smith_fixture(p1, q1, g, phi), smith_fixture(p2, q2, g, phi)


def test_published_nonunique_factorizations():
    pi, sf1, sf2 = _published_factorizations()
    check_smith_invariants(pi, sf1)
    check_smith_invariants(pi, sf2)
    assert sf1.P != sf2.P and sf1.Q != sf2.Q


def test_published_sims_factorization():
    sf = sims_published_smith()
    pp = build_pi(sims_model())
    check_smith_invariants(pp.pi, sf)


def test_smith_random_properties():
    rng = random.Random(11)
    done = 0
    while done < 40:
        M = rand_polymatrix(rng, rng.randint(1, 4), 3)
        det, _ = det_adjugate(M)
        if det.is_zero():
            continue
        sf = smith_form(M)
        check_smith_invariants(M, sf)
        assert sf.invariant_factors() == tuple(invariant_factors_oracle(M))
        done += 1


def test_smith_planted_sandwich():
    # U1 * diag(planted chain) * U2 must recover the planted factors
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(2, 3)
        base = rand_poly(rng, rng.randint(0, 2)).monic()
        chain = [Poly.const(1)]
        for _ in range(n - 1):
            chain.append((chain[-1] * base).monic() if rng.random() < 0.7 else chain[-1])
        M = mat_mul(rand_unimodular(rng, n), diag_matrix(chain), rand_unimodular(rng, n))
        sf = smith_form(M)
        assert sf.invariant_factors() == tuple(chain)


def test_smith_factors_match_four_factor_reference(corpus, predetermined_probe):
    """The tracked P^-1, g and phi, the derived Q, P and Q^-1, and the local
    data are those of the reference elimination that updates all four
    unimodulars, E(0) = diag(phi(0)) Q(0)."""
    checked = 0
    for m in corpus + predetermined_probe + ladder_shaped_models() + planted_models():
        pi = build_pi(m).pi
        sf, ref = smith_form(pi), ref_smith_form(pi)
        assert (sf.P_inv, sf.g, sf.phi) == (ref.P_inv, ref.g, ref.phi)
        assert not {"Q", "P", "Q_inv"} & set(vars(sf))
        loc, loc2 = fraction_local(pi, smith_local(sf)), fraction_local(pi, smith_local(sf), 2)
        phi0 = zero_matrix(smith_size(sf), smith_size(sf))
        for i, ph in enumerate(ref.phi):
            phi0.entries[i][i] = ph[0]
        assert (loc.g, loc.p_inv, loc.e0) == (
            ref.g, tuple(coeff(ref.P_inv, k) for k in range(int(max_degree(ref.P_inv)) + 1)),
            rmat_mul(phi0, coeff(ref.Q, 0)))
        assert (loc2.g, loc2.p_inv, loc2.e0) == (
            ref.g, tuple(coeff(ref.P_inv, k) for k in range(2)), loc.e0)
        assert not {"Q", "P", "Q_inv"} & set(vars(sf))  # E(0) derives none of them
        assert (sf.Q, sf.P, sf.Q_inv) == (ref.Q, ref.P, ref.Q_inv)
        checked += 1
    assert checked == 306


def _assert_local_factorization(pi: PolyMatrix):
    """local_form(N, G), N pi's integer rows, factors pi at z = 0 in at most G steps (one
    `_row_echelon` each): P^-1 is unimodular, diag(z^-g) P^-1 pi is a
    polynomial whose value at 0 is the invertible E(0), and g is the Smith
    form's.  Its integers and the Smith form's local data, over their
    denominators, are the Fraction LocalSmiths (`ref_local_form`,
    `ref_smith_local`).  Returns g."""
    G = det_adjugate(pi)[0].zero_multiplicity()
    with mock.patch.object(canon, "_row_echelon", wraps=canon._row_echelon) as echelon:
        loc = fraction_local(pi, local_form(_numerators(pi.entries)[0], G))
    assert echelon.call_count <= G and sum(loc.g) == G
    assert loc == ref_local_form(pi, G)
    p_inv = zero_polymatrix(pi.rows, pi.rows)
    for k, c in enumerate(loc.p_inv):
        p_inv = mat_add(p_inv, polymatrix_from_rational(c) * Poly.monomial(k))
    assert is_unimodular(p_inv)
    E = [[e.shift(-gk) for e in row] for row, gk in zip(mat_mul(p_inv, pi).entries, loc.g)]
    E0 = RationalMatrix([[e[0] for e in row] for row in E])
    assert E0 == loc.e0 and rank_of(E0) == pi.rows
    sf = smith_form(pi)
    assert loc.g == sf.g and fraction_local(pi, smith_local(sf)) == ref_smith_local(sf)
    return loc.g


def test_local_form_is_a_factorization_at_zero(corpus, predetermined_probe):
    n_positive = 0
    for m in (corpus + predetermined_probe + ladder_shaped_models() + planted_models()
              + deep_planted_models()):
        n_positive += any(_assert_local_factorization(build_pi(m).pi))
    assert n_positive == 29


def test_local_data_are_the_fraction_local_smith_on_integers(corpus, predetermined_probe):
    """The integer LocalSmith of local_form, of the Smith form's (g, P^-1), whole and
    below z^2, and of the pipeline's stage, taken over its denominators with E(0) from the
    Poly product P^-1 pi, is the Fraction LocalSmith of the same reduction or elimination
    (`ref_local_form`, `ref_smith_local`) on all five sets, with G > 0, predetermined,
    J1 < H and H = 0: the stage is local_form's for every model, with no global form."""
    counts = dict.fromkeys(("models", "G>0", "predetermined G>0", "predetermined", "J1<H",
                            "H=0"), 0)
    for m in (corpus + predetermined_probe + ladder_shaped_models() + planted_models()
              + deep_planted_models()):
        m = m._replace()  # an empty memo
        pi, G, J1 = m.pi.pi, m.pi.det.zero_multiplicity(), m.pi.J1
        sf = smith_form(pi)
        assert fraction_local(pi, local_form(m.pi.numerators[0], G)) == ref_local_form(pi, G)
        assert fraction_local(pi, smith_local(sf)) == ref_smith_local(sf)
        assert fraction_local(pi, smith_local(sf), 2) == ref_smith_local(sf, 2)
        assert fraction_local(pi, m.local) == ref_local_form(pi, G) and "sf" not in m.artifacts
        for key, hit in (("models", True), ("G>0", G), ("predetermined G>0", m.predetermined and G),
                         ("predetermined", m.predetermined), ("J1<H", J1 < m.H), ("H=0", not m.H)):
            counts[key] += bool(hit)
    assert counts == {"models": 314, "G>0": 29, "predetermined G>0": 14, "predetermined": 162,
                      "J1<H": 141, "H=0": 2}, counts


@settings(derandomize=True, max_examples=40, deadline=timedelta(seconds=4))
@given(st.lists(st.integers(0, 4), min_size=2, max_size=3).filter(lambda g: len(set(g) - {0}) > 1),
       st.integers(0, 2**32))
def test_local_form_is_a_factorization_at_zero_on_drawn_pis(drawn, seed):
    """pi = P diag(z^g) E with unimodular P, E(0) invertible and g = (0, drawn):
    at least three distinct g_i.  g_0 = 0 keeps pi(0) != 0, so pi's planted
    realization with H = 1 has J1 = 1, and the g_i >= 2 exceed it."""
    rng, g = random.Random(seed), [0, *drawn]
    s = len(g)
    E = mat_add(polymatrix_from_rational(rand_invertible(rng, s)), rand_polymatrix(rng, s, 1) * Z)
    pi = mat_mul(rand_unimodular(rng, s), diag_matrix([Poly.monomial(gi) for gi in g]), E)
    assert _assert_local_factorization(pi) == tuple(sorted(g))


def test_smith_rejects_singular():
    with pytest.raises(RedundantEquationsError):
        smith_form(PolyMatrix([[Z, Z], [Z, Z]]))
    with pytest.raises(RedundantEquationsError):
        invariant_factors_oracle(PolyMatrix([[Z, Z], [Z, Z]]))


def test_smith_rejects_nonzero_singular():
    """Singular inputs run out of pivots during the elimination itself."""
    one = Poly.const(1)
    row = [one + Z, Z * Z - Fraction(1, 2)]
    rank_one = PolyMatrix([row, [e * (Z - 3) for e in row]])
    rng = random.Random(11)
    r1 = [rand_poly(rng, 2) for _ in range(3)]
    r2 = [rand_poly(rng, 1) for _ in range(3)]
    f, g = Z * Z + 2, Z - Fraction(1, 3)
    combo = PolyMatrix([r1, r2, [f * a + g * b for a, b in zip(r1, r2)]])
    for M in (rank_one, combo):
        assert det_adjugate(M)[0].is_zero()
        with pytest.raises(RedundantEquationsError):
            smith_form(M)


def test_is_unimodular():
    assert is_unimodular(identity_polymatrix(3))
    _, sf1, _ = _published_factorizations()
    assert is_unimodular(sf1.P)
    assert not is_unimodular(diag_matrix([Z, Poly.const(1)]))


def test_classify_roots_examples():
    rc = classify_roots(Poly([1, Fraction(-9, 10)]))
    assert rc.zero_multiplicity == 0 and len(rc.stable_roots) == 1
    assert abs(rc.stable_roots[0] - 10 / 9) < 1e-9
    rc = classify_roots(Poly([1, Fraction(-11, 10)]))
    assert len(rc.unstable_roots) == 1 and abs(rc.unstable_roots[0] - 10 / 11) < 1e-9
    rc = classify_roots(Z * Z)
    assert rc.zero_multiplicity == 2 and root_total(rc) == 2


def test_classify_roots_boundary_and_xi():
    with pytest.raises(UnitCircleRootError):
        classify_roots(Z - 1)
    # root 7/10 is ordinary with xi = 1 but falls in the ring with xi = 2
    p = Z - Fraction(7, 10)
    assert len(classify_roots(p, 1).unstable_roots) == 1
    with pytest.raises(UnitCircleRootError):
        classify_roots(p, 2)
    with pytest.raises(ValueError):
        classify_roots(p, Fraction(1, 2))
    with pytest.raises(ValueError):
        classify_roots(Poly())


# sha256 of serialize_model over the 100 corpus models, as first drawn with
# the float classifier as their ring filter
CORPUS_SHA256 = "dd832017f061d9348d9b88f00fb6e67b397a1fd3971904d8bd4634c60c523ad5"


def test_corpus_is_unchanged_by_its_ring_filter(corpus):
    digest = hashlib.sha256()
    for m in corpus:
        digest.update(serialize_model(m).encode())
    assert digest.hexdigest() == CORPUS_SHA256


def _classified(classify, p, xi):
    """(zero multiplicity, #stable, #unstable) with multiplicity, or "ring"."""
    try:
        rc = classify(p, xi)
    except UnitCircleRootError:
        return "ring"
    return rc.zero_multiplicity, len(rc.stable_roots), len(rc.unstable_roots)


def test_classify_roots_matches_float_reference_on_model_dets(corpus):
    models = list(corpus) + planted_models() + [sims_model()]
    outcomes = [_classified(classify_roots, m.pi.det, m.xi) for m in models]
    assert outcomes == [
        _classified(ref_classify_roots, m.pi.det, m.xi) for m in models
    ]
    assert sum(o[2] > 0 for o in outcomes) >= 50 and sum(o[0] > 0 for o in outcomes) >= 10


# products of rational roots (repeated, or in pairs 2^-40 apart), irreducible
# quadratics (straddling or one-sided) and z^m; with xi = 2 the ring [1/2, 1]
# catches some of them, so both outcomes occur
_root = st.fractions(Fraction(-9, 10), Fraction(9, 10), max_denominator=40).filter(bool)
_factor = st.one_of(
    st.builds(lambda r, out: Z - (1 / r if out else r), _root, st.booleans()),
    _root.map(lambda r: (Z - r) * (Z - r - Fraction(1, 2**40))),
    st.sampled_from([(1, -3, 1), (-1, -1, 1), (2, -4, 1), (Fraction(1, 8), Fraction(-1, 2), 1),
                     (5, -5, 1)]).map(Poly),
)


@settings(derandomize=True, max_examples=80, deadline=timedelta(seconds=4))
@given(st.lists(st.tuples(_factor, st.integers(1, 3)), min_size=1, max_size=3),
       st.integers(0, 2), st.sampled_from([1, 2]))
def test_classify_roots_matches_float_reference_on_generated_products(parts, m, xi):
    p = Poly.monomial(m)
    for f, k in parts:
        for _ in range(k):
            p = p * f
    assert _classified(classify_roots, p, xi) == _classified(ref_classify_roots, p, xi)


def test_classify_roots_counts_repeated_roots_by_multiplicity():
    inside, outside = Z - Fraction(1, 2), Poly([5, -5, 1])
    rc = classify_roots(Z * Z * inside * inside * inside * outside)
    assert (rc.zero_multiplicity, len(rc.stable_roots), len(rc.unstable_roots)) == (2, 2, 3)
    assert [k for _a, k, _disc in rc.discs] == [1, 3]
    assert all(abs(r - 0.5) < 1e-12 for r in rc.unstable_roots)


@pytest.mark.parametrize("xi", [1, 2])
def test_classify_roots_ring_boundaries(xi):
    """Exact roots 2 tol inside 1/xi - tol and 2 tol outside 1 + tol, real and
    as the pair +-i r, are placed; roots in the ring between are refused."""
    tol = Fraction(1e-9)
    inner, outer = 1 / Fraction(xi) - 2 * tol, 1 + 2 * tol
    rc = classify_roots((Z - inner) * (Z + outer), xi)
    assert (len(rc.unstable_roots), len(rc.stable_roots)) == (1, 1)
    assert rc.unstable_roots[0].real > 0 > rc.stable_roots[0].real
    rc = classify_roots((Z * Z + inner * inner) * (Z * Z + outer * outer), xi)
    assert (len(rc.unstable_roots), len(rc.stable_roots)) == (2, 2)
    for r in (1 / Fraction(xi) - tol / 2, 1 / Fraction(xi), (1 / Fraction(xi) + 1) / 2, 1,
              1 + tol / 2):
        with pytest.raises(UnitCircleRootError):
            classify_roots(Z - r, xi)
        with pytest.raises(UnitCircleRootError):
            classify_roots(Z * Z + r * r, xi)


def _seeds(f: Poly) -> list:
    """The last yield of _start_points(f): the points once every sweep has run."""
    *_, points = _start_points(f)
    return points


def _nearest_distances(points, roots):
    return [min(abs(z - complex(r)) for z in points) for r in roots]


def test_start_points_on_degree_one():
    assert _seeds(Z - Fraction(3, 7)) == [pytest.approx(3 / 7, rel=1e-15)]
    assert _seeds(Z * 2 + 5) == [pytest.approx(-2.5, rel=1e-15)]


def test_start_points_on_a_cluster_of_close_simple_roots():
    roots = [Fraction(1, 3) + Fraction(k, 1000) for k in range(4)]
    f = Poly.const(1)
    for r in roots:
        f = f * (Z - r)
    points = _seeds(f)
    assert len(points) == 4
    assert max(_nearest_distances(points, roots)) < 1e-6


def test_start_points_on_coefficients_of_size_2_to_the_100():
    # roots near 2^-100 and 2^100, and (2^100 + 1) / 2^99 next to -3 2^98 / (2^100 + 7)
    points = _seeds(Poly([1, -(2**100), 1]))
    assert sorted(abs(z) for z in points) == [
        pytest.approx(2.0**-100, rel=1e-12), pytest.approx(2.0**100, rel=1e-12)
    ]
    roots = [Fraction(2**100 + 1, 2**99), Fraction(-3 * 2**98, 2**100 + 7), Fraction(1, 3)]
    f = (Z - roots[0]) * (Z - roots[1]) * (Z - roots[2])
    assert max(_nearest_distances(_seeds(f), roots)) < 1e-12


def test_start_points_keep_an_overflowing_point_from_spreading_nan():
    """On this degree-300 integer polynomial the Aberth update of three points overflows
    to a non-finite value.  Such a point stays where it was and counts as moving: before,
    its NaN entered every deflation sum, 299 of the 300 points ended non-finite (and were
    handed on as their start circle points), and classify_roots took over a minute."""
    import numpy as np

    rng = random.Random(0)
    coeffs = [rng.randint(-100, 100) for _ in range(300)] + [rng.randint(1, 100)]
    points = _seeds(Poly(coeffs).monic())
    assert len(points) == 300 and all(cmath.isfinite(z) for z in points)
    near = [min(abs(z - r) for z in points) <= 1e-6 * abs(r) for r in np.roots(coeffs[::-1])]
    assert sum(near) >= 297, sum(near)


def test_root_discs_enclose_known_roots():
    # a pair of roots 2^-40 apart inside the unit circle, one root outside
    roots = [Fraction(1, 3), Fraction(1, 3) + Fraction(1, 2**40), Fraction(-5, 2)]
    f = (Z - roots[0]) * (Z - roots[1]) * (Z - roots[2])
    bits, centers, radii, inside = next(root_discs(f))
    S = 1 << bits
    for r in roots:
        holding = [
            i for i, ((a, b), R) in enumerate(zip(centers, radii))
            if (a - r * S) ** 2 + b * b <= R * R
        ]
        assert len(holding) == 1
        assert inside[holding[0]] == (abs(r) < 1)


def test_root_discs_refuse_at_the_precision_cap():
    # a root on the inner edge 1/xi - tol of the ring never leaves it
    with pytest.raises(UnitCircleRootError):
        next(root_discs(Z - (Fraction(1, 3) - Fraction(1e-9)), 3))
    # a double root (not squarefree) never gets two disjoint discs
    with pytest.raises(FactorizationError, match=r"degree-2 .* at \d+ bits"):
        next(root_discs((Z - Fraction(1, 3)) * (Z - Fraction(1, 3))))


def _first_precision(f: Poly, xi=1):
    """The precision of the first certified yield of root_discs(f, xi), or the error."""
    try:
        return next(root_discs(f, xi))[0]
    except (UnitCircleRootError, FactorizationError) as exc:
        return type(exc).__name__


def _check_radii(factors):
    """With the float discs declined, every radius that root_discs forms up to
    its first yield, from W_i S = g / q, is exactly ceil(n |g| / q), checked on
    squares: (r - 1)^2 q^2 < n^2 |g|^2 <= r^2 q^2."""
    formed = []

    def radius(n, g, q, _radius=canon._radius):
        r, top = _radius(n, g, q), n * n * (g[0] ** 2 + g[1] ** 2)
        assert (r - 1) ** 2 * q * q < top <= r * r * q * q
        formed.append(r)
        return r

    for f, xi in factors:
        with mock.patch.object(canon, "_float_discs", return_value=None):
            with mock.patch.object(canon, "_radius", radius):
                _first_precision(f, xi)
    assert len(formed) >= sum(int(f.degree) for f, _xi in factors)


def _check_float_radii(factors):
    """Every radius of the float discs of root_discs(f, xi) bounds the exact
    ceil(n |W_i| 2^q) at their own centers.  Returns the number of factors
    whose first yield they are."""
    made, first = [], 0

    def float_discs(*args, _float_discs=canon._float_discs):
        made.append(_float_discs(*args))
        return made[-1]

    for f, xi in factors:
        made.clear()
        with mock.patch.object(canon, "_float_discs", float_discs):
            try:
                got = next(root_discs(f, xi))
            except (UnitCircleRootError, FactorizationError):
                got = None
        if made[0]:
            q, Z, R = made[0]
            assert all(r >= exact for r, exact in zip(R, ref_float_radii(f, q, Z)))
            first += got is not None and got[:3] == made[0]
    return first


def test_disc_radii_bound_the_exact_radii_on_model_factors(corpus, predetermined_probe):
    factors = {}
    for m in (corpus + predetermined_probe + ladder_shaped_models() + planted_models()
              + deep_planted_models()):
        det = m.pi.det
        for a in squarefree_factors(det.shift(-det.zero_multiplicity())):
            if not a.is_constant():
                factors[a, m.xi] = None
    assert len(factors) > 200
    _check_radii(list(factors))
    assert _check_float_radii(list(factors)) >= 0.95 * len(factors)


_FAR = Fraction(2**600)


@pytest.mark.parametrize("f, outcome, declines", [
    # roots 2^-47 apart, about 2^-45 of their modulus
    ((Z - Fraction(1, 3)) * (Z - Fraction(1, 3) - Fraction(1, 2**47)) * (Z + Fraction(5, 2)),
     (0, 1, 2), True),
    ((Z - 1 + Fraction(1, 10**12)) * (Z - 3), "ring", True),  # a root 1e-12 inside |z| = 1
    (Poly([2**2000, 0, 1]), (0, 2, 0), True),  # coefficients and roots beyond the float range
    (Poly([1, 0, 2**2000]), (0, 0, 2), False),  # roots +-i 2^-1000: g(w) = w^2 + 1/4
    ((Z - _FAR) * (Z - 1 / _FAR), (0, 1, 1), True),
    ((Z - 1 / _FAR) * (Z + 3 / _FAR), (0, 0, 2), False),
])
def test_float_discs_fall_back_to_the_exact_steps(f, outcome, declines):
    """Where the float discs cannot decide, the first yield comes from the
    exact steps (`_radius`), with the same verdict, and so does the ring
    error; the float radii bound the exact ones."""
    points = _seeds(f)
    assert len(points) == f.degree and all(cmath.isfinite(z) for z in points)
    with mock.patch.object(canon, "_radius", wraps=canon._radius) as radius:
        assert _classified(classify_roots, f, 1) == outcome
    assert (radius.call_count > 0) == declines
    assert _check_float_radii([(f.monic(), 1)]) == (not declines)


def _slow_to_converge() -> Poly:
    """A degree-100 random integer polynomial whose points still move after the
    first pass's sweeps: its floats decline there and certify once they resume."""
    rng = random.Random(16)
    return Poly([rng.randint(-9, 9) for _ in range(100)] + [1])


@pytest.mark.parametrize("f, moving, exact", [
    (_slow_to_converge(), True, False),
    ((Z - Fraction(1, 3)) * (Z - Fraction(1, 3) - Fraction(1, 2**47)) * (Z + Fraction(5, 2)),
     True, True),
    ((Z - 1 + Fraction(1, 10**12)) * (Z - 3), False, True),  # a root 1e-12 inside |z| = 1
])
def test_squarefree_polynomials_whose_first_pass_declines_are_seeded_once(f, moving, exact):
    """Where classify_roots' first float pass declines on a squarefree p, the mod-p
    proof runs (no Yun) and root_discs goes on from the same sweeps, once more
    where points still moved after the first pass: they certify the random
    polynomial with no exact step, and the exact steps classify the cubic with
    two roots 2^-47 apart and refuse the root in the ring.  _start_points runs
    once."""
    a = f.monic()
    points = list(_start_points(a))
    assert (points[0] is None) == moving
    assert (canon._float_yield(a, points[-1], Fraction(1)) is None) == exact
    with mock.patch.object(canon, "_start_points", wraps=_start_points) as seeds, \
            mock.patch.object(canon, "_radius", wraps=canon._radius) as radius, \
            mock.patch.object(exactalg, "_coprime_to_derivative_mod_p",
                              wraps=exactalg._coprime_to_derivative_mod_p) as mod_p, \
            mock.patch.object(exactalg, "poly_gcd", wraps=exactalg.poly_gcd) as gcd:
        got = _classified(classify_roots, f, 1)
    assert got == _classified(ref_classify_roots, f, 1)
    assert (seeds.call_count, mod_p.call_count, gcd.call_count) == (1, 1, 0)
    assert (radius.call_count > 0) == exact


def test_classify_roots_beyond_the_float_range():
    """Coefficients 2^2000 and 1: the seeds are found on w = z / 2^+-1000, and
    the roots +-i 2^1000 are stable, +-i 2^-1000 unstable.  The root 2^1036
    is stable too; its center, past the float range, is listed as inf."""
    rc = classify_roots(Poly([2**2000, 0, 1]))
    assert not rc.unstable_roots
    assert [abs(r) for r in rc.stable_roots] == [pytest.approx(2.0**1000, rel=1e-12)] * 2
    rc = classify_roots(Poly([1, 0, 2**2000]))
    assert not rc.stable_roots
    assert [abs(r) for r in rc.unstable_roots] == [pytest.approx(2.0**-1000, rel=1e-12)] * 2
    rc = classify_roots(Poly([-(2**1036), 1]))
    assert (rc.stable_roots, rc.unstable_roots) == ((complex(cmath.inf, 0),), ())


def test_float_discs_decide_the_ladder_shaped_dets():
    """Every squarefree factor of det pi of the ladder-shaped models is
    certified by its float discs: no exact evaluation before the first yield."""
    factors = 0
    with mock.patch.object(canon, "_radius", wraps=canon._radius) as radius:
        for m in ladder_shaped_models():
            factors += len(classify_roots(m.pi.det, m.xi).discs)
    assert radius.call_count == 0 and factors == 37


@pytest.mark.parametrize("seed, i, factor", [
    (103, 56, Z + 1),
    (104, 49, Poly([9, -17, 9])),
    (108, 85, Z + 1),
    (110, 98, Z - 1),
])
def test_exact_steps_refuse_the_circle_roots_of_ladder_dets(monkeypatch, seed, i, factor):
    """perfbench's ladder draws whose det pi has an exact factor on |z| = 1 (by sympy):
    a float disc meets the ring, so classify_roots reaches the exact steps (`_radius`),
    and one of their discs raises UnitCircleRootError."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    gen = importlib.import_module("gen")
    m = parse_model(gen.to_json(gen.ladder_model(seed, i)))
    assert (m.pi.det % factor).is_zero()
    with mock.patch.object(canon, "_radius", wraps=canon._radius) as radius:
        with pytest.raises(UnitCircleRootError, match="has modulus 1, inside the boundary ring"):
            classify_roots(m.pi.det, m.xi)
    assert radius.call_count > 0


_int_coeff = st.integers(-(2**40), 2**40)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(_int_coeff, min_size=1, max_size=12), _int_coeff.filter(bool))
def test_disc_radii_bound_the_exact_radii_on_drawn_polynomials(low, lead):
    f = Poly(low + [lead])
    assume(poly_gcd(f, f.derivative()).is_constant())
    _check_radii([(f.monic(), 1)])
    _check_float_radii([(f.monic(), 1)])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(-(2**300), 2**300)] * 4).filter(lambda t: t[2] or t[3]),
       st.integers(1, 12), st.integers(1, 2**64))
def test_disc_radius_bounds_the_exact_radius(parts, n, den):
    """_radius on W_i S = g / q, as root_discs forms g and q from (ar, ai, dr, di),
    equals ref_disc_radius on the 4-tuple itself."""
    ar, ai, dr, di = parts
    g, q = (ar * dr + ai * di, ai * dr - ar * di), den * (dr * dr + di * di)
    assert canon._radius(n, g, q) == ref_disc_radius(n, den, *parts)


# rational roots d 10^k and root pairs d 10^k (3 +- 4i) / 5, k = -6 .. 6, none on |z| = 1
_spread_factor = st.tuples(st.integers(1, 9), st.integers(-6, 6), st.sampled_from("+-c")).filter(
    lambda t: (t[0], t[1]) != (1, 0))


def _spread(parts) -> Poly:
    f = Poly.const(1)
    for d, k, kind in parts:
        rho = d * Fraction(10) ** k
        f = f * (Poly([-rho if kind == "+" else rho, 1]) if kind in "+-"
                 else Poly([rho * rho, -2 * rho * Fraction(3, 5), 1]))
    return f


def _sparse(n, k, small, extra, middle) -> Poly:
    """z^n + c_k z^k + c_0, 0 < k < n, one of c_0, c_k (the middle one if middle)
    at least 2 (1 + |the other|): by Rouche no root is near |z| = 1."""
    big = (2 * (1 + abs(small)) + extra) * (-1) ** extra
    c0, ck = (small, big) if middle else (big, small)
    k = min(k, n - 1)
    return Poly([c0] + [0] * (k - 1) + [ck] + [0] * (n - k - 1) + [1])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.one_of(
    st.lists(_spread_factor, min_size=1, max_size=6, unique=True).map(_spread),
    st.builds(_sparse, st.integers(2, 12), st.integers(1, 11), st.integers(-(2**20), 2**20),
              st.integers(0, 2**40), st.booleans()),
))
def test_start_points_on_spread_moduli_and_sparse_coefficients(f):
    """Root moduli from 10^-6 to 10^6, and coefficients zero between the ends:
    n finite start points, from which root_discs certifies."""
    assume(int(f.degree) <= 12 and poly_gcd(f, f.derivative()).is_constant())
    points = _seeds(f)
    assert len(points) == f.degree and all(cmath.isfinite(z) for z in points)
    bits, centers, radii, inside = next(root_discs(f.monic()))
    assert len(centers) == f.degree and None not in inside


def test_zero_multiplicity_matches_g_sum():
    rng = random.Random(13)
    done = 0
    while done < 15:
        M = rand_polymatrix(rng, rng.randint(1, 3), 2)
        det, _ = det_adjugate(M)
        if det.is_zero():
            continue
        sf = smith_form(M)
        assert det.zero_multiplicity() == sum(sf.g)
        done += 1
