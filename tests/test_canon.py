"""Smith canonical form, invariant-factor oracle, root classification."""

import random
from fractions import Fraction

import pytest

from recausal.canon import (
    FactorizationError,
    RedundantEquationsError,
    UnitCircleRootError,
    classify_roots,
    invariant_factors_oracle,
    is_unimodular,
    root_discs,
    smith_form,
)
from recausal.exactalg import Poly, PolyMatrix, det_adjugate
from conftest import (
    check_smith_invariants,
    rand_poly,
    rand_polymatrix,
    rand_unimodular,
    sims_model,
    sims_published_smith,
    smith_fixture,
)
from recausal.model import build_pi

Z = Poly([0, 1])


def test_smith_identity():
    sf = smith_form(PolyMatrix.identity(3))
    assert sf.g == (0, 0, 0)
    assert all(ph == 1 for ph in sf.phi)
    check_smith_invariants(PolyMatrix.identity(3), sf)


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
                     [one, zero, 1 - Z, -one]])
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
        M = rand_unimodular(rng, n) * PolyMatrix.diag(chain) * rand_unimodular(rng, n)
        sf = smith_form(M)
        assert sf.invariant_factors() == tuple(chain)


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
    assert is_unimodular(PolyMatrix.identity(3))
    _, sf1, _ = _published_factorizations()
    assert is_unimodular(sf1.P)
    assert not is_unimodular(PolyMatrix.diag([Z, Poly.const(1)]))


def test_classify_roots_examples():
    rc = classify_roots(1 - Fraction(9, 10) * Z)
    assert rc.zero_multiplicity == 0 and len(rc.stable_roots) == 1
    assert abs(rc.stable_roots[0] - 10 / 9) < 1e-9
    rc = classify_roots(1 - Fraction(11, 10) * Z)
    assert len(rc.unstable_roots) == 1 and abs(rc.unstable_roots[0] - 10 / 11) < 1e-9
    rc = classify_roots(Z * Z)
    assert rc.zero_multiplicity == 2 and rc.total == 2


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
