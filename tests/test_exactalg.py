"""Exact arithmetic substrate: polynomials, matrices, rank/kernel, solves."""

import math
import random
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recausal import exactalg
from recausal.exactalg import (
    NEG_INF,
    _P,
    _coprime_to_derivative_mod_p,
    _int_product,
    _numerators,
    _poly,
    _unpack,
    Poly,
    PolyMatrix,
    RationalMatrix,
    det_adjugate,
    determinant,
    poly_gcd,
    rank_kernel,
    rat,
    rat_str,
    solve_affine,
    squarefree_factors,
)
from recausal.model import build_pi
from conftest import (
    RefPoly,
    adj_matrix,
    diag_matrix,
    hstack,
    identity_matrix,
    identity_polymatrix,
    invert,
    deep_planted_models,
    ladder_shaped_models,
    mat_mul,
    planted_models,
    poly_eval,
    poly_lcm,
    rand_matrix,
    rand_poly,
    rand_polymatrix,
    rank_of,
    ref_adjugate,
    ref_det,
    ref_det_adjugate,
    ref_gcd,
    ref_rank_kernel,
    ref_rank_of,
    ref_solve_affine,
    ref_squarefree_factors,
    rmat_mul,
    submatrix,
    vstack,
    zero_matrix,
    zero_polymatrix,
)


def test_rat_round_trip():
    assert rat("3/4") == Fraction(3, 4)
    assert rat(5) == Fraction(5)
    assert rat_str(Fraction(-6, 8)) == "-3/4"
    assert rat_str(Fraction(7)) == "7"
    with pytest.raises(TypeError):
        rat(1.5)


def test_poly_basics():
    p = Poly([1, 0, 2])
    assert p.degree == 2 and p[1] == 0 and p[99] == 0
    assert Poly([0, 0]).is_zero() and Poly().degree == NEG_INF
    assert (p * Poly([0, 1])).coeffs == (0, 1, 0, 2)
    assert Poly([0, 0, 3]).zero_multiplicity() == 2
    assert poly_eval(p, Fraction(2)) == 9
    assert Poly([2, 4]).monic() == Poly([Fraction(1, 2), 1])


def test_poly_divmod_random():
    rng = random.Random(1)
    for _ in range(50):
        a = rand_poly(rng, rng.randint(0, 5))
        b = rand_poly(rng, rng.randint(0, 3))
        q, r = a.divmod(b)
        assert b * q + r == a
        assert r.degree < b.degree or r.is_zero()
    with pytest.raises(ZeroDivisionError):
        Poly([1]).divmod(Poly())
    with pytest.raises(ValueError):
        Poly([1, 1]).exact_div(Poly([0, 1]))


def test_gcd_trivial_cases():
    z = Poly([0, 1])
    assert poly_gcd(z * z - 1, z - 1) == z - 1
    p = Poly([2, 4, 6])
    assert poly_gcd(p, Poly()) == p.monic()
    assert poly_gcd(Poly(), Poly()).is_zero()


def test_gcd_planted_factor_oracle():
    # gcd of products sharing a planted factor must be divisible by it
    rng = random.Random(2)
    for _ in range(50):
        f = rand_poly(rng, rng.randint(1, 3))
        a = f * rand_poly(rng, rng.randint(0, 3))
        b = f * rand_poly(rng, rng.randint(0, 3))
        g = poly_gcd(a, b)
        assert (g % f.monic()).is_zero()
        assert (a % g).is_zero() and (b % g).is_zero()
        assert g.coeffs[-1] == 1


def test_lcm_identity():
    rng = random.Random(3)
    for _ in range(20):
        a, b = rand_poly(rng, 2), rand_poly(rng, 3)
        l = poly_lcm(a, b)
        assert (l % a.monic()).is_zero() and (l % b.monic()).is_zero()
        assert (a * b).monic() == (l * poly_gcd(a, b)).monic()


def _laplace_det(M: PolyMatrix) -> Poly:
    # independent cofactor-expansion oracle
    n = M.rows
    if n == 0:
        return Poly.const(1)
    if n == 1:
        return M.entries[0][0]
    acc = Poly()
    for j in range(n):
        minor = PolyMatrix(
            [[M.entries[i][c] for c in range(n) if c != j] for i in range(1, n)]
        )
        term = M.entries[0][j] * _laplace_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def test_det_adjugate_identity():
    det, adj = det_adjugate(identity_polymatrix(3))
    assert det == 1 and adj == ([[[1] if i == j else [] for j in range(3)] for i in range(3)], 1)


def test_det_adjugate_sims_pi():
    z = Poly([0, 1])
    pi = PolyMatrix(
        [
            [Poly([1, Fraction(-9, 10)]), Poly()],
            [z * Fraction(1, 100000), z * Poly([1, Fraction(-11, 10)])],
        ]
    )
    det, adj = det_adjugate(pi)
    assert det == Poly([1, Fraction(-9, 10)]) * z * Poly([1, Fraction(-11, 10)])
    assert mat_mul(pi, adj_matrix(adj)) == diag_matrix([det, det])


def test_det_adjugate_random_vs_laplace():
    rng = random.Random(4)
    for _ in range(30):
        M = rand_polymatrix(rng, 4, 2)
        det, adj = det_adjugate(M)
        adj = adj_matrix(adj)
        assert det == _laplace_det(M)
        prod = mat_mul(M, adj)
        assert prod == diag_matrix([det] * 4)
        assert mat_mul(adj, M) == prod


def test_rank_kernel_trivial():
    rank, kern = rank_kernel(zero_matrix(3, 5))
    assert rank == 0 and len(kern) == 5
    rank, kern = rank_kernel(identity_matrix(4))
    assert rank == 4 and kern == []


def test_rank_kernel_planted_rank():
    # L = [I_k; X], R = [I_k | Y] have rank exactly k by construction
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randint(1, 3)
        n, m = k + rng.randint(1, 3), k + rng.randint(1, 3)
        L = vstack([identity_matrix(k), rand_matrix(rng, n - k, k)])
        R = hstack([identity_matrix(k), rand_matrix(rng, k, m - k)])
        M = rmat_mul(L, R)
        rank, kern = rank_kernel(M)
        assert rank == k
        assert rank + len(kern) == M.cols
        for v in kern:
            prod = rmat_mul(M, RationalMatrix([[x] for x in v]))
            assert prod.is_zero()


def test_solve_affine_consistent_and_not():
    rng = random.Random(6)
    for _ in range(30):
        M = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        X0 = rand_matrix(rng, M.cols, 2)
        B = rmat_mul(M, X0)
        X, kern = solve_affine(M, B)
        assert X is not None and rmat_mul(M, X) == B
        assert rank_of(M) + len(kern) == M.cols
    M = RationalMatrix([[1, 0], [1, 0]])
    X, kern = solve_affine(M, RationalMatrix([[1], [2]]))
    assert X is None and len(kern) == 1


def test_solve_affine_kernel_is_rank_kernel():
    """The kernel read off the augmented echelon is the one of M alone."""
    rng = random.Random(16)
    for _ in range(30):
        M = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        for B in (rmat_mul(M, rand_matrix(rng, M.cols, 2)), rand_matrix(rng, M.rows, 2)):
            _, kern = solve_affine(M, B)
            assert kern == rank_kernel(M)[1]


def test_invert():
    rng = random.Random(8)
    for _ in range(20):
        M = rand_matrix(rng, 3, 3)
        if rank_of(M) < 3:
            with pytest.raises(ValueError):
                invert(M)
        else:
            assert rmat_mul(M, invert(M)) == identity_matrix(3)


# ---------------------------------------------------------------------------
# integer-numerator Poly against the plain-Fraction reference


def _fracs():
    small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    big = st.builds(
        Fraction,
        st.integers(-(10**40), 10**40),
        st.integers(1, 10**30),
    )
    return st.one_of(st.just(Fraction(0)), small, big)


# zero, constants, trailing zeros, negative and large-denominator coefficients
_coeff_lists = st.lists(_fracs(), max_size=7)
_PROP = settings(derandomize=True, max_examples=150, deadline=timedelta(seconds=2))


def _check(p: Poly, ref: RefPoly):
    assert p.coeffs == ref.coeffs
    assert all(type(c) is Fraction for c in p.coeffs)
    # canonical form: positive den, lowest terms, trimmed
    assert p.den > 0 and math.gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0
    assert p.bit_size() == ref.bit_size()


@_PROP
@given(_coeff_lists, _coeff_lists, _fracs(), st.integers(-(10**12), 10**12))
def test_poly_ring_ops_match_reference(a, b, f, k):
    pa, pb, ra, rb = Poly(a), Poly(b), RefPoly(a), RefPoly(b)
    _check(pa, ra)
    _check(pa + pb, ra + rb)
    _check(pa - pb, ra - rb)
    _check(-pa, -ra)
    _check(pa * pb, ra * rb)
    _check(pa * f, ra * f)
    _check(pa * k, ra * k)
    _check(pa + f, ra + RefPoly([f]))
    _check(pa.monic(), ra.monic())
    _check(pa.shift(3), ra.shift(3))
    _check(pa.derivative(), RefPoly([i * c for i, c in enumerate(ra.coeffs)][1:]))
    assert pa.degree == (len(ra.coeffs) - 1 if ra.coeffs else NEG_INF)
    assert [pa[i] for i in range(-1, 9)] == [ra[i] for i in range(-1, 9)]
    assert poly_eval(pa, f) == ra.eval(f)
    assert (pa == pb) == (ra == rb)
    assert pa == Poly(list(a) + [0, 0]) and hash(pa) == hash(Poly(list(a) + [0, 0]))
    assert (pa - pa).is_zero() and hash(pa - pa) == hash(Poly())


@_PROP
@given(_coeff_lists, _coeff_lists, _coeff_lists, st.sampled_from(("drawn", "zero", "lower")))
@example([], [], [], "drawn")
@example([Fraction(1, 6)], [], [3], "drawn")
@example([], [Fraction(1, 4), 1], [Fraction(2, 9)], "drawn")
@example([1, Fraction(1, 10)], [Fraction(-5, 3), 0, 7], [Fraction(3, 14), 1], "lower")
def test_poly_addmul_matches_reference(a, f, g, cancel):
    # "zero": a = -f g, so the sum cancels to zero; "lower": a = head(a) - f g,
    # so the top of f g cancels and the degree drops
    rf, rg = RefPoly(f), RefPoly(g)
    ra = {"drawn": RefPoly(a), "zero": -(rf * rg), "lower": RefPoly(a[:2]) - rf * rg}[cancel]
    pa, pf, pg = Poly(ra.coeffs), Poly(f), Poly(g)
    got = pa.addmul(pf, pg)
    _check(got, ra + rf * rg)
    assert got == pa + pf * pg
    assert cancel != "zero" or got.is_zero()
    # the operands are left as they were
    assert (pa, pf, pg) == (Poly(ra.coeffs), Poly(f), Poly(g))


@_PROP
@given(_coeff_lists, _coeff_lists.filter(lambda cs: any(cs)))
def test_poly_division_matches_reference(a, b):
    pa, pb, ra, rb = Poly(a), Poly(b), RefPoly(a), RefPoly(b)
    q, r = pa.divmod(pb)
    rq, rr = ra.divmod(rb)
    _check(q, rq)
    _check(r, rr)
    _check(pa % pb, rr)
    _check((pa * pb).exact_div(pb), ra)
    _check(poly_gcd(pa, pb), ref_gcd(ra, rb))


# products of low-degree factors, each repeated up to three times, times a constant
_sqf_factor = st.lists(st.fractions(-3, 3, max_denominator=4), min_size=2, max_size=4).map(
    Poly).filter(lambda f: f.degree > 0)


@_PROP
@given(st.lists(st.tuples(_sqf_factor, st.integers(1, 3)), max_size=4),
       st.fractions(-(10**6), 10**6, max_denominator=10**6).filter(bool))
@example([(Poly([-1, 1]), 1), (Poly([-2, 1]), 1)], Fraction(3, 2))
@example([(Poly([-1, 1]), 2), (Poly([1, 0, 1]), 3)], Fraction(1))
def test_squarefree_factors_match_sympy(parts, c):
    f = Poly.const(c)
    for g, k in parts:
        for _ in range(k):
            f = f * g
    assert squarefree_factors(f) == ref_squarefree_factors(f)


def test_squarefree_certificate_defers_to_yun(monkeypatch):
    """(z - 1)(z - 1 - _P) is squarefree, but its roots meet mod _P, and _P
    divides the leading numerator of _P z^2 - 1: the check fails on both and
    Yun's decomposition, with its gcds, gives the answer."""
    calls = []

    def counted_gcd(a, b, _gcd=exactalg.poly_gcd):
        calls.append(1)
        return _gcd(a, b)

    monkeypatch.setattr(exactalg, "poly_gcd", counted_gcd)
    z = Poly([0, 1])
    f = (z - 1) * (z - 1 - _P)
    assert not _coprime_to_derivative_mod_p(f.num)
    assert squarefree_factors(f) == [f] and calls
    calls.clear()
    assert squarefree_factors(z * z * _P - 1) == [z * z - Fraction(1, _P)] and calls
    calls.clear()
    assert squarefree_factors((z - 1) * (z - 2) * 2) == [(z - 1) * (z - 2)]
    assert squarefree_factors(Poly.const(Fraction(-7, 3))) == [] and not calls


def _ref_rows(M: RationalMatrix):
    return [list(row) for row in M.entries]


@_PROP
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.randoms(use_true_random=False))
def test_rational_matrix_ops_match_reference(n, k, m, rnd):
    A = rand_matrix(rnd, n, k, lo=-10**9, hi=10**9, maxden=10**6)
    B = rand_matrix(rnd, k, m, lo=-10**9, hi=10**9, maxden=10**6)
    a, b = _ref_rows(A), _ref_rows(B)
    results = [
        (submatrix(A, range(n), [k - 1]), [[row[k - 1]] for row in a]),
        (hstack([A, A]), [row + row for row in a]),
        (vstack([B, B]), b + b),
    ]
    for got, want in results:
        assert got.entries == want
        assert all(type(x) is Fraction for row in got.entries for x in row)
        assert (got.rows, got.cols) == (len(want), len(want[0]))
    stacked = vstack([B])
    stacked.entries[0][0] += 1
    assert B.entries == b  # stacking copies rows


_BIG = {"lo": -(10**12), "hi": 10**12, "maxden": 10**9}


def _check_adj_pair(adj: tuple, ref: list):
    """det_adjugate's pair (A, L) is the RefPoly matrix ref over L, in lowest terms:
    L > 0, gcd(L, every coefficient) = 1 and no list ends in a zero."""
    A, L = adj
    assert L > 0 and math.gcd(L, *(c for row in A for f in row for c in f)) == 1
    assert all(not f or f[-1] for row in A for f in row)
    assert [[RefPoly([Fraction(c, L) for c in f]) for f in row] for row in A] == ref


def _determinant(M: PolyMatrix) -> Poly:
    """The Bareiss determinant of M, on M's integer rows (N, L)."""
    return determinant(*_numerators(M.entries))


def _check_det_adjugate(M: PolyMatrix):
    """det_adjugate and the Bareiss determinant against the Laplace-expansion
    reference; returns (det, adj) with adj as a PolyMatrix."""
    ref = [[RefPoly(e.coeffs) for e in row] for row in M.entries]
    det, pair = det_adjugate(M)
    _check(det, ref_det(ref))
    _check(_determinant(M), ref_det(ref))
    ref_adj = ref_adjugate(ref)
    _check_adj_pair(pair, ref_adj)
    adj = adj_matrix(pair)
    assert (adj.rows, adj.cols) == (M.rows, M.cols)
    for row, ref_row in zip(adj.entries, ref_adj):
        for e, r in zip(row, ref_row):
            _check(e, r)
    return det, adj


@settings(derandomize=True, max_examples=60, deadline=timedelta(seconds=20))
@given(st.integers(0, 6), st.integers(0, 4), st.booleans(), st.randoms(use_true_random=False))
def test_det_adjugate_matches_reference(n, max_deg, big, rnd):
    _check_det_adjugate(rand_polymatrix(rnd, n, max_deg, **(_BIG if big else {})))


@st.composite
def _product_operands(draw):
    """(A, B) with A r x k and B k x c, each side 0..3, so empty matrices come up;
    entries from _coeff_lists: zero, negative and large coefficients over mixed
    denominators."""
    r, k, c = (draw(st.integers(0, 3)) for _ in range(3))
    A = PolyMatrix([[Poly(draw(_coeff_lists)) for _ in range(k)] for _ in range(r)], k)
    B = PolyMatrix([[Poly(draw(_coeff_lists)) for _ in range(c)] for _ in range(k)], c)
    return A, B


@settings(derandomize=True, max_examples=200, deadline=timedelta(seconds=2))
@given(_product_operands())
@example((PolyMatrix([[Poly([-1, 0, Fraction(1, 2)])]]), PolyMatrix([[Poly([3, -2]), Poly()]])))
@example((PolyMatrix([[]]), PolyMatrix([], 2)))
@example((PolyMatrix([], 2), PolyMatrix([[Poly([1])], [Poly([Fraction(-5, 7)])]])))
def test_packed_product_matches_polymatrix_product(operands):
    """`_int_product` of the `_numerators` of A and B is A B over the product of their
    denominators, as `SmithForm.Q` reads it."""
    A, B = operands
    (NA, la), (NB, lb) = _numerators(A.entries), _numerators(B.entries)
    P, den = _int_product(NA, NB, B.cols), la * lb
    assert den > 0 and (len(P), all(len(row) == B.cols for row in P)) == (A.rows, True)
    assert PolyMatrix([[_poly(list(e), den) for e in row] for row in P], B.cols) == mat_mul(A, B)


def test_numerators_rows_are_lists_whatever_the_denominator():
    """Every entry of `_numerators`' rows is a list, also one whose denominator is
    already L, so the rows equal rows built as lists."""
    rows = [[Poly([Fraction(1, 2), 1]), Poly([Fraction(1, 6), Fraction(5, 6)])],
            [Poly(), Poly([Fraction(1, 3)])]]
    N, L = _numerators(rows)
    assert L == 6 and rows[0][1].den == L
    assert N == [[[3, 6], [1, 5]], [[], [2]]]


def test_determinant_swaps_rows_past_a_zero_pivot():
    """A zero packed pivot swaps in a lower row (twice for the 3-cycle); a column
    with no nonzero entry left gives det = 0."""
    z = Poly([0, 1])
    cases = [
        ([[0, 1], [1, z]], Poly.const(-1)),
        ([[0, 1, 0], [0, 0, 1], [z, 0, 0]], z),
        ([[0, z * 3], [Fraction(1, 2), 1]], z * Fraction(-3, 2)),
        ([[0, 1], [0, z]], Poly()),
        ([[1, z, 2], [2, z * 2, 4], [0, 1, z]], Poly()),
    ]
    for entries, want in cases:
        M = PolyMatrix(entries)
        assert _determinant(M) == want
        _check_det_adjugate(M)


def test_det_adjugate_small_orders():
    assert det_adjugate(PolyMatrix([])) == (Poly.const(1), ([], 1))
    assert determinant([], 1) == _determinant(PolyMatrix([])) == Poly.const(1)
    p = Poly([Fraction(-3, 7), 0, Fraction(10**20, 3)])
    for e in (p, Poly(), Poly.const(-1)):
        assert det_adjugate(PolyMatrix([[e]])) == (e, ([[[1]]], 1))
        assert _determinant(PolyMatrix([[e]])) == e


def test_det_adjugate_singular():
    rng = random.Random(9)
    for n in range(2, 6):
        for kw in ({}, _BIG):
            M = rand_polymatrix(rng, n, 2, **kw)
            # a zero row: only the cofactors that delete it survive, in column 0 of adj
            zero_row = PolyMatrix([[Poly()] * n] + M.entries[1:])
            det, adj = _check_det_adjugate(zero_row)
            assert det.is_zero() and mat_mul(zero_row, adj).entries == [[Poly()] * n] * n
            assert all(adj.entries[i][j].is_zero() for i in range(n) for j in range(1, n))
            # a repeated row: det = 0, adj of rank 1
            repeated = PolyMatrix([M.entries[1]] + M.entries[1:])
            det, adj = _check_det_adjugate(repeated)
            assert det.is_zero() and any(not e.is_zero() for row in adj.entries for e in row)
            if n >= 3:
                # rank n - 2: every (n-1)-minor vanishes
                X = rand_polymatrix(rng, n, 1, cols=n - 2, **kw)
                Y = rand_polymatrix(rng, n - 2, 1, cols=n, **kw)
                det, adj = _check_det_adjugate(mat_mul(X, Y))
                assert det.is_zero() and adj == zero_polymatrix(n, n)


def test_det_adjugate_coefficient_bound_met():
    """Diagonal single-term entries make a coefficient of det equal the bound B."""
    z = Poly([0, 1])
    cases = [
        [-3, -5, -7],                           # B = 105, b = 9
        [-2, -4, -8],                           # B = 64 = 2^6 exactly
        [-1, -(2**64 - 1)],                     # B = 2^64 - 1, the widest 64-bit B
        [Fraction(-1, 3), Fraction(-5, 2)],     # L = 6: B = 2 * 15 on L*M
        [z * z * -3, Poly.const(-5), z * -11],  # det = -165 z^3
    ]
    for diag in cases:
        M = diag_matrix(diag)
        det, adj = _check_det_adjugate(M)
        want = Poly.const(1)
        for e in diag:
            want = want * e
        assert det == want
        assert mat_mul(M, adj) == diag_matrix([det] * M.rows)


def test_unpack_signed_digits_round_trip():
    rng = random.Random(10)
    for b in (3, 4, 9, 64, 200):
        top = 2 ** (b - 1) - 1
        extremes = [top, -top, 0, -top, top, -1, 1]
        for digits in (extremes, [rng.randint(-top, top) for _ in range(12)] + [top], [-top]):
            v = sum(d << (b * i) for i, d in enumerate(digits))
            assert _unpack(v, b) == digits
    assert _unpack(0, 5) == []


def test_det_adjugate_matches_q_recursion_on_model_pis(corpus, predetermined_probe):
    """Every pi of the five model sets against the Faddeev-LeVerrier recursion over
    Q[z] and, as a lowest-terms pair (A, L), against the cofactor adjugate;
    build_pi's Bareiss det agrees."""
    models = (list(corpus) + list(predetermined_probe) + planted_models()
              + deep_planted_models() + ladder_shaped_models())
    for m in models:
        pp = build_pi(m)
        det, adj = ref_det_adjugate(pp.pi)
        got, pair = det_adjugate(pp.pi)
        assert (got, adj_matrix(pair)) == (det, adj) and pp.det == det
        ref = [[RefPoly(e.coeffs) for e in row] for row in pp.pi.entries]
        _check_adj_pair(pair, ref_adjugate(ref))
    assert len(models) == 314


def test_det_adjugate_builds_one_poly(monkeypatch):
    """The adjugate stays integer lists: a call builds one Poly, the det."""
    calls = []
    monkeypatch.setattr(exactalg, "_poly", lambda *a: calls.append(a) or _poly(*a))
    rng = random.Random(11)
    for n in range(1, 5):
        M = rand_polymatrix(rng, n, 2)
        calls.clear()
        det, _ = det_adjugate(M)
        assert len(calls) == 1 and _poly(*calls[0]) == det


# ---------------------------------------------------------------------------
# fraction-free Gauss-Jordan against the Fraction reference


@st.composite
def _linear_systems(draw):
    """(M, B) up to 5 x 5 with 0-2 right-hand columns, 0-row and 0-column shapes
    included.  Rows of M may be zero, a copy or a sum of earlier rows; B is
    M X (consistent) or drawn (mostly inconsistent when M is rank deficient)."""
    rows, cols, k = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 2))
    M = zero_matrix(rows, cols)
    for i, row in enumerate(M.entries):
        kind = draw(st.sampled_from(("drawn", "zero", "copy", "sum") if i else ("drawn", "zero")))
        if kind == "drawn":
            row[:] = [draw(_fracs()) for _ in range(cols)]
        elif kind == "copy":
            row[:] = M.entries[draw(st.integers(0, i - 1))]
        elif kind == "sum":
            a, b = M.entries[draw(st.integers(0, i - 1))], M.entries[draw(st.integers(0, i - 1))]
            row[:] = [x + draw(_fracs()) * y for x, y in zip(a, b)]
    B = zero_matrix(rows, k)
    if draw(st.booleans()):
        X = zero_matrix(cols, k)
        for row in X.entries:
            row[:] = [draw(_fracs()) for _ in range(k)]
        B = rmat_mul(M, X)
    else:
        for row in B.entries:
            row[:] = [draw(_fracs()) for _ in range(k)]
    return M, B


@settings(derandomize=True, max_examples=300, deadline=timedelta(seconds=2))
@given(_linear_systems())
def test_elimination_matches_fraction_reference(system):
    M, B = system
    rank, kern = rank_kernel(M)
    assert (rank, kern) == ref_rank_kernel(M)
    assert rank_of(M) == ref_rank_of(M) == rank
    assert all(len(v) == M.cols and all(type(x) is Fraction for x in v) for v in kern)
    X, kern = solve_affine(M, B)
    ref_X, ref_kern = ref_solve_affine(M, B)
    assert kern == ref_kern
    if ref_X is None:
        assert X is None
    else:
        assert (X.rows, X.cols, X.entries) == (M.cols, B.cols, ref_X)
        assert all(type(x) is Fraction for row in X.entries for x in row)
        assert rmat_mul(M, X) == B


def test_empty_shapes_keep_their_columns():
    E = zero_matrix(0, 3)
    assert (E.rows, E.cols) == (0, 3)
    S = submatrix(identity_matrix(3), range(3), range(0))
    assert (S.rows, S.cols) == (3, 0)
    assert (vstack([E, E]).cols, hstack([E, E]).cols) == (3, 6)
    X, kern = solve_affine(zero_matrix(0, 0), zero_matrix(0, 3))
    assert (X.rows, X.cols, kern) == (0, 3, [])
