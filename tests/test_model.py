"""Model parsing, serialization, pi(z) assembly, semantic validation."""

import json
import random
import re
from datetime import timedelta
from fractions import Fraction
from functools import reduce
from itertools import product
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recausal.canon import RedundantEquationsError
from recausal.exactalg import Poly, PolyMatrix, RationalMatrix, _poly, det_adjugate, rat
from recausal.model import (
    ModelFormatError,
    REModel,
    build_pi,
    parse_model,
    parse_xi,
    validate_semantics,
)
from conftest import (
    rmat_add,
    rmat_mul,
    rmat_sub,
    SIMS_JSON,
    a_kh,
    coeff,
    deep_planted_models,
    identity_matrix,
    ladder_shaped_models,
    planted_models,
    rand_frac,
    random_model,
    ref_build_pi,
    ref_wold_poly,
    serialize_model,
    sims_model,
)


def test_parse_sims():
    m = sims_model()
    assert (m.s, m.K, m.H, m.q) == (2, 1, 1, 2)
    assert m.gamma == (1, 1)
    assert a_kh(m, 0, 0).entries[0][0] == Fraction(-9, 10)
    assert a_kh(m, 1, 0).entries[1][1] == Fraction(-11, 10)
    assert a_kh(m, 1, 1).is_zero()  # omitted pair means zero
    assert m.predetermined


def test_serialize_round_trip():
    m = sims_model()
    text = serialize_model(m)
    m2 = parse_model(text)
    assert serialize_model(m2) == text
    assert m2.A == m.A and m2.wold == m.wold and m2.gamma == m.gamma


def _sims_doc():
    return json.loads(SIMS_JSON)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(gamma=[2, 1]), "gamma sum"),
        (lambda d: d.update(gamma=[1]), "gamma must list"),
        (lambda d: d.update(q=3), "q <= s"),
        (lambda d: d.pop("wold"), "wold"),
        (lambda d: d.update(wold=[]), "w_0"),
        (lambda d: d["A"].append({"k": 0, "h": 0, "matrix": [["0", "0"], ["0", "0"]]}), "duplicate"),
        (lambda d: d["A"][0].update(matrix=[["1/0", "0"], ["0", "0"]]), "malformed"),
        (lambda d: d["A"][0]["matrix"][0].append("1"), "columns"),
        (lambda d: d.update(A=d["A"][:2]), "K=1 is not realized"),
        (lambda d: d.update(xi="1/2"), "xi"),
        (lambda d: d.update(xi="abc"), "xi must be a rational number, got 'abc'"),
        (lambda d: d.update(xi=1.5), "xi must be a rational number, got 1.5"),
    ],
)
def test_parse_errors(mutate, message):
    doc = _sims_doc()
    mutate(doc)
    with pytest.raises(ModelFormatError, match=message):
        parse_model(json.dumps(doc))


def test_unread_keys_are_ignored():
    """A model file's r_hint, like its schema_version, is read by no code: a
    document that carries it parses as the same document without it."""
    doc = _sims_doc()
    plain = parse_model(json.dumps(doc))
    for key, value in (("r_hint", 2), ("r_hint", True), ("schema_version", 7)):
        assert parse_model(json.dumps(dict(doc, **{key: value}))) == plain
    assert not hasattr(plain, "r_hint")


# Python 3.10's `fractions.Fraction` string grammar, the one rat reads on every version;
# from 3.11 on Fraction also reads underscores, and from 3.12 on whitespace next to "/"
FRACTION_310 = re.compile(r"""
    \A\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*)
    (?:(?:/(?P<denom>\d+))?|(?:\.(?P<decimal>\d*))?(?:E(?P<exp>[-+]?\d+))?)\s*\Z
""", re.VERBOSE | re.IGNORECASE)


def fraction_310(text):
    """Fraction(text) as Python 3.10 reads it."""
    if not FRACTION_310.match(text):
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    return Fraction(text)


@pytest.mark.parametrize(
    "text", ["1/0", "abc", "1.5", " 3", "+3", "3/-4", "1_000", "\u0663", "-0", "007/014",
             "1e3", "-2.5e-3", "1E+4300", "1e+-5", "1e5__0", "1e_5", "1e5_0",
             "1_0/3", "1 / 2", "1/ 2", "1 /2", "1.d", "1.5D"]
)
def test_rat_reads_strings_as_fraction_does(text):
    """rat reads ASCII "p" and "p/q" by int() and the rest by Fraction on Python 3.10's
    grammar: either way the value, or the exception and its message, is 3.10's Fraction's,
    for a model entry and xi too.  From 3.11 on Fraction reads "1_000" and "1_0/3", from 3.12
    on "1 / 2", and 3.11-3.12 pass "1.d" to int(), which words its error otherwise."""

    def outcome(read):
        try:
            x = read(text)
        except (ValueError, ZeroDivisionError) as exc:
            return type(exc), str(exc)
        return type(x), x

    want = outcome(fraction_310)
    assert outcome(rat) == want
    doc = _sims_doc()
    doc["A"][0]["matrix"][0][0] = text
    try:
        got = parse_model(json.dumps(doc)).A[0, 0].entries[0][0]
    except ModelFormatError as exc:
        got = str(exc)
    assert got == (want[1] if want[0] is Fraction else f"A[0,0]: malformed rational entry: {want[1]}")
    if want[0] is not Fraction:
        with pytest.raises(ModelFormatError, match="xi must be a rational number"):
            parse_xi(text)


def test_parse_rejects_float_entries():
    doc = _sims_doc()
    doc["A"][0]["matrix"][0][0] = 0.9
    with pytest.raises(ModelFormatError):
        parse_model(json.dumps(doc))


def test_build_pi_univariate_k2h2():
    # the univariate K = H = 2 example: diagonal sums of the A-array
    rng = random.Random(21)
    for _ in range(20):
        a = {(k, h): rand_frac(rng, nonzero=True) for k in range(3) for h in range(3)}
        a[(0, 0)] = Fraction(-1)
        m = REModel(
            s=1, K=2, H=2, q=1,
            A={kh: RationalMatrix([[v]]) for kh, v in a.items()},
            gamma=(1, 0, 0), wold=(RationalMatrix([[1]]),),
        )
        pp = build_pi(m)
        expected = {
            2: a[(0, 2)],
            1: a[(1, 2)] + a[(0, 1)],
            0: Fraction(-1) + a[(1, 1)] + a[(2, 2)],
            -1: a[(1, 0)] + a[(2, 1)],
            -2: a[(2, 0)],
        }
        for i in range(-2, 3):  # A*_i is the coefficient of z^(J1 - i), zero outside J0..J1
            got = coeff(pp.pi, pp.J1 - i).entries[0][0]
            assert got == expected[i], (i, got, expected[i])


def test_build_pi_first_order():
    # K = 0, H = 1: pi(z) = A00 z + A01 with J1 = 1
    rng = random.Random(22)
    a00, a01 = (RationalMatrix([[rand_frac(rng, nonzero=True)]]) for _ in range(2))
    m = REModel(s=1, K=0, H=1, q=1, A={(0, 0): a00, (0, 1): a01},
                gamma=(1, 0), wold=(RationalMatrix([[1]]),))
    pp = build_pi(m)
    assert (pp.J0, pp.J1) == (0, 1)
    assert pp.pi.entries[0][0] == Poly([a01.entries[0][0], a00.entries[0][0]])


def test_build_pi_redundant():
    # A00 = -I = -A_KK with K = H makes pi identically zero
    eye = identity_matrix(2)
    m = REModel(s=2, K=1, H=1, q=1, A={(0, 0): rmat_mul(eye, -1), (1, 1): eye},
                gamma=(2, 0), wold=(RationalMatrix([[1], [0]]),))
    with pytest.raises(RedundantEquationsError):
        build_pi(m)


def test_build_pi_singular_det():
    """pi(z) nonzero but det pi(z) identically zero: proportional columns, and a
    zero first column, where the Bareiss elimination finds no pivot."""
    for a00, a01 in (([[1, 2], [1, 2]], [[3, 6], [1, 2]]), ([[0, 1], [0, 2]], [[0, 3], [0, 1]])):
        m = REModel(s=2, K=0, H=1, q=1,
                    A={(0, 0): RationalMatrix(a00), (0, 1): RationalMatrix(a01)},
                    gamma=(2, 0), wold=(RationalMatrix([[1], [0]]),))
        with pytest.raises(RedundantEquationsError, match="det pi"):
            build_pi(m)


def test_build_pi_linearity():
    rng = random.Random(23)
    m = random_model(rng, 2, 1, 2)
    key = sorted(m.A)[0]
    doubled = dict(m.A)
    doubled[key] = rmat_mul(m.A[key], 2)
    m2 = REModel(s=m.s, K=m.K, H=m.H, q=m.q, A=doubled, gamma=m.gamma, wold=m.wold)
    pp, pp2 = build_pi(m), build_pi(m2)
    k, h = key
    i = h - k
    star = lambda pp, j: coeff(pp.pi, pp.J1 - j)  # A*_j, zero outside J0..J1
    assert rmat_sub(star(pp2, i), star(pp, i)) == m.A[key]
    for j in range(min(pp.J0, pp2.J0), max(pp.J1, pp2.J1) + 1):
        if j != i:
            assert star(pp, j) == star(pp2, j)


def _assert_build_pi_is_ref(m: REModel):
    """build_pi on m.numerators gives the Fraction assembly's pi, J0, J1, det and pi's
    integer rows, or raises where that pi(z) or its det is identically zero."""
    ref = ref_build_pi(m)
    if ref is None or ref[3].is_zero():
        with pytest.raises(RedundantEquationsError):
            build_pi(m)
    else:
        pp = build_pi(m)
        (N, L), (ref_N, ref_L) = pp.numerators, ref[4]
        assert tuple(pp[:4]) == ref[:4] and L == ref_L
        assert N == ref_N and all(type(f) is list for row in N for f in row)


def test_build_pi_matches_the_fraction_assembly(corpus, predetermined_probe):
    sets = (corpus, predetermined_probe, ladder_shaped_models(), planted_models(),
            deep_planted_models())
    for m in (m for models in sets for m in models):
        _assert_build_pi_is_ref(m._replace())  # an empty memo: numerators built here


_ENTRY = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _coefficient_arrays(draw):
    """A model of s <= 3, K, H <= 2 with random A_kh; in some draws A_11 is minus the sum
    of the other A_kk, so A*_0 vanishes, at the edge of J0..J1, inside it or beyond it."""
    s, K, H = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    square = st.lists(st.lists(_ENTRY, min_size=s, max_size=s), min_size=s, max_size=s)
    A = {kh: RationalMatrix(draw(square)) for kh in product(range(K + 1), range(H + 1))
         if draw(st.booleans())}
    others = [a for (k, h), a in A.items() if k == h != 1]
    if min(K, H) and others and draw(st.booleans()):  # A_11 = -(the other A_kk)
        A[1, 1] = rmat_mul(reduce(rmat_add, others), -1)
    A = {kh: a for kh, a in A.items() if not a.is_zero()}
    return REModel(s=s, K=K, H=H, q=1, A=A, gamma=(s,) + (0,) * H,
                   wold=(RationalMatrix([[1]] * s),))


_CANCELLED = REModel(  # A*_0 = A_00 + A_11 = 0 between A*_1 = 2 and A*_-1 = 3/5
    s=1, K=1, H=1, q=1, gamma=(1, 0), wold=(RationalMatrix([[1]]),),
    A={(0, 0): RationalMatrix([["1/2"]]), (1, 1): RationalMatrix([["-1/2"]]),
       (0, 1): RationalMatrix([[2]]), (1, 0): RationalMatrix([["3/5"]])})


@settings(derandomize=True, max_examples=150, deadline=timedelta(seconds=2))
@given(_coefficient_arrays())
@example(_CANCELLED)
@example(_CANCELLED._replace(A={kh: a for kh, a in _CANCELLED.A.items() if kh != (1, 0)}))
def test_build_pi_matches_the_fraction_assembly_on_draws(m):
    _assert_build_pi_is_ref(m)


def test_numerators_are_memoized_per_model(corpus):
    """m.numerators is computed once per model, like `artifacts`; a model from
    _replace starts without it; its rows are the A_kh times the lcm L of the
    denominators of the A_kh and the w_j."""
    for m in [sims_model(), *corpus]:
        assert m.numerators is m.numerators
        assert "numerators" not in m._replace().__dict__
        L, num, _ = m.numerators
        assert L == lcm(*(x.denominator for a in (*m.A.values(), *m.wold) for row in a.entries
                          for x in row))
        assert set(num) == set(m.A)
        for kh, a in m.A.items():
            scaled = [[x * L for x in row] for row in a.entries]
            assert all(x.denominator == 1 for row in scaled for x in row)
            assert num[kh] == [[int(x) for x in row] for row in scaled]


def test_wold_numerators_are_memoized_per_model(corpus):
    """The W of m.numerators, computed with it once per model, is w(z) = sum_j w_j z^j
    times the same L: the w_j stacked as integer rows, row j s + r holding row r of w_j."""
    for m in [sims_model(), *corpus]:
        L, _, W = m.numerators
        assert W is m.numerators[2] and "numerators" not in m._replace().__dict__
        assert (len(W), {len(row) for row in W}) == (m.s * len(m.wold), {m.q})
        assert [[Fraction(x, L) for x in row] for row in W] == [
            row for w in m.wold for row in w.entries]
        s = m.s
        wz = [[_poly([W[j * s + i][c] for j in range(len(m.wold))], L) for c in range(m.q)]
              for i in range(s)]
        assert PolyMatrix(wz, m.q) == ref_wold_poly(m)


def test_det_degree_bound():
    rng = random.Random(24)
    for _ in range(15):
        m = random_model(rng, rng.randint(1, 3), rng.randint(0, 2), rng.randint(0, 2))
        pp = build_pi(m)
        det, _ = det_adjugate(pp.pi)
        assert det.degree <= m.s * (pp.J1 - pp.J0)


def test_validate_semantics():
    rep = validate_semantics(sims_model())
    assert rep["ok"]
    assert any("G = 1" in c["detail"] for c in rep["checks"] if c["name"] == "det_pi_nonzero")
    eye = identity_matrix(2)
    bad = REModel(s=2, K=1, H=1, q=1, A={(0, 0): rmat_mul(eye, -1), (1, 1): eye},
                  gamma=(2, 0), wold=(RationalMatrix([[1], [0]]),))
    rep = validate_semantics(bad)
    assert not rep["ok"]
    assert any(not c["ok"] for c in rep["checks"] if c["name"] == "det_pi_nonzero")
