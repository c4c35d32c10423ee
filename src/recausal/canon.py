"""Smith canonical form of polynomial matrices and determinant-root classification.

The Smith form is computed by exact elimination over Q[z], which also detects
a singular input: its elimination runs out of nonzero pivots.  The row
operations update D and P^-1, the column operations D alone.  Q, which only
`recausal smith` reads, follows from one integer product P^-1 pi
on first read, as do the inverses P and Q^-1: `SmithForm` is a plain class
that caches them.  The constraint blocks read only a `LocalSmith`, the named
tuple (g, P^-1) of some pi = P diag(z^g) E on integers: `local_form` finds one
by row reduction at z = 0 on pi's integer rows, with no Smith elimination, and
the global form's g and P^-1 are another.  `RootClassification` is a named tuple.
`classify_roots` sorts the roots of det pi against the unit circle on the
inclusion discs of Weierstrass corrections (Carstensen) from `root_discs`.
Floating point seeds them (`_start_points`) and proves the first discs by an
a-priori rounding-error bound (`_float_discs`); exact Gaussian-integer steps
with exact radii ceil(n |W_i| 2^bits) run where floats cannot decide and when
the split refines, only if the unstable centers' sum cannot refuse it.  The
first disjoint float discs of det pi / z^G itself, each on one side of the
ring, also prove it squarefree, as each holds exactly one root counted with
multiplicity.  Only where they fail does `squarefree_factors` run, which
proves a squarefree factor by one gcd modulo a fixed prime and runs Yun's
decomposition only when that proof fails.  The ring tests compare integers
(`_place`); no module imports numpy.

`factor_stable_unstable` splits det pi = D S, D = z^G U, over Q without
factoring: the discs that classified each squarefree factor of det pi / z^G
give its unstable roots, and their product, rounded onto the lattice Gauss's
lemma allows, passes one exact division or proves that no rational split exists.
"""

from __future__ import annotations

import cmath
from collections import namedtuple
from decimal import Context, Decimal
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import ceil, frexp, inf, isqrt, ldexp, log2, prod
from sys import float_info

from .exactalg import (
    Poly, PolyMatrix, _UNIT, _ZERO, _det_adjugate, _int_product, _numerators, _poly,
    _row_echelon, rat, squarefree_factors,
)


class RedundantEquationsError(ValueError):
    """pi(z) or its determinant is identically zero: the equations are redundant."""


class UnitCircleRootError(ValueError):
    """A determinant root sits within tolerance of the boundary ring [1/xi, 1]."""


class FactorizationError(ArithmeticError):
    """phi has no exact rational stable/unstable split, or none was certified."""


class KernelPointError(ValueError):
    """kernel_point is neither "min-norm" nor the index of a kernel basis vector."""


class UnsupportedModelError(ValueError):
    """The model is outside what is supported: J1 < 0, no solution to verify, or a
    transfer that `simulate` cannot filter in floats."""


_TOL = Fraction(1e-9)  # widens the ring [1/xi, 1] that holds no root on each side


class SmithForm:
    """pi = P diag(z^g) diag(phi) Q from the elimination, which tracks P^-1 alone.
    Q = diag(z^g phi)^-1 P^-1 pi and the exact inverses P and Q^-1 are
    computed on first read.  g holds the partial multiplicities,
    non-decreasing, and phi the diagonal of Phi, phi_i(0) != 0."""

    def __init__(self, pi: PolyMatrix, g: tuple, phi: tuple, P_inv: PolyMatrix):
        self.pi, self.g, self.phi, self.P_inv = pi, g, phi, P_inv

    @cached_property
    def Q(self) -> PolyMatrix:
        (NP, lp), (N, L) = _numerators(self.P_inv.entries), _numerators(self.pi.entries)
        R = _int_product(NP, N, self.pi.cols)  # L lp P^-1 pi
        return PolyMatrix([[_poly(f, lp * L).shift(-gi).exact_div(ph) for f in row]
                           for row, gi, ph in zip(R, self.g, self.phi)])

    @cached_property
    def P(self) -> PolyMatrix:
        return _unimodular_inverse(self.P_inv)

    @cached_property
    def Q_inv(self) -> PolyMatrix:
        return _unimodular_inverse(self.Q)

    def invariant_factors(self):
        return tuple(Poly.monomial(gi) * ph for gi, ph in zip(self.g, self.phi))


def _unimodular_inverse(M: PolyMatrix) -> PolyMatrix:
    """adj M / det M = A / (L det M) for a constant det M, from `_det_adjugate`'s integer
    pair (A, L): the public det_adjugate stays the count of det pi work."""
    det, (A, L) = _det_adjugate(M)
    c = 1 / det[0]
    return PolyMatrix([[_poly([x * c.numerator for x in f], L * c.denominator) for f in row]
                       for row in A])


# g and P^-1 of pi = P diag(z^g) E, P unimodular and E(0) invertible, on integers: p_inv =
# (N, L), N[i][k] the coefficients of entry (i, k) of L P^-1, lowest first
LocalSmith = namedtuple("LocalSmith", "g p_inv")


def local_form(N: list, G: int) -> LocalSmith:
    """The `LocalSmith` of pi = N / L by row reduction at z = 0, N pi's integer rows
    (`PiPolynomial.numerators`) and G the valuation of det pi.

    rows[i] holds row i of L R (R = P^-1 pi) and of P^-1 as integer coefficient
    lists, from N = L pi and I.  Row i of R has valuation v_i <= G and lowest
    coefficient l_i.  While sum v < G the l_i have a left dependency c, and
    rows[j], j in its support with the largest v_j, becomes sum_i c_i z^(v_j -
    v_i) rows[i], of a larger valuation.  P^-1 stays unimodular, so sum v = G
    proves E(0) = l / L invertible, E = diag(z^-v) R: at most G steps.  Sorted stably by v, g = v (Gohberg, Lancaster & Rodman,
    *Matrix Polynomials*, 1982, ch. 7)."""
    s = len(N)
    rows = [list(r) + [[int(i == k)] for k in range(s)] for i, r in enumerate(N)]
    at = lambda f, t: f[t] if 0 <= t < len(f) else 0
    val = lambda f: next((t for t, x in enumerate(f) if x), G)  # a zero entry counts as G
    while sum(v := [min(map(val, r[:s])) for r in rows]) < G:
        low = [[at(f, vi) for f in r[:s]] + [int(i == k) for k in range(s)]
               for i, (r, vi) in enumerate(zip(rows, v))]
        c = low[len(_row_echelon(low, s))][s:]  # a left dependency of the l_i
        j = max((i for i in range(s) if c[i]), key=v.__getitem__)
        sup = [(ci, v[j] - vi, r) for ci, vi, r in zip(c, v, rows) if ci]
        rows[j] = [[sum(ci * at(r[k], t - d) for ci, d, r in sup)
                    for t in range(max(d + len(r[k]) for _, d, r in sup))] for k in range(2 * s)]
    order = sorted(range(s), key=v.__getitem__)
    return LocalSmith(tuple(v[i] for i in order), ([rows[i][s:] for i in order], 1))


def smith_form(M: PolyMatrix) -> SmithForm:
    """Smith decomposition M = P * diag(z^g_i) * diag(phi_i) * Q.

    P, Q are unimodular; the row operations update D and P^-1, the column
    operations D alone, and Q follows from P^-1 and M on first read.  The
    invariant factors z^g_i * phi_i are monic and satisfy the divisibility
    chain.  The pivot of a block is its entry of least degree, ties broken by
    bit size, then position.  Raises RedundantEquationsError when det M is
    identically zero, which is exactly when a remaining block has no nonzero
    pivot.
    """
    if M.rows != M.cols:
        raise ValueError("smith_form requires a square matrix")
    n = M.rows

    D = [[M.entries[i][j] for j in range(n)] for i in range(n)]
    Pinv = [[_UNIT if i == j else _ZERO for j in range(n)] for i in range(n)]

    def add_row(i, j, f: Poly):
        # row_i += f * row_j of D and of P^-1
        for R in (D, Pinv):
            R[i] = [a.addmul(f, b) for a, b in zip(R[i], R[j])]

    for t in range(n):
        while True:
            cands = [(e.degree, i, j) for i in range(t, n) for j in range(t, n)
                     if not (e := D[i][j]).is_zero()]
            if not cands:
                raise RedundantEquationsError(
                    "det pi(z) is identically zero: system contains redundant equations"
                )
            low = min(cands)
            ties = [(D[i][j].bit_size(), i, j) for d, i, j in cands if d == low[0]]
            _, bi, bj = min(ties) if len(ties) > 1 else ties[0]
            D[t], D[bi], Pinv[t], Pinv[bi] = D[bi], D[t], Pinv[bi], Pinv[t]
            for row in D:
                row[t], row[bj] = row[bj], row[t]
            pivot = D[t][t]
            dirty = False
            for i in range(t + 1, n):
                if D[i][t].is_zero():
                    continue
                q, r = D[i][t].divmod(pivot)
                add_row(i, t, -q)
                dirty = dirty or not r.is_zero()
            for j in range(t + 1, n):
                if D[t][j].is_zero():
                    continue
                q, r = D[t][j].divmod(pivot)
                for row in D:  # col_j -= q * col_t
                    row[j] = row[j].addmul(-q, row[t])
                dirty = dirty or not r.is_zero()
            if dirty:
                continue
            if pivot.is_constant():  # a constant divides every entry of the block
                break
            # row and column t are clear; divisibility fix-up: pivot must divide the rest of the block
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if not D[i][j].is_zero() and not (D[i][j] % pivot).is_zero():
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, Poly.const(1))

    g, phi = [], []
    for t in range(n):
        d = D[t][t]
        c = Fraction(d.den, d.num[-1])  # makes the invariant factor monic
        if c != 1:
            Pinv[t] = [e * c for e in Pinv[t]]
        m = d.zero_multiplicity()
        g.append(m)
        phi.append(d.shift(-m).monic())
    return SmithForm(pi=M, g=tuple(g), phi=tuple(phi), P_inv=PolyMatrix(Pinv))


class RootClassification(namedtuple(
        "RootClassification", "zero_multiplicity stable_roots unstable_roots xi discs",
        defaults=((),))):
    """stable_roots (|root| > 1) and unstable_roots (|root| < 1/xi) are disc
    centers, each repeated by its multiplicity; discs holds (a_k, k, its
    first certified yield, as root_discs(a_k) gives it) per Yun factor a_k of
    p / z^m: the one (f, 1, yield) wherever f = p / z^m is squarefree."""

    __slots__ = ()


# classify_roots' first pass stops here: squarefree dets mostly converge sooner, and a
# repeated root, whose points converge only linearly, is left to the squarefree split
_FIRST_SWEEPS = 10


def _start_points(f: Poly):
    """Float approximations of the roots of a nonconstant f, to seed root_discs.

    Aberth-Ehrlich sweeps (Aberth, Math. Comp. 27, 1973) in Python complex,
    from circles with the Newton-polygon radii of the |num_k| (Bini, Numer.
    Algorithms 13, 1996): an edge from k to l of the upper convex hull of the
    points (k, log2 |num_k|) puts l - k points on the circle of radius
    |num_k / num_l|^(1/(l - k)), on g(w) = f(2^e w) / (num_n 2^(ne)), 2^e between
    the inner and outer radius: no conversion overflows (else no sweeps run).  A
    point leaves after a correction below 1e-3 of its modulus and of 1/|s| (s the
    deflation sum): at cubic convergence the next, out of a cluster, would be
    about 1e-9, and the discs' certificate, not this rule, decides.  A generator
    whose last yield is the points: its first is None if some still move after
    _FIRST_SWEEPS sweeps, and a caller that needs the points resumes the same
    sweeps, until all have stopped or 100 have run.  Only speed depends on them.
    """
    n, num = int(f.degree), f.num
    hull = []
    for q in ((k, log2(abs(c))) for k, c in enumerate(num) if c):
        while len(hull) > 1 and ((hull[-1][1] - hull[-2][1]) * (q[0] - hull[-2][0])
                                 <= (q[1] - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append(q)
    circles = []  # (log2 of the radius, a point of the unit circle)
    for (k, u), (l, v) in zip(hull, hull[1:]):  # the roots at zero join the innermost circle
        t, m = (u - v) / (l - k), l - len(circles)
        circles += [(t, cmath.exp(2j * cmath.pi * (j / m + k / n) + 0.4j)) for j in range(m)]
    rim = [2.0 ** min(max(t, -1000), 1000) * c for t, c in circles]
    e = min(max(round((circles[0][0] + circles[-1][0]) / 2), -1000), 1000)
    try:
        a = [(num[k] << max(0, (k - n) * e)) / (num[n] << max(0, (n - k) * e))
             for k in range(n - 1, -1, -1)]  # g but its leading 1, highest first
        z, active = [2.0 ** (t - e) * c for t, c in circles], range(n)
    except OverflowError:
        yield rim
        return
    points = lambda: [x if cmath.isfinite(x := zi * 2.0**e) else r for zi, r in zip(z, rim)]
    for sweep in range(1, 101):
        moving = []
        for i in active:
            zi, p, dp = z[i], 1.0, 0.0
            for c in a:
                p, dp = p * zi + c, dp * zi + p
            try:  # the Newton step N, deflated by the other points
                N, s = p / dp, 0
                for j in range(n):
                    if j != i:
                        s += 1 / (zi - z[j])
                w = N / (1 - N * s)
            except ZeroDivisionError:  # a critical point, or two points met
                w = (abs(zi) + 1) * 1e-3j
            z[i] = zi - w
            if not (abs(w) <= 1e-3 * abs(zi) and abs(w * s) <= 1e-3):
                moving.append(i)
        if not moving:
            break
        if sweep == _FIRST_SWEEPS:
            yield None
        active = moving
    yield points()


_U = 2.0**-53  # the unit roundoff of a double
_NEAREST = 1 + _U == 1 < 1 + 3 * _U == 1 + 4 * _U  # _float_discs' bound assumes it


def _float_discs(f: Poly, seeds):
    """(q, centers, radii), R_i >= n |W_i| 2^q, for root_discs' first discs from
    one double-precision evaluation of the squarefree monic f, or None where
    floats cannot bound them (Rump, Acta Numerica 19, 2010).  Centers: the seeds
    on the grid 2^-q, q = 52 - e, 2^(e-1) <= max |Re|, |Im| < 2^e; in w = z / 2^e
    they and their differences are exact, f(z) = 2^(ne) g(w), c_k = num_k
    2^((k-n)e) / den is rounded once (u = 2^-53), and n |W_i| 2^q = n |g(w_i) /
    d_i| 2^52, d_i = prod_(j != i) (w_i - w_j).  In Horner's v_i, c_k w^k meets k
    complex products (sqrt 5 u each, 2u fused) and k + 1 sums (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 5.1): |g(w_i)| <= |v_i| + E_i, E_i =
    16 (n + 2) u M_i, M_i = sum (k + 1) |c_k| r^k, r = |w_i| (1 + 4u).  The float
    d^_i of d_i has n - 2 rounded products, so |d_i| >= lo_i = |d^_i| (1 - 8 (n + 2)
    u), and 1 + 16u covers the last roundings of R_i = ceil(n (|v_i| + E_i) / lo_i
    (1 + 16u) 2^52) + 1.  Nonzero c_k are normal and c_0 != 0, so E_i covers
    underflowing Horner products (< 2^-1073 each); lo_i > 2^(2n - 1000) keeps
    the partial products of d^_i above 2^-1000.
    """
    n, num, den = int(f.degree), f.num, f.den
    e = frexp(max(max(abs(z.real), abs(z.imag)) for z in seeds))[1]
    if (q := 52 - e) < 0 or not num[0] or not _NEAREST:
        return None
    Z = [(round(ldexp(z.real, q)), round(ldexp(z.imag, q))) for z in seeds]
    w, R = [complex(x * 2.0**-52, y * 2.0**-52) for x, y in Z], []
    try:
        c = [(x << max(0, (k - n) * e)) / (den << max(0, (n - k) * e)) for k, x in enumerate(num)]
        if any(x and abs(ck) < float_info.min for x, ck in zip(num, c)):
            return None
        b, floor = [(k + 1) * abs(ck) for k, ck in enumerate(c)], 2.0 ** (2 * n - 1000)
        for i, wi in enumerate(w):
            v, M, r = complex(c[n]), b[n], abs(wi) * (1 + 4 * _U)
            for k in range(n - 1, -1, -1):
                v, M = v * wi + c[k], M * r + b[k]
            lo = abs(prod(wi - wj for j, wj in enumerate(w) if j != i)) * (1 - 8 * (n + 2) * _U)
            t = n * (abs(v) + 16 * (n + 2) * _U * M) / lo * (1 + 16 * _U) * 2.0**52
            if not (lo > floor and t < inf):
                return None
            R.append(ceil(t) + 1)
    except (OverflowError, ZeroDivisionError):
        return None
    return q, tuple(Z), tuple(R)


def _ring_error(n: int, mod: float, xi) -> UnitCircleRootError:
    """1/xi is printed as a float's :.6g would print it, but exactly: as a float it
    underflows to 0 past xi = 2^1075."""
    lo = Context(prec=6).divide(Decimal(xi.denominator), Decimal(xi.numerator)).normalize()
    e = lo.adjusted()
    lo = f"{lo:f}" if e >= -4 else f"{lo.scaleb(-e):f}e{e:03d}"
    return UnitCircleRootError(
        f"a root of a degree-{n} squarefree factor of det pi has modulus {mod:.6g}, inside "
        f"the boundary ring [1/xi, 1] = [{lo}, 1]; the theory assumes no such roots"
    )


def _scaled_float(x: int, bits: int) -> float:
    """x / 2^bits to the nearest float, +-inf past the float range."""
    try:
        return x / 2**bits
    except OverflowError:
        return inf if x > 0 else -inf


def _place(p: int, Z, R, xi: Fraction, exact=True):
    """(all disjoint, sides) of the discs D(Z_i, R_i) over 2^p: a side is True in
    |z| < 1/xi - _TOL, False in |z| > 1 + _TOL and None if undecided.  In an
    exact step an isolated disc within the ring between them raises
    UnitCircleRootError.  lo = ln/ld and hi = hn/hd from the integer ratios of
    xi and _TOL, so the tests run on integers: a center c has |c| < lo S - r iff
    ln S - r ld > 0 and |c|^2 ld^2 < (ln S - r ld)^2, S = 2^p.  The tests are
    homogeneous in each pair, so neither is reduced."""
    (xn, xd), (tn, td) = xi.as_integer_ratio(), _TOL.as_integer_ratio()
    ln, ld, hn, hd, n = xd * td - tn * xn, xn * td, td + tn, td, len(Z)
    alone = [True] * n  # D(z_i, R_i) meets no other disc
    for i, ((a, b), ri) in enumerate(zip(Z, R)):
        for j in range(i):
            if (a - Z[j][0]) ** 2 + (b - Z[j][1]) ** 2 <= (ri + R[j]) ** 2:
                alone[i] = alone[j] = False
    inside, lS, hS = [], ln << p, hn << p
    for (a, b), r, isolated in zip(Z, R, alone):
        c2, t = a * a + b * b, lS - r * ld
        side = True if t > 0 and c2 * ld * ld < t * t else (
            False if c2 * hd * hd > (hS + r * hd) ** 2 else None)
        if (exact and side is None and isolated and (lS + r * ld) ** 2 <= c2 * ld * ld
                and c2 * hd * hd <= (hS - r * hd) ** 2):  # a root in the ring
            raise _ring_error(n, abs(complex(a / (1 << p), b / (1 << p))), xi)
        inside.append(side)
    return all(alone), inside


def _float_yield(f: Poly, seeds, xi: Fraction):
    """root_discs' first yield from the float discs of the monic f at seeds
    (`_float_discs`) if they are disjoint and each on one side of the ring, else None."""
    if disc := _float_discs(f, seeds):
        alone, inside = _place(*disc, xi, exact=False)
        if alone and None not in inside:
            return *disc, tuple(inside)
    return None


def classify_roots(p: Poly, xi=1) -> RootClassification:
    """Classify roots of p relative to the unit circle and growth bound xi.

    Factors z^m out exactly.  The first pass certifies the monic f = p / z^m
    itself: `_float_discs` on `_start_points`' first yield, if its points have
    stopped by then.  If its n discs are disjoint and each on one side of the
    ring, each holds exactly one root counted with multiplicity (Carstensen),
    which proves f squarefree: discs is ((f, 1, that yield),), and neither the
    mod-p proof nor Yun runs.  Otherwise `squarefree_factors` splits f into
    prod a_k^k; a squarefree f resumes the first pass's sweeps, and each Yun
    factor of any other is seeded afresh.  The first certified yield of
    root_discs on each a_k puts every root, k times, in |z| < 1/xi - _TOL or
    in |z| > 1 + _TOL, or raises UnitCircleRootError for a root in the ring
    between them: the discs decide each side, no float comparison does.  The
    roots listed are the disc centers, and `discs` keeps each a_k with its
    yield for the split.
    """
    xi = rat(xi)
    if p.is_zero():
        raise ValueError("cannot classify roots of the zero polynomial")
    if xi < 1:
        raise ValueError("xi must be at least 1")
    m = p.zero_multiplicity()
    stable, unstable, discs = [], [], []
    if (f := p.shift(-m)).degree:
        a = f.monic()
        points = _start_points(a)
        if (seeds := next(points)) and (disc := _float_yield(a, seeds, xi)):
            discs.append((a, 1, disc))
        elif len(factors := squarefree_factors(f)) == 1:  # the first pass's seeds go on
            discs.append((a, 1, next(root_discs(a, xi, seeds=next(points, seeds)))))
        else:
            discs += [(b, k, next(root_discs(b, xi)))
                      for k, b in enumerate(factors, 1) if not b.is_constant()]
    for a, k, (bits, Z, R, inside) in discs:
        for (re, im), ins in zip(Z, inside):
            (unstable if ins else stable).extend(
                [complex(_scaled_float(re, bits), _scaled_float(im, bits))] * k)
    key = lambda c: (c.real, c.imag)
    return RootClassification(
        m, tuple(sorted(stable, key=key)), tuple(sorted(unstable, key=key)), xi,
        tuple(discs),
    )


def _radius(n: int, g: tuple, q: int) -> int:
    """ceil(n |g| / q), g Gaussian: the least r with r^2 q^2 >= n^2 |g|^2, by one isqrt."""
    r2 = -(-n * n * (g[0] ** 2 + g[1] ** 2) // (q * q))
    r = isqrt(r2)
    return r + (r * r < r2)


def root_discs(f: Poly, xi=1, start=None, seeds=None):
    """Certified root discs of a squarefree monic f, refined on demand.

    Every root lies in some disc D(z_i, n |W_i|), W_i = f(z_i) / prod_(j != i)
    (z_i - z_j), and k discs meeting no other hold exactly k roots (Carstensen,
    Numer. Math. 59, 1991).  A call without start first tries `_float_discs` at
    seeds (by default the last yield of `_start_points(f)`); where floats cannot
    decide, or a disc meets the ring, Weierstrass steps z_i -= W_i on fixed-point
    Gaussian integers refine the seeds, the precision about doubling per step,
    with radii ceil(n |W_i| 2^bits) (`_radius`).  Each yield (bits, centers,
    radii, inside) is a proof: disjoint discs over 2^bits, inside[i] True in |z|
    < 1/xi - _TOL and False in |z| > 1 + _TOL (`_place`).  An exact step raises
    UnitCircleRootError for a disc within the ring between them (or meeting it
    at the precision cap), FactorizationError at the cap.  start = (bits,
    centers) of a yield resumes the exact steps after it.
    """
    n, num, den = int(f.degree), f.num, f.den
    xi = rat(xi)
    # 1024 bits plus about twice Mahler's bound on -log2 of the root separation
    cap = 1024 + 2 * n * (max(abs(c) for c in num).bit_length() + n.bit_length())
    if start is None:
        if seeds is None:
            *_, seeds = _start_points(f)
        if disc := _float_yield(f, seeds, xi):
            yield disc
            start = disc[:2]
    p, Z = (start[0], list(start[1])) if start else (64, [])
    # distinct nudges along 1 + 2i break the symmetry of real or conjugate
    # starting points, from which the iteration could not reach the roots
    for k, r in enumerate([] if start else seeds):
        e = (-1) ** k * (k + 1) << 16
        Z.append((round(Fraction(r.real) * 2**p) + e, round(Fraction(r.imag) * 2**p) + 2 * e))
    for step in range(cap):  # a cluster of roots costs about a step per bit
        S = 1 << p
        for i in range(n):  # the corrections need distinct points
            while Z[i] in Z[:i]:
                Z[i] = (Z[i][0], Z[i][1] + 1)
        top = [num[k] << p * (n - k) for k in range(n)]  # S^(n-k) num_k
        V, R = [], []
        for i, (x, y) in enumerate(Z):
            ar, ai = num[n], 0  # S^n num(z_i), by Horner on Gaussian integers
            for k in range(n - 1, -1, -1):
                ar, ai = ar * x - ai * y + top[k], ar * y + ai * x
            dr, di = 1, 0  # S^(n-1) prod_(j != i) (z_i - z_j)
            for j, (u, v) in enumerate(Z):
                if j != i:
                    u, v = x - u, y - v
                    dr, di = dr * u - di * v, dr * v + di * u
            g, q = (ar * dr + ai * di, ai * dr - ar * di), den * (dr * dr + di * di)
            V.append((g, q))  # W_i S = (ar + i ai) / (den (dr + i di)) = g / q
            R.append(_radius(n, g, q))
        alone, inside = _place(p, Z, R, xi)
        if alone and None not in inside and not (start and step == 0):
            yield p, tuple(Z), tuple(R), tuple(inside)
        if p >= cap or step == cap - 1:
            break
        # one more step; the error about squares, so the precision doubles
        p2 = max(p, min(cap, 2 * (p - max(R).bit_length()) + 32))
        sh = p2 - p
        for i, ((a, b), (g, q)) in enumerate(zip(Z, V)):
            Z[i] = ((a << sh) - (g[0] << sh) // q, (b << sh) - (g[1] << sh) // q)
        p = p2
    if None in inside:
        a, b = Z[inside.index(None)]
        raise _ring_error(n, abs(complex(a / S, b / S)), xi)
    raise FactorizationError(
        f"cannot certify the stable/unstable split of a degree-{n} factor of phi "
        f"at {p} bits"
    )


def _unstable_part(f: Poly, xi, certified) -> Poly:
    """The monic factor U of a squarefree monic f = num/den over its roots in |z| < 1/xi.

    certified is a first yield of root_discs(f, xi), refined further only on
    demand.  den U is integral (Gauss's lemma), and minus its z^(m-1)
    coefficient, the sum of the m unstable roots, lies within sum r_i of the
    real part s of the sum of the m inside discs' centers c_i: a den s farther
    than den sum r_i from Z proves U irrational, with no product formed.  Otherwise
    E = prod(2 + r_i) - 2^m bounds |U - U~|_1 for U~ = prod (z - c_i), as
    |c_i| < 1, so if den E < 1/2 a rational U is U~ rounded onto (1/den) Z[z];
    a coefficient farther than E from there, or f mod U^ != 0, proves U irrational.
    A divisor U^ is a product of m roots of f, and sep^m > 3 m E (sep a lower
    bound on the root gaps; |U^ - U|_1 <= 3 m E) leaves only the unstable ones.
    """
    n, den = int(f.degree), f.den
    for bits, Z, R, inside in chain([certified], root_discs(f, xi, certified[:2])):
        unstable = [i for i in range(n) if inside[i]]
        m = len(unstable)
        if m in (0, n):
            return f if m else Poly.const(1)
        S = 1 << bits
        T = den * sum(Z[i][0] for i in unstable)  # den sum c_i, over S
        if abs(T - (2 * T + S) // (2 * S) * S) <= den * sum(R[i] for i in unstable):
            Sm, E = S**m, prod(2 * S + R[i] for i in unstable) - (2 * S) ** m  # E over S^m
            sep = min(
                isqrt((Z[i][0] - Z[j][0]) ** 2 + (Z[i][1] - Z[j][1]) ** 2) - R[i] - R[j]
                for i in range(n) for j in range(i)
            )
            if 2 * den * E >= Sm or sep <= 0 or sep**m <= 3 * m * E:
                continue
            coeffs = [(1, 0)]  # S^m U~, lowest first
            for zr, zi in (Z[i] for i in unstable):
                coeffs = [  # times (S z - Z_i)
                    (S * a - zr * c + zi * d, S * b - zr * d - zi * c)
                    for (a, b), (c, d) in zip([(0, 0)] + coeffs, coeffs + [(0, 0)])
                ]
            ks = [(2 * den * re + Sm) // (2 * Sm) for re, _ in coeffs]
            if all(abs(im) <= E and abs(den * re - k * Sm) <= den * E
                   for (re, im), k in zip(coeffs, ks)):
                U = Poly([Fraction(k, den) for k in ks])
                if (f % U).is_zero():
                    return U
        raise FactorizationError(
            f"{m} of the {n} distinct roots of phi lie inside |z| < 1/xi and "
            f"{n - m} outside |z| > 1, but their product is not rational; "
            "no exact rational stable/unstable split exists"
        )


def factor_stable_unstable(det: Poly, J1: int, roots: RootClassification):
    """det pi = D S with D = z^G U and S = det pi / D.

    roots classifies det pi: G is its multiplicity of z = 0 and U = prod U_k^k the
    unstable factor of det pi / z^G, U_k split off its Yun factor a_k from the discs
    that classified it.  So D holds every root at zero or in |z| < 1/xi, S the rest.
    """
    if J1 < 0:
        raise UnsupportedModelError(
            f"J1 = {J1} < 0: the system is dated strictly in the past; "
            "causal factorization is not defined for this configuration"
        )
    D = Poly.monomial(roots.zero_multiplicity)
    for a, k, disc in roots.discs:
        D = prod([_unstable_part(a, roots.xi, disc)] * k, start=D)
    return D, det.exact_div(D)
