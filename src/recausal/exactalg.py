"""Exact rational scalar, polynomial, and matrix arithmetic.

Scalars and matrix entries are `fractions.Fraction`.  A `Poly` holds integer
numerators `num` over one positive common denominator `den`, in lowest terms
with trailing zeros trimmed, so its arithmetic runs on Python integers with
one normalisation per result.  `Poly.addmul(f, g)` is self + f*g as one such
result, accumulated on the numerators over their common denominator; `Poly`
products and the Smith elimination's row operations use it.  Every matrix
product of the commands is `_int_product` on integer coefficient lists or `_combine`
on integer rows: a `PolyMatrix` multiplies only by a scalar, and a `RationalMatrix`
only holds entries.  `determinant` (Bareiss, O(n^3)),
`det_adjugate` (Faddeev-LeVerrier, O(n^4)) and `_int_product` run on integer
matrices L*M(2^b) (Kronecker substitution) and read their results off
base-2^b digits; `det_adjugate` keeps adj M as those digits, integer
coefficient lists over one denominator, and builds no Poly per entry.
`determinant` takes M's `_numerators` (pi's: `PiPolynomial.numerators`).
Every elimination runs on integer rows: the linear solves (`_solve_rows`), the
constraint ranks and their kernels (`_echelon_kernel`) share one fraction-free
Gauss-Jordan elimination (`_row_echelon`), and no Fraction matrix enters one.
Rows are scaled by the lcm of their denominators (`_scaled`, the one helper every
Fraction row outside the A_kh and the w_j goes through) and kept primitive, and
each result entry is one division at the end; the reduced echelon form, and so
every result, is that of a Fraction elimination of any positive multiples of the
rows.  Every operation is exact; no floating point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

NEG_INF = float("-inf")  # degree of the zero polynomial
_NIL, _ONE = Fraction(0), Fraction(1)  # shared zero entries, and the one of a kernel vector


def rat(x) -> Fraction:
    """Coerce ints, strings like "p/q", and Fractions to Fraction; a decimal exponent past
    4300 in magnitude, for which Fraction computes 10**exp, is a ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        p, slash, q = x.partition("/")  # ASCII "p" and "p/q" by int(), the rest by Fraction
        if x.isascii() and p.removeprefix("-").isdigit() and (q.isdigit() or not slash):
            return Fraction(int(p), int(q or 1))
        e = re.search(r"E([-+]?\d+(_\d+)*)\s*\Z", x, re.IGNORECASE)  # Fraction's exponent
        if e and abs(int(e[1])) > 4300:
            raise ValueError(f"decimal exponent {e[1]} exceeds the limit (4300)")
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to rational")


def rat_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat_rows(m: "RationalMatrix") -> list:
    """The matrix as rows of rat_str, as model files and reports write it."""
    return [[rat_str(e) for e in row] for row in m.entries]


class Poly:
    """Univariate polynomial over the rationals: sum(num[i] z^i) / den."""

    __slots__ = ("num", "den", "_coeffs")

    def __init__(self, coeffs=()):
        self._set(*_scaled([c if isinstance(c, (int, Fraction)) else rat(c) for c in coeffs]))

    def _set(self, num: list, den: int):
        # trusted: integer numerators over den > 0; trims and reduces in place
        while num and not num[-1]:
            num.pop()
        if not num:
            den = 1
        elif den != 1:
            g = den
            for n in num:
                g = gcd(g, n)
                if g == 1:
                    break
            if g != 1:
                num = [n // g for n in num]
                den //= g
        self.num = tuple(num)
        self.den = den
        self._coeffs = None

    @staticmethod
    def const(c) -> "Poly":
        return Poly.monomial(0, c)

    @staticmethod
    def monomial(deg: int, c=1) -> "Poly":
        assert deg >= 0
        return Poly([0] * deg + [c])

    @property
    def coeffs(self) -> tuple:
        """Coefficients as Fractions, lowest first (built on first use)."""
        cs = self._coeffs
        if cs is None:
            d = self.den
            cs = self._coeffs = tuple(Fraction(n, d) for n in self.num)
        return cs

    @property
    def degree(self):
        return len(self.num) - 1 if self.num else NEG_INF

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.num):
            return Fraction(self.num[i], self.den)
        return _NIL

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return _poly([-n for n in self.num], self.den)

    def __add__(self, other):
        other = _as_poly(other)
        a, b, da, db = self.num, other.num, self.den, other.den
        if da != db:
            g = gcd(da, db)
            ma, mb = db // g, da // g
            a = [n * ma for n in a]
            b = [n * mb for n in b]
            da *= ma
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, n in enumerate(b):
            out[i] += n
        return _poly(out, da)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _poly([n * p for n in self.num], self.den * other.denominator)
        return _ZERO.addmul(self, _as_poly(other))

    def addmul(self, f: "Poly", g: "Poly") -> "Poly":
        """self + f * g, accumulated on integer numerators and normalised once."""
        a, b = f.num, g.num
        if not a or not b:
            return self
        if len(a) < len(b):
            a, b = b, a
        lb, dp, ds = len(b), f.den * g.den, self.den
        k = gcd(dp, ds)  # over the common denominator ds * dp / k
        ms, mp = dp // k, ds // k
        out = [n * ms for n in self.num] if ms != 1 else list(self.num)
        out += [0] * (len(a) + lb - 1 - len(out))
        for i, x in enumerate(a):
            if x:
                x *= mp
                out[i : i + lb] = [o + x * y for o, y in zip(out[i : i + lb], b)]
        return _poly(out, ds * ms)

    def divmod(self, other: "Poly"):
        """Exact polynomial long division: (quotient, remainder).

        Integer numerators over one running denominator D: each step cancels
        the top coefficient r by R <- t*R - s*B, D <- t*D, s/t = r/lead(B).
        """
        other = _as_poly(other)
        B = other.num
        if not B:
            raise ZeroDivisionError("polynomial division by zero")
        db = len(B) - 1
        if len(self.num) - 1 < db:
            return Poly(), self
        if db == 0:
            return self * Fraction(other.den, B[0]), Poly()
        lead = B[-1]
        R = list(self.num)
        D = 1
        quo = []  # (s, D after the step), highest degree first
        for i in range(len(R) - db - 1, -1, -1):
            top, s = R[i + db], 0
            if top:
                g = gcd(top, lead)
                s, t = top // g, lead // g
                if t < 0:
                    s, t = -s, -t
                if t != 1:
                    R[: i + db] = [n * t for n in R[: i + db]]
                    D *= t
                R[i : i + db] = [n - s * b for n, b in zip(R[i : i + db], B)]
            quo.append((s, D))
        den = D * self.den
        q = [s * (D // d) * other.den for s, d in reversed(quo)]
        return _poly(q, den), _poly(R[:db], den)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("polynomial division is not exact")
        return q

    def monic(self) -> "Poly":
        num = self.num
        if not num or num[-1] == self.den:
            return self
        lead = num[-1]
        if lead < 0:
            return _poly([-n for n in num], -lead)
        return _poly(list(num), lead)

    def shift(self, k: int) -> "Poly":
        """Multiply by z^k; a negative k divides by z^-k, which must be exact."""
        if self.is_zero():
            return self
        if k < 0:
            if any(self.num[:-k]):
                raise ValueError(f"polynomial division by z^{-k} is not exact")
            return _poly(list(self.num[-k:]), self.den)
        return _poly([0] * k + list(self.num), self.den)

    def derivative(self) -> "Poly":
        return _poly([k * n for k, n in enumerate(self.num)][1:], self.den)

    def zero_multiplicity(self) -> int:
        """Order of the root z = 0."""
        if self.is_zero():
            raise ValueError("zero polynomial has no root multiplicity")
        m = 0
        while self.num[m] == 0:
            m += 1
        return m

    def bit_size(self) -> int:
        """Sum over coefficients of numerator + denominator bits, lowest terms."""
        d = self.den
        total = 0
        for n in self.num:
            g = gcd(n, d)
            total += (n // g).bit_length() + (d // g).bit_length()
        return total

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(rat_str(c))
            elif i == 1:
                terms.append(f"{rat_str(c)}*z")
            else:
                terms.append(f"{rat_str(c)}*z^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def _poly(num: list, den: int = 1) -> Poly:
    """Poly from integer numerators over den > 0, trimmed and reduced."""
    p = Poly.__new__(Poly)
    p._set(num, den)
    return p


_ZERO, _UNIT = _poly([]), _poly([1])  # shared entries of zero and identity matrices


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to polynomial")


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    a, b = _as_poly(a), _as_poly(b)
    while not b.is_zero():
        # monic normalization keeps coefficient growth in check
        a, b = b, (a % b).monic()
    return a.monic()


_P = (1 << 30) - 35  # the largest prime below 2^30: residues are one-digit ints


def _coprime_to_derivative_mod_p(num) -> bool:
    """gcd(F, F') = 1 over GF(_P) for the integer polynomial F = sum num[k] z^k."""
    p = _P
    a = [c % p for c in reversed(num)]  # highest first
    b = [k * c % p for k, c in zip(range(len(num) - 1, 0, -1), a)]
    while b:
        if not b[0]:
            b.pop(0)
            continue
        inv, lb = pow(b[0], -1, p), len(b)
        for i in range(len(a) - lb + 1):  # a mod b by long division
            if q := a[i] * inv % p:
                a[i : i + lb] = [(x - q * y) % p for x, y in zip(a[i : i + lb], b)]
        a, b = b, a[len(a) - lb + 1 :]
    return len(a) == 1


def squarefree_factors(f: Poly) -> list:
    """Yun's squarefree decomposition [a_1, a_2, ...] of a nonzero f.

    The a_k are monic, squarefree and pairwise coprime (some may be 1), and
    f = lead(f) prod a_k^k.  An f with gcd(f, f') = 1 over GF(_P), _P not
    dividing its leading numerator, is squarefree, and its answer is [monic f]
    ([] for a constant) without Yun: a repeated factor h^2 of f over Q may be
    taken in Z[z] (Gauss's lemma), lead(h) divides that numerator, so h keeps
    its degree mod _P and divides both f and f' there.  Yun runs when the
    check fails, as it does on every f with a repeated root.  `classify_roots`
    calls it only where its first disjoint float discs fail: they prove a
    squarefree det pi / z^G without either check.
    """
    if f.num and f.num[-1] % _P and _coprime_to_derivative_mod_p(f.num):
        return [f.monic()] if f.degree else []
    b = f.monic()
    a = poly_gcd(b, c := b.derivative())
    b, c = b.exact_div(a), c.exact_div(a)
    out = []
    while not b.is_constant():
        d = c - b.derivative()
        out.append(poly_gcd(b, d))
        b, c = b.exact_div(out[-1]), d.exact_div(out[-1])
    return out


class PolyMatrix:
    """Matrix of Poly entries, row-major; cols is the column count of one with no rows."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols: int = 0):
        self.entries = [[_as_poly(e) for e in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else cols
        assert all(len(row) == self.cols for row in self.entries)

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __mul__(self, c):
        """Every entry times the scalar or Poly c."""
        return PolyMatrix([[e * c for e in row] for row in self.entries], self.cols)

    def __repr__(self):
        return f"PolyMatrix({self.entries!r})"


def det_adjugate(M: PolyMatrix):
    """(det M, (A, L)) with M * adj M = det(M) * I and adj M = A / L, by `_det_adjugate`."""
    return _det_adjugate(M)


def _pack(N: list):
    """(A, b): A = N(2^b) for a square matrix N of integer coefficient lists.  Each
    coefficient of det N and of its (n-1)-minors is at most B = prod_i max(1, sum_j
    |N_ij|_1) (|p|_1: the sum of the absolute coefficients), so for b = bitlen(B) + 2
    `_unpack` reads them off the values at z = 2^b as signed base-2^b digits
    (Kronecker substitution; von zur Gathen & Gerhard, 8.4)."""
    if any(len(row) != len(N) for row in N):
        raise ValueError("a determinant needs a square matrix")
    b = prod(max(1, sum(sum(map(abs, f)) for f in row)) for row in N).bit_length() + 2
    return _at(N, b), b


def _numerators(rows: list):
    """(N, L): N[i][j] the list of integer coefficients of L times the Poly rows[i][j],
    lowest first, and L the lcm of their denominators."""
    L = lcm(*(e.den for row in rows for e in row))
    return [[list(e.num) if e.den == L else [c * (L // e.den) for c in e.num] for e in row]
            for row in rows], L


def _at(N: list, b: int) -> list:
    """The values at z = 2^b of a matrix of integer coefficient lists."""
    return [[sum(c << (b * i) for i, c in enumerate(f)) for f in row] for row in N]


def _int_product(A: list, B: list, cols: int) -> list:
    """A * B for matrices of integer coefficient lists, lowest first, B with `cols` columns: one
    product of their values at z = 2^b as in `_pack`.  Every coefficient of A * B is at most
    sum_ik |A_ik|_1 times the largest coefficient of B, below 2^(b-1)."""
    top = max((abs(c) for row in B for f in row for c in f), default=0)
    b = (top * sum(sum(map(abs, f)) for row in A for f in row)).bit_length() + 1
    at = list(zip(*_at(B, b))) or [()] * cols
    return [[_unpack(sum(map(mul, row, col)), b) for col in at] for row in _at(A, b)]


def determinant(N: list, L: int) -> Poly:
    """det M for M = N / L, N[i][j] the integer coefficients of entry (i, j) of L M, lowest
    first (`_numerators`' pair), by one fraction-free Bareiss elimination on the `_pack`
    matrix: step k sets a_ij <- (p_k a_ij - a_ik a_kj) / p_(k-1) below and right of the
    pivot p_k, an exact division (Math. Comp. 22, 1968).  A zero pivot swaps in a lower
    row and flips the sign; a column with no nonzero entry left means det M = 0."""
    A, b = _pack(N)
    n, sign, prev = len(A), 1, 1
    for k in range(n - 1):
        if not A[k][k]:
            r = next((r for r in range(k + 1, n) if A[r][k]), None)
            if r is None:
                return Poly()
            A[k], A[r], sign = A[r], A[k], -sign
        p, pk = A[k][k], A[k]
        for row in A[k + 1 :]:
            row[k + 1 :] = [(p * x - row[k] * y) // prev for x, y in zip(row[k + 1 :], pk[k + 1 :])]
        prev = p
    return _poly(_unpack(sign * A[-1][-1] if n else 1, b), L**n)


def _det_adjugate(M: PolyMatrix):
    """(det M, (A, L)) with M * adj M = det(M) * I and adj M = A / L, A[i][j] the integer
    coefficients of entry (i, j), lowest first, over one L > 0, the pair in lowest terms:
    the digits and L^(n-1) divided by one gcd.  One Faddeev-LeVerrier pass
    N_k = A N_{k-1} + c_k I, c_k = -tr(A N_{k-1}) / k, on the `_pack` matrix A.
    The c_k are the coefficients of det(x I - A), integers, so the division by
    k is exact, and A N_{n-1} = -c_n I by Cayley-Hamilton."""
    N, L = _numerators(M.entries)
    A, b = _pack(N)
    n = len(A)
    if n == 0:
        return Poly.const(1), ([], 1)
    N = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n):
        N = [[sum(map(mul, row, col)) for col in zip(*N)] for row in A]
        c = -sum(N[i][i] for i in range(n)) // k
        for i in range(n):
            N[i][i] += c
    # det A = (-1)^n c_n with -c_n = (A N_{n-1})_00, and adj A = (-1)^(n-1) N_{n-1}
    sign = 1 if n % 2 else -1
    det = sign * sum(map(mul, A[0], (row[0] for row in N)))
    adj = [[_unpack(sign * v, b) for v in row] for row in N]
    g = gcd(L ** (n - 1), *(c for row in adj for f in row for c in f))
    adj = [[[c // g for c in f] for f in row] for row in adj]
    return _poly(_unpack(det, b), L**n), (adj, L ** (n - 1) // g)


def _unpack(v: int, b: int) -> list:
    """Signed base-2^b digits of v, lowest first, each in [-2^(b-1), 2^(b-1))."""
    digits, half = [], 1 << (b - 1)
    while v:
        digits.append(d := ((v + half) & ((1 << b) - 1)) - half)
        v = (v - d) >> b
    return digits


class RationalMatrix:
    """Matrix of Fraction entries, row-major; it holds entries, with no arithmetic."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        self.entries = [[rat(e) for e in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        assert all(len(row) == self.cols for row in self.entries)

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.entries == other.entries

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.entries for e in row)

    def __repr__(self):
        return f"RationalMatrix({self.entries!r})"


def _rmat(entries, cols: int = 0) -> RationalMatrix:
    """RationalMatrix from fresh row lists whose entries are already Fractions;
    cols is the column count of a matrix with no rows."""
    m = RationalMatrix.__new__(RationalMatrix)
    m.entries = entries
    m.rows = len(entries)
    m.cols = len(entries[0]) if entries else cols
    return m


def _scaled(xs: list) -> tuple:
    """(ints, L): the rationals xs times L, the lcm of their denominators, as integers."""
    L = lcm(*[x.denominator for x in xs])
    return [x.numerator * (L // x.denominator) for x in xs], L


def _combine(terms, width: int = 0) -> list:
    """The sum of f * row over the (f, row) in terms, on integers, skipping f = 0; a row
    shorter than the longest (or than width) counts as padded with zeros."""
    acc = [0] * width
    for f, row in terms:
        if f:
            acc += [0] * (len(row) - len(acc))
            acc[: len(row)] = [a + f * y for a, y in zip(acc, row)]
    return acc


def _row_echelon(entries, ncols):
    """In-place fraction-free Gauss-Jordan on integer rows; returns the pivot columns.

    The pivot of each column is its smallest nonzero entry in magnitude, ties
    by lowest row index.  Every other row r with f = r[c] != 0 becomes
    (pv r - f p) / content for the pivot row p and pv = p[c], so rows stay
    primitive integer vectors (Bareiss, Math. Comp. 22, 1968).  Row r then
    holds a nonzero multiple of row r of the reduced echelon form, which the
    callers divide out once per entry.
    """
    nrows = len(entries)
    pivots = []
    for c in range(ncols):
        t = len(pivots)
        nz = [(abs(entries[r][c]), r) for r in range(t, nrows) if entries[r][c]]
        if not nz:
            continue
        r = min(nz)[1]
        entries[t], entries[r] = entries[r], entries[t]
        prow = entries[t]
        pv = prow[c]
        for r2, row2 in enumerate(entries):
            f = row2[c]
            if f and r2 != t:
                k = gcd(pv, f)
                a, b = pv // k, f // k
                row2 = [a * x - b * y for x, y in zip(row2, prow)]
                k = gcd(*row2)
                entries[r2] = [x // k for x in row2] if k > 1 else row2
        pivots.append(c)
        if len(pivots) == nrows:
            break
    return pivots


def _echelon_kernel(entries, pivots, ncols):
    """Right-kernel basis of the first ncols columns of a reduced echelon form."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [_NIL] * ncols
        v[fc] = _ONE
        for row, pc in zip(entries, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(v)
    return basis


def _solve_rows(aug: list, n: int, q: int):
    """(X, kernel of M) for M X = B on integer rows [M | B], M n and B q wide, aug eliminated in
    place: X a particular solution as n rows of q Fractions, None if inconsistent.  No pivot
    falls in the B columns, so the kernel is that of M alone."""
    pivots = _row_echelon(aug, n)
    kern = _echelon_kernel(aug, pivots, n)
    # consistency: the rows below the pivots are zero in M, so must be in B
    if any(any(row[n:]) for row in aug[len(pivots):]):
        return None, kern
    part = [[_NIL] * q for _ in range(n)]
    for row, pc in zip(aug, pivots):
        part[pc] = [Fraction(x, row[pc]) for x in row[n:]]
    return part, kern
