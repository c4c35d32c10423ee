"""Seeded model generators for the ladder and planted workloads.

Model i of a workload depends only on (workload, seed, i), so a run that
stops early and a run that goes further see the same prefix. Nothing here
imports recausal: the program under test receives only the JSON text.

A model is a dict: s, K, H, q, gamma, A {(k, h): s x s Fraction rows},
wold [s x q Fraction rows], plus a "props" dict of input properties.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from exact import bit_size, det, matmul_poly, poly_det, partial_multiplicities, trim, zero_multiplicity

# (s, K, H) ladder, smallest first; each rung runs four variants (see ladder_model).
LADDER = [(2, 1, 1), (2, 2, 2), (3, 1, 1), (3, 2, 2), (4, 1, 1), (4, 2, 1), (5, 1, 1)]
# planted sizes (s, H)
PLANTED = [(3, 2), (4, 1), (4, 2), (5, 1), (5, 2)]
UNSTABLE_ROOTS = [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3), Fraction(2, 5)]
STABLE_ROOTS = [Fraction(2), Fraction(-2), Fraction(3, 2), Fraction(-3, 2), Fraction(5, 2), Fraction(3)]


def rand_frac(rng, lo=-4, hi=4, maxden=3, nonzero=False):
    while True:
        f = Fraction(rng.randint(lo, hi), rng.randint(1, maxden))
        if f != 0 or not nonzero:
            return f


def rand_matrix(rng, rows, cols, **kw):
    return [[rand_frac(rng, **kw) for _ in range(cols)] for _ in range(rows)]


def is_zero(M):
    return all(x == 0 for row in M for x in row)


def random_gamma(rng, s, H):
    gamma = [0] * (H + 1)
    gamma[0] = 1
    for _ in range(s - 1):
        gamma[rng.randrange(H + 1)] += 1
    return gamma


def build_pi(A, s, K, H):
    """pi(z) = sum_i A*_i z^{J1 - i} with A*_i = sum_k A_{k, k+i}; returns (pi, J1)."""
    stars = {}
    for i in range(-K, H + 1):
        acc = [[Fraction(0)] * s for _ in range(s)]
        for (k, h), mat in A.items():
            if h - k == i:
                acc = [[x + y for x, y in zip(ra, rm)] for ra, rm in zip(acc, mat)]
        if not is_zero(acc):
            stars[i] = acc
    if not stars:
        return None, None
    J1, J0 = max(stars), min(stars)
    pi = [
        [
            [stars[J1 - d][r][c] if (J1 - d) in stars else Fraction(0) for d in range(J1 - J0 + 1)]
            for c in range(s)
        ]
        for r in range(s)
    ]
    pi = [[trim(e) for e in row] for row in pi]
    return pi, J1


def _props(model, pi, J1, det_pi, g=None):
    G = zero_multiplicity(det_pi)
    return {
        "s": model["s"], "K": model["K"], "H": model["H"],
        "flavor": "predetermined" if any(model["gamma"][1:]) else "plain",
        "deg_det_pi": len(det_pi) - 1,
        "det_pi_bits": bit_size(det_pi),
        "g": g if g is not None else partial_multiplicities(pi, model["s"], G),
        "J1": J1,
    }


def ladder_model(seed, i):
    """Generic random model in the style of the test suite's random corpus.

    Entries and the sparsity of the inner A_kh are random; the corner
    matrices are invertible so that deg det pi = s (K + J1), which sets most
    of the cost, is the same for every draw of a rung and variant. Variants
    cycle through plain / predetermined, each with J1 = H (A_{0,H}
    invertible, so pi(0) is too) and J1 = H - 1 (A_{0,H} absent, A_{1,H}
    invertible). A_{K,0} is the top coefficient of pi.
    """
    s, K, H = LADDER[i % len(LADDER)]
    variant = (i // len(LADDER)) % 4
    predetermined, j1_below_h = variant % 2 == 1, variant >= 2
    rng = random.Random(f"ladder-{seed}-{i}")
    q = rng.randint(1, s)
    gamma = random_gamma(rng, s, H) if predetermined else [s] + [0] * H
    while True:
        A = {}
        for k in range(K + 1):
            for h in range(H + 1):
                if rng.random() < 0.75:
                    mat = rand_matrix(rng, s, s)
                    if not is_zero(mat):
                        A[(k, h)] = mat
        A[(K, 0)] = rand_invertible(rng, s)
        if j1_below_h:
            A.pop((0, H), None)
            A[(1, H)] = rand_invertible(rng, s)
        else:
            A[(0, H)] = rand_invertible(rng, s)
        wold = [rand_matrix(rng, s, q) for _ in range(rng.randint(1, 2))]
        if is_zero(wold[0]):
            continue
        pi, J1 = build_pi(A, s, K, H)
        if J1 != H - j1_below_h:  # A_{0,H-1} cancelled A_{1,H}
            continue
        det_pi = poly_det(pi)
        if not det_pi:  # singular pi: redundant equations
            continue
        model = {"s": s, "K": K, "H": H, "q": q, "gamma": gamma, "A": A, "wold": wold}
        model["props"] = _props(model, pi, J1, det_pi)
        return model


def rand_invertible(rng, n):
    while True:
        m = rand_matrix(rng, n, n)
        if det(m) != 0:
            return m


def _shears(rng, n, ops):
    """Product of elementary shears I + c(z) e_ab with deg c = 1: unimodular."""
    U = [[[Fraction(1)] if a == b else [] for b in range(n)] for a in range(n)]
    for _ in range(ops):
        a = rng.randrange(n)
        b = rng.choice([x for x in range(n) if x != a])
        E = [[[Fraction(1)] if x == y else [] for y in range(n)] for x in range(n)]
        E[a][b] = [rand_frac(rng, -2, 2, 2), rand_frac(rng, -2, 2, 2, nonzero=True)]
        U = matmul_poly(U, E)
    return U


def planted_model(seed, i):
    """Model realized from pi = U diag(z^g_i phi_i) V with known g and roots.

    Each phi_i is one rational linear factor: one root inside the unit
    circle, the other s - 1 outside, none near the ring. g = (0, ..., 0, g_s)
    with g_s = 1 or g_s = H + 1 > J1; g_0 = 0 keeps pi(0) != 0, so J1 = H.
    Variants cycle through plain / predetermined, each with both g_s. The
    realization is A_{0,h} = A*_h and A_{k,0} = A*_{-k}.
    """
    s, H = PLANTED[i % len(PLANTED)]
    variant = (i // len(PLANTED)) % 4
    predetermined, g_excess = variant % 2 == 1, variant >= 2
    rng = random.Random(f"planted-{seed}-{i}")
    g = [0] * (s - 1) + [H + 1 if g_excess else 1]
    roots = [rng.choice(UNSTABLE_ROOTS)] + [rng.choice(STABLE_ROOTS) for _ in range(s - 1)]
    rng.shuffle(roots)
    diag = [
        [([Fraction(0)] * g[a] + [-roots[a], Fraction(1)]) if a == b else [] for b in range(s)]
        for a in range(s)
    ]
    pi = matmul_poly(matmul_poly(_shears(rng, s, 2), diag), _shears(rng, s, 2))
    D = max(len(e) - 1 for row in pi for e in row)
    K = max(D - H, 0)
    A = {}
    for d in range(D + 1):
        i_star = H - d  # pi = sum_i A*_i z^{H - i}
        mat = [[e[d] if d < len(e) else Fraction(0) for e in row] for row in pi]
        if is_zero(mat):
            continue
        if i_star >= 0:
            A[(0, i_star)] = mat
        else:
            A[(-i_star, 0)] = mat
    q = rng.randint(1, s)
    while True:
        w0 = rand_matrix(rng, s, q)
        if not is_zero(w0):
            break
    gamma = random_gamma(rng, s, H) if predetermined else [s] + [0] * H
    model = {"s": s, "K": K, "H": H, "q": q, "gamma": gamma, "A": A, "wold": [w0]}
    det_pi = poly_det(pi)
    model["props"] = _props(model, pi, H, det_pi, g=sorted(g))
    model["planted"] = {"g": sorted(g), "n_unstable": sum(1 for r in roots if abs(r) < 1)}
    return model


def _fs(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def to_json(model):
    return json.dumps({
        "s": model["s"], "K": model["K"], "H": model["H"], "q": model["q"],
        "gamma": model["gamma"],
        "A": [
            {"k": k, "h": h, "matrix": [[_fs(x) for x in row] for row in mat]}
            for (k, h), mat in sorted(model["A"].items())
        ],
        "wold": [[[_fs(x) for x in row] for row in w] for w in model["wold"]],
    })


GENERATORS = {"ladder": ladder_model, "planted": planted_model}
