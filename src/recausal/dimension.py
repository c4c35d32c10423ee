"""Solution-set dimension reports and the genericity probe.

A model's derived artifacts are its own stages (`REModel.pi`, ..., `REModel.cs`).
The constraint systems read only its stage `local`, the Smith data at z = 0, from
the row reduction `canon.local_form`, so validate, analyze, constraints and
probe run no global `smith_form`; only `recausal smith` runs it.  A plain system
prints the C, D and rhs its rank is counted on, which at some g_i > J1 need not
have the solution set of the global Smith form's.  The predetermined system is
the stage `causal`, the causal rows at z = 0, whose solution set no factorization
changes; the solve stacks the same rows, and their count of heads, on those of the
unstable factor, so on a predetermined model analyze's free_parameters and its
indeterminacy_dim differ only by the cancellation of the unstable roots.
`dimension_report` (with `check_rank_bounds`, which reads the model's plain system
and m_stack) and `genericity_probe` read only ranks, which the systems count on
integer rows: they form no Fraction product, C or kernel.  Only `analyze` and
`probe` import this module, and with it `recausal.constraints`.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .canon import RedundantEquationsError
from .constraints import check_rank_bounds
from .exactalg import _rmat
from .model import REModel

_MAGNITUDE = Fraction(1, 64)  # a perturbation moves a nonzero entry of an A_kh by at most this


def dimension_report(m: REModel) -> dict:
    """The count analyze prints: free parameters, ranks, bounds and the case used."""
    cs, g, J1 = m.cs, m.local.g, m.pi.J1
    bounds = check_rank_bounds(m)
    if m.H == 0:
        special = "H=0"
    elif all(gi == 0 for gi in g):
        special = "g=0"
    elif len(set(g)) == 1 and g[0] <= J1:
        special = "g=const"
    elif all(gi <= J1 for gi in g):
        special = "g<=J1"
    else:
        special = "general"
    return {
        "free_parameters": cs.kernel_dim * m.q,
        "kernel_dim": cs.kernel_dim,
        "rank_w": cs.rank_w,
        "upper_bound": bounds["upper_bound"],
        "lower_bound": bounds["lower_bound"],
        "special_case_used": special,
        "distinctness_guaranteed": len(m.roots.unstable_roots) == 0,
        "flavor": cs.flavor,
        "effective_unknowns": cs.effective_unknowns,
        "bounds": bounds,
    }


def _perturb(m: REModel, rng: random.Random) -> REModel:
    """Structure-preserving perturbation: nonzero entries of A_kh jitter, zeros stay."""
    def jitter(e):
        return e + Fraction(rng.randint(-8, 8), 8) * _MAGNITUDE if e else e

    return m._replace(A={key: _rmat([[jitter(e) for e in row] for row in mat.entries])
                         for key, mat in m.A.items()})


def genericity_probe(m: REModel, trials: int = 10, seed: int = 0) -> dict:
    """Recompute rank_w at randomly perturbed parameter points.

    Reports the modal rank over the trials and flags the supplied point when
    its rank differs from the mode.  A perturbed point with a singular pi
    counts as a failed trial; any other error propagates.
    """
    rng, ranks, failures = random.Random(seed), [], 0
    for _ in range(trials):
        try:
            ranks.append(_perturb(m, rng).cs.rank_w)
        except RedundantEquationsError:
            failures += 1
    rep = {"base_rank": m.cs.rank_w, "modal_rank": None, "trials": trials,
           "failed_trials": failures, "non_generic": False}
    if ranks:
        modal = max(set(ranks), key=lambda r: (ranks.count(r), -r))
        rep.update(modal_rank=modal, non_generic=m.cs.rank_w != modal,
                   rank_histogram={str(r): ranks.count(r) for r in sorted(set(ranks))})
    return rep
