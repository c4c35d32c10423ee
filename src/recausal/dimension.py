"""Solution-set dimension reports and the genericity probe.

`Pipeline` is the one place a model's derived artifacts are computed.  The
constraint systems read only its stage `local`, the Smith data at z = 0, from
the row reduction `canon.local_form`, so validate, analyze and constraints
run the global `smith_form` only for a predetermined model with G > 0, whose
system can depend on the factors; a plain system prints the C, D and rhs its
rank is counted on, which at some g_i > J1 need not have the solution set of
the global Smith form's.  Otherwise only `recausal smith` runs it.  The
solve reads only `pi`, adj pi (`adj`), zeta(z) (`zc`) and `split`, the
det pi = D S certified on the discs of `roots`, and no Smith form, so
analyze's free_parameters may differ from its indeterminacy_dim on a
predetermined model with G > 0 or J1 < H.  `dimension_report` and
`genericity_probe` read only ranks, which the systems count on integer rows:
they form no Fraction product, C, kernel or pseudo-inverse, and E(0) only for
a predetermined model.  `DimensionReport` is a named tuple.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from .canon import RedundantEquationsError, classify_roots, factor_stable_unstable
from .canon import local_form, smith_form
from .constraints import (
    build_m_stack,
    build_plain_system,
    build_predetermined_system,
    check_rank_bounds,
    frak_p_blocks,
    zeta_coefficients,
)
from .exactalg import _rmat, det_adjugate
from .model import REModel, build_pi


def _stage(build):
    """A Pipeline attribute computed on first use and memoized on the model."""
    name = build.__name__

    def get(self):
        memo = self.model.artifacts
        if name not in memo:
            memo[name] = build(self)
        return memo[name]

    return property(get, doc=build.__doc__)


class Pipeline:
    """View of one model's derived artifacts: pi(z) -> Smith data -> constraints.

    Every stage is computed on first use and kept in the model's own memo, so
    all Pipelines of one model share one pi, one Smith form, one root
    classification, one split and one constraint system.  The memo refers to
    no Pipeline and no artifact refers to the model, so a dropped model is freed
    at once.  A stage that raises is not memoized; it raises again on the next use.
    """

    __slots__ = ("model",)

    def __init__(self, model: REModel):
        self.model = model

    @_stage
    def pi(self):
        """pi(z) with its determinant."""
        return build_pi(self.model)

    @_stage
    def adj(self):
        """adj pi(z), pi adj = det pi I: read only by the solve after its split."""
        return det_adjugate(self.pi.pi)[1]

    @_stage
    def sf(self):
        """Smith form of pi(z): read by `recausal smith` and by `local` on a
        predetermined model with G > 0, never by solve, verify or simulate."""
        return smith_form(self.pi.pi)

    @_stage
    def local(self):
        """g, P^-1 and E(0) of pi = P diag(z^g) E, the data the constraints read, by
        `local_form`; a predetermined model with G > 0, whose system depends on
        the factors, reads the global Smith form's."""
        pp, m = self.pi, self.model
        if not (m.predetermined and pp.det[0] == 0):
            return local_form(pp.pi, pp.det.zero_multiplicity())
        # frak_p_blocks reads P^-1 below z^(H + max(g - J1, 0))
        return self.sf.local(m.H + max(max(self.sf.g) - pp.J1, 0))

    @_stage
    def roots(self):
        """Roots of det pi(z) relative to the unit circle and xi."""
        return classify_roots(self.pi.det, self.model.xi)

    @_stage
    def split(self):
        """(D, S) of det pi = D S, D = z^G U: read only by the solve."""
        return factor_stable_unstable(self.pi.det, self.pi.J1, self.roots)

    @_stage
    def zc(self):
        """zeta(z) as a polynomial matrix: read only by the solve after its split."""
        return zeta_coefficients(self.model)

    @_stage
    def pb(self):
        return frak_p_blocks(self.local, self.pi.J1, self.model.H)

    @_stage
    def m_stack(self):
        """The m_i of zeta(z) stacked on integer rows (N, L), as many as p_stack
        has column blocks, H + max(g - J1, 0): the systems and bounds read it."""
        return build_m_stack(self.model, self.pb[0].cols // self.model.s)

    @_stage
    def plain_cs(self):
        """The plain system, on the row reduction's data at G > 0 too."""
        return build_plain_system(self.model, self.m_stack, self.pb)

    @_stage
    def cs(self):
        """The model's constraint system, in its own flavor."""
        if not self.model.predetermined:
            return self.plain_cs
        return build_predetermined_system(self.model, self.m_stack, self.pb, self.local)


def run_pipeline(m: REModel) -> Pipeline:
    """The model's pipeline; its stages run on first use, once per model."""
    return Pipeline(m)


DimensionReport = namedtuple("DimensionReport", (
    "free_parameters kernel_dim rank_w upper_bound lower_bound special_case_used "
    "distinctness_guaranteed flavor effective_unknowns bounds"))


def dimension_report(m: REModel) -> DimensionReport:
    pipe = run_pipeline(m)
    cs = pipe.cs
    g = pipe.local.g
    bounds = check_rank_bounds(pipe.plain_cs, pipe.local, pipe.m_stack, pipe.pi.J1, m.H, m.s)
    if m.H == 0:
        special = "H=0"
    elif all(gi == 0 for gi in g):
        special = "g=0"
    elif len(set(g)) == 1 and g[0] <= pipe.pi.J1:
        special = "g=const"
    elif all(gi <= pipe.pi.J1 for gi in g):
        special = "g<=J1"
    else:
        special = "general"
    distinct = len(pipe.roots.unstable_roots) == 0
    return DimensionReport(
        free_parameters=cs.kernel_dim * m.q,
        kernel_dim=cs.kernel_dim,
        rank_w=cs.rank_w,
        upper_bound=bounds["upper_bound"],
        lower_bound=bounds["lower_bound"],
        special_case_used=special,
        distinctness_guaranteed=distinct,
        flavor=cs.flavor,
        effective_unknowns=cs.effective_unknowns,
        bounds=bounds,
    )


def _perturb(m: REModel, rng: random.Random, magnitude=Fraction(1, 64)) -> REModel:
    """Structure-preserving perturbation: nonzero entries of A_kh jitter, zeros stay."""
    def jitter(e):
        return e + Fraction(rng.randint(-8, 8), 8) * magnitude if e else e

    return m._replace(A={key: _rmat([[jitter(e) for e in row] for row in mat.entries])
                         for key, mat in m.A.items()})


def genericity_probe(m: REModel, trials: int = 10, seed: int = 0) -> dict:
    """Recompute rank_w at randomly perturbed parameter points.

    Reports the modal rank over the trials and flags the supplied point when
    its rank differs from the mode.  A perturbed point with a singular pi
    counts as a failed trial; any other error propagates.
    """
    base, rng = run_pipeline(m), random.Random(seed)
    ranks, failures = [], 0
    for _ in range(trials):
        try:
            ranks.append(run_pipeline(_perturb(m, rng)).cs.rank_w)
        except RedundantEquationsError:
            failures += 1
    rep = {"base_rank": base.cs.rank_w, "modal_rank": None, "trials": trials,
           "failed_trials": failures, "non_generic": False}
    if ranks:
        modal = max(set(ranks), key=lambda r: (ranks.count(r), -r))
        rep.update(modal_rank=modal, non_generic=base.cs.rank_w != modal,
                   rank_histogram={str(r): ranks.count(r) for r in sorted(set(ranks))})
    return rep
