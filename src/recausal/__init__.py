"""Exact-arithmetic analysis of linear multivariate rational-expectations models.

The pipeline: parse a model, assemble the structural difference equation's
polynomial matrix pi(z), take its Smith data at z = 0 (the global Smith
canonical form only when det pi(0) = 0), derive the linear constraint system
on the revision processes, report the dimension of the set of causal
stationary solutions, and construct/verify explicit solutions by cancelling
unstable determinant roots.
"""

from .canon import (
    LocalSmith,
    RedundantEquationsError,
    RootClassification,
    SmithForm,
    UnitCircleRootError,
    classify_roots,
    smith_form,
)
from .constraints import (
    ConstraintSystem,
    build_plain_system,
    build_predetermined_system,
    build_selectors,
    check_rank_bounds,
    frak_p_blocks,
    zeta_coefficients,
)
from .dimension import DimensionReport, dimension_report, genericity_probe, run_pipeline
from .exactalg import (
    Poly,
    PolyMatrix,
    RationalMatrix,
    det_adjugate,
    poly_gcd,
    pseudo_inverse_columns,
    rank_kernel,
)
from .model import (
    ModelFormatError,
    PiPolynomial,
    REModel,
    build_pi,
    parse_model,
    serialize_model,
    validate_semantics,
)
from .solver import (
    FactorizationError,
    SolutionReport,
    UnsupportedModelError,
    factor_stable_unstable,
    simulate,
    solve_causal,
    transfer_series,
    verify_solution,
)

__version__ = "0.1.0"
