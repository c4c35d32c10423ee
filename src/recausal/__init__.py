"""Exact-arithmetic analysis of linear multivariate rational-expectations models.

The pipeline: parse a model, assemble the structural difference equation's
polynomial matrix pi(z), take its Smith data at z = 0 (the global Smith
canonical form only when det pi(0) = 0), derive the linear constraint system
on the revision processes, report the dimension of the set of causal
stationary solutions, and construct/verify explicit solutions by cancelling
unstable determinant roots.
"""

__version__ = "0.1.0"
