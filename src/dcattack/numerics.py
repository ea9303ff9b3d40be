"""Centralized numeric policy.

Every tolerance used anywhere in the package lives in this one record so that
runs are reproducible and tolerances can be overridden in a single place (the
CLI maps --tol-feas onto ``feas_tol``).
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NumericPolicy:
    # feasibility of inequality systems: A p + B d + c <= feas_tol counts as inside
    feas_tol: float = 1e-8
    # Farkas certificate residuals: ||A^T y||_inf for a normalized ray
    cert_tol: float = 1e-9
    # simplex pivot / reduced-cost zero threshold
    lp_tol: float = 1e-9
    # relative inflation applied to an attack before the certification oracle runs
    cert_inflation: float = 1e-4
    # defense verification samples stay strictly inside: ||d||^2 <= t * (1 - this)
    ball_shrink: float = 1e-6
    # simplex iteration cap multiplier: limit = lp_iter_factor * (rows + cols)
    lp_iter_factor: int = 60
    # refactorize the basis inverse every this many pivots
    lp_refactor_every: int = 64

    def with_feas_tol(self, tol: float) -> "NumericPolicy":
        return replace(self, feas_tol=float(tol))


DEFAULT_POLICY = NumericPolicy()
