"""Standard-form revised simplex, phase 2 only, from a caller's feasible basis.

Kernel for every linear program in the package, and only that (the row
geometry, radii and crossing points, lives in `dc_model`):

    min c^T x  s.t.  A_eq x = b_eq,  x >= 0.

Dense numpy throughout: every LP is posed in a wide form (below) whose
basis has n_reduced + 1 rows, 192 on a 960-bus network whose reduced
system has 3,264 rows, where an explicit basis inverse with periodic
refactorization is fast enough and easy to audit.

Every LP the package poses has a primal feasible basis by construction, so
`lp_solve(prob, basis)` takes one from its caller and runs phase 2 from it:
there are no artificial columns and no infeasible verdict.  The result is
OPTIMAL, with the equality duals y and an optimal `warm`, or UNBOUNDED,
with a re-checked ray.  Every nonbasic column sits at 0, so the kernel keeps
only the basic values.  The pivot rules are fixed on purpose, because the
attack's vertices (and so its bounds) follow from them:
  - Dantzig pricing: the most negative reduced cost enters, the lowest
    column index on ties;
  - the ratio test takes every row within 1e-9 (absolute plus relative) of
    the minimum ratio as a tie, then the largest |w|;
  - after 30 pivots without a 1e-12 relative decrease, Bland's rule (lowest
    entering index, lowest basis index leaving) until the objective moves;
  - phase 2 runs on b_eq + B u, x_B shifted by a fixed u in [1, 2]^M *
    _SHIFT * b_scale (b_scale = 1 + ||b_eq||_inf; Wolfe, "A technique for
    resolving degeneracy in linear programming", 1963), so the highly
    degenerate vertices of the attack's Farkas polytope do not stall it; at
    the end b_eq is restored, x_B and y come afresh from the final basis's
    inverse (refactorized when pivots edited it, since eta updates drift),
    and if x_B is then below -FEAS_TOL * b_scale the LP is solved again from
    the caller's basis without the shift;
  - the inverse is refactorized every _REFACTOR_EVERY pivots, where a
    caller's deadline is checked;
  - _ITER_FACTOR * (N + 2 M) + 200 pricing passes at most;
  - every unbounded ray is re-checked.

The reduced polytope A p <= rhs is tall: m rows against n_reduced columns
(408 against 23 on a 120-bus network), and a simplex basis is as large as the
row count.  So every LP is posed in the wide multiplier form
min w^T mu s.t. [A^T; r^T] mu = e, mu >= 0, whose basis has only
n_reduced + 1 rows.  There are two such forms.  The Farkas polytope P
(`dc_model.FeasibilityMatrices.polytope`, r = -c) carries the hot path:
the max-margin nominal LP and every step of the attack (`attack._p_lp`).
The feasibility probe's Q (`check_feasible`, r = 1) is a fallback only:
for the max-margin LP when the LP over P has no optimum or there is no
movable unit, and for certification when an attack's own multiplier
fails.  Primal points are read off the equality duals y and
re-checked against the rows; Farkas rays are the multipliers themselves.

Start basis.  The basis comes in one of two kinds.  A bare array of M
column indices is accepted only when its indices are in range and
distinct, B = A_eq[:, basis] is nonsingular (its inverse taken afresh), and
x_B = B^-1 b_eq is >= -FEAS_TOL * b_scale with B x_B = b_eq to the same
tolerance.  An optimal solve's own `LpResult.warm`, re-entered on the very
A_eq and b_eq arrays it was solved on (`is`; `LpProblem.with_objective`
keeps them), needs only the x_B checks with its carried inverse,
inv(A_eq[:, basis]) to the bit; when they fail, or on any other arrays, it
is re-entered as its bare basis, and its inverse is not read.  A basis that
fails a check raises SolverError naming the check.  The callers' starts: a
crash basis of the unit-bound rows (`FeasibilityMatrices.crash_basis`) or,
for the attack's P-LPs, an earlier optimum over the same rows (see
`attack`).
"""

import functools
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DeadlineSignal, SolverError

# A x <= b + FEAS_TOL counts as satisfied, here and in dc_model, attack and
# defense; a Farkas ray normalized to ||y||_1 = 1 has ||A^T y||_inf <=
# _CERT_TOL; _LP_TOL is the reduced-cost zero; _SHIFT scales the phase-2
# perturbation, and the pivot rules use the rest
FEAS_TOL = 1e-8
_CERT_TOL = 1e-9
_LP_TOL = 1e-9
_REFACTOR_EVERY = 64
_ITER_FACTOR = 60
_SHIFT = 1e-7

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


def _finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite entries in {name}")
    return arr


@dataclass
class LpProblem:
    """min c^T x  s.t.  A_eq x = b_eq,  x >= 0."""

    c: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray

    def __post_init__(self):
        self.c = _finite("c", np.asarray(self.c, dtype=float).ravel())
        self.A_eq = _finite("A_eq", np.ascontiguousarray(self.A_eq, dtype=float))
        self.b_eq = _finite("b_eq", np.asarray(self.b_eq, dtype=float).ravel())
        if self.A_eq.shape != (self.b_eq.size, self.c.size):
            raise ValueError(f"A_eq has shape {self.A_eq.shape}, expected "
                             f"{(self.b_eq.size, self.c.size)}")

    def with_objective(self, c):
        """The very same rows under another objective; only c is checked."""
        c = _finite("c", np.asarray(c, dtype=float).ravel())
        if c.size != self.c.size:
            raise ValueError(f"c has {c.size} entries, expected {self.c.size}")
        out = object.__new__(type(self))
        out.c, out.A_eq, out.b_eq = c, self.A_eq, self.b_eq
        return out


class WarmStart(NamedTuple):
    """An optimal basis with inv(A_eq[:, basis]) from its final
    refactorization, to the bit, and the (A_eq, b_eq) arrays solved."""

    basis: np.ndarray
    B_inv: np.ndarray
    rows: tuple = None


@dataclass
class LpResult:
    status: str
    x: np.ndarray = None
    objective: float = None
    y: np.ndarray = None            # equality duals B^-T c_B at an optimum
    ray: np.ndarray = None
    iterations: int = 0
    warm: WarmStart = None          # an optimum's start for a later `lp_solve`


class _Simplex:
    """Revised simplex on A x = b, x >= 0, entered at a feasible basis."""

    def __init__(self, prob, basis, deadline=None):
        self.A, self.b = prob.A_eq, prob.b_eq
        self.M, self.N = self.A.shape
        self.b_scale = 1.0 + float(abs(self.b).max(initial=0.0))
        self.iterations = 0
        self.pivots_since_refactor = 0
        self.deadline = deadline
        self._start(basis)

    def _start(self, basis):
        """Enter at the caller's basis, bare or as a `WarmStart` (checks in
        the module docstring); A_eq[:, basis] is kept as `Bmat`.  Raises
        SolverError naming the check a bare basis fails."""
        basis, B_inv, rows = basis if isinstance(basis, WarmStart) \
            else (basis, None, None)
        basis = np.array(basis, dtype=int).ravel()     # a copy: pivots edit it
        # an own inverse is copied too: the eta updates edit it in place
        if rows and rows[0] is self.A and rows[1] is self.b and not self._enter(
                basis, np.array(B_inv, dtype=float), self.A[:, basis]):
            return
        if basis.size != self.M:
            raise SolverError(f"start basis has {basis.size} columns, "
                              f"expected {self.M}")
        if self.M and (basis.min() < 0 or basis.max() >= self.N):
            raise SolverError(f"start basis holds a column outside [0, {self.N})")
        if np.unique(basis).size != self.M:
            raise SolverError("start basis repeats a column")
        Bmat = self.A[:, basis]
        try:
            B_inv = np.linalg.inv(Bmat)
        except np.linalg.LinAlgError:
            raise SolverError("start basis is singular")
        failed = self._enter(basis, B_inv, Bmat)
        if failed:
            raise SolverError(f"start basis fails its {failed} check")

    def _enter(self, basis, B_inv, Bmat):
        """Take the basis when x_B = B_inv b_eq passes the feasibility and
        residual checks of the module docstring; else name the failed one."""
        x_B = B_inv @ self.b
        tol = FEAS_TOL * self.b_scale
        # written so that a NaN or an inf in x_B fails too
        if not x_B.min(initial=0.0) >= -tol:
            return "x_B >= 0"
        if not abs(Bmat @ x_B - self.b).max(initial=0.0) <= tol:
            return "B x_B = b_eq"
        self.basis, self.B_inv, self.xB, self.Bmat = basis, B_inv, x_B, Bmat
        return None

    def _refactor(self):
        try:
            self.B_inv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular basis during refactorization: {exc}")
        self.xB = self.B_inv @ self.b
        self.pivots_since_refactor = 0

    def _ratio(self, w, bland):
        """Leaving basis position for the entering column B^-1 a_j = w, and
        its step; (inf, None) when nothing blocks.  Only the blocking
        positions, w > 1e-10, are divided."""
        pos = (w > 1e-10).nonzero()[0]
        if not pos.size:
            return np.inf, None
        t = self.xB[pos] / w[pos]
        # a negative ratio (x_B a rounding below 0) counts as a zero step
        t_min = max(float(t[t.argmin()]), 0.0)
        # tie set within an absolute-plus-relative window
        cand = pos[t <= t_min + 1e-9 * (1.0 + t_min)]
        if bland:
            r = int(cand[np.argmin(self.basis[cand])])
        elif cand.size == 1:
            r = int(cand[0])
        else:
            r = int(cand[np.argmax(np.abs(w[cand]))])
        return max(0.0, float(self.xB[r] / w[r])), r

    def _pivot(self, j, t, r, w):
        if abs(w[r]) < 1e-11:
            raise SolverError(f"pivot element {w[r]:.3e} too small")
        leave = int(self.basis[r])
        self.xB -= t * w
        self.xB[r] = t
        self.basis[r] = j
        # eta update of the explicit inverse
        Binv_r = self.B_inv[r] / w[r]
        self.B_inv -= np.multiply.outer(w, Binv_r)
        self.B_inv[r] = Binv_r
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= _REFACTOR_EVERY:
            self._refactor()
            if self.deadline is not None and time.monotonic() >= self.deadline:
                raise DeadlineSignal(
                    f"deadline passed after {self.iterations} pricing passes")
        return leave

    def run(self, c):
        """Minimize c^T x from the current basis; returns (status, y, extra)
        with extra = (j, w) for an unbounded entering column."""
        iter_cap = _ITER_FACTOR * (self.N + 2 * self.M) + 200
        A, AT, N = self.A, self.A.T, self.N
        # reduced costs of basic columns read +inf, so they never enter
        price = c.copy()
        price[self.basis] = np.inf
        stall, bland = 0, False
        cB = c[self.basis]
        z = float(cB @ self.xB)
        while True:
            if self.iterations > iter_cap:
                raise SolverError(
                    f"iteration cap {iter_cap} exceeded (M={self.M}, N={N})")
            self.iterations += 1
            y = self.B_inv.T @ cB
            d = price - AT @ y
            j = int(d.argmin()) if N else 0
            if not (N and d[j] < -_LP_TOL):
                return OPTIMAL, y, None
            if bland:
                j = int(np.argmax(d < -_LP_TOL))      # the lowest eligible index
            w = self.B_inv @ A[:, j]
            t, r = self._ratio(w, bland)
            if r is None:
                return UNBOUNDED, y, (j, w)
            leave = self._pivot(j, t, r, w)
            price[j] = np.inf
            price[leave] = c[leave]
            cB[r] = c[j]
            z_new = float(cB @ self.xB)
            if z - z_new > 1e-12 * (1.0 + abs(z)):
                stall, bland = 0, False
            else:
                stall += 1
                if stall >= 30:
                    bland = True
            z = z_new


@functools.lru_cache(maxsize=None)
def _shift(M):
    """Phase 2's shift per unit of b_scale, drawn once per row count."""
    u = np.random.default_rng(0).uniform(1.0, 2.0, M) * _SHIFT
    u.flags.writeable = False
    return u


def lp_solve(prob: LpProblem, basis, deadline=None) -> LpResult:
    """Solve an LpProblem from `basis`, an index array or an `LpResult.warm`
    that passes the start checks (module docstring; SolverError names a
    failed one).  UNBOUNDED results carry a ray x >= 0 with A_eq x = 0 and
    c^T x < 0, OPTIMAL results their equality duals y and `warm`.  Past
    `deadline`, a time.monotonic() value checked every _REFACTOR_EVERY
    pivots, the solve raises DeadlineSignal."""
    if not isinstance(prob, LpProblem):
        raise TypeError("lp_solve expects an LpProblem")
    return _solve(prob, basis, deadline, perturb=True)


def _solve(prob, basis, deadline, perturb):
    sx = _Simplex(prob, basis, deadline)
    if perturb:
        u = _shift(sx.M) * sx.b_scale
        sx.b, sx.xB = sx.b + sx.Bmat @ u, sx.xB + u
    status, y, extra = sx.run(prob.c)
    if status == UNBOUNDED:
        j, w = extra
        ray = np.zeros(sx.N)
        ray[j] = 1.0
        ray[sx.basis] = -w
        eq_resid = float(np.max(np.abs(prob.A_eq @ ray), initial=0.0))
        if eq_resid > 1e-7 * (1.0 + float(np.max(np.abs(ray)))) \
                or prob.c @ ray >= 0:
            raise SolverError("unbounded ray failed verification")
        return LpResult(status=UNBOUNDED, ray=ray, iterations=sx.iterations)

    # x_B afresh from the final basis and the restored b: the per-pivot
    # updates drift, by up to 1e-9 in the row residuals after a long
    # shifted phase 2
    sx.b = prob.b_eq
    if sx.pivots_since_refactor:
        sx._refactor()
    else:
        sx.xB = sx.B_inv @ sx.b
    if perturb and not sx.xB.min(initial=0.0) >= -FEAS_TOL * sx.b_scale:
        return _solve(prob, basis, deadline, perturb=False)
    y = sx.B_inv.T @ prob.c[sx.basis]
    x = np.zeros(sx.N)
    x[sx.basis] = sx.xB
    return LpResult(status=OPTIMAL, x=x, objective=float(prob.c @ x), y=y,
                    iterations=sx.iterations,
                    warm=WarmStart(sx.basis.copy(), sx.B_inv,
                                   (prob.A_eq, prob.b_eq)))


def normalize_farkas_ray(rows, rhs, y):
    """Normalize a Farkas ray of {x : rows x <= rhs} to ||y||_1 = 1 and
    re-verify it from scratch: y >= 0, ||rows^T y||_inf <= _CERT_TOL and
    y @ rhs < 0.  Raises SolverError rather than return an unsound ray."""
    rows = np.asarray(rows, dtype=float)
    rhs = np.asarray(rhs, dtype=float).ravel()
    y = np.maximum(np.asarray(y, dtype=float).ravel(), 0.0)
    total = float(y.sum())
    if total <= 0:
        raise SolverError("degenerate Farkas ray")
    y = y / total
    resid = float(np.max(np.abs(rows.T @ y), initial=0.0))
    value = float(y @ rhs)
    if resid > _CERT_TOL or value >= -_CERT_TOL * 1e-3:
        raise SolverError(
            f"Farkas ray failed re-verification: ||rows^T y||={resid:.2e}, y@rhs={value:.2e}")
    return y


def scaled_tol(rhs):
    """FEAS_TOL (1 + ||rhs||_inf): check_feasible's slack and emptiness bar."""
    return FEAS_TOL * (1.0 + float(np.max(np.abs(rhs), initial=0.0)))


def checked_witness(rows, rhs, x):
    """x, a point read off an LP's duals, once it meets rows x <= rhs to
    `scaled_tol(rhs)`; SolverError with the worst violation otherwise."""
    worst = float(np.max(rows @ x - rhs))
    if worst > scaled_tol(rhs):
        raise SolverError(f"feasibility witness violates a row by {worst:.3e}")
    return x


def check_feasible(rows, rhs, basis):
    """Feasibility of {x : rows @ x <= rhs} with x free, in the wide form

        min rhs^T y  s.t.  rows^T y = 0,  1^T y = 1,  y >= 0,

    whose basis has n + 1 rows however many rows the system has, solved by
    `lp_solve` from `basis`, row indices feasible for those rows (such as
    `FeasibilityMatrices.crash_basis`).  A negative optimum is a Farkas ray.
    Otherwise the equality duals (x, t) solve the dual  max t s.t.
    rows x + t <= rhs, so x is a max-margin witness.

    Returns (True, x, None) with a witness re-checked against rows x <= rhs,
    or (False, None, y) where y is a Farkas ray normalized to ||y||_1 = 1
    satisfying y >= 0, ||rows^T y||_inf <= _CERT_TOL and y @ rhs < 0.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("rows must be 2-D")
    rhs = np.asarray(rhs, dtype=float).ravel()
    m, n = rows.shape
    e = np.zeros(n + 1)
    e[-1] = 1.0
    prob = LpProblem(c=rhs, A_eq=np.vstack([rows.T, np.ones((1, m))]), b_eq=e)
    res = lp_solve(prob, basis)
    if res.status != OPTIMAL:
        raise SolverError(f"feasibility probe returned {res.status}")
    if res.objective < -scaled_tol(rhs):
        return False, None, normalize_farkas_ray(rows, rhs, res.x)
    return True, checked_witness(rows, rhs, res.y[:n]), None
