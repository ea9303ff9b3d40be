"""Standard-form revised simplex with Farkas infeasibility certificates.

Kernel for every linear program in the package, and only that (the row
geometry, radii and crossing points, lives in `dc_model`):

    min c^T x  s.t.  A_eq x = b_eq,  x >= 0.

Dense numpy throughout: the target systems (reduced DC-OPF polytopes) stay
below ~500 rows, where an explicit basis inverse with periodic
refactorization is fast enough and easy to audit.  Certificates are first
class: an INFEASIBLE verdict always carries a Farkas vector y with
A_eq^T y <= 0 and b_eq^T y > 0, re-verified before it is returned.

Every nonbasic column sits at 0, so the kernel keeps only the basic values.
Phase 1 starts from one artificial column per row, sign(b_i) e_i, kept
implicit: it exists only as a basis index >= N (N real columns) and as a
signed unit column when the basis is refactorized.  An artificial never
re-enters once it leaves.  The pivot rules are fixed on purpose, because the
attack's vertices (and so its bounds) follow from them:
  - Dantzig pricing: the most negative reduced cost enters, the lowest
    column index on ties;
  - the ratio test takes every row within 1e-9 (absolute plus relative) of
    the minimum ratio as a tie, prefers a leaving artificial, then the
    largest |w|;
  - in phase 2 a basic artificial is pinned at 0 and blocks either way;
  - after 30 pivots without a 1e-12 relative decrease, Bland's rule (lowest
    entering index, lowest basis index leaving) until the objective moves;
  - a phase 2 that starts with no basic artificial runs on b_eq + B u, x_B
    shifted by a fixed u in [1, 2]^M * _SHIFT * b_scale (b_scale = 1 +
    ||b_eq||_inf; Wolfe, "A technique for resolving degeneracy in linear
    programming", 1963), so the highly degenerate vertices of the attack's
    Farkas polytope do not stall it; at the end b_eq is restored, x_B and y
    come afresh from the final basis's inverse (refactorized when pivots
    edited it, since eta updates drift), and if x_B is then below
    -FEAS_TOL * b_scale the LP is solved again cold without the shift;
  - the inverse is refactorized every _REFACTOR_EVERY pivots, where a
    caller's deadline is checked;
  - _ITER_FACTOR * (N + 2 M) + 200 pricing passes at most;
  - every unbounded ray and every Farkas certificate is re-checked.

The reduced polytope A p <= rhs is tall: m rows against n_reduced columns
(408 against 23 on a 120-bus network), and a simplex basis is as large as the
row count.  So every LP is posed in the wide multiplier form
min w^T mu s.t. [A^T; r^T] mu = e, mu >= 0, whose basis has only
n_reduced + 1 rows: the attack's steps over the Farkas polytope
(`attack._p_lp`), the feasibility probe (`check_feasible`, which also gives
the defense its max-margin warm start) and the nominal dispatch
(`dc_model.solve_dcopf`).  Primal points are read off the equality duals y
and re-checked against the rows; Farkas rays are the multipliers themselves.

Warm start.  `lp_solve(prob, basis)` re-enters the simplex at a caller's
basis: M real column indices, bare or with their inverse as the
`LpResult.warm` of an earlier optimal solve.  It is accepted only when its
indices are in range, B = A_eq[:, basis] is nonsingular (a carried inverse
B_inv stands in for the factorization when ||B_inv B - I||_max <= _INV_TOL,
which also proves the indices distinct; otherwise they are tested), and
x_B = B^-1 b_eq is >= -FEAS_TOL * b_scale with B x_B = b_eq to the same
tolerance.  Then phase 2 starts at once, shifted through the B already
gathered, and no all-artificial start is built; any other basis (None
included) takes the cold two-phase path, so a stale basis costs time, never
a wrong answer.  Re-entered on the very A_eq and b_eq arrays it was solved
on (`is`; `LpProblem.with_objective` keeps them), an `LpResult.warm` skips
the index and inverse checks its solve passed there: a failed inverse check
would only recompute its inverse, inv(A_eq[:, basis]) to the bit.  Its x_B
checks still run, with the full checks behind them, so an inverse edited in
place is proved afresh.  Every hot-path LP starts from a feasible basis: a
crash basis of the unit-bound rows (`dc_model`'s
`FeasibilityMatrices.crash_basis`) or, for the attack's P-LPs, an earlier
optimum over the same rows (see `attack`), so none runs phase 1.
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
# perturbation, _INV_TOL bounds a carried inverse's residual, and the pivot
# rules use the rest
FEAS_TOL = 1e-8
_CERT_TOL = 1e-9
_LP_TOL = 1e-9
_REFACTOR_EVERY = 64
_ITER_FACTOR = 60
_SHIFT = 1e-7
_INV_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
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


@dataclass
class FarkasCertificate:
    """Proof that {x >= 0 : A_eq x = b_eq} is empty: A_eq^T y <= 0 and
    gap = b_eq^T y > 0, while any x of the set would give
    b_eq^T y = x^T A_eq^T y <= 0."""

    y: np.ndarray
    gap: float

    def verify(self, prob):
        """Recompute every claim from scratch; returns (ok, detail dict)."""
        tol = _CERT_TOL * (1.0 + float(np.abs(self.y).sum()))
        h_max = float(np.max(prob.A_eq.T @ self.y, initial=0.0))
        gap = float(prob.b_eq @ self.y)
        return h_max <= tol and gap > 0, {"h_max": h_max, "gap": gap}


@dataclass
class LpResult:
    status: str
    x: np.ndarray = None
    objective: float = None
    y: np.ndarray = None            # equality duals B^-T c_B at an optimum
    certificate: FarkasCertificate = None
    ray: np.ndarray = None
    iterations: int = 0
    phase1_objective: float = 0.0
    # optimal basis (real column indices) and inv(A_eq[:, basis]) from the
    # final refactorization, to the bit; None when an artificial stays basic
    basis: np.ndarray = None
    B_inv: np.ndarray = None
    rows: tuple = None              # the (A_eq, b_eq) arrays solved

    @property
    def warm(self):
        """The basis with its inverse, for a later `lp_solve`, or None."""
        return None if self.basis is None else \
            WarmStart(self.basis, self.B_inv, self.rows)


class WarmStart(NamedTuple):
    """A basis of real columns and its inverse, for `lp_solve`; `rows` holds
    the (A_eq, b_eq) arrays of the solve that returned it."""

    basis: np.ndarray
    B_inv: np.ndarray
    rows: tuple = None


class _Simplex:
    """Two-phase revised simplex on A x = b, x >= 0 with implicit artificial
    columns sign(b_i) e_i, numbered N + i."""

    def __init__(self, prob, deadline=None):
        self.A, self.b = prob.A_eq, prob.b_eq
        self.M, self.N = self.A.shape
        self.b_scale = 1.0 + float(abs(self.b).max(initial=0.0))
        self.pinned = False                         # phase 2: artificials at 0
        self.iterations = 0
        self.pivots_since_refactor = 0
        self.deadline = deadline

    def cold_start(self):
        """Phase 1's all-artificial basis, built only on the cold path."""
        self.sign = np.where(self.b >= 0, 1.0, -1.0)
        self.basis = np.arange(self.N, self.N + self.M)
        self.art = np.ones(self.M, dtype=bool)      # basis position holds an artificial
        self.n_art = self.M                         # basic artificials
        self.B_inv = np.diag(self.sign)
        self.xB = np.abs(self.b)

    def warm_start(self, basis):
        """Re-enter at a caller's basis of real columns, bare or as a
        `WarmStart` with its inverse (acceptance rules in the module
        docstring).  An accepted basis leaves no artificial, so phase 2 can
        run at once; a rejected one returns False, sets nothing, and the
        caller runs `cold_start`.  A_eq[:, basis] is kept as `Bmat`."""
        basis, B_inv, rows = basis if isinstance(basis, WarmStart) \
            else (basis, None, None)
        basis = np.array(basis, dtype=int).ravel()     # a copy: pivots edit it
        # a carried inverse is copied too: the eta updates edit it in place
        if rows and rows[0] is self.A and rows[1] is self.b and self._enter(
                basis, np.array(B_inv, dtype=float), self.A[:, basis]):
            return True
        if basis.size != self.M or \
                (self.M and (basis.min() < 0 or basis.max() >= self.N)):
            return False
        Bmat = self.A[:, basis]
        if np.shape(B_inv) == (self.M, self.M) and abs(
                B_inv @ Bmat - np.eye(self.M)).max(initial=0.0) <= _INV_TOL:
            B_inv = np.array(B_inv, dtype=float)
        elif np.unique(basis).size != self.M:
            return False
        else:
            try:
                B_inv = np.linalg.inv(Bmat)
            except np.linalg.LinAlgError:
                return False
        return self._enter(basis, B_inv, Bmat)

    def _enter(self, basis, B_inv, Bmat):
        """Take the basis when x_B = B_inv b_eq passes the feasibility and
        residual checks of the module docstring; else False."""
        x_B = B_inv @ self.b
        tol = FEAS_TOL * self.b_scale
        # written so that a NaN or an inf in x_B fails too
        if not (x_B.min(initial=0.0) >= -tol
                and abs(Bmat @ x_B - self.b).max(initial=0.0) <= tol):
            return False
        self.basis, self.B_inv, self.xB, self.Bmat = basis, B_inv, x_B, Bmat
        self.art = np.zeros(self.M, dtype=bool)
        self.n_art = 0
        return True

    def _refactor(self):
        if self.n_art:
            Bmat = np.zeros((self.M, self.M))
            real = ~self.art
            Bmat[:, real] = self.A[:, self.basis[real]]
            rows = self.basis[self.art] - self.N
            Bmat[rows, self.art] = self.sign[rows]
        else:
            Bmat = self.A[:, self.basis]
        try:
            self.B_inv = np.linalg.inv(Bmat)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular basis during refactorization: {exc}")
        self.xB = self.B_inv @ self.b
        self.pivots_since_refactor = 0

    def _ratio(self, w, bland):
        """Leaving basis position for the entering column B^-1 a_j = w, and
        its step; (inf, None) when nothing blocks.  Only the blocking
        positions are divided: w > 1e-10, and in phase 2 a basic artificial
        with w < -1e-10."""
        block = w > 1e-10
        if self.pinned and self.n_art:
            block |= (w < -1e-10) & self.art
        pos = block.nonzero()[0]
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
            arts = self.art[cand]
            pool = cand[arts] if arts.any() else cand
            r = int(pool[np.argmax(np.abs(w[pool]))])
        return max(0.0, float(self.xB[r] / w[r])), r

    def _pivot(self, j, t, r, w):
        if abs(w[r]) < 1e-11:
            raise SolverError(f"pivot element {w[r]:.3e} too small")
        leave = int(self.basis[r])
        self.xB -= t * w
        self.xB[r] = t
        self.basis[r] = j
        if self.art[r]:
            self.art[r] = False
            self.n_art -= 1
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

    def run_phase(self, cost):
        """Minimize cost (N real entries, then M artificial ones) from the
        current basis; returns (status, y, extra) with extra = (j, w) for an
        unbounded entering column."""
        iter_cap = _ITER_FACTOR * (self.N + 2 * self.M) + 200
        A, AT, N = self.A, self.A.T, self.N
        c = cost[:N]
        # reduced costs of basic columns read +inf, so they never enter
        price = c.copy()
        price[self.basis[~self.art]] = np.inf
        stall, bland = 0, False
        cB = cost[self.basis]
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
            if leave < N:
                price[leave] = c[leave]
            cB[r] = cost[j]
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


def lp_solve(prob: LpProblem, basis=None, deadline=None) -> LpResult:
    """Solve an LpProblem; INFEASIBLE results carry a verified FarkasCertificate,
    UNBOUNDED results carry a ray x >= 0 with A_eq x = 0 and c^T x < 0,
    OPTIMAL results carry their equality duals y, basis and its inverse.  A
    given `basis` (an index array or `LpResult.warm`) skips phase 1 when it
    passes the warm-start checks (module docstring) and is ignored
    otherwise; an `LpResult.warm` on its own A_eq and b_eq arrays needs only
    its x_B checks.  Past `deadline`, a time.monotonic() value checked every
    _REFACTOR_EVERY pivots, the solve raises DeadlineSignal."""
    if not isinstance(prob, LpProblem):
        raise TypeError("lp_solve expects an LpProblem")
    return _solve(prob, basis, deadline, perturb=True)


def _solve(prob, basis, deadline, perturb):
    sx = _Simplex(prob, deadline)
    N, M = sx.N, sx.M

    z1 = 0.0
    warm = basis is not None and sx.warm_start(basis)
    if not warm:
        sx.cold_start()
        status, y, _ = sx.run_phase(np.concatenate([np.zeros(N), np.ones(M)]))
        if status != OPTIMAL:
            raise SolverError("phase 1 cannot be unbounded; numerical failure")
        z1 = float(sx.xB[sx.art].sum())
        if z1 > FEAS_TOL * sx.b_scale:
            cert = FarkasCertificate(y=y, gap=float(prob.b_eq @ y))
            ok, detail = cert.verify(prob)
            if not ok:
                raise SolverError(
                    f"phase-1 Farkas certificate failed verification: {detail}")
            return LpResult(status=INFEASIBLE, certificate=cert,
                            iterations=sx.iterations, phase1_objective=z1)
        sx.pinned = True

    perturb = perturb and not sx.n_art
    if perturb:
        u = _shift(M) * sx.b_scale
        Bmat = sx.Bmat if warm else sx.A[:, sx.basis]
        sx.b, sx.xB = sx.b + Bmat @ u, sx.xB + u
    cost = np.concatenate([prob.c, np.zeros(M)])
    status, y, extra = sx.run_phase(cost)
    if status == UNBOUNDED:
        j, w = extra
        ray = np.zeros(N)
        ray[j] = 1.0
        real = ~sx.art
        ray[sx.basis[real]] = -w[real]
        eq_resid = float(np.max(np.abs(prob.A_eq @ ray), initial=0.0))
        if eq_resid > 1e-7 * (1.0 + float(np.max(np.abs(ray)))) \
                or prob.c @ ray >= 0:
            raise SolverError("unbounded ray failed verification")
        return LpResult(status=UNBOUNDED, ray=ray, iterations=sx.iterations,
                        phase1_objective=z1)

    # x_B afresh from the final basis and the restored b: the per-pivot
    # updates drift, by up to 1e-9 in the row residuals after a long
    # warm-started phase 2
    sx.b = prob.b_eq
    if sx.pivots_since_refactor:
        sx._refactor()
    else:
        sx.xB = sx.B_inv @ sx.b
    if perturb and not sx.xB.min(initial=0.0) >= -FEAS_TOL * sx.b_scale:
        return _solve(prob, None, deadline, perturb=False)
    y = sx.B_inv.T @ cost[sx.basis]
    x = np.zeros(N)
    real = ~sx.art
    x[sx.basis[real]] = sx.xB[real]
    return LpResult(status=OPTIMAL, x=x, objective=float(prob.c @ x), y=y,
                    iterations=sx.iterations, phase1_objective=z1,
                    basis=None if sx.n_art else sx.basis.copy(),
                    B_inv=None if sx.n_art else sx.B_inv,
                    rows=(prob.A_eq, prob.b_eq))


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


def check_feasible(rows, rhs, basis=None):
    """Feasibility of {x : rows @ x <= rhs} with x free, in the wide form

        min rhs^T y  s.t.  rows^T y = 0,  1^T y = 1,  y >= 0,

    whose basis has n + 1 rows however many rows the system has.  A negative
    optimum is a Farkas ray.  Otherwise the equality duals (x, t) solve the
    dual  max t s.t. rows x + t <= rhs, so x is a max-margin witness.  When no
    such y exists at all (typical for m <= n), Gordan's theorem gives a
    direction z with rows z < 0, and a scaled z is the witness.  A given
    `basis`, bare row indices, is `lp_solve`'s warm start.

    Returns (True, x, None) with a witness re-checked against rows x <= rhs,
    or (False, None, y) where y is a Farkas ray normalized to ||y||_1 = 1
    satisfying y >= 0, ||rows^T y||_inf <= _CERT_TOL and y @ rhs < 0.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("rows must be 2-D")
    rhs = np.asarray(rhs, dtype=float).ravel()
    m, n = rows.shape
    if m == 0:
        return True, np.zeros(n), None
    e = np.zeros(n + 1)
    e[-1] = 1.0
    prob = LpProblem(c=rhs, A_eq=np.vstack([rows.T, np.ones((1, m))]), b_eq=e)
    res = lp_solve(prob, basis)
    tol = scaled_tol(rhs)
    if res.status == OPTIMAL:
        if res.objective < -tol:
            return False, None, normalize_farkas_ray(rows, rhs, res.x)
        x = res.y[:n]
    elif res.status == INFEASIBLE:
        # the certificate (z, s) has rows z + s 1 <= 0 with s > 0: rows z < 0
        z = res.certificate.y[:n]
        slope = rows @ z
        if not np.all(slope < 0.0):
            raise SolverError("Gordan direction failed re-verification")
        x = 2.0 * max(0.0, float(np.max(rhs / slope))) * z
    else:
        raise SolverError(f"feasibility probe returned {res.status}")
    worst = float(np.max(rows @ x - rhs))
    if worst > tol:
        raise SolverError(f"feasibility witness violates a row by {worst:.3e}")
    return True, x, None
