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
  - the inverse is refactorized every _REFACTOR_EVERY pivots, and x_B
    once more from the final basis, since eta updates drift;
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

Warm start.  `lp_solve(prob, basis)` re-enters the simplex at a
caller's basis: M real column indices, typically the `LpResult.basis` of an
earlier optimal solve of a related problem.  The basis is accepted only when
it has M distinct indices of real columns, A_eq[:, basis] factorizes, the
basic solution x_B = B^-1 b_eq is >= -FEAS_TOL * (1 + ||b_eq||_inf), and
B x_B reproduces b_eq to the same tolerance.  Then phase 2 starts at once;
any other basis (None included) takes the cold two-phase path, so a stale
basis costs time, never a wrong answer.  The attack's LPs share one
constraint set, the Farkas polytope P, and differ only in their objective,
so every earlier optimal basis is primal feasible for every later one: each
network runs one cold P-LP and pools every optimal basis it finds; a
start's first step warm-starts from the pooled basis that scores highest on
its objective, and each later step from the start's previous one (see
`attack`).  The feasibility probe (`check_feasible`), the nominal dispatch
and the defense's warm start stay cold: certification must not depend on
the attack path, and their first solve has no earlier basis.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .errors import SolverError

# A x <= b + FEAS_TOL counts as satisfied, here and in dc_model, attack and
# defense; a Farkas ray normalized to ||y||_1 = 1 has ||A^T y||_inf <=
# _CERT_TOL; _LP_TOL is the reduced-cost zero; the pivot rules use the rest
FEAS_TOL = 1e-8
_CERT_TOL = 1e-9
_LP_TOL = 1e-9
_REFACTOR_EVERY = 64
_ITER_FACTOR = 60

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
        """The same rows under another objective; only c is checked."""
        out = copy.copy(self)
        out.c = _finite("c", np.asarray(c, dtype=float).ravel())
        if out.c.size != self.c.size:
            raise ValueError(f"c has {out.c.size} entries, expected {self.c.size}")
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
    # optimal basis (real column indices), for a later warm start; None when
    # an artificial column stays basic
    basis: np.ndarray = None


class _Simplex:
    """Two-phase revised simplex on A x = b, x >= 0 with implicit artificial
    columns sign(b_i) e_i, numbered N + i."""

    def __init__(self, prob):
        self.A, self.b = prob.A_eq, prob.b_eq
        self.M, self.N = self.A.shape
        self.b_scale = 1.0 + float(np.max(np.abs(self.b), initial=0.0))
        self.sign = np.where(self.b >= 0, 1.0, -1.0)
        self.basis = np.arange(self.N, self.N + self.M)
        self.art = np.ones(self.M, dtype=bool)      # basis position holds an artificial
        self.n_art = self.M                         # basic artificials
        self.B_inv = np.diag(self.sign)
        self.xB = np.abs(self.b)
        self.pinned = False                         # phase 2: artificials at 0
        self.iterations = 0
        self.pivots_since_refactor = 0

    def warm_start(self, basis):
        """Re-enter at a caller's basis of real columns (acceptance rules in
        the module docstring).  An accepted basis leaves no artificial, so
        phase 2 can run at once; a rejected one returns False and leaves the
        cold start untouched."""
        basis = np.array(basis, dtype=int).ravel()     # a copy: pivots edit it
        if basis.size != self.M or np.unique(basis).size != self.M \
                or np.any(basis < 0) or np.any(basis >= self.N):
            return False
        Bmat = self.A[:, basis]
        try:
            B_inv = np.linalg.inv(Bmat)
        except np.linalg.LinAlgError:
            return False
        x_B = B_inv @ self.b
        tol = FEAS_TOL * self.b_scale
        if not np.all(np.isfinite(x_B)) or np.any(x_B < -tol) \
                or float(np.max(np.abs(Bmat @ x_B - self.b), initial=0.0)) > tol:
            return False
        self.basis, self.B_inv, self.xB = basis, B_inv, x_B
        self.art[:] = False
        self.n_art = 0
        return True

    def _refactor(self):
        Bmat = np.zeros((self.M, self.M))
        real = ~self.art
        Bmat[:, real] = self.A[:, self.basis[real]]
        rows = self.basis[self.art] - self.N
        Bmat[rows, self.art] = self.sign[rows]
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
        t = np.maximum(self.xB[pos] / w[pos], 0.0)
        t_min = float(t.min())
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
        self.B_inv -= w[:, None] * Binv_r
        self.B_inv[r] = Binv_r
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= _REFACTOR_EVERY:
            self._refactor()
        return leave

    def run_phase(self, cost):
        """Minimize cost (N real entries, then M artificial ones) from the
        current basis; returns (status, y, extra) with extra = (j, w) for an
        unbounded entering column."""
        iter_cap = _ITER_FACTOR * (self.N + 2 * self.M) + 200
        c = cost[:self.N]
        # reduced costs of basic columns read +inf, so they never enter
        price = c.copy()
        price[self.basis[~self.art]] = np.inf
        stall, bland = 0, False
        cB = cost[self.basis]
        z = float(cB @ self.xB)
        while True:
            if self.iterations > iter_cap:
                raise SolverError(
                    f"iteration cap {iter_cap} exceeded (M={self.M}, N={self.N})")
            self.iterations += 1
            y = self.B_inv.T @ cB
            d = price - self.A.T @ y
            j = int(d.argmin()) if self.N else 0
            if not (self.N and d[j] < -_LP_TOL):
                return OPTIMAL, y, None
            if bland:
                j = int(np.argmax(d < -_LP_TOL))      # the lowest eligible index
            w = self.B_inv @ self.A[:, j]
            t, r = self._ratio(w, bland)
            if r is None:
                return UNBOUNDED, y, (j, w)
            leave = self._pivot(j, t, r, w)
            price[j] = np.inf
            if leave < self.N:
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


def lp_solve(prob: LpProblem, basis=None) -> LpResult:
    """Solve an LpProblem; INFEASIBLE results carry a verified FarkasCertificate,
    UNBOUNDED results carry a ray x >= 0 with A_eq x = 0 and c^T x < 0,
    OPTIMAL results carry their equality duals y and basis.  A given `basis`
    skips phase 1 when it passes the warm-start checks (module docstring)
    and is ignored otherwise."""
    if not isinstance(prob, LpProblem):
        raise TypeError("lp_solve expects an LpProblem")
    sx = _Simplex(prob)
    N, M = sx.N, sx.M

    z1 = 0.0
    if basis is None or not sx.warm_start(basis):
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

    status, y, extra = sx.run_phase(np.concatenate([prob.c, np.zeros(M)]))
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

    if sx.pivots_since_refactor:
        # x_B afresh from the final basis: the per-pivot updates drift, by
        # up to 1e-9 in the row residuals after a long warm-started phase 2
        sx._refactor()
    x = np.zeros(N)
    real = ~sx.art
    x[sx.basis[real]] = sx.xB[real]
    return LpResult(status=OPTIMAL, x=x, objective=float(prob.c @ x), y=y,
                    iterations=sx.iterations, phase1_objective=z1,
                    basis=None if sx.n_art else sx.basis.copy())


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


def check_feasible(rows, rhs):
    """Feasibility of {x : rows @ x <= rhs} with x free, in the wide form

        min rhs^T y  s.t.  rows^T y = 0,  1^T y = 1,  y >= 0,

    whose basis has n + 1 rows however many rows the system has.  A negative
    optimum is a Farkas ray.  Otherwise the equality duals (x, t) solve the
    dual  max t s.t. rows x + t <= rhs, so x is a max-margin witness.  When no
    such y exists at all (typical for m <= n), Gordan's theorem gives a
    direction z with rows z < 0, and a scaled z is the witness.

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
    res = lp_solve(prob)
    rhs_scale = 1.0 + float(np.max(np.abs(rhs)))
    if res.status == OPTIMAL:
        if res.objective < -FEAS_TOL * rhs_scale:
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
    if worst > FEAS_TOL * rhs_scale:
        raise SolverError(f"feasibility witness violates a row by {worst:.3e}")
    return True, x, None
