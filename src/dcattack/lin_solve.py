"""Bounded-variable revised simplex with Farkas infeasibility certificates.

Kernel for every linear program in the package. Dense numpy throughout: the
target systems (reduced DC-OPF polytopes) stay below ~500 rows, where an
explicit basis inverse with periodic refactorization is fast enough and easy
to audit. Certificates are first class: an INFEASIBLE verdict always carries
a Farkas ray that has been re-verified numerically before being returned.

The reduced polytope A p <= rhs is tall: m rows against n_reduced columns
(408 against 23 on a 120-bus network), and a simplex basis is as large as the
row count.  So the attack path solves each of its LPs in the wide multiplier
form  min w^T mu s.t. [A^T; r^T] mu = e, mu >= 0,  whose basis has only
n_reduced + 1 rows: the attack's steps over the Farkas polytope
(`attack._p_lp`), the ray search (`attack.ray_boundary`), the feasibility
probe (`check_feasible`, which also gives the defense its max-margin warm
start) and the nominal dispatch (`dc_model.solve_dcopf`).  Primal points are
read off the equality duals and re-checked against the rows; Farkas rays are
the multipliers themselves.

Warm start.  `lp_solve(prob, policy, basis)` re-enters the simplex at a
caller's basis: M column indices in the [x; slacks] space, typically the
`LpResult.basis` of an earlier optimal solve of a related problem.  The
basis is accepted only when it has M distinct indices of real columns,
A[:, basis] factorizes, the basic solution x_B = B^-1 (b - A_N x_N) lies
within its bounds to feas_tol * (1 + ||b||_inf), and B x_B reproduces
b - A_N x_N to the same tolerance.  Then every artificial is pinned at 0 and
phase 2 starts at once; any other basis (None included) takes the cold
two-phase path, so a stale basis costs time, never a wrong answer.  The
attack's LPs share one constraint set, the Farkas polytope P, and differ
only in their objective, so every earlier optimal basis is primal feasible
for every later one: each network runs one cold P-LP, and every step of
every start warm-starts from that basis or from the start's previous step
(see `attack`).  The feasibility probe (`check_feasible`), the nominal
dispatch and the defense's warm start stay cold: certification must not
depend on the attack path, and their first solve has no earlier basis.

Also home to the closed-form row projections (minimum-norm perturbation that
makes one polytope row tight, with or without an affine response policy) —
they are the geometric primitives shared by the attack and defense modules.
"""

import numpy as np
from dataclasses import dataclass

from .errors import PreconditionError, SolverError
from .numerics import DEFAULT_POLICY, NumericPolicy

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# nonbasic column states
_AT_LOWER, _AT_UPPER, _FREE, _FIXED, _BASIC = 0, 1, 2, 3, 4


def _as_matrix(A, ncols):
    if A is None:
        return np.zeros((0, ncols))
    A = np.asarray(A, dtype=float)
    if A.ndim == 1:
        A = A.reshape(1, -1) if A.size else A.reshape(0, ncols)
    if A.shape[1] != ncols:
        raise ValueError(f"matrix has {A.shape[1]} columns, expected {ncols}")
    return A


def _as_vector(b, nrows):
    if b is None:
        b = np.zeros(nrows)
    b = np.asarray(b, dtype=float).ravel()
    if b.size != nrows:
        raise ValueError(f"vector has {b.size} entries, expected {nrows}")
    return b


@dataclass
class LpProblem:
    """min c^T x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  lb <= x <= ub."""

    c: np.ndarray
    A_ub: np.ndarray = None
    b_ub: np.ndarray = None
    A_eq: np.ndarray = None
    b_eq: np.ndarray = None
    lb: np.ndarray = None
    ub: np.ndarray = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        n = self.c.size
        self.A_ub = _as_matrix(self.A_ub, n)
        self.b_ub = _as_vector(self.b_ub, self.A_ub.shape[0])
        self.A_eq = _as_matrix(self.A_eq, n)
        self.b_eq = _as_vector(self.b_eq, self.A_eq.shape[0])
        lb = -np.inf if self.lb is None else self.lb
        ub = np.inf if self.ub is None else self.ub
        self.lb = np.broadcast_to(np.asarray(lb, dtype=float), (n,)).astype(float)
        self.ub = np.broadcast_to(np.asarray(ub, dtype=float), (n,)).astype(float)
        for name, arr in (("c", self.c), ("A_ub", self.A_ub), ("b_ub", self.b_ub),
                          ("A_eq", self.A_eq), ("b_eq", self.b_eq)):
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")
        if np.any(np.isnan(self.lb)) or np.any(np.isnan(self.ub)):
            raise ValueError("NaN bounds")
        if np.any(self.lb > self.ub):
            bad = int(np.argmax(self.lb > self.ub))
            raise ValueError(f"lb > ub for variable {bad}")


@dataclass
class FarkasCertificate:
    """Proof that an LpProblem is infeasible.

    The nonnegative row combination y_ub (and free combination y_eq) gives the
    valid inequality h^T x <= rhs for every x satisfying the rows, where
    h = A_ub^T y_ub + A_eq^T y_eq and rhs = b_ub^T y_ub + b_eq^T y_eq.  With
    box_min = min_{lb<=x<=ub} h^T x this certificate has box_min - rhs = gap > 0,
    so no x inside the bounds can satisfy the rows.
    """

    y_ub: np.ndarray
    y_eq: np.ndarray
    h: np.ndarray
    gap: float

    def verify(self, prob, policy=DEFAULT_POLICY):
        """Recompute every claim from scratch; returns (ok, detail dict)."""
        tol = policy.cert_tol * (1.0 + float(np.abs(self.y_ub).sum()
                                             + np.abs(self.y_eq).sum()))
        y_min = float(self.y_ub.min()) if self.y_ub.size else 0.0
        h = prob.A_ub.T @ self.y_ub + prob.A_eq.T @ self.y_eq
        h_resid = float(np.max(np.abs(h - self.h))) if h.size else 0.0
        rhs = float(prob.b_ub @ self.y_ub + prob.b_eq @ self.y_eq)
        box_min = 0.0
        finite_ok = True
        for hj, lj, uj in zip(self.h, prob.lb, prob.ub):
            if hj > 0:
                if not np.isfinite(lj):
                    finite_ok = False
                    break
                box_min += hj * lj
            elif hj < 0:
                if not np.isfinite(uj):
                    finite_ok = False
                    break
                box_min += hj * uj
        gap = box_min - rhs if finite_ok else -np.inf
        ok = (y_min >= -tol) and (h_resid <= tol) and finite_ok and gap > 0
        return ok, {"y_min": y_min, "h_resid": h_resid, "gap": gap,
                    "finite_ok": finite_ok}


@dataclass
class LpResult:
    status: str
    x: np.ndarray = None
    objective: float = None
    dual_ub: np.ndarray = None
    dual_eq: np.ndarray = None
    dual_objective: float = None
    certificate: FarkasCertificate = None
    ray: np.ndarray = None
    iterations: int = 0
    phase1_objective: float = 0.0
    # optimal basis in the [x; slacks] column space, for a later warm start;
    # None when an artificial column stays basic
    basis: np.ndarray = None


class _Simplex:
    """Two-phase bounded-variable simplex on the combined equation system
    [A_ub I; A_eq 0] [x; s] = [b_ub; b_eq] with artificial start columns."""

    def __init__(self, prob, policy):
        self.prob = prob
        self.policy = policy
        n, m, k = prob.c.size, prob.A_ub.shape[0], prob.A_eq.shape[0]
        self.n, self.m, self.k = n, m, k
        M = m + k
        self.M = M
        A = np.zeros((M, n + m))
        A[:m, :n] = prob.A_ub
        A[m:, :n] = prob.A_eq
        if m:
            A[:m, n:] = np.eye(m)
        self.b = np.concatenate([prob.b_ub, prob.b_eq])
        self.b_scale = 1.0 + (float(np.max(np.abs(self.b))) if M else 0.0)
        lo = np.concatenate([prob.lb, np.zeros(m)])
        hi = np.concatenate([prob.ub, np.full(m, np.inf)])

        # nonbasic start values: a finite bound if one exists, else 0 (free)
        val = np.zeros(n + m)
        status = np.full(n + m, _FREE, dtype=int)
        lo_fin, hi_fin = np.isfinite(lo), np.isfinite(hi)
        val[lo_fin] = lo[lo_fin]
        status[lo_fin] = _AT_LOWER
        only_hi = ~lo_fin & hi_fin
        val[only_hi] = hi[only_hi]
        status[only_hi] = _AT_UPPER
        status[lo == hi] = _FIXED

        resid = self.b - A @ val
        sign = np.where(resid >= 0, 1.0, -1.0)
        self.A = np.hstack([A, np.diag(sign)]) if M else A
        self.lo = np.concatenate([lo, np.zeros(M)])
        self.hi = np.concatenate([hi, np.full(M, np.inf)])
        self.val = np.concatenate([val, np.abs(resid)])
        self.status = np.concatenate([status, np.full(M, _BASIC, dtype=int)])
        self.is_art = np.zeros(n + m + M, dtype=bool)
        self.is_art[n + m:] = True
        self.basis = np.arange(n + m, n + m + M)
        self.B_inv = np.diag(sign)
        self.iterations = 0
        self.pivots_since_refactor = 0
        self.N_total = n + m + M

    def warm_start(self, basis):
        """Re-enter at a caller's basis of real columns (acceptance rules in
        the module docstring).  An accepted basis pins every artificial at 0,
        so phase 2 can run at once; a rejected one returns False and leaves
        the cold start untouched."""
        basis = np.array(basis, dtype=int).ravel()     # a copy: pivots edit it
        n_real = self.n + self.m
        if basis.size != self.M or np.unique(basis).size != self.M \
                or np.any(basis < 0) or np.any(basis >= n_real):
            return False
        Bmat = self.A[:, basis]
        try:
            B_inv = np.linalg.inv(Bmat)
        except np.linalg.LinAlgError:
            return False
        nb_val = self.val[:n_real].copy()
        nb_val[basis] = 0.0
        r = self.b - self.A[:, :n_real] @ nb_val
        x_B = B_inv @ r
        tol = self.policy.feas_tol * self.b_scale
        if not np.all(np.isfinite(x_B)) \
                or np.any(x_B < self.lo[basis] - tol) \
                or np.any(x_B > self.hi[basis] + tol) \
                or float(np.max(np.abs(Bmat @ x_B - r), initial=0.0)) > tol:
            return False
        self.lo[self.is_art] = 0.0
        self.hi[self.is_art] = 0.0
        self.val[self.is_art] = 0.0
        self.status[self.is_art] = _FIXED
        self.status[basis] = _BASIC
        self.val[basis] = x_B
        self.basis = basis
        self.B_inv = B_inv
        return True

    # -- core steps ---------------------------------------------------------

    def _refactor(self):
        Bmat = self.A[:, self.basis]
        try:
            self.B_inv = np.linalg.inv(Bmat)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular basis during refactorization: {exc}")
        nb_val = self.val.copy()
        nb_val[self.basis] = 0.0
        self.val[self.basis] = self.B_inv @ (self.b - self.A @ nb_val)
        self.pivots_since_refactor = 0

    def _prices(self, cvec):
        y = self.B_inv.T @ cvec[self.basis]
        d = cvec - self.A.T @ y
        return y, d

    def _entering(self, d, bland):
        tol = self.policy.lp_tol
        st = self.status
        elig = ((st == _AT_LOWER) & (d < -tol)) | ((st == _AT_UPPER) & (d > tol)) \
            | ((st == _FREE) & (np.abs(d) > tol))
        elig &= ~self.is_art
        idx = np.flatnonzero(elig)
        if idx.size == 0:
            return None, 0
        if bland:
            j = int(idx[0])
        else:
            j = int(idx[np.argmax(np.abs(d[idx]))])
        if st[j] == _AT_LOWER:
            sigma = 1.0
        elif st[j] == _AT_UPPER:
            sigma = -1.0
        else:
            sigma = -np.sign(d[j])
        return j, sigma

    def _ratio(self, j, sigma, bland):
        """Returns (t, leaving_pos, hit_upper, w); leaving_pos None means bound
        flip of the entering column, t == inf means unblocked."""
        piv_tol = 1e-10
        w = self.B_inv @ self.A[:, j]
        xB = self.val[self.basis]
        loB, hiB = self.lo[self.basis], self.hi[self.basis]
        sw = sigma * w
        t = np.full(self.M, np.inf)
        hit_up = np.zeros(self.M, dtype=bool)
        dec = (sw > piv_tol) & np.isfinite(loB)
        t[dec] = (xB[dec] - loB[dec]) / sw[dec]
        inc = (sw < -piv_tol) & np.isfinite(hiB)
        t[inc] = (hiB[inc] - xB[inc]) / (-sw[inc])
        hit_up[inc] = True
        np.maximum(t, 0.0, out=t)

        span = self.hi[j] - self.lo[j]
        t_own = span if np.isfinite(span) else np.inf
        t_min = min(float(t.min()) if self.M else np.inf, t_own)
        if not np.isfinite(t_min):
            return np.inf, None, False, w
        # tie set within an absolute-plus-relative window
        window = t_min + 1e-9 * (1.0 + t_min)
        cand = np.flatnonzero(t <= window)
        if t_own <= window and cand.size == 0:
            return t_own, None, False, w
        if cand.size == 0:
            # numerical corner: t.min() slipped past the window
            cand = np.array([int(np.argmin(t))])
        if bland:
            # smallest basis column index among candidates
            order = np.argsort(self.basis[cand], kind="stable")
            r = int(cand[order[0]])
        else:
            art_cand = cand[self.is_art[self.basis[cand]]]
            pool = art_cand if art_cand.size else cand
            r = int(pool[np.argmax(np.abs(w[pool]))])
        if t_own < t[r]:
            return t_own, None, False, w
        return float(t[r]), r, bool(hit_up[r]), w

    def _apply_flip(self, j, sigma, t, w):
        self.val[self.basis] -= sigma * t * w
        self.val[j] += sigma * t
        self.status[j] = _AT_UPPER if self.status[j] == _AT_LOWER else _AT_LOWER

    def _apply_pivot(self, j, sigma, t, r, hit_upper, w):
        if abs(w[r]) < 1e-11:
            raise SolverError(f"pivot element {w[r]:.3e} too small")
        leave = int(self.basis[r])
        self.val[self.basis] -= sigma * t * w
        self.val[j] += sigma * t
        self.val[leave] = self.hi[leave] if hit_upper else self.lo[leave]
        self.status[leave] = _AT_UPPER if hit_upper else _AT_LOWER
        if self.lo[leave] == self.hi[leave]:
            self.status[leave] = _FIXED
        self.status[j] = _BASIC
        self.basis[r] = j
        # eta update of the explicit inverse
        Binv_r = self.B_inv[r] / w[r]
        self.B_inv -= np.outer(w, Binv_r)
        self.B_inv[r] = Binv_r
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= self.policy.lp_refactor_every:
            self._refactor()

    def run_phase(self, cvec):
        """Minimize cvec over the current system; returns (status, y, d, extra)."""
        policy = self.policy
        iter_cap = policy.lp_iter_factor * (self.M + self.N_total) + 200
        stall, bland = 0, False
        z = float(cvec @ self.val)
        while True:
            if self.iterations > iter_cap:
                raise SolverError(
                    f"iteration cap {iter_cap} exceeded (M={self.M}, N={self.N_total})")
            self.iterations += 1
            y, d = self._prices(cvec)
            j, sigma = self._entering(d, bland)
            if j is None:
                if bland:
                    # confirm optimality at the sharper Dantzig pass once more
                    j, sigma = self._entering(d, False)
                    if j is None:
                        return OPTIMAL, y, d, None
                else:
                    return OPTIMAL, y, d, None
            t, r, hit_upper, w = self._ratio(j, sigma, bland)
            if not np.isfinite(t):
                return UNBOUNDED, y, d, (j, sigma, w)
            if r is None:
                self._apply_flip(j, sigma, t, w)
            else:
                self._apply_pivot(j, sigma, t, r, hit_upper, w)
            z_new = float(cvec @ self.val)
            if z - z_new > 1e-12 * (1.0 + abs(z)):
                stall, bland = 0, False
            else:
                stall += 1
                if stall >= 30:
                    bland = True
            z = z_new


def _certificate_from_phase1(simplex, prob, y, policy):
    """Assemble and sanity-check the Farkas certificate at a phase-1 optimum."""
    m = simplex.m
    y_ub = -y[:m]
    y_eq = -y[m:]
    y_scale = 1.0 + float(np.abs(y).sum())
    if y_ub.size and float(y_ub.min()) < -1e-7 * y_scale:
        raise SolverError(f"phase-1 dual sign violation: min y_ub = {y_ub.min():.3e}")
    y_ub = np.maximum(y_ub, 0.0)
    h = prob.A_ub.T @ y_ub + prob.A_eq.T @ y_eq
    # zero the dust entries that would otherwise pair with an infinite bound
    dust = 1e-9 * y_scale * (1.0 + float(np.max(np.abs(h))) if h.size else 1.0)
    bad_low = (h > 0) & ~np.isfinite(prob.lb)
    bad_up = (h < 0) & ~np.isfinite(prob.ub)
    for mask in (bad_low, bad_up):
        if np.any(np.abs(h[mask]) > dust):
            raise SolverError("phase-1 certificate pairs with an infinite bound")
        h[mask] = 0.0
    box_min = float(np.sum(np.where(h > 0, h * np.where(np.isfinite(prob.lb), prob.lb, 0.0),
                                    h * np.where(np.isfinite(prob.ub), prob.ub, 0.0))))
    rhs = float(prob.b_ub @ y_ub + prob.b_eq @ y_eq)
    cert = FarkasCertificate(y_ub=y_ub, y_eq=y_eq, h=h, gap=box_min - rhs)
    ok, detail = cert.verify(prob, policy)
    if not ok:
        raise SolverError(f"constructed Farkas certificate failed verification: {detail}")
    return cert


def lp_solve(prob: LpProblem, policy: NumericPolicy = DEFAULT_POLICY,
             basis=None) -> LpResult:
    """Solve an LpProblem; INFEASIBLE results carry a verified FarkasCertificate,
    UNBOUNDED results carry a feasible ray with c^T ray < 0, OPTIMAL results
    carry their basis.  A given `basis` skips phase 1 when it passes the
    warm-start checks (module docstring) and is ignored otherwise."""
    if not isinstance(prob, LpProblem):
        raise TypeError("lp_solve expects an LpProblem")
    sx = _Simplex(prob, policy)
    n, m = sx.n, sx.m

    z1 = 0.0
    if basis is None or not sx.warm_start(basis):
        cost1 = np.zeros(sx.N_total)
        cost1[sx.is_art] = 1.0
        status, y, d, extra = sx.run_phase(cost1)
        if status != OPTIMAL:
            raise SolverError("phase 1 cannot be unbounded; numerical failure")
        z1 = float(np.sum(sx.val[sx.is_art]))
        if z1 > policy.feas_tol * sx.b_scale:
            cert = _certificate_from_phase1(sx, prob, y, policy)
            return LpResult(status=INFEASIBLE, certificate=cert,
                            iterations=sx.iterations, phase1_objective=z1)

        # pin artificials at zero and switch to the real objective
        sx.lo[sx.is_art] = 0.0
        sx.hi[sx.is_art] = 0.0
        nonbasic_art = sx.is_art & (sx.status != _BASIC)
        sx.status[nonbasic_art] = _FIXED
        sx.val[nonbasic_art] = 0.0

    cost2 = np.zeros(sx.N_total)
    cost2[:n] = prob.c
    status, y, d, extra = sx.run_phase(cost2)
    if status == UNBOUNDED:
        j, sigma, w = extra
        direction = np.zeros(sx.N_total)
        direction[j] = sigma
        direction[sx.basis] -= sigma * w
        ray = direction[:n]
        eq_resid = float(np.max(np.abs(prob.A_eq @ ray))) if sx.k else 0.0
        ub_resid = float(np.max(prob.A_ub @ ray)) if m else 0.0
        ray_scale = 1.0 + float(np.max(np.abs(ray)))
        if eq_resid > 1e-7 * ray_scale or ub_resid > 1e-7 * ray_scale \
                or prob.c @ ray >= 0:
            raise SolverError("unbounded ray failed verification")
        return LpResult(status=UNBOUNDED, ray=ray, iterations=sx.iterations,
                        phase1_objective=z1)

    if sx.pivots_since_refactor:
        # x_B afresh from the final basis: the per-pivot updates drift, by
        # up to 1e-9 in the row residuals after a long warm-started phase 2
        sx._refactor()
    x = sx.val[:n].copy()
    objective = float(prob.c @ x)
    dual_ub = np.maximum(-y[:m], 0.0)
    dual_eq = -y[m:].copy()
    # dual objective over the box, using reduced costs of all real columns;
    # dual feasibility pairs every nonzero reduced cost with a finite bound,
    # so entries pointing at an infinite bound are dust and are dropped
    r = d[:n + m].copy()
    lo, hi = sx.lo[:n + m], sx.hi[:n + m]
    r[(r > 0) & ~np.isfinite(lo)] = 0.0
    r[(r < 0) & ~np.isfinite(hi)] = 0.0
    box = np.where(r > 0, r * np.where(np.isfinite(lo), lo, 0.0),
                   r * np.where(np.isfinite(hi), hi, 0.0))
    dual_objective = float(y @ sx.b + box.sum())
    final_basis = None if np.any(sx.is_art[sx.basis]) else sx.basis.copy()
    return LpResult(status=OPTIMAL, x=x, objective=objective,
                    dual_ub=dual_ub, dual_eq=dual_eq,
                    dual_objective=dual_objective,
                    iterations=sx.iterations, phase1_objective=z1,
                    basis=final_basis)


def normalize_farkas_ray(rows, rhs, y, policy: NumericPolicy = DEFAULT_POLICY):
    """Normalize a Farkas ray of {x : rows x <= rhs} to ||y||_1 = 1 and
    re-verify it from scratch: y >= 0, ||rows^T y||_inf <= cert_tol and
    y @ rhs < 0.  Raises SolverError rather than return an unsound ray."""
    rows = np.asarray(rows, dtype=float)
    rhs = np.asarray(rhs, dtype=float).ravel()
    y = np.maximum(np.asarray(y, dtype=float).ravel(), 0.0)
    total = float(y.sum())
    if total <= 0:
        raise SolverError("degenerate Farkas ray")
    y = y / total
    resid = float(np.max(np.abs(rows.T @ y))) if rows.size else 0.0
    value = float(y @ rhs)
    if resid > policy.cert_tol or value >= -policy.cert_tol * 1e-3:
        raise SolverError(
            f"Farkas ray failed re-verification: ||rows^T y||={resid:.2e}, y@rhs={value:.2e}")
    return y


def check_feasible(rows, rhs, policy: NumericPolicy = DEFAULT_POLICY):
    """Feasibility of {x : rows @ x <= rhs} with x free, in the wide form

        min rhs^T y  s.t.  rows^T y = 0,  1^T y = 1,  y >= 0,

    whose basis has n + 1 rows however many rows the system has.  A negative
    optimum is a Farkas ray.  Otherwise the equality duals (x, t) solve the
    dual  max t s.t. rows x + t <= rhs, so x is a max-margin witness.  When no
    such y exists at all (typical for m <= n), Gordan's theorem gives a
    direction z with rows z < 0, and a scaled z is the witness.

    Returns (True, x, None) with a witness re-checked against rows x <= rhs,
    or (False, None, y) where y is a Farkas ray normalized to ||y||_1 = 1
    satisfying y >= 0, ||rows^T y||_inf <= cert_tol and y @ rhs < 0.
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
    prob = LpProblem(c=rhs, A_eq=np.vstack([rows.T, np.ones((1, m))]), b_eq=e,
                     lb=0.0)
    res = lp_solve(prob, policy)
    rhs_scale = 1.0 + float(np.max(np.abs(rhs)))
    if res.status == OPTIMAL:
        if res.objective < -policy.feas_tol * rhs_scale:
            return False, None, normalize_farkas_ray(rows, rhs, res.x, policy)
        x = -res.dual_eq[:n]
    elif res.status == INFEASIBLE:
        # the certificate h = rows g + s 1 >= 0 with s < 0 gives rows(-g) < 0
        z = -res.certificate.y_eq[:n]
        slope = rows @ z
        if not np.all(slope < 0.0):
            raise SolverError("Gordan direction failed re-verification")
        x = 2.0 * max(0.0, float(np.max(rhs / slope))) * z
    else:
        raise SolverError(f"feasibility probe returned {res.status}")
    worst = float(np.max(rows @ x - rhs))
    if worst > policy.feas_tol * rhs_scale:
        raise SolverError(f"feasibility witness violates a row by {worst:.3e}")
    return True, x, None


# -- closed-form row projections ---------------------------------------------


@dataclass
class ProjectionResult:
    """Minimum-norm perturbation making one row tight, plus its squared norm.

    delta is None when the row cannot be crossed by any perturbation under the
    given response (norm_sq == +inf), which excludes the row from radius minima.
    """

    delta: np.ndarray
    norm_sq: float
    margin: float


def project_policy(p0, G, a_i, b_i, c_i):
    """Smallest ||delta||^2 with a_i^T (p0 + G delta) + b_i^T delta + c_i = 0.

    G = None means the fixed-dispatch variant (no response).  Degenerate rows:
    an insensitive row (direction vector zero) is uncrossable when it has slack
    (norm_sq = +inf) and already crossed when tight (norm_sq = 0).
    """
    a_i = np.asarray(a_i, dtype=float).ravel()
    b_i = np.asarray(b_i, dtype=float).ravel()
    p0 = np.asarray(p0, dtype=float).ravel()
    margin = float(a_i @ p0 + c_i)
    g = b_i if G is None else np.asarray(G, dtype=float).T @ a_i + b_i
    den = float(g @ g)
    if den <= 0.0:
        if margin < 0.0:
            return ProjectionResult(delta=None, norm_sq=np.inf, margin=margin)
        return ProjectionResult(delta=np.zeros_like(b_i), norm_sq=0.0, margin=margin)
    delta = -(margin / den) * g
    return ProjectionResult(delta=delta, norm_sq=margin * margin / den, margin=margin)


def policy_radius(A, B, c, p0, G, policy: NumericPolicy = DEFAULT_POLICY):
    """min over rows of project_policy norm_sq, vectorized.

    Returns (t, binding_row, per_row).  Requires p0 feasible for the rows
    (A p0 + c <= feas_tol); raises PreconditionError naming violated rows.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    c = np.asarray(c, dtype=float).ravel()
    p0 = np.asarray(p0, dtype=float).ravel()
    m = c.size
    margins = (A @ p0 if A.size else np.zeros(m)) + c
    worst = float(margins.max()) if m else 0.0
    if worst > policy.feas_tol:
        bad = np.flatnonzero(margins > policy.feas_tol)[:5]
        raise PreconditionError(
            f"p0 violates rows {bad.tolist()} (worst margin {worst:.3e})")
    dirs = B if G is None else (A @ np.asarray(G, dtype=float) if A.size else 0.0) + B
    den = np.einsum("ij,ij->i", dirs, dirs)
    # delta-insensitive rows (zero direction) can never be crossed and are
    # excluded via the infinite sentinel; feasibility was checked above
    per = np.full(m, np.inf)
    nz = den > 0.0
    per[nz] = margins[nz] ** 2 / den[nz]
    if m == 0 or not np.any(np.isfinite(per)):
        return np.inf, None, per
    row = int(np.argmin(per))
    return float(per[row]), row, per
