"""Control policies (p0, G) with the largest guaranteed-solvability radius.

A policy answers load perturbations with the affine response p(delta) =
p0 + G delta.  Its certified radius

    t_tilde(p0, G) = min_i (a_i^T p0 + c_i)^2 / ||G^T a_i + b_i||^2

is the largest t such that every ||delta||^2 <= t keeps all rows satisfied,
so t_tilde is a sound lower bound on any attack.  Rows whose direction
G^T a_i + b_i vanishes can never be crossed and drop out (infinite sentinel).

The best affine policy is one convex program, the affinely adjustable robust
counterpart (Ben-Tal, Goryashko, Guslitser and Nemirovski, 2004).  With
lambda = 1/sqrt(t) and q = lambda p0 it is the second-order cone program

    min lambda  s.t.  ||G^T a_i + b_i|| <= -(a_i^T q + lambda c_i)  for all i,

solved by `defense_local` with a log-barrier Newton method (Boyd and
Vandenberghe, ch. 11).  Presolve folds units with p_min == p_max into c and
drops the rows that leaves constant; without it those rows are implicit
equalities and no strictly interior point exists.  The Newton system is
reduced onto (q, lambda): the G block kron(A^T D A, I_k) + sum_i r_i r_i^T
is inverted by Woodbury through an m x m capacitance matrix, so a step costs
O(m^2 (n + k) + m^3) instead of O((n k)^3).

Every barrier iterate is strictly feasible, so every iterate is a sound
policy: a step that fails near the optimum, or an expired deadline, just ends
the solve early.  The reported radius is always the exact t_tilde of the
returned (p0, G).

The dual  max -<W, B>  s.t.  A^T y = 0, c^T y = -1, A^T W = 0, ||w_i|| <= y_i
bounds lambda from below.  Candidates come from the centered points and from
complementary slackness on the final active rows; each is made feasible to
rounding through the units' own bound rows, and the one with the smallest
gap is returned with the policy.  Its y lies in P = {mu >= 0, A^T mu = 0,
-c^T mu = 1}, so it is also a Farkas candidate for the attack.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import lin_solve
from .errors import (GeometryError, ModelError, PolicyVerificationError,
                     PreconditionError, SolverError)
from .numerics import DEFAULT_POLICY

# barrier schedule: tau grows by _MU per centering, which ends at a squared
# Newton decrement below _CENTER_TOL; the solve ends once the duality gap
# 2m / tau falls below _GAP_TOL * lambda.  Near the optimum the reduced
# Newton system loses its digits and the decrement stalls at a noise floor:
# after _STALE_STEPS steps in a row, all inside the quadratic region
# (decrement below 1e-2), that do not halve the smallest decrement so far,
# the point counts as centered if that decrement is below _FLOOR_TOL, and the
# solve ends otherwise.  A centering also fails after _CENTER_STEPS steps
_MU = 30.0
_CENTER_TOL = 1e-10
_FLOOR_TOL = 1e-6
_CENTER_STEPS = 50
_STALE_STEPS = 3
_GAP_TOL = 1e-8


@dataclass
class DefensePolicy:
    p0: np.ndarray
    G: np.ndarray
    t: float
    binding_row: int
    verified_samples: int = 0
    meta: dict = field(default_factory=dict)
    # (y, W): a dual certificate of the SOCP on the rows of mats, feasible to
    # rounding (A^T y = 0, c^T y = -1, A^T W = 0, ||w_i|| <= y_i), so
    # -<W, B> <= lambda for every policy; None when no centering finished
    dual: tuple = None

    def summary(self, mats=None):
        row = self.binding_row
        label = (mats.row_labels[row]
                 if mats is not None and row is not None else row)
        return {"t": self.t, "binding_row": label,
                "verified_samples": self.verified_samples,
                "p0": self.p0.tolist(), "G": self.G.tolist(), **self.meta}


@dataclass
class SimplexPolicy:
    vertices: np.ndarray     # (n+1, n) rows are perturbation points
    dispatches: np.ndarray   # (n+1, n_reduced)
    G: np.ndarray
    p0: np.ndarray
    cond: float

    def weights(self, delta):
        """Barycentric reconstruction weights of a query point."""
        d_hat = np.vstack([self.vertices.T, np.ones((1, len(self.vertices)))])
        rhs = np.concatenate([np.asarray(delta, float), [1.0]])
        return np.linalg.solve(d_hat, rhs)

    def dispatch(self, delta):
        return self.p0 + self.G @ np.asarray(delta, float)


def t_tilde(mats, p0, G, policy=DEFAULT_POLICY):
    """Exact certified radius of the policy and its binding row."""
    p0 = np.asarray(p0, float)
    margins = mats.margins(p0)
    bad = np.flatnonzero(margins > policy.feas_tol)
    if bad.size:
        names = [mats.row_labels[i] for i in bad[:5]]
        raise PreconditionError(
            f"p0 violates {names} (worst margin {margins.max():.3e})")
    t, row, _ = lin_solve.policy_radius(mats.A, mats.B, mats.c, p0, G, policy)
    return t, row


def presolve(mats, policy=DEFAULT_POLICY):
    """(rows, free, p_fixed, c): units with p_min == p_max are held at their
    output p_fixed (zero on the free columns), and the rows this leaves
    constant and satisfied are dropped.  The policy program then lives on
    A[rows][:, free], B[rows] and c = (c + A p_fixed)[rows]."""
    lo, hi = mats.case.gen_bounds()
    fixed = (lo == hi)[mats.gen_order]
    p_fixed = np.where(fixed, hi[mats.gen_order], 0.0)
    c = mats.c + mats.A @ p_fixed
    const = ~np.any(mats.A[:, ~fixed] != 0.0, axis=1) \
        & ~np.any(mats.B != 0.0, axis=1)
    rows = np.flatnonzero(~(const & (c <= policy.feas_tol)))
    return rows, ~fixed, p_fixed, c[rows]


def warm_start_defense(mats, policy=DEFAULT_POLICY):
    """Max-margin dispatch and its fixed-dispatch radius: min m s.t.
    a_i^T p + c_i <= m on the presolved rows, solved in the wide form of
    `lin_solve.check_feasible`; fixed units stay at their output."""
    rows, free, p, c = presolve(mats, policy)
    ok, x, ray = lin_solve.check_feasible(mats.A[rows][:, free], -c, policy)
    if not ok:
        worst = mats.row_labels[rows[int(np.argmax(ray))]]
        raise ModelError("max-margin LP: no dispatch satisfies the nominal "
                         f"constraints (Farkas ray heaviest on {worst})")
    p[free] = x
    t_init, _row = t_tilde(mats, p, None, policy)
    return p, np.zeros((mats.n_reduced, mats.n_delta)), float(t_init)


def _cones(A, B, c, q, lam, G):
    """Cone coordinates u_i = -(a_i^T q + lam c_i), w_i = G^T a_i + b_i and
    s_i = u_i^2 - ||w_i||^2; the point is strictly feasible iff u, s > 0."""
    u = -(A @ q + lam * c)
    W = A @ G + B
    return u, W, u * u - np.einsum("ij,ij->i", W, W)


def _newton_step(A, c, tau, u, W, s):
    """Newton direction (dq, dlam, dG) of tau * lam - sum_i log s_i and its
    squared decrement.  The system is reduced onto y = (q, lam), with the G
    block inverted by Woodbury.  Raises LinAlgError when a factor is not
    positive definite."""
    Ay = np.hstack([A, c[:, None]])
    d = 2.0 / s
    e = d * u
    g_y = Ay.T @ e
    g_y[-1] += tau
    g_G = A.T @ (d[:, None] * W)
    # G block: kron(K, I) + R R^T, r_i = d_i vec(a_i w_i^T), K = A^T diag(d) A;
    # Woodbury through the capacitance C = I + R^T kron(K^-1, I) R
    K = A.T @ (d[:, None] * A)
    KA = np.linalg.solve(K, A.T)
    C = np.eye(s.size) + np.outer(d, d) * (A @ KA) * (W @ W.T)
    L_inv = np.linalg.solve(np.linalg.cholesky(C), np.eye(s.size))
    # Schur complement onto y; the diagonal term h_uu - e^2 is -d exactly
    X = L_inv @ (e[:, None] * Ay)
    L_s = np.linalg.cholesky(X.T @ X - Ay.T @ (d[:, None] * Ay))

    def rt_p(Gam):          # C^-1 R^T kron(K^-1, I) vec(Gam)
        return L_inv.T @ (L_inv @ (d * np.einsum("ij,ij->i", KA.T @ Gam, W)))

    dy = np.linalg.solve(L_s.T, np.linalg.solve(
        L_s, Ay.T @ (e * rt_p(g_G)) - g_y))
    Gam = g_G + A.T @ ((d * e * (Ay @ dy))[:, None] * W)
    dG = -np.linalg.solve(K, Gam - A.T @ ((d * rt_p(Gam))[:, None] * W))
    dec2 = -(float(g_y @ dy) + float(np.sum(g_G * dG)))
    return dy[:-1], float(dy[-1]), dG, dec2


def _socp(A, B, c, p_start, deadline):
    """Barrier solve of the program in the module docstring on presolved rows,
    started at G = 0 from a dispatch with every margin negative.  Returns
    (q, lam, G) of the smallest-lambda iterate, the unscaled duals (y, W) of
    the centered points and an info dict: why the solve stopped and its
    Newton steps."""
    m = c.size
    margins = A @ p_start + c
    lam = 2.0 * max(float(np.max(np.linalg.norm(B, axis=1) / -margins)), 1e-12)
    q, G = lam * p_start, np.zeros((A.shape[1], B.shape[1]))
    tau = 2.0 * m / lam
    best, duals = (q, lam, G), []
    info = {"stop": "step-failed", "newton_steps": 0}
    cone = _cones(A, B, c, q, lam, G)
    while True:
        dec_min, stale = np.inf, 0
        for _ in range(_CENTER_STEPS):      # centering at tau
            if deadline is not None and time.monotonic() >= deadline:
                info["stop"] = "deadline"
                return best, duals, info
            try:
                dq, dlam, dG, dec2 = _newton_step(A, c, tau, *cone)
            except np.linalg.LinAlgError:
                return best, duals, info
            if not np.isfinite(dec2) or dec2 < 0.0:
                return best, duals, info
            info["newton_steps"] += 1
            if dec2 <= _CENTER_TOL:
                break
            stale = stale + 1 if 0.5 * dec_min < dec2 and dec_min < 1e-2 \
                else 0
            dec_min = min(dec_min, dec2)
            if stale >= _STALE_STEPS:
                if dec_min > _FLOOR_TOL:
                    return best, duals, info
                break
            # backtracking on the change of tau * lam - sum log s, which is
            # summed from ratios: the value itself is ~tau * lam and would
            # drown the decrease in rounding near the optimum
            alpha = 1.0
            while True:
                new = _cones(A, B, c, q + alpha * dq, lam + alpha * dlam,
                             G + alpha * dG)
                if np.all(new[0] > 0.0) and np.all(new[2] > 0.0) and \
                        tau * alpha * dlam - np.sum(np.log(new[2] / cone[2])) \
                        <= -0.25 * alpha * dec2:
                    break
                alpha *= 0.5
                if alpha < 1e-12:
                    return best, duals, info
            q, lam, G, cone = q + alpha * dq, lam + alpha * dlam, \
                G + alpha * dG, new
            if lam < best[1]:
                best = (q, lam, G)
        else:
            return best, duals, info
        u, W, s = cone
        duals.append((2.0 * u / s, -(2.0 / s)[:, None] * W))
        if 2.0 * m / (tau * lam) <= _GAP_TOL:
            info["stop"] = "converged"
            return best, duals, info
        tau *= _MU


def _complementary_dual(A, B, c, q, lam, G, y):
    """The dual that complementary slackness assigns to the barrier's active
    rows (y_i above 1e-4 of the largest): omega_i = -y_i w_i / u_i, with y
    on those rows solving A^T y = 0, c^T y = -1 and A^T W = 0 by least
    squares.  It carries none of the barrier duals' eps * tau residual;
    None when a multiplier comes out negative."""
    u, W, _s = _cones(A, B, c, q, lam, G)
    act = np.flatnonzero(y > 1e-4 * y.max())
    dirs = W[act] / u[act, None]
    M = np.vstack([A[act].T, c[act][None, :],
                   -(A[act][:, :, None] * dirs[:, None, :])
                   .reshape(act.size, -1).T])
    rhs = np.zeros(M.shape[0])
    rhs[A.shape[1]] = -1.0
    y_act = np.linalg.lstsq(M, rhs, rcond=None)[0]
    if np.any(y_act < 0.0):
        return None
    y, Om = np.zeros_like(y), np.zeros_like(W)
    y[act], Om[act] = y_act, -y_act[:, None] * dirs
    return y, Om


def _feasible_dual(mats, y, W):
    """Restore A^T y = 0 and A^T W = 0 on the rows of mats through each unit's
    own bound rows (a_i = +-e_j, b_i = 0; ||w_i|| <= y_i survives by the
    triangle inequality), then scale onto c^T y = -1.  This also undoes the
    fold of fixed units, whose dropped bound rows absorb (A^T y)_j.  Mass
    added to both bound rows of unit j moves only c^T y, by
    -(p_max - p_min), so a residual costs bound, never soundness.  None when
    c^T y ends up nonnegative."""
    up, lo = mats.unit_rows()
    r, R = mats.A.T @ y, mats.A.T @ W
    half = 0.5 * np.linalg.norm(R, axis=1)
    y, W = y.copy(), W.copy()
    y[up] += half + np.maximum(-r, 0.0)
    y[lo] += half + np.maximum(r, 0.0)
    W[up] -= 0.5 * R
    W[lo] += 0.5 * R
    scale = -float(mats.c @ y)
    return (y / scale, W / scale) if scale > 0.0 else None


def defense_local(mats, policy=DEFAULT_POLICY, budget_s=None):
    """The best affine policy, by the barrier SOCP of the module docstring.

    Starts from `warm_start_defense`.  `budget_s` bounds the wall time of the
    Newton loop; on expiry the best iterate so far is returned with
    meta["deadline"] set.  meta["stop"] says why the solve ended:
    "converged" (duality gap below 1e-8), "step-failed" (the Newton system
    lost its digits first), "deadline", or "no-interior" when presolve
    leaves no strictly interior dispatch (the warm start is returned then).
    meta["gap"] is the relative duality gap (lambda + <W, B>) / lambda
    between the returned policy and dual; meta["stalled"] flags a policy no
    better than the warm start."""
    deadline = None if budget_s is None else time.monotonic() + budget_s
    p_w, G0, t_init = warm_start_defense(mats, policy)
    rows, free, p_fixed, c = presolve(mats, policy)
    A = mats.A[rows][:, free]
    meta = {"t_init": t_init, "stop": "no-interior", "newton_steps": 0,
            "gap": None}
    p0, G, dual = p_w, G0, None
    if rows.size and float(np.max(A @ p_w[free] + c)) < 0.0:
        (q, lam, G_f), duals, info = _socp(A, mats.B[rows], c, p_w[free],
                                           deadline)
        meta.update(info, **{"lambda": lam})
        p0, G = p_fixed.copy(), np.zeros_like(G0)
        p0[free], G[free] = q / lam, G_f
        # later centers are tighter, but s_i = u_i^2 - ||w_i||^2 carries a
        # rounding error of about eps * u_i^2, so their duals have residuals
        # of about eps * tau for `_feasible_dual` to pay: keep the best
        if duals:
            polished = _complementary_dual(A, mats.B[rows], c, q, lam, G_f,
                                           duals[-1][0])
            duals += [polished] if polished is not None else []
        gaps = []
        for y_f, W_f in duals:
            y, W = np.zeros(mats.m), np.zeros((mats.m, mats.n_delta))
            y[rows], W[rows] = y_f, W_f
            cand = _feasible_dual(mats, y, W)
            if cand is not None:
                gaps.append(((lam + float(np.sum(cand[1] * mats.B))) / lam,
                             cand))
        if gaps:
            meta["gap"], dual = min(gaps, key=lambda g: g[0])
    meta["deadline"] = meta["stop"] == "deadline"
    try:
        t, row = t_tilde(mats, p0, G, policy)
    except PreconditionError as exc:
        raise SolverError(f"socp final: p0 = q / lambda is infeasible: {exc}")
    if "lambda" in meta and t < (1.0 - 1e-9) / meta["lambda"] ** 2:
        raise SolverError(
            f"socp final: exact radius {t:.9e} is below 1/lambda^2 = "
            f"{meta['lambda'] ** -2:.9e} at row {mats.row_labels[row]}")
    meta["stalled"] = not t > t_init
    return DefensePolicy(p0, G, float(t), row, meta=meta, dual=dual)


def verify_policy(mats, pol, samples=1000, seed=0, policy=DEFAULT_POLICY):
    """Randomized soundness check: `samples` perturbations drawn uniformly in
    the ball ||delta||^2 <= t*(1 - 1e-6), plus a deterministic probe along the
    binding row's own crossing direction.  Any violated row is a hard error."""
    t = pol.t
    if not np.isfinite(t):
        t = 1e6 * (1.0 + float(np.max(np.abs(mats.c), initial=0.0))) ** 2
    r = np.sqrt(max(t, 0.0) * (1.0 - policy.ball_shrink))
    n = mats.n_delta
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(samples, n))
    u /= np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-300)
    radii = r * rng.random(samples) ** (1.0 / n)
    deltas = u * radii[:, None]
    if pol.binding_row is not None and np.isfinite(pol.t) and pol.t > 0:
        i = pol.binding_row
        proj = lin_solve.project_policy(pol.p0, pol.G, mats.A[i], mats.B[i],
                                        float(mats.c[i]))
        if proj.delta is not None and np.linalg.norm(proj.delta) > 0:
            probe = proj.delta / np.linalg.norm(proj.delta) * r
            deltas = np.vstack([deltas, probe[None, :]])
    margins = mats.margins(pol.p0)
    dirs = (mats.A @ pol.G if mats.A.size else 0.0) + mats.B
    viol = margins[:, None] + dirs @ deltas.T > policy.feas_tol
    if np.any(viol):
        row, col = np.argwhere(viol)[0]
        raise PolicyVerificationError(
            f"policy with t={pol.t:.6e} violates row "
            f"{mats.row_labels[int(row)]} at delta={deltas[int(col)]}")
    pol.verified_samples = samples
    return samples


def rank1_policy(mats, kind="uniform", p0=None, policy=DEFAULT_POLICY):
    """Distributed-slack policies: every generator absorbs a fixed share of
    the total load change 1^T delta (uniform 1/n_g, or proportional to the
    base dispatch).  The slack generator's share is implicit in the reduced
    coordinates."""
    if p0 is None:
        p0, _G, _t = warm_start_defense(mats, policy)
    p0 = np.asarray(p0, float)
    full = mats.full_dispatch(p0)
    n_g = full.size
    if kind == "uniform":
        shares = np.full(n_g, 1.0 / n_g)
    elif kind == "proportional":
        tot = float(full.sum())
        if abs(tot) < 1e-12:
            raise GeometryError("proportional policy degenerate: 1^T p0 = 0")
        shares = full / tot
    else:
        raise ValueError(f"unknown rank1 policy kind {kind!r}")
    G = np.outer(shares[mats.gen_order], np.ones(mats.n_delta))
    t, row = t_tilde(mats, p0, G, policy)
    return DefensePolicy(p0, G, float(t), row, meta={"kind": kind})


def simplex_policy_fit(vertices, dispatches, policy=DEFAULT_POLICY):
    """Unique affine map through n+1 perturbation/dispatch pairs:
    [G p0] = P * D_hat^{-1} with D_hat the vertices plus an all-ones row."""
    D = np.atleast_2d(np.asarray(vertices, float))
    P = np.atleast_2d(np.asarray(dispatches, float))
    k, n = D.shape
    if k != n + 1:
        raise GeometryError(f"need {n + 1} vertices for a {n}-d simplex, got {k}")
    if P.shape[0] != k:
        raise GeometryError("one dispatch per vertex required")
    d_hat = np.vstack([D.T, np.ones((1, k))])
    cond = float(np.linalg.cond(d_hat))
    if not np.isfinite(cond) or cond > 1e12:
        raise GeometryError(f"simplex is degenerate (condition {cond:.3e})")
    M = P.T @ np.linalg.inv(d_hat)
    G, p0 = M[:, :n], M[:, n]
    err = float(np.max(np.abs(G @ D.T + p0[:, None] - P.T), initial=0.0))
    if err > 1e-9 * (1.0 + float(np.max(np.abs(P), initial=0.0))):
        raise GeometryError(f"vertex reproduction error {err:.3e}")
    return SimplexPolicy(vertices=D, dispatches=P, G=G, p0=p0, cond=cond)


def feasible_simplex(mats, scale=None, policy=DEFAULT_POLICY, max_halvings=40):
    """Heuristic simplex of feasible perturbations: a scaled coordinate
    simplex centered at 0 is shrunk until every vertex admits a dispatch.
    Returns a SimplexPolicy or None when no scale works."""
    from .dc_model import solve_dcopf

    n = mats.n_delta
    base = np.vstack([np.eye(n), np.zeros((1, n))])
    base -= base.mean(axis=0, keepdims=True)
    if scale is None:
        scale = 1.0 + float(np.abs(mats.case.p_d()).sum())
    for _ in range(max_halvings):
        verts = scale * base
        dispatches = []
        for v in verts:
            sol = solve_dcopf(mats, v, policy)
            if not sol.feasible:
                break
            dispatches.append(sol.p_hat)
        else:
            return simplex_policy_fit(verts, np.vstack(dispatches)
                                      if dispatches else
                                      np.zeros((n + 1, 0)), policy)
        scale *= 0.5
    return None
