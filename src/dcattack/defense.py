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

with dual  max -<W, B>  s.t.  A^T y = 0, c^T y = -1, A^T W = 0,
||w_i|| <= y_i.  The program needs a strictly interior dispatch; the model
folds units with p_min == p_max into c (`dc_model`), whose bound rows would
otherwise be implicit equalities.

`defense_local` solves the pair by Mehrotra's predictor-corrector with
Nesterov-Todd scaling (Nesterov and Todd 1997; Vandenberghe, "The CVXOPT
linear and quadratic cone program solvers", 2010).  The NT matrix of cone i,
beta_i^-2 (2 J wb_i wb_i^T J - J), is the barrier Hessian at the virtual
point sqrt(2) beta_i wb_i, so the Newton system is kron(A^T D A, I_k) on the
G block plus one rank-one term per cone; `_newton_factor` eliminates G and
solves the bordered system left in (q, lambda) and m rank-one weights, at
O(m^2 (n + k) + (m + n)^3) per step instead of O((n k)^3).

The slacks are recomputed from the primal iterate (q, lambda, G) every step,
so every iterate is a sound policy and an expired deadline or a failed step
just ends the solve early; only the dual starts infeasible.  Each dual iterate
is made feasible to rounding through the units' own bound rows, which
certifies a lower bound on lambda; the solve has converged once the best one
is within 1e-8 of lambda.  The reported radius is always the exact t_tilde of
the returned (p0, G).  The dual's y lies in P = {mu >= 0, A^T mu = 0,
-c^T mu = 1}, so it is also a Farkas candidate for the attack.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import lin_solve
from .errors import (GeometryError, ModelError, PolicyVerificationError,
                     PreconditionError, SolverError)
from .numerics import DEFAULT_POLICY

# the solve converges once the certified duality gap is below _GAP_TOL; each
# step goes _STEP of the way to the cone boundary, and a solve that has not
# converged after _MAX_STEPS steps ends as "step-failed"
_GAP_TOL = 1e-8
_STEP = 0.99
_MAX_STEPS = 60


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
    # -<W, B> <= lambda for every policy; None when no dual iterate made one
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


def warm_start_defense(mats, policy=DEFAULT_POLICY):
    """Max-margin dispatch and its fixed-dispatch radius: min m s.t.
    a_i^T p + c_i <= m, solved in the wide form of
    `lin_solve.check_feasible`."""
    ok, p, ray = lin_solve.check_feasible(mats.A, -mats.c, policy)
    if not ok:
        worst = mats.row_labels[int(np.argmax(ray))]
        raise ModelError("max-margin LP: no dispatch satisfies the nominal "
                         f"constraints (Farkas ray heaviest on {worst})")
    t_init, _row = t_tilde(mats, p, None, policy)
    return p, np.zeros((mats.n_reduced, mats.n_delta)), float(t_init)


# Cone vectors are the rows x = (x_0, x_1) of an m x (k+1) array, one second-
# order cone {x_0 >= ||x_1||} per row; J = diag(1, -I).

def _rowdot(X, Y):
    return np.einsum("ij,ij->i", X, Y)


def _jnorm(x):
    """sqrt(x^T J x) per cone, factored to keep its digits at the boundary."""
    r = np.linalg.norm(x[:, 1:], axis=1)
    return np.sqrt((x[:, 0] - r) * (x[:, 0] + r))


def _interior(x):
    return bool(np.all(x[:, 0] > np.linalg.norm(x[:, 1:], axis=1)))


def _jprod(x, y):
    """The Jordan product x o y = (x^T y, x_0 y_1 + y_0 x_1) per cone."""
    return np.column_stack([_rowdot(x, y),
                            x[:, :1] * y[:, 1:] + y[:, :1] * x[:, 1:]])


def _jsolve(x, r):
    """v with x o v = r per cone."""
    v0 = (x[:, 0] * r[:, 0] - _rowdot(x[:, 1:], r[:, 1:])) / _jnorm(x) ** 2
    return np.column_stack([v0, (r[:, 1:] - v0[:, None] * x[:, 1:])
                            / x[:, :1]])


def _nt_scaling(s, z):
    """(beta, wb) per cone, wb^T J wb = 1, of the NT scaling W = beta [[wb_0,
    wb_1^T], [wb_1, I + wb_1 wb_1^T / (1 + wb_0)]], W z = W^-1 s."""
    ns, nz = _jnorm(s), _jnorm(z)
    sb, zb = s / ns[:, None], z / nz[:, None]
    gam = np.sqrt(0.5 * (1.0 + _rowdot(sb, zb)))
    zb[:, 1:] *= -1.0
    return np.sqrt(ns / nz), (sb + zb) / (2.0 * gam)[:, None]


def _scale(beta, wb, v, inverse=False):
    """W v per cone, or W^-1 v (W^-1 is W with beta^-1 and -wb_1)."""
    sg = -1.0 if inverse else 1.0
    t = _rowdot(wb[:, 1:], v[:, 1:])
    out = np.empty_like(v)
    out[:, 0] = wb[:, 0] * v[:, 0] + sg * t
    out[:, 1:] = v[:, 1:] + (sg * v[:, 0] + t / (1.0 + wb[:, 0]))[:, None] \
        * wb[:, 1:]
    return out * (beta ** sg)[:, None]


def _max_step(x, d):
    """The largest alpha with x + alpha d in every cone (x interior; inf
    when none binds), after a hyperbolic rotation of x onto (1, 0)."""
    n = _jnorm(x)
    xb = x / n[:, None]
    rho0 = xb[:, 0] * d[:, 0] - _rowdot(xb[:, 1:], d[:, 1:])
    rho1 = d[:, 1:] - ((rho0 + d[:, 0]) / (xb[:, 0] + 1.0))[:, None] \
        * xb[:, 1:]
    worst = float(np.max((np.linalg.norm(rho1, axis=1) - rho0) / n))
    return 1.0 / worst if worst > 0.0 else np.inf


def _newton_factor(A, c, u, W, s):
    """Factor the Hessian H of -sum_i log s_i, s_i = u_i^2 - ||w_i||^2, in
    (q, lam, G) at (u, W, s); return solve(g_y, g_G) = (dy, dG) = -H^-1 g.
    H = diag(-Ay^T D Ay, kron(K, I)) + sum_i v_i v_i^T with Ay = [A c],
    D = diag(2 / s), K = A^T D A = R^T R (R from a QR of D^1/2 A: near the
    optimum D spans twenty decades) and v_i = (d_i u_i Ay_i, d_i vec(a_i
    w_i^T)).  Eliminating G leaves a bordered system in dy and the weights
    of the v_i; its block C = I + (D^1/2 Q Q^T D^1/2) o (W W^T) grows
    ill-conditioned near the optimum, so LU with pivoting solves it whole.
    Raises LinAlgError on a singular factor."""
    n = A.shape[1]
    Ay = np.hstack([A, c[:, None]])
    d = 2.0 / s
    r = np.sqrt(d)
    Q, R = np.linalg.qr(r[:, None] * A)
    E = Ay.T * (d * u)
    M = np.block([[-(Ay.T @ (d[:, None] * Ay)), E],
                  [E.T, -np.eye(s.size) - np.outer(r, r) * (Q @ Q.T)
                   * (W @ W.T)]])
    R_inv = np.linalg.inv(R)

    def solve(g_y, g_G):
        Y = R_inv.T @ g_G
        sol = np.linalg.solve(M, np.concatenate([-g_y,
                                                 r * _rowdot(Q @ Y, W)]))
        t = r * sol[n + 1:]
        return sol[:n + 1], -R_inv @ (Y + Q.T @ (t[:, None] * W))

    return solve


def _socp(mats, p_start, deadline):
    """Primal-dual solve of the program in the module docstring, from G = 0
    and a dispatch with every margin negative; `_feasible_dual` makes each
    dual iterate feasible.  Past a gap of _GAP_TOL, steps go on while each cuts the gap tenfold,
    which sharpens the policy until rounding stalls it.  Returns (q, lam, G)
    of the smallest-lambda iterate, the best dual and an info dict: why the
    solve stopped, its Newton steps and the relative gap between the two."""
    A, B, c, m = mats.A, mats.B, mats.c, mats.m
    Ay = np.hstack([A, c[:, None]])
    lam = 2.0 * max(float(np.max(np.linalg.norm(B, axis=1)
                                 / -(A @ p_start + c))), 1e-12)
    x, G = np.append(lam * p_start, lam), np.zeros((A.shape[1], B.shape[1]))
    s = np.column_stack([-(Ay @ x), B])
    z = s * (lam / m / _jnorm(s) ** 2)[:, None]     # s o z = (lam / m) e
    z[:, 1:] *= -1.0
    e_lam = np.eye(x.size)[-1]
    best, dual, bound = (x, G), None, -np.inf
    info = {"stop": "step-failed", "newton_steps": 0, "gap": np.inf}
    for _ in range(_MAX_STEPS):
        cand, lb = _feasible_dual(mats, z[:, 0], z[:, 1:])
        if lb > bound:
            dual, bound = cand, lb
        last, info["gap"] = info["gap"], 1.0 - bound / best[0][-1]
        if info["gap"] <= _GAP_TOL:
            info["stop"] = "converged"
            if info["gap"] > 0.1 * last:
                break
        if deadline is not None and time.monotonic() >= deadline:
            if info["stop"] != "converged":
                info["stop"] = "deadline"
            break
        beta, wb = _nt_scaling(s, z)
        lm = _scale(beta, wb, z)
        if not _interior(lm):       # the scaled point lost its digits
            break

        def direction(xi, passes):
            # dx and the scaled (W^-1 ds, W dz) of F^T dz = -(F^T z + e_lam),
            # W dz + W^-1 ds = xi, ds = -F dx, refined passes - 1 times; ds
            # sums the corrections' slack changes, so the residual is exact
            dy, dG, ds = np.zeros_like(x), np.zeros_like(G), np.zeros_like(z)
            for _ in range(passes):
                zz = z + _scale(beta, wb, xi - ds, inverse=True)
                ey, eG = solve(Ay.T @ zz[:, 0] + e_lam, -(A.T @ zz[:, 1:]))
                dy, dG = dy + ey, dG + eG
                ds = ds + _scale(beta, wb, np.column_stack(
                    [-(Ay @ ey), A @ eG]), inverse=True)
            return dy, dG, np.vstack([ds, xi - ds])

        # W^-2 is the barrier Hessian at the virtual point sqrt(2) beta wb.
        # The affine predictor sets sigma and the second-order term of the
        # corrector, which alone is refined
        v = np.sqrt(2.0) * beta[:, None] * wb
        try:
            solve = _newton_factor(A, c, v[:, 0], v[:, 1:], 2.0 * beta ** 2)
            _dy, _dG, d = direction(-lm, 1)
            alpha = min(1.0, _max_step(np.vstack([lm, lm]), d))
            mu = float(np.sum(lm * lm))
            ahead = float(np.sum((lm + alpha * d[:m]) * (lm + alpha * d[m:])))
            r = -_jprod(lm, lm) - _jprod(d[:m], d[m:])
            r[:, 0] += (ahead / mu) ** 3 * mu / m        # sigma mu e
            dy, dG, d = direction(_jsolve(lm, r), 2)
        except np.linalg.LinAlgError:
            break
        alpha = min(1.0, _STEP * _max_step(np.vstack([lm, lm]), d))
        x, G = x + alpha * dy, G + alpha * dG
        z = z + alpha * _scale(beta, wb, d[m:], inverse=True)
        s = np.column_stack([-(Ay @ x), A @ G + B])
        info["newton_steps"] += 1
        if not (_interior(s) and _interior(z)):
            break
        if x[-1] < best[0][-1]:
            best = (x, G)
    x, G = best
    info["gap"] = float(1.0 - bound / x[-1]) if dual is not None else None
    return (x[:-1], float(x[-1]), G), dual, info


def _feasible_dual(mats, y, W):
    """Restore A^T y = 0 and A^T W = 0 through each unit's own bound rows
    (a_i = +-e_j, b_i = 0; ||w_i|| <= y_i survives by the triangle
    inequality), then scale onto c^T y = -1.  Mass added to both bound rows
    of unit j moves only c^T y, by -(p_max - p_min), so a residual costs
    bound, never soundness.  Returns the dual and its bound -<W, B>, or
    (None, -inf) when c^T y ends up nonnegative."""
    up, lo = mats.unit_rows()
    r, R = mats.A.T @ y, mats.A.T @ W
    half = 0.5 * np.linalg.norm(R, axis=1)
    y, W = y.copy(), W.copy()
    y[up] += half + np.maximum(-r, 0.0)
    y[lo] += half + np.maximum(r, 0.0)
    W[up] -= 0.5 * R
    W[lo] += 0.5 * R
    scale = -float(mats.c @ y)
    if not scale > 0.0:
        return None, -np.inf
    W = W / scale
    return (y / scale, W), -float(np.sum(W * mats.B))


def defense_local(mats, policy=DEFAULT_POLICY, budget_s=None):
    """The best affine policy, by the primal-dual SOCP solve of the module
    docstring.

    Starts from `warm_start_defense`.  `budget_s` bounds the wall time of the
    interior-point loop; on expiry the best iterate so far is returned with
    meta["deadline"] set.  meta["stop"] says why the solve ended:
    "converged" (certified duality gap below 1e-8), "step-failed" (a factor
    was singular, a step left the cones, or 60 steps did not converge),
    "deadline", or "no-interior" when no dispatch is strictly interior (the
    warm start is returned then).  meta["newton_steps"] counts interior-point
    iterations; meta["gap"] is the relative duality gap
    (lambda + <W, B>) / lambda between the returned policy and dual;
    meta["stalled"] flags a policy no better than the warm start."""
    deadline = None if budget_s is None else time.monotonic() + budget_s
    p_w, G0, t_init = warm_start_defense(mats, policy)
    meta = {"t_init": t_init, "stop": "no-interior", "newton_steps": 0,
            "gap": None}
    p0, G, dual = p_w, G0, None
    if float(np.max(mats.margins(p_w))) < 0.0:
        (q, lam, G), dual, info = _socp(mats, p_w, deadline)
        meta.update(info, **{"lambda": lam})
        p0 = q / lam
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
    coordinates; it also takes the shares of the held units, which cannot
    move."""
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
