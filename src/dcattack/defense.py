"""Control policies (p0, G) with the largest guaranteed-solvability radius.

A policy answers load perturbations with the affine response p(delta) =
p0 + G delta.  Its certified radius

    t_tilde(p0, G) = min_i (a_i^T p0 + c_i)^2 / ||G^T a_i + b_i||^2

is the largest t such that every ||delta||^2 <= t keeps all rows satisfied,
so t_tilde is a sound lower bound on any attack.  Rows whose direction
G^T a_i + b_i vanishes can never be crossed and drop out (infinite sentinel).

The local maximizer runs in two phases.  Phase one does projected gradient
ascent on a softmin surrogate of t_tilde whose temperature anneals from
1e-1 * t_init down to 1e-6 * t_init; infeasible p0 trials are pulled back
toward the strictly interior max-margin dispatch.  Phase two ("radius push")
tries to certify progressively larger radii s directly: for a fixed s the
condition s*||G^T a_i + b_i|| + a_i^T p0 + c_i <= 0 for all rows is convex in
(p0, G), and a squared-hinge descent either satisfies it or the growth factor
shrinks.  Reported radii are always recomputed exactly; smoothed or pushed
values never leave this module unverified.
"""

from dataclasses import dataclass, field

import numpy as np

from . import lin_solve
from .errors import (GeometryError, ModelError, PolicyVerificationError,
                     PreconditionError)
from .numerics import DEFAULT_POLICY


@dataclass
class DefensePolicy:
    p0: np.ndarray
    G: np.ndarray
    t: float
    binding_row: int
    verified_samples: int = 0
    meta: dict = field(default_factory=dict)

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


@dataclass
class DefenseConfig:
    iters_per_temp: int = 60
    temp_start: float = 1e-1
    temp_end: float = 1e-6
    stage2: bool = True
    stage2_iters: int = 400
    push_rounds: int = 40
    target_radius_sq: float = None
    bias_direction: np.ndarray = None   # favor rows crossable along this delta
    bias_weight: float = 1.0


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
    """Max-margin dispatch (Chebyshev-style LP) and its fixed-dispatch radius:
    min m s.t. a_i^T p + c_i <= m for all rows."""
    m, n = mats.m, mats.n_reduced
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    A_ub = np.hstack([mats.A, -np.ones((m, 1))])
    res = lin_solve.lp_solve(
        lin_solve.LpProblem(c=cost, A_ub=A_ub, b_ub=-mats.c), policy)
    if res.status != lin_solve.OPTIMAL:
        raise ModelError(f"max-margin LP ended {res.status}: "
                         "no dispatch satisfies the nominal constraints")
    p_init = res.x[:n]
    if res.x[-1] > policy.feas_tol:
        raise ModelError("nominal case infeasible: best margin "
                         f"{res.x[-1]:.3e} > 0")
    t_init, _row = t_tilde(mats, p_init, None, policy)
    return p_init, np.zeros((n, mats.n_delta)), float(t_init)


def _surrogate(mats, p0, G, temp, bias=None, bias_weight=1.0):
    """Softmin value and ascent gradients; returns None when no row binds.
    An optional bias direction upweights rows whose crossing direction aligns
    with it (gradient only; the reported value stays the exact softmin)."""
    m = mats.margins(p0)
    dirs = (mats.A @ G if mats.A.size else 0.0) + mats.B
    den = np.einsum("ij,ij->i", dirs, dirs)
    # Rows whose direction norm sits at floating-point-noise level relative to
    # the most sensitive row only arise from cancellation; treating them as
    # delta-insensitive keeps the gradients finite and matches the exact-radius
    # convention of excluding zero-direction rows.
    live = den > 1e-18 * max(1.0, float(den.max()) if den.size else 0.0)
    if not np.any(live):
        return None
    f = m[live] ** 2 / den[live]
    fmin = float(f.min())
    e = np.exp(-(f - fmin) / max(temp, 1e-300))
    se = float(e.sum())
    w = e / se
    value = fmin - temp * np.log(se)
    if bias is not None:
        align = dirs[live] @ bias / np.sqrt(den[live])
        w = w * (1.0 + bias_weight * np.clip(align, 0.0, None))
        w /= w.sum()
    A_live = mats.A[live]
    gp = A_live.T @ (w * 2.0 * m[live] / den[live]) if mats.A.size else \
        np.zeros(0)
    coef = w * (-2.0) * m[live] ** 2 / den[live] ** 2
    gG = (A_live.T @ (coef[:, None] * dirs[live]) if mats.A.size else
          np.zeros_like(G))
    return value, gp, gG, float(fmin)


def _repair(mats, p_try, p_anchor, policy):
    """Pull an infeasible dispatch back along the segment to the strictly
    interior anchor until all rows are satisfied again."""
    m_try = mats.margins(p_try)
    viol = m_try > 0.0
    if not np.any(viol):
        return p_try
    m_anchor = mats.margins(p_anchor)
    gap = m_try[viol] - m_anchor[viol]
    if np.any(gap <= 0):
        return p_anchor.copy()
    alpha = float(np.max(m_try[viol] / gap))
    alpha = min(1.0, alpha * 1.02 + 1e-12)
    return p_try + alpha * (p_anchor - p_try)


def _exact_t(mats, p0, G, policy):
    try:
        t, row = t_tilde(mats, p0, G, policy)
    except PreconditionError:
        return None, None
    return t, row


def _push_radius(mats, p0, G, s, iters, policy):
    """Squared-hinge descent on the convex certificate of radius s:
    s*||G^T a_i + b_i|| + a_i^T p0 + c_i <= 0 for every row."""
    p, Gm = p0.copy(), G.copy()
    eta = 0.5
    scale = 1.0 + float(np.max(np.abs(mats.c), initial=0.0))
    for _ in range(iters):
        m = mats.margins(p)
        dirs = (mats.A @ Gm if mats.A.size else 0.0) + mats.B
        nrm = np.linalg.norm(dirs, axis=1)
        h = s * nrm + m
        act = h > 0.0
        V = float(h[act] @ h[act])
        if V <= (1e-12 * scale) ** 2:
            return p, Gm, 0.0
        if not mats.A.size:
            return p, Gm, V      # nothing to steer
        A_act = mats.A[act]
        gp = A_act.T @ (2.0 * h[act])
        safe = np.where(nrm[act] > 0.0, nrm[act], 1.0)
        coefG = 2.0 * h[act] * s / safe * (nrm[act] > 0.0)
        gG = A_act.T @ (coefG[:, None] * dirs[act])
        gn2 = float(gp @ gp) + float(np.sum(gG * gG))
        if gn2 <= 0.0:
            return p, Gm, V
        # backtracking on the exact hinge objective
        step = eta
        for _bt in range(30):
            p_t = p - step * gp
            G_t = Gm - step * gG
            m_t = mats.margins(p_t)
            d_t = (mats.A @ G_t) + mats.B
            h_t = s * np.linalg.norm(d_t, axis=1) + m_t
            a_t = h_t > 0
            V_t = float(h_t[a_t] @ h_t[a_t])
            if V_t < V - 1e-4 * step * gn2:
                p, Gm = p_t, G_t
                eta = step * 1.5
                break
            step *= 0.5
        else:
            return p, Gm, V
    m = mats.margins(p)
    dirs = (mats.A @ Gm) + mats.B
    h = s * np.linalg.norm(dirs, axis=1) + m
    act = h > 0
    return p, Gm, float(h[act] @ h[act])


def defense_local(mats, init=None, config=None, policy=DEFAULT_POLICY):
    """Two-phase local maximization of t_tilde (see module docstring).

    `init` may be a DefensePolicy or a (p0, G) pair; None starts from the
    max-margin warm start.  The returned policy never has t below the init's
    exact radius; a run that could not improve is flagged `stalled`.
    """
    cfg = config or DefenseConfig()
    p_anchor, G0, t_anchor = warm_start_defense(mats, policy)
    if init is None:
        p0, G = p_anchor.copy(), G0.copy()
    elif isinstance(init, DefensePolicy):
        p0, G = init.p0.copy(), init.G.copy()
    else:
        p0, G = (np.asarray(init[0], float).copy(),
                 np.asarray(init[1], float).copy())
    t_init, row_init = t_tilde(mats, p0, G, policy)
    if not np.isfinite(t_init):
        return DefensePolicy(p0, G, t_init, row_init,
                             meta={"t_init": t_init, "stalled": False,
                                   "stage1_t": t_init, "pushes": 0})

    best = (t_init, p0.copy(), G.copy())
    t_scale = max(t_init, t_anchor, 1e-12)

    # ---- phase 1: annealed softmin ascent ----------------------------------
    bias = None
    if cfg.bias_direction is not None:
        b = np.asarray(cfg.bias_direction, float)
        nb = np.linalg.norm(b)
        if nb > 0:
            bias = b / nb
    temp = cfg.temp_start * t_scale
    temp_end = cfg.temp_end * t_scale
    step = 0.1 * (1.0 + float(np.linalg.norm(p0)))
    while temp > temp_end:
        rejects = 0
        cur = _surrogate(mats, p0, G, temp, bias, cfg.bias_weight)
        if cur is None:
            break
        for _ in range(cfg.iters_per_temp):
            value, gp, gG, _f = cur
            gn = np.sqrt(float(gp @ gp) + float(np.sum(gG * gG)))
            if gn < 1e-15:
                break
            p_t = _repair(mats, p0 + step * gp / gn, p_anchor, policy)
            G_t = G + step * gG / gn
            trial = _surrogate(mats, p_t, G_t, temp, bias, cfg.bias_weight)
            if trial is not None and trial[0] > value + 1e-15:
                p0, G, cur = p_t, G_t, trial
                step *= 1.3
                t_now, _ = _exact_t(mats, p0, G, policy)
                if t_now is not None and t_now > best[0]:
                    best = (t_now, p0.copy(), G.copy())
            else:
                step *= 0.4
                rejects += 1
                if rejects > 12:
                    break
        temp *= 0.5
    stage1_t = best[0]

    # ---- phase 2: radius push ----------------------------------------------
    pushes = 0
    if cfg.stage2:
        t_best, p_b, G_b = best
        target_s = (np.sqrt(cfg.target_radius_sq)
                    if cfg.target_radius_sq else None)
        gamma = 0.25
        s_floor = 1e-4 * np.sqrt(t_scale)
        for _ in range(cfg.push_rounds):
            s_best = np.sqrt(max(t_best, 0.0))
            if target_s is not None and s_best >= target_s * (1 - 1e-9):
                break
            s_try = s_best * (1.0 + gamma) if s_best > 0 else s_floor
            if target_s is not None:
                s_try = min(s_try, target_s)
            p_c, G_c, _V = _push_radius(mats, p_b, G_b, s_try,
                                        cfg.stage2_iters, policy)
            pushes += 1
            t_c, _ = _exact_t(mats, p_c, G_c, policy)
            if t_c is not None and t_c > t_best * (1 + 1e-12) + 1e-18:
                t_best, p_b, G_b = t_c, p_c, G_c
                if t_c >= s_try * s_try * (1 - 1e-9):
                    gamma = min(gamma * 1.6, 1.0)
            else:
                gamma *= 0.5
                if gamma < 1e-3:
                    break
        best = (t_best, p_b, G_b)

    t_fin, row_fin = t_tilde(mats, best[1], best[2], policy)
    stalled = t_fin <= t_init * (1 + 1e-12) + 1e-18
    if t_fin < t_init - 1e-12:    # never report worse than the init
        t_fin, row_fin = t_init, row_init
        best = (t_init, p0, G)
    return DefensePolicy(best[1], best[2], float(t_fin), row_fin,
                         meta={"t_init": float(t_init), "stalled": bool(stalled),
                               "stage1_t": float(stage1_t), "pushes": pushes})


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
                                        float(mats.c[i]), policy)
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
