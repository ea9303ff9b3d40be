"""Control policies (p0, G) with the largest guaranteed-solvability radius.

A policy answers load perturbations with the affine response p(delta) =
p0 + G delta.  Its certified radius

    t_tilde(p0, G) = min_i (a_i^T p0 + c_i)^2 / ||G^T a_i + b_i||^2

is the largest t such that every ||delta||^2 <= t keeps all rows satisfied,
so t_tilde is a sound lower bound on any attack.  The per-row radii are
`dc_model.FeasibilityMatrices.radii`, where a row whose direction
G^T a_i + b_i vanishes can never be crossed and reads +inf.

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
O(m^2 (n + k) + (m + n)^3) per solve instead of O((n k)^3).  numpy keeps no
factorization, so every solve is a fresh LU.  A step solves once for the
affine predictor and once for the corrector; before convergence the
corrector is solved again for its own dual residual only while that
residual is above 1e-10, up to four solves, and after it the corrector takes
two fixed passes.  meta["solves"] counts the solves over every round.
Each step computes each cone's row norm and J-norm once and hands them on:
those of s and z come from the interior tests that end the step before.
The scaled point lambda = W z = W^-1 s has a closed form in the normalized
s and z that the scaling is built from (`_nt_scaling`), with ||lambda||_J =
sqrt(||s||_J ||z||_J), so no product with W makes it; and the predictor's
right-hand side -lambda makes z + W^-1 (-lambda) = 0, so its residual is
(e_lam, 0) exactly and its solve skips the G block.

The slacks are recomputed from the primal iterate (q, lambda, G) every step,
so every iterate is a sound policy and an expired deadline or a failed step
just ends the solve early; only the dual starts infeasible.  Each dual iterate
is made feasible to rounding through the units' own bound rows, which
certifies a lower bound on lambda; the solve has converged once the best one
is within 1e-8 of lambda.  The reported radius is always the exact t_tilde of
the returned (p0, G).  The dual's y lies in P = {mu >= 0, A^T mu = 0,
-c^T mu = 1}, so it is also a Farkas candidate for the attack.

Few rows carry the optimal dual, so the program is solved on generated rows
(constraint generation; cf. the constraint-reduced interior-point methods of
Tits, Absil and Woessner 2006).  The first subset holds every unit and slack
row (the last 2n + 2, which `_feasible_dual` needs) and the 4n flow rows with
the smallest fixed-dispatch radius at the warm start, n = n_reduced; when 4n
covers every flow row, that is every row, and one round ends the loop.  Each
round solves the subset cold from the warm-start dispatch, strictly interior
for every subset.  The rows it adds are those whose cone the iterate (q,
lambda, G) violates: every flow row p0 = q / lambda breaks and every one
whose radius is below the subset's 1 / lambda^2.  It checks them once on the
way, at the first step whose certified gap is at most 1e-2 (cutting planes
from early interior-point iterates, cf. Mitchell and Borchers 1996): if any
is violated there the round stops and the subset grows, so no round but the
last is driven to 1e-8 only to learn that rows are missing; if none is, the
round runs on undisturbed and its final iterate is checked, and the loop
stops only when a round run to its end leaves none.  That is exact: a
subset's lambda is at most the full program's, at the stop no row's radius
is below 1 / lambda^2, and the subset dual padded with zeros is feasible for
the full dual, so the gap still certifies over every row.  The rounds share
one deadline, and a round that stopped early meets it as any other.  When
it cuts them with a row still violated, the policy in hand is kept only if
it breaks no row and beats the warm start, and no lambda is claimed for it.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import lin_solve
from .errors import (GeometryError, PolicyVerificationError,
                     PreconditionError, SolverError)

# the solve converges once the certified duality gap is below _GAP_TOL; a
# round of row generation checks the rows outside its subset at the first
# step whose gap is at most _GROW_GAP; each step goes _STEP of the way to the
# cone boundary, and a solve that has not converged after _MAX_STEPS steps
# ends as "step-failed"; until it converges, a step's corrector is solved once
# and refined (solved again, up to _MAX_PASSES solves in all) only while its
# dual residual is above _REFINE_TOL, a hundredth of the gap it must certify:
# two fixed passes once left a 7e-9 residual on ladder(480, 0) and failed the
# round; verify_policy samples strictly inside the radius, ||delta||^2 <=
# t (1 - _BALL_SHRINK), checking rows in blocks of about _VERIFY_BLOCK margins
_GAP_TOL = 1e-8
_GROW_GAP = 1e-2
_STEP = 0.99
_MAX_STEPS = 60
_REFINE_TOL = 1e-10
_MAX_PASSES = 4
_BALL_SHRINK = 1e-6
_VERIFY_BLOCK = 1 << 14


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
    # the `mats.max_margin()` result it started from, (p, res); the squeeze
    # hands it to the multistart, whose pool opens with res's vertex
    nominal: tuple = None

    def summary(self, mats):
        row = self.binding_row
        return {"t": self.t,
                "binding_row": None if row is None else mats.row_labels[row],
                "verified_samples": self.verified_samples,
                "p0": self.p0, "G": self.G, **self.meta}


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


def t_tilde(mats, p0, G):
    """Exact certified radius of the policy and its binding row: the min and
    argmin of `mats.radii`, or (inf, None) when no row can be crossed."""
    per = mats.radii(p0, G)
    if not np.any(np.isfinite(per)):
        return np.inf, None
    row = int(np.argmin(per))
    return float(per[row]), row


def warm_start_defense(mats, nominal=None):
    """The max-margin dispatch p of `nominal`, a `mats.max_margin()` result
    solved here when None (ModelError when F(0) is empty), G = 0 and p's
    fixed-dispatch radius."""
    p, G0 = (mats.max_margin() if nominal is None else nominal)[0], \
        np.zeros((mats.n_reduced, mats.n_delta))
    return p, G0, t_tilde(mats, p, None)[0]


# Cone vectors are the rows x = (x_0, x_1) of an m x (k+1) array, one second-
# order cone {x_0 >= ||x_1||} per row; J = diag(1, -I).

def _rowdot(X, Y):
    return np.einsum("ij,ij->i", X, Y)


def _rownorm(X):
    """||x|| along the last axis: `np.linalg.norm`'s arithmetic for a real
    array, without its dispatch."""
    return np.sqrt(np.add.reduce(X * X, axis=-1))


def _jnorm(x):
    """sqrt(x^T J x) per cone, factored to keep its digits at the boundary,
    or None when x is not strictly inside every cone."""
    r = _rownorm(x[:, 1:])
    if not np.all(x[:, 0] > r):
        return None
    return np.sqrt((x[:, 0] - r) * (x[:, 0] + r))


def _stack(col, rest):
    """The cone array [col rest], as np.column_stack without its checks."""
    out = np.empty((col.size, rest.shape[1] + 1))
    out[:, 0], out[:, 1:] = col, rest
    return out


def _jsolve(x, nx, r):
    """v with x o v = r per cone, the Jordan product x o v = (x^T v, x_0 v_1 +
    v_0 x_1); nx is `_jnorm(x)`."""
    v0 = (x[:, 0] * r[:, 0] - _rowdot(x[:, 1:], r[:, 1:])) / nx ** 2
    return _stack(v0, (r[:, 1:] - v0[:, None] * x[:, 1:]) / x[:, :1])


def _nt_scaling(s, z, ns, nz):
    """(beta, wb, lbar, nl) per cone: wb^T J wb = 1 and beta give the NT
    scaling W = beta [[wb_0, wb_1^T], [wb_1, I + wb_1 wb_1^T / (1 + wb_0)]],
    W z = W^-1 s; ns and nz are `_jnorm(s)` and `_jnorm(z)`.  The scaled
    point lambda = W z is nl lbar, with ||lambda||_J = nl = sqrt(ns nz) and,
    from the normalized sb = s / ns, zb = z / nz and gamma^2 = (1 + sb^T
    zb) / 2, lbar = (gamma, ((gamma + zb_0) sb_1 + (gamma + sb_0) zb_1) /
    (sb_0 + zb_0 + 2 gamma)), lbar^T J lbar = 1 (Vandenberghe 2010): no
    product with W."""
    sb, zb = s / ns[:, None], z / nz[:, None]
    gam = np.sqrt(0.5 * (1.0 + _rowdot(sb, zb)))
    den = sb[:, 0] + zb[:, 0] + 2.0 * gam
    lbar = _stack(gam, ((gam + zb[:, 0]) / den)[:, None] * sb[:, 1:]
                  + ((gam + sb[:, 0]) / den)[:, None] * zb[:, 1:])
    zb[:, 1:] *= -1.0
    return np.sqrt(ns / nz), (sb + zb) / (2.0 * gam)[:, None], lbar, \
        np.sqrt(ns * nz)


def _scaler(beta, wb):
    """scale(v) = W v per cone, scale(v, inverse=True) = W^-1 v (W^-1 is W
    with beta^-1 and -wb_1), for the NT scaling (beta, wb) of one step."""
    w0, w1, den = wb[:, 0], wb[:, 1:], 1.0 + wb[:, 0]
    b, b_inv = beta[:, None], (beta ** -1.0)[:, None]

    def scale(v, inverse=False):
        sg = -1.0 if inverse else 1.0
        t = _rowdot(w1, v[:, 1:])
        out = np.empty_like(v)
        out[:, 0] = w0 * v[:, 0] + sg * t
        out[:, 1:] = v[:, 1:] + (sg * v[:, 0] + t / den)[:, None] * w1
        out *= b_inv if inverse else b
        return out

    return scale


def _max_step(xb, nx, d):
    """The largest alpha with x + alpha d_j in every cone for every block d_j
    of len(x) rows of d (x = nx xb interior, xb^T J xb = 1; inf when none
    binds), after one hyperbolic rotation of xb onto (1, 0) for all
    blocks."""
    d = d.reshape(-1, *xb.shape)
    rho0 = xb[:, 0] * d[..., 0] - np.einsum("ij,kij->ki", xb[:, 1:],
                                            d[..., 1:])
    rho1 = d[..., 1:] - ((rho0 + d[..., 0]) / (xb[:, 0] + 1.0))[..., None] \
        * xb[:, 1:]
    worst = float(np.max((_rownorm(rho1) - rho0) / nx))
    return 1.0 / worst if worst > 0.0 else np.inf


def _newton_factor(A, Ay, u, W, s):
    """Factor the Hessian H of -sum_i log s_i, s_i = u_i^2 - ||w_i||^2, in
    (q, lam, G) at (u, W, s); return solve(g_y, g_G) = (dy, dG) = -H^-1 g,
    with g_G None for a zero G block.
    H = diag(-Ay^T D Ay, kron(K, I)) + sum_i v_i v_i^T with Ay = [A c],
    D = diag(2 / s), K = A^T D A = R^T R (R from a QR of D^1/2 A: near the
    optimum D spans twenty decades) and v_i = (d_i u_i Ay_i, d_i vec(a_i
    w_i^T)).  Eliminating G leaves a bordered system in dy and the weights
    of the v_i; its block C = I + (D^1/2 Q)(D^1/2 Q)^T o (W W^T) grows
    ill-conditioned near the optimum, so LU with pivoting solves it whole.
    Raises LinAlgError on a singular factor."""
    n = A.shape[1]
    d = 2.0 / s
    r = np.sqrt(d)
    Q, R = np.linalg.qr(r[:, None] * A)
    Q *= r[:, None]                 # D^1/2 Q from here on
    M = np.empty((n + 1 + s.size,) * 2)
    M[:n + 1, :n + 1] = -(Ay.T @ (d[:, None] * Ay))
    M[:n + 1, n + 1:] = Ay.T * (d * u)
    M[n + 1:, :n + 1] = M[:n + 1, n + 1:].T
    C = M[n + 1:, n + 1:]
    np.matmul(Q, Q.T, out=C)
    C *= W @ W.T
    np.negative(C, out=C)
    C[np.diag_indices(s.size)] -= 1.0
    R_inv = np.linalg.inv(R)

    def solve(g_y, g_G):
        rhs = np.zeros(M.shape[0])
        rhs[:n + 1] = -g_y
        if g_G is not None:
            Y = R_inv.T @ g_G
            rhs[n + 1:] = _rowdot(Q @ Y, W)
        sol = np.linalg.solve(M, rhs)
        X = Q.T @ (sol[n + 1:, None] * W)
        return sol[:n + 1], -R_inv @ (X if g_G is None else Y + X)

    return solve


def _socp(mats, p_start, deadline, meta, outside=None):
    """Primal-dual solve of the program in the module docstring, from G = 0
    and a dispatch with every margin negative; `_feasible_dual` makes each
    dual iterate feasible.  Past a gap of _GAP_TOL, steps go on while each
    cuts the gap tenfold, which sharpens the policy until rounding stalls
    it.  At the first gap of at most _GROW_GAP, `outside(q, lam, G)`, if
    given, returns the rows beyond mats whose cones the best iterate
    violates; if there are any, the solve stops there as "grow".  Returns
    (q, lam, G) of the smallest-lambda iterate and the best dual; adds its
    steps and solves to meta["newton_steps"] and meta["solves"], and sets
    meta["stop"] and meta["gap"] (`defense_local`)."""
    A, B, c, m = mats.A, mats.B, mats.c, mats.m
    Ay = np.hstack([A, c[:, None]])
    units = mats.unit_rows()
    lam = 2.0 * max(float(np.max(_rownorm(B) / -mats.margins(p_start))),
                    1e-12)
    x, G = np.append(lam * p_start, lam), np.zeros((A.shape[1], B.shape[1]))
    s = _stack(-(Ay @ x), B)
    ns = _jnorm(s)
    z = s * (lam / m / ns ** 2)[:, None]     # s o z = (lam / m) e
    z[:, 1:] *= -1.0
    nz = _jnorm(z)
    e_lam = np.zeros(x.size)
    e_lam[-1] = 1.0
    best, dual, bound = (x, G), None, -np.inf
    meta["stop"], gap = "step-failed", np.inf
    for _ in range(_MAX_STEPS):
        cand, lb = _feasible_dual(mats, units, z)
        if lb > bound:
            dual, bound = cand, lb
        last, gap = gap, 1.0 - bound / best[0][-1]
        if outside is not None and gap <= _GROW_GAP:
            if outside(best[0][:-1], best[0][-1], best[1]).size:
                meta["stop"] = "grow"
                break
            outside = None
        if gap <= _GAP_TOL:
            meta["stop"] = "converged"
            if gap > 0.1 * last:
                break
        if deadline is not None and time.monotonic() >= deadline:
            if meta["stop"] != "converged":
                meta["stop"] = "deadline"
            break
        beta, wb, lbar, n_lm = _nt_scaling(s, z, ns, nz)
        lm = lbar * n_lm[:, None]
        scale = _scaler(beta, wb)
        d = np.empty((2 * m, z.shape[1]))
        ds, dz = d[:m], d[m:]

        def direction(xi, passes, refine=False, g=None):
            # dx and, into d, the scaled (W^-1 ds, W dz) of F^T dz = -(F^T z
            # + e_lam), W dz + W^-1 ds = xi, ds = -F dx, solved `passes`
            # times, and with `refine` on again while the residual is above
            # _REFINE_TOL, up to _MAX_PASSES solves; g = (g_y, g_G), when
            # given, is the residual F^T (z + W^-1 xi) + (e_lam, 0) at d = 0;
            # ds sums the corrections' slack changes, so each residual is
            # exact
            ds.fill(0.0)
            for k in range(_MAX_PASSES if refine else passes):
                if k or g is None:
                    g = Ay.T @ (z + scale(np.subtract(xi, ds, out=dz) if k
                                          else xi, inverse=True))
                    g[-1, 0] += 1.0
                    g = g[:, 0], -g[:-1, 1:]
                    if k >= passes and max(np.abs(g[0]).max(), np.abs(
                            g[1]).max(initial=0.0)) <= _REFINE_TOL:
                        break
                meta["solves"] += 1
                ey, eG = solve(*g)
                np.add(ds, scale(_stack(-(Ay @ ey), A @ eG), inverse=True),
                       out=ds)
                dy, dG = (dy + ey, dG + eG) if k else (ey, eG)
            np.subtract(xi, ds, out=dz)
            return dy, dG

        # W^-2 is the barrier Hessian at the virtual point sqrt(2) beta wb.
        # The affine predictor sets sigma and the second-order term of the
        # corrector, which alone is refined.  After convergence it takes two
        # fixed passes: refined on demand there too, the sharpening steps
        # moved t by up to 1.2e-10 and took more steps on the ladders
        v = np.sqrt(2.0) * beta[:, None] * wb
        try:
            solve = _newton_factor(A, Ay, v[:, 0], v[:, 1:], 2.0 * beta ** 2)
            # the predictor's xi = -lm = -W z makes its residual (e_lam, 0)
            direction(-lm, 1, g=(e_lam, None))
            alpha = min(1.0, _max_step(lbar, n_lm, d))
            mu = float(np.sum(lm * lm))
            ahead = float(np.sum((lm + alpha * ds) * (lm + alpha * dz)))
            refine = meta["stop"] != "converged"
            # lm o xi = sigma mu e - lm o lm - ds o dz, sigma = (ahead / mu)^3
            dy, dG = direction(_jsolve(lm, n_lm, _stack(
                (ahead / mu) ** 3 * mu / m
                - (_rowdot(lm, lm) + _rowdot(ds, dz)),
                -(2.0 * lm[:, :1] * lm[:, 1:]
                  + (ds[:, :1] * dz[:, 1:] + dz[:, :1] * ds[:, 1:])))),
                1 if refine else 2, refine)
        except np.linalg.LinAlgError:
            break
        alpha = min(1.0, _STEP * _max_step(lbar, n_lm, d))
        x, G = x + alpha * dy, G + alpha * dG
        z = z + alpha * scale(dz, inverse=True)
        s = _stack(-(Ay @ x), A @ G + B)
        meta["newton_steps"] += 1
        ns, nz = _jnorm(s), _jnorm(z)
        if ns is None or nz is None:
            break
        if x[-1] < best[0][-1]:
            best = (x, G)
    x, G = best
    meta["gap"] = float(1.0 - bound / x[-1]) if dual is not None else None
    return (x[:-1], float(x[-1]), G), dual


def _feasible_dual(mats, units, z):
    """Restore A^T y = 0 and A^T W = 0 in the dual iterate z = [y W] through
    each unit's own bound rows (a_i = +-e_j, b_i = 0; ||w_i|| <= y_i
    survives by the triangle inequality), then scale onto c^T y = -1.  Mass
    added to both bound rows of unit j moves only c^T y, by -(p_max -
    p_min), so a residual costs bound, never soundness; `units` is
    `mats.unit_rows()`.  Returns the dual (y, W), views of one copy of z,
    and its bound -<W, B>, or (None, -inf) when c^T y ends up
    nonnegative."""
    up, lo = units
    Rz = mats.A.T @ z
    r, R = Rz[:, 0], Rz[:, 1:]
    half = 0.5 * _rownorm(R)
    z = z.copy()
    z[up, 0] += half + np.maximum(-r, 0.0)
    z[lo, 0] += half + np.maximum(r, 0.0)
    z[up, 1:] -= 0.5 * R
    z[lo, 1:] += 0.5 * R
    scale = -float(mats.c @ z[:, 0])
    if not scale > 0.0:
        return None, -np.inf
    z /= scale
    return (z[:, 0], z[:, 1:]), -float(np.sum(z[:, 1:] * mats.B))


def _socp_on_rows(mats, p_w, t_init, deadline, meta):
    """`_socp` on generated rows (module docstring) from the warm-start
    dispatch p_w, whose fixed-dispatch radius is t_init.  Returns (p0, G)
    and the dual padded with zeros to every row; counts meta["rounds"] and
    sets meta["rows"], and meta["lambda"] when the last round left no row
    violated.  If the deadline cuts the rounds short instead, p0, G are the
    warm start when p0 breaks a row or its exact radius is at most t_init."""
    m, n = mats.m, mats.n_reduced
    flow, bounds = mats.row_blocks()
    nearest = np.argsort(mats.radii(p_w)[flow], kind="stable")[:4 * n]
    rows = np.concatenate([np.sort(nearest), bounds])

    def outside(q, lam, G):
        # the rows outside the subset whose cone ||g_i|| <= -(a_i^T q + lam
        # c_i) (q, lam, G) violates: those p0 = q / lam breaks and those
        # whose radius is below 1 / lam^2
        cut = lam * mats.margins(q / lam) \
            + np.linalg.norm(mats.directions(G), axis=1) > 0.0
        cut[rows] = False
        return np.flatnonzero(cut)

    while True:
        (q, lam, G), dual = _socp(mats.take(rows), p_w, deadline, meta,
                                  outside)
        meta["rounds"] += 1
        p0, new = q / lam, outside(q, lam, G)
        if not new.size:
            meta["lambda"] = lam
            break
        if deadline is not None and time.monotonic() >= deadline:
            meta.update(stop="deadline", gap=None)
            if np.any(mats.margins(p0) > lin_solve.FEAS_TOL) \
                    or t_tilde(mats, p0, G)[0] <= t_init:
                p0, G = p_w, np.zeros_like(G)
            break
        rows = np.union1d(rows, new)
    meta["rows"] = int(rows.size)
    if dual is not None:
        y, W = np.zeros(m), np.zeros((m, mats.n_delta))
        y[rows], W[rows] = dual
        dual = (y, W)
    return (p0, G), dual


def defense_local(mats, budget_s=None):
    """The best affine policy, by the primal-dual SOCP solve of the module
    docstring, on generated rows.

    Starts from `warm_start_defense` at `mats.max_margin()`, kept as the
    policy's `nominal`.  `budget_s` bounds the wall time of the
    interior-point loop and its rounds; on expiry the best iterate so far is
    returned.  meta, built here and filled by `_socp_on_rows` and `_socp`,
    holds "t_init", the warm start's fixed-dispatch radius; "stop", why the
    solve ended: "converged" (certified duality gap below 1e-8),
    "step-failed" (a factor was singular, a step left the cones, or 60 steps
    did not converge), "deadline", or "no-interior" when no dispatch is
    strictly interior (the warm start is returned then); "newton_steps",
    the interior-point iterations over every round, and "solves", the Newton
    system solves (LU factorizations) they took; "gap", the relative duality
    gap (lambda + <W, B>) / lambda between the returned policy and dual,
    None without a dual or when the deadline cut the rounds short; "rows",
    the size of the last row subset, and "rounds", the number of subset
    solves, counting those stopped at a gap of 1e-2 to grow the subset;
    "lambda", the last solve's lambda, absent when no solve ran or the
    rounds were cut; "deadline", whether the deadline ended the solve; and
    "stalled", whether the policy is no better than the warm start."""
    deadline = None if budget_s is None else time.monotonic() + budget_s
    nominal = mats.max_margin()
    p_w, G0, t_init = warm_start_defense(mats, nominal)
    meta = {"t_init": t_init, "stop": "no-interior", "newton_steps": 0,
            "solves": 0, "gap": None, "rows": 0, "rounds": 0}
    p0, G, dual = p_w, G0, None
    if float(np.max(mats.margins(p_w))) < 0.0:
        (p0, G), dual = _socp_on_rows(mats, p_w, t_init, deadline, meta)
    meta["deadline"] = meta["stop"] == "deadline"
    try:
        t, row = t_tilde(mats, p0, G)
    except PreconditionError as exc:
        raise SolverError(f"socp final: p0 = q / lambda is infeasible: {exc}")
    if "lambda" in meta and t < (1.0 - 1e-9) / meta["lambda"] ** 2:
        raise SolverError(
            f"socp final: exact radius {t:.9e} is below 1/lambda^2 = "
            f"{meta['lambda'] ** -2:.9e} at row {mats.row_labels[row]}")
    meta["stalled"] = not t > t_init
    return DefensePolicy(p0, G, float(t), row, meta=meta, dual=dual,
                         nominal=nominal)


def verify_policy(mats, pol, samples=1000, seed=0):
    """Randomized soundness check: `samples` perturbations drawn uniformly in
    the ball ||delta||^2 <= t*(1 - _BALL_SHRINK), plus a deterministic probe
    along the binding row's own crossing direction.  Any violated row is a
    hard error.  The rows meet the samples in blocks of about _VERIFY_BLOCK
    margins, in row order, up to the first block with a violation, so the
    error names the row and delta that a check of all rows at once would."""
    t = pol.t
    if not np.isfinite(t):
        t = 1e6 * (1.0 + float(np.max(np.abs(mats.c), initial=0.0))) ** 2
    r = np.sqrt(max(t, 0.0) * (1.0 - _BALL_SHRINK))
    n = mats.n_delta
    rng = np.random.default_rng(seed)
    deltas = np.empty((samples + 1, n))
    u = deltas[:samples]
    rng.standard_normal(out=u)
    u /= np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-300)
    u *= (r * rng.random(samples) ** (1.0 / n))[:, None]
    kept = samples
    if pol.binding_row is not None and np.isfinite(pol.t) and pol.t > 0:
        d = mats.crossing(pol.p0, pol.G, pol.binding_row)
        if d is not None and np.linalg.norm(d) > 0:
            deltas[samples] = d / np.linalg.norm(d) * r
            kept += 1
    deltas = deltas[:kept]
    margins, dirs = mats.margins(pol.p0), mats.directions(pol.G)
    step = max(1, _VERIFY_BLOCK // (samples + 1))
    for lo in range(0, mats.m, step):
        viol = margins[lo:lo + step, None] + dirs[lo:lo + step] @ deltas.T \
            > lin_solve.FEAS_TOL
        if np.any(viol):
            row, col = np.argwhere(viol)[0]
            raise PolicyVerificationError(
                f"policy with t={pol.t:.6e} violates row "
                f"{mats.row_labels[lo + row]} at delta={deltas[col]}")
    pol.verified_samples = samples
    return samples


def simplex_policy_fit(vertices, dispatches):
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
