"""Minimum-norm load perturbations that make dispatch infeasible.

The attack looks for the smallest ||delta||^2 (optionally delta^T W delta with
diagonal W) such that F(delta) is empty, by working on the alternative system:
a Farkas multiplier mu >= 0 with A^T mu = 0 and mu^T (B delta + c) > 0 proves
emptiness.  The strict inequality is pinned to an equality mu^T(B delta+c) =
eps and the pair (delta, mu) is improved by alternation:

  delta-step: closed-form minimum-norm delta on the hyperplane
              mu^T B delta = eps - mu^T c,
  mu-step:    LP  min 1^T mu  s.t.  A^T mu = 0, mu^T(B delta + c) = eps, mu >= 0.

After a delta-step the incumbent mu is still feasible for the next mu-step, so
the alternation never strands itself once it has a separating point, and the
previous mu-step's optimal basis (which reproduces the incumbent mu) is a
primal-feasible warm start for the next one.  Each start threads its bases
through its own chain of wide LPs, by argument only:

  alternation mu-LP  <- previous mu-LP's basis,
  kick mu-LP         <- the ray search's basis: its optimum has (B u)^T mu = 1
                        and -c^T mu = s, so mu^T(B u (s + kick) + c) = kick > 0,
  polish ray LP      <- the basis of the best mu: its delta lies on that mu's
                        hyperplane and c^T mu <= 0 (F(0) is nonempty), so
                        (B u)^T mu = (eps - c^T mu) / ||delta|| > 0 and mu
                        scales onto (B u)^T mu = 1,
  polish mu-LP       <- the polish ray LP's basis.

`lin_solve.lp_solve` re-checks every basis and falls back to a cold start, so
a link that is not primal feasible costs only time.  Local
starts are bootstrapped by a one-dimensional ray search: scale the start
direction out to the feasibility boundary and step just past it.  Directions
along which F never closes raise RestartSignal so a multistart driver can
resample.

Soundness is never left to the alternation: every reported attack carries its
own mu-certificate, and `certify_infeasible` additionally runs an independent
feasibility probe at the inflated point (1 + 1e-4) * delta.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import lin_solve
from .dc_model import solve_dcopf
from .errors import AttackError, RestartSignal
from .numerics import DEFAULT_POLICY


@dataclass
class AttackConfig:
    eps: float = 1e-3
    restarts: int = 5
    seed: int = 0
    max_alternations: int = 300
    norm_change_tol: float = 1e-8
    weight: np.ndarray = None   # diagonal of W; None = identity
    threads: int = 1


@dataclass
class AttackSolution:
    delta: np.ndarray
    mu: np.ndarray
    norm_sq: float          # delta^T delta, always unweighted
    objective: float        # delta^T W delta
    eps: float
    converged: bool
    convergence: str        # "tight" | "loose" | "cap" | "mu-infeasible" | "degenerate"
    iterations: int
    residuals: dict
    start: str = ""
    certified: bool = False
    oracle_ray: np.ndarray = None
    history: list = field(default_factory=list)
    basis: np.ndarray = None    # optimal basis of the mu-LP that gave mu

    def summary(self):
        return {
            "norm_sq": self.norm_sq,
            "objective": self.objective,
            "eps": self.eps,
            "converged": self.converged,
            "convergence": self.convergence,
            "iterations": self.iterations,
            "certified": self.certified,
            "start": self.start,
            "residuals": self.residuals,
        }


@dataclass
class AttackReport:
    best: AttackSolution
    starts: list
    fixed_lb: float
    elapsed: float
    config: AttackConfig


def certify_infeasible(mats, delta, policy=DEFAULT_POLICY):
    """Independent feasibility probe (`lin_solve.check_feasible`) for F(delta).

    Returns (True, ray) with a normalized verified Farkas ray when F(delta) is
    empty, or (False, witness_dispatch) when it is not.
    """
    feasible, x, ray = lin_solve.check_feasible(mats.A, mats.rhs(delta), policy)
    if feasible:
        return False, x
    return True, ray


def _fixed_radii(mats, p0, policy):
    """Per-row radius^2 at fixed dispatch p0, and the mask of tight rows.

    delta-sensitive rows with |margin| <= feas_tol count as tight (radius 0),
    so rounding noise in p0 cannot turn a tight row into a 1e-30 radius."""
    _t, _row, per = lin_solve.policy_radius(mats.A, mats.B, mats.c, p0, None,
                                            policy)
    tight = np.isfinite(per) & (np.abs(mats.margins(p0)) <= policy.feas_tol)
    return np.where(tight, 0.0, per), tight


def fixed_dispatch_lb(mats, p0, policy=DEFAULT_POLICY):
    """Radius^2 certified by holding the dispatch fixed at p0: no perturbation
    smaller than this can cross any single row, hence none can empty F.
    0 when a delta-sensitive row is tight to feas_tol."""
    per, _tight = _fixed_radii(mats, p0, policy)
    return float(per.min()) if per.size else np.inf


def _start_radius(lb0):
    """Norm of the random multistart directions: sqrt(lb0), or 1 when lb0
    gives no scale (0 or infinite)."""
    return float(np.sqrt(lb0)) if np.isfinite(lb0) and lb0 > 0 else 1.0


def binding_row_direction(mats, p0, policy=DEFAULT_POLICY):
    """The minimum-norm delta that makes the binding row of fixed_dispatch_lb
    tight -- the natural first place to look for an attack.

    Ties go to the lowest row index, so rounding noise in p0 cannot pick the
    row.  A tight row's own unit crossing direction is returned, since its
    projection is noise-sized and its sign follows the noise."""
    per, tight = _fixed_radii(mats, p0, policy)
    if not np.any(np.isfinite(per)):
        return None, None
    row = int(np.argmin(per))
    if tight[row]:
        return mats.B[row] / np.linalg.norm(mats.B[row]), row
    proj = lin_solve.project_policy(p0, None, mats.A[row], mats.B[row],
                                    float(mats.c[row]))
    return proj.delta, row


def ray_boundary(mats, direction, policy=DEFAULT_POLICY, basis=None):
    """(s, basis) with s the largest s >= 0 with F(s * u) nonempty along
    u = direction/||direction||, and basis the optimal basis of the LP below;
    (None, None) when the ray never leaves the feasible set.  A given `basis`
    warm-starts that LP.

    Solved as the dual of  max s s.t. A p + s B u <= -c,  which keeps the
    basis at n_reduced + 1 rows:

        min -c^T mu  s.t.  A^T mu = 0,  (B u)^T mu >= 1,  mu >= 0.

    The optimal mu proves F(s' u) empty for every s' > s, and the equality
    duals give a dispatch p in F(s u), re-checked here.  An infeasible wide LP
    means no multiplier separates any point of the ray; an unbounded one means
    F(s u) is empty for every s >= 0."""
    u = np.asarray(direction, float)
    nrm = float(np.linalg.norm(u))
    if nrm == 0:
        raise ValueError("zero direction")
    u = u / nrm
    res = lin_solve.lp_solve(lin_solve.LpProblem(
        c=-mats.c, A_ub=-(mats.B @ u)[None, :], b_ub=[-1.0], A_eq=mats.A.T,
        b_eq=np.zeros(mats.n_reduced), lb=0.0), policy, basis=basis)
    if res.status == lin_solve.INFEASIBLE:
        return None, None
    if res.status == lin_solve.UNBOUNDED:
        raise AttackError("ray search failed: F(0) is empty (nominally infeasible case)")
    s = float(res.objective)
    p = -res.dual_eq
    worst = float(np.max(mats.margins(p, s * u)))
    if worst > policy.feas_tol * (1.0 + float(np.max(np.abs(mats.c)))):
        raise AttackError(f"ray search: dispatch at s={s:.6e} violates a row "
                          f"by {worst:.3e}")
    return s, res.basis


def _mu_lp(mats, delta, eps, policy, basis=None):
    """min 1^T mu  s.t.  A^T mu = 0, (B delta + c)^T mu = eps, mu >= 0,
    warm-started from `basis`.  Returns (mu, optimal basis), or (None, None)
    when delta is not (strictly) separable."""
    m = mats.m
    sep = mats.B @ delta + mats.c
    A_eq = np.vstack([mats.A.T, sep[None, :]])
    b_eq = np.zeros(mats.n_reduced + 1)
    b_eq[-1] = eps
    res = lin_solve.lp_solve(
        lin_solve.LpProblem(c=np.ones(m), A_eq=A_eq, b_eq=b_eq, lb=0.0), policy,
        basis=basis)
    if res.status != lin_solve.OPTIMAL:
        return None, None
    return res.x, res.basis


def _residuals(mats, delta, mu, eps):
    at_mu = float(np.max(np.abs(mats.A.T @ mu))) if mats.A.size else 0.0
    eps_resid = float(mu @ (mats.B @ delta + mats.c) - eps)
    return {"At_mu_inf": at_mu, "eps_residual": eps_resid,
            "mu_min": float(mu.min()) if mu.size else 0.0}


def attack_local(mats, init_delta, config=None, init_mu=None, policy=DEFAULT_POLICY,
                 start=""):
    """One alternation run from a start direction (see module docstring).

    Raises RestartSignal when the start direction cannot produce a separating
    point (unbounded ray or inseparable after the boundary kick).
    """
    cfg = config or AttackConfig()
    w = np.ones(mats.n_delta) if cfg.weight is None else np.asarray(cfg.weight, float)
    if np.any(w <= 0):
        raise ValueError("weight diagonal must be positive")
    delta = np.asarray(init_delta, float).copy()
    nrm = float(np.linalg.norm(delta))
    if nrm == 0:
        raise RestartSignal("zero start direction")
    eps = cfg.eps

    mu, basis = init_mu, None
    if mu is None:
        mu, basis = _mu_lp(mats, delta, eps, policy)
    if mu is None:
        u = delta / nrm
        s, ray_basis = ray_boundary(mats, u, policy)
        if s is None:
            raise RestartSignal("feasible set never closes along this direction")
        kick = max(1e-3 * s, 1e-9)
        for _ in range(4):
            delta = u * (s + kick)
            mu, basis = _mu_lp(mats, delta, eps, policy, ray_basis)
            if mu is not None:
                break
            kick *= 10.0
        if mu is None:
            raise RestartSignal("cannot separate just outside the ray boundary")

    best = None
    history = []
    obj_prev = np.inf
    status = "cap"
    last_change = np.inf
    iterations = 0
    for _ in range(cfg.max_alternations):
        iterations += 1
        g = mats.B.T @ mu
        gw = g / w
        den = float(g @ gw)
        if den <= 1e-16 * max(1.0, float(mu @ mu)):
            status = "degenerate"
            break
        r = eps - float(mu @ mats.c)
        delta = gw * (r / den)
        obj = float(delta @ (w * delta))
        if best is None or obj < best[0]:
            best = (obj, delta.copy(), mu.copy(), basis)
            history.append(float(delta @ delta))
        last_change = abs(obj_prev - obj)
        if last_change <= cfg.norm_change_tol * max(1.0, obj):
            status = "tight"
            break
        obj_prev = obj
        mu_next, basis_next = _mu_lp(mats, delta, eps, policy, basis)
        if mu_next is None:
            status = "mu-infeasible"
            break
        mu, basis = mu_next, basis_next
    if status == "cap" and last_change <= policy.stall_tol * max(1.0, obj_prev):
        status = "loose"
    if best is None:
        raise RestartSignal(f"alternation made no progress ({status})")

    obj, delta, mu, basis = best
    return AttackSolution(
        delta=delta, mu=mu, norm_sq=float(delta @ delta), objective=obj,
        eps=eps, converged=status in ("tight", "loose"), convergence=status,
        iterations=iterations, residuals=_residuals(mats, delta, mu, eps),
        start=start, history=history, basis=basis)


def _ray_polish(mats, sol, cfg, policy):
    """Refine the best solution along its own direction: the exact boundary
    distance there is the cheapest certified point on that ray."""
    s, ray_basis = ray_boundary(mats, sol.delta, policy, sol.basis)
    if s is None or s <= 0:
        return sol
    target = s * (1.0 + 1e-6)
    if target * target >= sol.norm_sq:
        return sol
    u = sol.delta / float(np.linalg.norm(sol.delta))
    delta = u * target
    mu, basis = _mu_lp(mats, delta, cfg.eps, policy, ray_basis)
    if mu is None:
        return sol
    polished = AttackSolution(
        delta=delta, mu=mu, norm_sq=float(delta @ delta),
        objective=float(delta @ delta) if cfg.weight is None
        else float(delta @ (np.asarray(cfg.weight, float) * delta)),
        eps=cfg.eps, converged=sol.converged, convergence=sol.convergence,
        iterations=sol.iterations, residuals=_residuals(mats, delta, mu, cfg.eps),
        start=sol.start + "+ray", history=sol.history + [float(delta @ delta)],
        basis=basis)
    return polished


def multistart_attack(mats, config=None, policy=DEFAULT_POLICY,
                      extra_directions=(), p_nom=None):
    """Run attack_local from deterministic and seeded random starts, polish,
    then certify candidates in ascending norm order; the first certified one is
    the reported attack.  Raises AttackError when nothing certifies."""
    t0 = time.monotonic()
    cfg = config or AttackConfig()
    if p_nom is None:
        nominal = solve_dcopf(mats, None, policy)
        if not nominal.feasible:
            raise AttackError("case is infeasible before any perturbation")
        p_nom = nominal.p_hat
    lb0 = fixed_dispatch_lb(mats, p_nom, policy)
    radius = _start_radius(lb0)

    starts = []
    d_bind, _row = binding_row_direction(mats, p_nom, policy)
    if d_bind is not None and np.linalg.norm(d_bind) > 0:
        starts.append(("binding-row", d_bind))
    starts.append(("uniform-up", np.ones(mats.n_delta)))
    for i, d in enumerate(extra_directions):
        d = np.asarray(d, float)
        if d.size == mats.n_delta and np.linalg.norm(d) > 0:
            starts.append((f"hint{i}", d))
    for k in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, k)))
        u = rng.normal(size=mats.n_delta)
        nrm = np.linalg.norm(u)
        if nrm == 0:
            continue
        starts.append((f"random{k}", u / nrm * radius))

    def run_one(item):
        label, direction = item
        try:
            sol = attack_local(mats, direction, cfg, policy=policy, start=label)
            return _ray_polish(mats, sol, cfg, policy)
        except (RestartSignal, AttackError) as exc:
            return ("skip", label, str(exc))

    if cfg.threads and cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outcomes = list(pool.map(run_one, starts))
    else:
        outcomes = [run_one(s) for s in starts]

    candidates, notes = [], []
    for out in outcomes:
        if isinstance(out, tuple):
            notes.append({"start": out[1], "status": "restart", "reason": out[2]})
        else:
            candidates.append(out)
            notes.append({"start": out.start, "status": "candidate",
                          **out.summary()})

    best = None
    for sol in sorted(candidates, key=lambda s: s.norm_sq):
        inflated = (1.0 + policy.cert_inflation) * sol.delta
        ok, payload = certify_infeasible(mats, inflated, policy)
        if ok:
            sol.certified = True
            sol.oracle_ray = payload
            best = sol
            break
        notes.append({"start": sol.start, "status": "refuted",
                      "norm_sq": sol.norm_sq})
    if best is None:
        raise AttackError(
            f"no certified attack from {len(starts)} starts; "
            f"diagnostics: {notes}")
    return AttackReport(best=best, starts=notes, fixed_lb=lb0,
                        elapsed=time.monotonic() - t0, config=cfg)
