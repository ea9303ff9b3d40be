"""Minimum-norm load perturbations that make dispatch infeasible.

The attack looks for the smallest ||delta||^2 (optionally delta^T W delta with
diagonal W) such that F(delta) is empty.  By Farkas' lemma F(delta) is empty
iff some mu >= 0 with A^T mu = 0 has mu^T (B delta + c) > 0.  F(0) is
nonempty, so -c^T mu >= 0 for every such mu, and the ones that matter are
scaled onto one fixed polytope

  P = { mu >= 0 : A^T mu = 0, -c^T mu = 1 }.

A mu in P separates exactly the delta with (B^T mu)^T delta > 1; the nearest
of them in the W-norm is W^-1 B^T mu / v, with v = ||B^T mu||^2_{W^-1}.  So
the attack is  min ||delta||^2_W = 1 / max_{mu in P} v(mu):  a convex
function maximized over a polytope, with its optimum at a vertex.

Ascent.  Each start runs successive linearization on P (Mangasarian,
"Machine learning via polyhedral concave minimization", 1996).  The first
step maximizes (B g)^T mu over P for the start direction g; every later step
maximizes the linearization (W^-1 B^T mu_k)^T B^T mu at the current vertex
mu_k.  v never decreases, since it is convex, and the ascent stops at a fixed
point (the linearized value exceeds v by at most _STEP_TOL, relative), after
_MAX_STEPS steps, or at the caller's deadline.  Every iterate is a vertex of
P, hence an attack that certifies.

One basis per network.  The P-LPs differ only in their objective, so every
optimal basis is primal feasible for every later one and a warm start runs
phase 2 only.  `multistart_attack` builds P's rows once per network and
solves one cold P-LP, with the first start's objective; each start's first
step warm-starts from that basis and each later step from its own previous
one.

Reported attack.  delta = (1 + 1e-6) W^-1 B^T mu / v lies just past mu's
hyperplane, and mu is rescaled so that mu^T (B delta + c) = eps: eps is only
the scale of the reported certificate.  Soundness is never left to the
ascent: `certify_infeasible` re-proves emptiness independently at the
inflated point (1 + cert_inflation) * delta.

Zero distance.  A P-LP is infeasible (P is empty) or unbounded only through
multipliers with c^T mu = 0, which make rows of F(0) implicit equalities;
when such a multiplier moves with delta, arbitrarily small perturbations
empty F.  The multistart then certifies the binding-row start point itself
and notes "zero-distance".
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import lin_solve
from .dc_model import solve_dcopf
from .errors import AttackError, RestartSignal
from .numerics import DEFAULT_POLICY

# the ascent reports delta = (1 + _INFLATE) W^-1 B^T mu / v, just past mu's
# hyperplane; a caller's lb closes the bracket to _CLOSE_TOL relative, the
# certified duality gap of the policy SOCP (defense._GAP_TOL); an ascent stops
# after _MAX_STEPS P-LPs or once a step gains at most _STEP_TOL relative
_INFLATE = 1e-6
_CLOSE_TOL = 1e-8
_MAX_STEPS = 300
_STEP_TOL = 1e-8


@dataclass
class AttackConfig:
    eps: float = 1e-3
    restarts: int = 5
    seed: int = 0
    weight: np.ndarray = None   # diagonal of W; None = identity


@dataclass
class AttackSolution:
    delta: np.ndarray
    mu: np.ndarray
    norm_sq: float          # delta^T delta, always unweighted
    objective: float        # delta^T W delta
    eps: float
    converged: bool
    convergence: str        # "tight" | "cap" | "deadline" | "zero-distance"
    iterations: int
    residuals: dict
    start: str = ""
    certified: bool = False
    oracle_ray: np.ndarray = None
    history: list = field(default_factory=list)

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


class _ZeroDistance(RestartSignal):
    """A P-LP is infeasible (P is empty) or unbounded (module docstring)."""


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


def _polytope(mats):
    """P's rows as an LpProblem with a zero objective:
    [A^T; -c^T] mu = [0; 1], mu >= 0 (n_reduced + 1 rows)."""
    return lin_solve.LpProblem(c=np.zeros(mats.m),
                               A_eq=np.vstack([mats.A.T, -mats.c[None, :]]),
                               b_eq=np.eye(mats.n_reduced + 1)[-1])


def _p_lp(mats, P, g, policy, basis):
    """max (B g)^T mu over P (`_polytope(mats)`, built once per network), as
    min -(B g)^T mu over its rows, from `basis`.  Returns (mu, value, optimal
    basis), with mu clipped at 0: a basic value may sit up to feas_tol below
    its bound, and the reported mu is that vertex scaled up by eps / 1e-6.
    Raises _ZeroDistance when P is empty or the maximum is unbounded."""
    res = lin_solve.lp_solve(P.with_objective(-(mats.B @ g)), policy,
                             basis=basis)
    if res.status != lin_solve.OPTIMAL:
        raise _ZeroDistance(f"P-LP {res.status}: an implicit equality of "
                            f"F(0) moves with delta")
    return np.maximum(res.x, 0.0), -res.objective, res.basis


def _weights(mats, cfg):
    w = np.ones(mats.n_delta) if cfg.weight is None else np.asarray(cfg.weight, float)
    if np.any(w <= 0):
        raise ValueError("weight diagonal must be positive")
    return w


def _solution(mats, delta, mu, w, eps, start, status, iterations=0, history=()):
    """The attack delta with its multiplier mu rescaled so that
    mu^T (B delta + c) = eps; mu must separate delta."""
    sep = mats.B @ delta + mats.c
    mu = mu * (eps / float(mu @ sep))
    at_mu = float(np.max(np.abs(mats.A.T @ mu))) if mats.A.size else 0.0
    residuals = {"At_mu_inf": at_mu, "eps_residual": float(mu @ sep - eps),
                 "mu_min": float(mu.min()) if mu.size else 0.0}
    return AttackSolution(
        delta=delta, mu=mu, norm_sq=float(delta @ delta),
        objective=float(delta @ (w * delta)), eps=eps,
        converged=status in ("tight", "zero-distance"), convergence=status,
        iterations=iterations, residuals=residuals, start=start,
        history=list(history))


def attack_local(mats, init_delta, config=None, policy=DEFAULT_POLICY, start="",
                 basis=None, deadline=None, P=None):
    """One ascent on P from a start direction (module docstring).  `basis`
    warm-starts the first step; `deadline`, a time.monotonic() value, is
    checked between steps, and an expired one returns the current vertex.
    `P` is `_polytope(mats)`, built here when not given.

    Raises RestartSignal when no multiplier in P separates any point along
    the start direction (F never closes along it), and its subclass
    _ZeroDistance when a P-LP is infeasible or unbounded.
    """
    cfg = config or AttackConfig()
    w = _weights(mats, cfg)
    g = np.asarray(init_delta, float)
    if not np.any(g):
        raise RestartSignal("zero start direction")
    P = _polytope(mats) if P is None else P
    mu, value, basis = _p_lp(mats, P, g, policy, basis)
    if value <= 0:
        raise RestartSignal("feasible set never closes along this direction")

    history = []
    status, iterations = "cap", 1
    while True:
        gw = (mats.B.T @ mu) / w
        v = float(gw @ (w * gw))
        delta = gw * ((1.0 + _INFLATE) / v)
        history.append(float(delta @ delta))
        if iterations >= _MAX_STEPS:
            break
        if deadline is not None and time.monotonic() >= deadline:
            status = "deadline"
            break
        mu_next, value, basis = _p_lp(mats, P, gw, policy, basis)
        iterations += 1
        if value <= v * (1.0 + _STEP_TOL):
            status = "tight"
            break
        mu = mu_next
    return _solution(mats, delta, mu, w, cfg.eps, start, status, iterations,
                     history)


def multistart_attack(mats, config=None, policy=DEFAULT_POLICY,
                      extra_directions=(), p_nom=None, budget_s=None, lb=None):
    """Run attack_local from the caller's `extra_directions`, then the
    binding row, uniform growth and seeded random starts, all warm-started
    from one cold P-LP, then certify candidates in ascending norm order;
    the first certified one is the reported attack.  Once `budget_s` seconds
    have passed, the running ascent stops at its current vertex and the
    starts after the first are skipped.  Raises AttackError when nothing
    certifies.

    `lb` is a certified lower bound on min ||delta||^2 that the caller
    already holds.  Every certified attack has ||delta||^2 >= (1 + 1e-6)^2
    min ||delta||^2 >= (1 + 1e-6)^2 lb, for any weight W, so a candidate
    within (1 + 1e-8) of that value is certified at once; when it certifies,
    no later start can lower the bound by more than 1e-8 relative, and each
    is skipped and noted "closed".  A refuted candidate stops nothing."""
    t0 = time.monotonic()
    deadline = None if budget_s is None else t0 + budget_s
    cfg = config or AttackConfig()
    if p_nom is None:
        nominal = solve_dcopf(mats, None, policy)
        if not nominal.feasible:
            raise AttackError("case is infeasible before any perturbation")
        p_nom = nominal.p_hat
    lb0 = fixed_dispatch_lb(mats, p_nom, policy)
    close_at = -np.inf if lb is None else \
        (1.0 + _INFLATE) ** 2 * lb * (1.0 + _CLOSE_TOL)

    starts = []
    for i, d in enumerate(extra_directions):
        d = np.asarray(d, float)
        if d.size == mats.n_delta and np.linalg.norm(d) > 0:
            starts.append((f"hint{i}", d))
    d_bind, _row = binding_row_direction(mats, p_nom, policy)
    if d_bind is not None and np.linalg.norm(d_bind) > 0:
        starts.append(("binding-row", d_bind))
    starts.append(("uniform-up", np.ones(mats.n_delta)))
    for k in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, k)))
        starts.append((f"random{k}", rng.normal(size=mats.n_delta)))

    P = _polytope(mats)
    try:
        basis = _p_lp(mats, P, starts[0][1], policy, None)[2]
    except _ZeroDistance:
        basis = None

    refuted, tried = [], set()

    def certify(sol):
        """Certify sol at the inflated point once; notes a refutation."""
        tried.add(id(sol))
        inflated = (1.0 + policy.cert_inflation) * sol.delta
        ok, payload = certify_infeasible(mats, inflated, policy)
        if ok:
            sol.certified, sol.oracle_ray = True, payload
        else:
            refuted.append({"start": sol.start, "status": "refuted",
                            "norm_sq": sol.norm_sq})
        return ok

    def run_one(i, label, direction):
        if i and deadline is not None and time.monotonic() >= deadline:
            return ("skipped", label, "deadline")
        try:
            return attack_local(mats, direction, cfg, policy, label, basis,
                                deadline, P)
        except _ZeroDistance as exc:
            return ("zero-distance", label, str(exc))
        except RestartSignal as exc:
            return ("restart", label, str(exc))

    outcomes, closed = [], False
    for i, (label, direction) in enumerate(starts):
        out = ("skipped", label, "closed") if closed else \
            run_one(i, label, direction)
        if not isinstance(out, tuple):
            closed = out.norm_sq <= close_at and certify(out)
        outcomes.append(out)

    zero = any(isinstance(out, tuple) and out[0] == "zero-distance"
               for out in outcomes)
    if zero and d_bind is not None:
        ok, ray = certify_infeasible(mats, d_bind, policy)
        if ok:
            outcomes.append(_solution(mats, d_bind, ray, _weights(mats, cfg),
                                      cfg.eps, "binding-row", "zero-distance"))

    candidates = [out for out in outcomes if not isinstance(out, tuple)]
    best = None
    for sol in sorted(candidates, key=lambda s: s.norm_sq):
        if sol.certified or (id(sol) not in tried and certify(sol)):
            best = sol
            break
    # written after certification, so the reported attack's note says so
    notes = [{"start": out[1], "status": out[0], "reason": out[2]}
             if isinstance(out, tuple) else
             {"start": out.start, "status": "candidate", **out.summary()}
             for out in outcomes] + refuted
    if best is None:
        raise AttackError(
            f"no certified attack from {len(starts)} starts; "
            f"diagnostics: {notes}")
    return AttackReport(best=best, starts=notes, fixed_lb=lb0,
                        elapsed=time.monotonic() - t0, config=cfg)
