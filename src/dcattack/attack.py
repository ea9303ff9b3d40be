"""Minimum-norm load perturbations that make dispatch infeasible.

The attack looks for the smallest ||delta||^2 such that F(delta) is empty.
By Farkas' lemma F(delta) is empty iff some mu >= 0 with A^T mu = 0 has
mu^T (B delta + c) > 0.  F(0) is nonempty (`multistart_attack` checks
it), so -c^T mu >= 0 for every such mu, and the ones that matter are
scaled onto one fixed polytope

  P = { mu >= 0 : A^T mu = 0, -c^T mu = 1 }.

A mu in P separates exactly the delta with (B^T mu)^T delta > 1; the nearest
of them is B^T mu / v, with v = ||B^T mu||^2.  So the attack is
min ||delta||^2 = 1 / max_{mu in P} v(mu):  a convex function maximized over
a polytope, with its optimum at a vertex.

Ascent.  Each start runs successive linearization on P (Mangasarian,
"Machine learning via polyhedral concave minimization", 1996).  The first
step maximizes (B g)^T mu over P for the start direction g; every later step
maximizes the linearization (B^T mu_k)^T B^T mu at the current vertex
mu_k.  v never decreases, since it is convex, and the ascent stops at a fixed
point (the linearized value exceeds v by at most _STEP_TOL, relative), after
_MAX_STEPS steps, or at the caller's deadline, which is also checked inside
each step's LP.  Every iterate is a vertex of P, hence an attack that
certifies.

A pool of vertices per network.  The P-LPs differ only in their objective,
so every optimal basis is primal feasible for every later one and can
start it.  All of them, the nominal max-margin LP (max 1^T mu,
`FeasibilityMatrices.max_margin`) included, pose their objective on P's
arrays (`FeasibilityMatrices.polytope`, built once per network), so a
pooled basis, carried with its inverse (`lin_solve.WarmStart`), re-enters
`lp_solve` without re-proof: only the checks of x_B.  `multistart_attack`
opens the pool with the max-margin LP's vertex, its B^T mu a row of one
array beside its basis, and `attack_local` adds every optimal step whose
column set is not yet pooled.  A start's first step warm-starts from the
pooled vertex that one product of that array with its objective scores
highest (the earliest on ties), and a later step too when that vertex
scores above the current vertex's value v, else from its own basis.  Only
with no pooled vertex (a bare `attack_local`, or after the max-margin LP's
fallback over Q) does a first step start from P's crash basis
(`FeasibilityMatrices.crash_basis`), and until some ascent has pooled a
vertex a first step ignores the deadline, so a multistart's first start
always reaches one.  A unique optimum does not depend on the starting
basis, but the reported best start may change among starts whose norms
tie to rounding.

Reported attack.  delta = (1 + 1e-6) B^T mu / v lies just past mu's
hyperplane, and mu is rescaled so that mu^T (B delta + c) = EPS = 1e-3.
EPS is the epsilon of the parameterized Farkas' lemma; it only fixes the
scale of the reported certificate, and no bound, delta or flag depends on
it.  Soundness is never left to the ascent: `certify_infeasible` re-proves
emptiness at (1 + _CERT_INFLATION) delta, _CERT_INFLATION = 1e-4, from mu
alone and in closed form, by the residual rule of Neumaier and Shcherbina
("Safe bounds in linear and mixed-integer linear programming", 2004).
Every p in F(delta) meets the unit rows, so ||p||_1 is at most box =
sum_j max(|p_min,j|, |p_max,j|), and for mu >= 0 the rows give
mu^T (B delta + c) <= -(A^T mu)^T p <= ||A^T mu||_inf box.  So a mu >= 0
with mu^T (B delta + c) > ||A^T mu||_inf box leaves no p in F(delta); no
LP runs, and a mu that fails the rule leaves its candidate refuted.
The multistart certifies a start's candidate as the start ends, and only
when its norm is below the certified incumbent's, so the reported attack is
the smallest candidate that certifies (the earliest on ties).

Zero distance.  A P-LP without an optimum is unbounded along a verified
ray mu >= 0 with A^T mu = 0, c^T mu = 0 and (B g)^T mu > 0 (Schrijver,
"Theory of Linear and Integer Programming", 1986), or P is empty.  For
`build_feasibility` rows that needs A without columns and every c_i >= 0,
so c = 0 as F(0) is nonempty, and every row is such a ray; `_p_lp` tells
this case from c before it poses any LP.  Then mu^T (B s u + c) =
s ||B^T mu|| > 0 for every s > 0 at u = B^T mu / ||B^T mu||: rows of F(0)
are implicit equalities that move with delta.  The ascent stops there,
status "zero-distance", at the unit point u.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import lin_solve
from .errors import AttackError, DeadlineSignal, RestartSignal, SolverError

# the reported mu has mu^T (B delta + c) = EPS; the ascent reports
# delta = (1 + _INFLATE) B^T mu / v, just past mu's hyperplane, certified at
# (1 + _CERT_INFLATION) delta; a caller's lb closes the bracket to _CLOSE_TOL
# relative, the certified duality gap of the policy SOCP (defense._GAP_TOL);
# an ascent stops after _MAX_STEPS P-LPs or once a step gains at most
# _STEP_TOL relative
EPS = 1e-3
_INFLATE = 1e-6
_CERT_INFLATION = 1e-4
_CLOSE_TOL = 1e-8
_MAX_STEPS = 300
_STEP_TOL = 1e-8


@dataclass
class AttackConfig:
    restarts: int = 5
    seed: int = 0


@dataclass
class AttackSolution:
    delta: np.ndarray
    mu: np.ndarray
    norm_sq: float          # delta^T delta
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
            "objective": self.norm_sq,
            "eps": EPS,
            "converged": self.converged,
            "convergence": self.convergence,
            "iterations": self.iterations,
            "certified": self.certified,
            "residuals": self.residuals,
        }

    def certificate(self, row_labels):
        """The report's ub certificate, for a certified attack: the labels
        and weights of `oracle_ray`, mu / 1^T mu, on its support."""
        rows = np.flatnonzero(self.oracle_ray)
        return {"farkas_rows": [row_labels[i] for i in rows],
                "farkas_weights": self.oracle_ray[rows]}


@dataclass
class AttackReport:
    best: AttackSolution
    starts: list
    fixed_lb: float


def certify_infeasible(mats, delta, mu):
    """(True, mu / 1^T mu) when mu proves F(delta) empty by the residual rule
    of the module docstring, else (False, None)."""
    up, lo = mats.unit_rows()
    box = float(np.maximum(np.abs(mats.c[up]), np.abs(mats.c[lo])).sum())
    resid = float(np.max(np.abs(mats.A.T @ mu), initial=0.0))
    if mu.min() >= 0.0 and mu @ (mats.B @ delta + mats.c) > resid * box:
        return True, mu / mu.sum()
    return False, None


def fixed_dispatch_lb(mats, p0):
    """(lb0, start): the radius^2 certified by holding the dispatch at p0
    (no smaller delta crosses a row, so none empties F) and the crossing
    point of the row attaining it, the first place to look for an attack;
    (inf, None) when no row can be crossed.  A delta-sensitive row with
    |margin| <= FEAS_TOL is tight: radius 0, and its start is B_i / ||B_i||,
    since its crossing point is noise-sized and its sign follows the noise.
    Ties go to the lowest row index, so noise in p0 cannot pick the row."""
    per = mats.radii(p0)
    tight = np.isfinite(per) & (np.abs(mats.margins(p0)) <= lin_solve.FEAS_TOL)
    per[tight] = 0.0
    # all +inf: row 0, whose direction vanishes, so its crossing is None
    row = int(np.argmin(per))
    start = mats.B[row] / np.linalg.norm(mats.B[row]) if tight[row] \
        else mats.crossing(p0, None, row)
    return float(per[row]), start


def _p_lp(mats, g, basis, deadline=None):
    """max (B g)^T mu over P (`mats.polytope`), as min -(B g)^T mu over its
    rows, from `basis` (`lp_solve`'s warm start).
    Returns (mu, value, optimal basis with its inverse), with mu clipped at
    0: a basic value may sit up to FEAS_TOL below its bound, and the
    reported mu is that vertex scaled up by EPS / 1e-6.  Without an optimum,
    mu is a ray (module docstring), value +inf (-inf when P is empty and
    B g <= 0) and basis None.  Raises DeadlineSignal once `deadline` passes."""
    bg = mats.B @ g
    if not mats.n_reduced and np.all(mats.c >= 0.0):
        # P is empty: its one row -c^T mu = 1 has no solution mu >= 0
        ray = (np.arange(mats.m) == np.argmax(bg)).astype(float)
    else:
        res = lin_solve.lp_solve(mats.polytope.with_objective(-bg), basis,
                                  deadline)
        if res.status == lin_solve.OPTIMAL:
            return np.maximum(res.x, 0.0), -res.objective, res.warm
        ray = res.ray
    return np.maximum(ray, 0.0), np.inf if bg @ ray > 0 else -np.inf, None


def _solution(mats, delta, mu, start, status, iterations=0, history=()):
    """The attack delta with its multiplier mu rescaled so that
    mu^T (B delta + c) = EPS; mu must separate delta."""
    sep = mats.B @ delta + mats.c
    mu = mu * (EPS / float(mu @ sep))
    residuals = {"At_mu_inf": float(np.max(np.abs(mats.A.T @ mu), initial=0.0)),
                 "eps_residual": float(mu @ sep - EPS),
                 "mu_min": float(mu.min())}
    return AttackSolution(
        delta=delta, mu=mu, norm_sq=float(delta @ delta),
        converged=status in ("tight", "zero-distance"), convergence=status,
        iterations=iterations, residuals=residuals, start=start,
        history=list(history))


class _Pool:
    """The vertices of P known on one network: each one's B^T mu as a row of
    one array, beside its basis, each column set once (the earliest entry
    stays); the first `seeds`, the max-margin LP's, came from no ascent."""

    def __init__(self, n_delta, seed=None):
        self.gw, self.bases, self.keys = np.empty((16, n_delta)), [], set()
        if seed is not None:
            self.add(*seed)
        self.seeds = len(self.bases)

    def add(self, gw, basis):
        key = np.sort(basis.basis).tobytes()
        if key not in self.keys:
            self.keys.add(key)
            if len(self.bases) == len(self.gw):      # double the capacity
                self.gw = np.vstack([self.gw, self.gw])
            self.gw[len(self.bases)] = gw
            self.bases.append(basis)

    def best(self, g, floor=-np.inf):
        """The basis whose vertex scores highest on g^T B^T mu, the earliest
        on ties, when that score is above `floor`; else None, as from an
        empty pool."""
        scores = self.gw[:len(self.bases)] @ g
        if scores.size and scores.max() > floor:
            return self.bases[int(np.argmax(scores))]
        return None


def attack_local(mats, init_delta, start="", pool=None, deadline=None):
    """One ascent on P from a start direction (module docstring).  `pool`,
    a `_Pool`, holds the vertices of P known on this network, from which
    the steps warm-start, and gains each optimal step's new column set.
    `deadline`, a time.monotonic() value, is checked between steps and
    inside each step's LP, and an expired one returns the current vertex; a
    first step ignores it until some ascent has pooled a vertex.  A step
    without an optimum ends the ascent on its ray (module docstring).

    Raises RestartSignal when no multiplier in P separates any point along
    the start direction (F never closes along it), and DeadlineSignal when
    the deadline cuts the first step.
    """
    g = np.asarray(init_delta, float)
    if not np.any(g):
        raise RestartSignal("zero start direction")
    pool = _Pool(mats.n_delta) if pool is None else pool

    def step(g, basis, deadline):
        mu, value, basis = _p_lp(mats, g, basis, deadline)
        gw = mats.B.T @ mu
        if basis is not None:
            pool.add(gw, basis)
        return mu, gw, value, basis

    warm = pool.best(g)
    mu, gw, value, basis = step(
        g, mats.crash_basis() if warm is None else warm,
        deadline if len(pool.bases) > pool.seeds else None)
    if value <= 0:
        raise RestartSignal("feasible set never closes along this direction")

    history, status, iterations = [], "cap", 1
    while True:
        if value == np.inf:
            status, delta = "zero-distance", gw / np.linalg.norm(gw)
            break
        v = float(gw @ gw)
        delta = gw * ((1.0 + _INFLATE) / v)
        history.append(float(delta @ delta))
        if iterations >= _MAX_STEPS:
            break
        if deadline is not None and time.monotonic() >= deadline:
            status = "deadline"
            break
        warm = pool.best(gw, floor=v)
        try:
            nxt = step(gw, basis if warm is None else warm, deadline)
        except DeadlineSignal:
            status = "deadline"
            break
        iterations += 1
        if nxt[2] <= v * (1.0 + _STEP_TOL):
            status = "tight"
            break
        mu, gw, value, basis = nxt
    return _solution(mats, delta, mu, start, status, iterations, history)


def multistart_attack(mats, config=None, extra_directions=(), budget_s=None,
                      lb=None, nominal=None):
    """Run attack_local from the caller's `extra_directions`, then the
    fixed-dispatch start at the max-margin dispatch, uniform growth and
    seeded random starts; a direction that is zero,
    of the wrong size or not finite is dropped, and the others are scaled
    by a power of two, so a direction's scale changes nothing.  `nominal`
    is a `mats.max_margin()` result, solved here when None (ModelError when
    F(0) is empty), whose vertex opens the pool.  A candidate
    below the certified incumbent's norm, or any while there is none, is
    certified from its own mu (`certify_infeasible`) as its start ends and
    becomes the incumbent, with `oracle_ray` its mu / 1^T mu, or is noted
    "refuted".  A note says certified exactly for the candidates that
    lowered the incumbent; the last is the reported attack.  Once `budget_s` seconds have passed, the running ascent stops
    at its current vertex, even inside a step's LP, and the starts after
    the first are skipped; so is a start whose first step the deadline
    cuts.  A start whose LP raises SolverError is noted "failed" with the
    message, and the other starts go on.  Raises AttackError when nothing
    certifies.

    `lb` is a certified lower bound on min ||delta||^2 that the caller
    already holds.  Every certified attack has ||delta||^2 >= (1 + 1e-6)^2
    min ||delta||^2 >= (1 + 1e-6)^2 lb, so a candidate within (1 + 1e-8) of
    that value closes the bracket once it is the incumbent: no later start
    can lower the bound by more than 1e-8 relative, and each is skipped and
    noted "closed".  A refuted candidate stops nothing."""
    deadline = None if budget_s is None else time.monotonic() + budget_s
    cfg = config or AttackConfig()
    p_nom, res = mats.max_margin() if nominal is None else nominal
    lb0, binding = fixed_dispatch_lb(mats, p_nom)
    close_at = -np.inf if lb is None else \
        (1.0 + _INFLATE) ** 2 * lb * (1.0 + _CLOSE_TOL)

    starts = [(f"hint{i}", d) for i, d in enumerate(extra_directions)]
    starts.append(("binding-row", binding))
    starts.append(("uniform-up", np.ones(mats.n_delta)))
    for k in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, k)))
        starts.append((f"random{k}", rng.normal(size=mats.n_delta)))
    kept = []
    for label, d in starts:
        d = np.asarray(d, float)    # None reads as nan and is dropped
        if d.size == mats.n_delta and np.all(np.isfinite(d)) and np.any(d):
            # a power of two puts its largest |entry| in [0.5, 1): exact
            # but for entries 2^-1022 below that one, and nothing overflows
            kept.append((label, np.ldexp(d, -np.frexp(np.max(np.abs(d)))[1])))
    starts = kept

    pool = _Pool(mats.n_delta, None if res is None else
                 (mats.B.T @ np.maximum(res.x, 0.0), res.warm))
    notes, refuted, best = [], [], None
    for i, (label, direction) in enumerate(starts):
        note = {"start": label, "status": "skipped"}
        if best is not None and best.norm_sq <= close_at:
            note["reason"] = "closed"
        elif i and deadline is not None and time.monotonic() >= deadline:
            note["reason"] = "deadline"
        else:
            try:
                sol = attack_local(mats, direction, label, pool, deadline)
            except RestartSignal as exc:
                note.update(status="restart", reason=str(exc))
            except DeadlineSignal:
                note["reason"] = "deadline"
            except SolverError as exc:
                note.update(status="failed", reason=str(exc))
            else:
                if best is None or sol.norm_sq < best.norm_sq:
                    ok, payload = certify_infeasible(
                        mats, (1.0 + _CERT_INFLATION) * sol.delta, sol.mu)
                    if ok:
                        sol.certified, sol.oracle_ray, best = True, payload, sol
                    else:
                        refuted.append({"start": label, "status": "refuted",
                                        "norm_sq": sol.norm_sq})
                note.update(status="candidate", **sol.summary())
        notes.append(note)
    notes += refuted
    if best is None:
        raise AttackError(
            f"no certified attack from {len(starts)} starts; "
            f"diagnostics: {notes}")
    return AttackReport(best=best, starts=notes, fixed_lb=lb0)
