"""Bracket the minimal infeasibility distance from both sides in one pass.

Every certified attack norm is an upper bound on the minimal infeasibility
distance, and every policy radius is a lower bound.  The lower bound is exact
for affine policies (`defense.defense_local` solves the convex program), so
the squeeze runs once: the policy SOCP within the wall-clock budget, one
attack multistart seeded from the policy (`cross_feed`) within what is left
of that budget, then sampled verification of the policy (`verify_policy`
checks the rows in blocks against one set of samples and stops at the first
block with a violation).  Both sides start from
`FeasibilityMatrices.max_margin`, whose ModelError names a row when F(0) is
empty; the defense solves it once for both and hands it over as
`DefensePolicy.nominal`: the dispatch, and the LP over P with its optimal
basis, whose vertex seeds the multistart's pool.
A SolverError on one side keeps the other's certified bound, flagged: ub
None and `no-certified-attack`, or lb 0 and `no-certified-policy`.

Soundness rules: a value enters the trace only after certification (attack) or
exact radius evaluation (defense); lb <= ub (1 + 1e-6), relative as lb <=
exact <= ub holds at every scale, is enforced at every append.  The attack's
final certificate is the multistart's own, its mu re-verified at the
inflated incumbent (1 + `attack._CERT_INFLATION`) delta (the feasibility
LP's ray where mu fails).  The report keeps the attack's `summary()`, start
and delta, not the ray, which stays on `AttackSolution.oracle_ray`; delta,
and the policy's p0 and G, stay numpy arrays until `to_dict()`.
The multistart is handed lb, and stops once a certified attack meets it to
1e-8 relative: the bracket is closed, and no further start could lower ub
by more.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .attack import EPS, AttackConfig, multistart_attack
from .defense import defense_local, verify_policy
from .dc_model import build_feasibility, json_default
from .errors import AttackError, ModelError, SolverError


@dataclass
class SqueezeConfig:
    budget_s: float = 600.0
    match_threshold: float = 0.01
    seed: int = 0
    restarts: int = 5
    verify_samples: int = 1000


@dataclass
class BoundsReport:
    case_name: str
    lb: float = 0.0
    ub: float = None                 # None until an attack certifies
    gap: float = None
    matched: bool = False
    match_threshold: float = 0.01
    match_time: float = None
    trace: list = field(default_factory=list)   # (elapsed, side, value)
    attack: dict = None
    defense: dict = None
    flags: list = field(default_factory=list)
    elapsed: float = 0.0
    budget_s: float = 0.0
    seed: int = 0

    def _gap(self):
        if self.ub is None:
            return None
        return (self.ub - self.lb) / max(self.ub, 1e-12)

    def append(self, t0, side, value):
        now = time.monotonic() - t0
        if side == "defense":
            self.lb = value
        else:
            self.ub = value
        if self.ub is not None and self.lb > self.ub * (1.0 + 1e-6):
            raise ModelError(
                f"bound ordering violated: lb {self.lb} > ub {self.ub}")
        self.trace.append((now, side, value))
        self.gap = self._gap()
        if (self.gap is not None and self.gap < self.match_threshold
                and self.match_time is None):
            self.match_time = now
            self.matched = True

    def to_dict(self):
        return {
            "schema": "dcattack-bounds/1",
            "case": self.case_name,
            "lb": self.lb,
            "ub": self.ub,
            "gap": self.gap,
            "matched": self.matched,
            "match_threshold": self.match_threshold,
            "match_time_s": self.match_time,
            "elapsed_s": self.elapsed,
            "budget_s": self.budget_s,
            "eps": EPS,
            "seed": self.seed,
            "flags": self.flags,
            "trace": [{"elapsed_s": e, "side": s, "value": v}
                      for e, s, v in self.trace],
            "attack": _listed(self.attack),
            "defense": _listed(self.defense),
        }


def _listed(fields):
    """A report dict, or None, with its arrays as JSON writes them."""
    return fields and {k: json_default(v) if isinstance(v, np.ndarray) else v
                       for k, v in fields.items()}


def cross_feed(mats, defense_best):
    """Attack starts from the policy: the binding row's crossing point under
    the policy, and B^T y / ||B^T y||^2 for the SOCP's dual multiplier y.
    The dual is feasible, so y lies in P = {mu >= 0, A^T mu = 0,
    -c^T mu = 1}, and mu in P with mu^T B delta > 1 proves F(delta) empty:
    B^T y is a Farkas candidate and B^T y / ||B^T y||^2 its nearest point
    with mu^T B delta = 1.  The attack uses both as directions only; returns
    the list of them."""
    hints = []
    if defense_best.binding_row is not None and np.isfinite(defense_best.t):
        d = mats.crossing(defense_best.p0, defense_best.G,
                          defense_best.binding_row)
        if d is not None and np.linalg.norm(d) > 0:
            hints.append(d)
    if defense_best.dual is not None:
        g = mats.B.T @ defense_best.dual[0]
        if float(g @ g) > 0:
            hints.append(g / float(g @ g))
    return hints


def squeeze_run(case, config=None, mats=None):
    """One bracketing pass on one case (module docstring); returns a
    BoundsReport."""
    cfg = config or SqueezeConfig()
    if mats is None:
        mats = build_feasibility(case)
    t0 = time.monotonic()
    report = BoundsReport(case_name=mats.case.name,
                          match_threshold=cfg.match_threshold,
                          budget_s=cfg.budget_s, seed=cfg.seed)

    best_pol, hints, lb = None, [], None
    try:
        best_pol = defense_local(mats, cfg.budget_s - (time.monotonic() - t0))
    except SolverError as exc:
        report.flags += [f"defense-round0: {exc}", "no-certified-policy"]
    else:
        report.append(t0, "defense", best_pol.t)
        hints = cross_feed(mats, best_pol)
        lb = best_pol.t if 0 < best_pol.t < np.inf else None

    best_att = None
    try:
        rep = multistart_attack(
            mats, AttackConfig(restarts=cfg.restarts, seed=cfg.seed),
            extra_directions=hints,
            budget_s=cfg.budget_s - (time.monotonic() - t0), lb=lb,
            nominal=best_pol.nominal if best_pol else None)
        best_att = rep.best
        report.append(t0, "attack", best_att.norm_sq)
        if any(note.get("convergence") == "zero-distance"
               for note in rep.starts):
            # a start's ascent ended on a ray of P (attack module
            # docstring): the infimum is 0; ub is only a certified point
            report.flags.append("zero-distance")
    except (AttackError, SolverError) as exc:
        report.flags.append(f"attack-round0: {exc}")

    # the multistart certified the attack; the policy is verified here
    if best_att is not None:
        if not best_att.certified:
            raise ModelError("attack incumbent is not certified")
        report.attack = {**best_att.summary(), "start": best_att.start,
                         "delta": best_att.delta}
    else:
        report.flags.append("no-certified-attack")
    if best_pol is not None:
        verify_policy(mats, best_pol, cfg.verify_samples, seed=cfg.seed)
        report.defense = best_pol.summary(mats)

    report.elapsed = time.monotonic() - t0
    return report
