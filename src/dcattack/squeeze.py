"""Bracket the minimal infeasibility distance from both sides in one pass.

Every certified attack norm is an upper bound on the minimal infeasibility
distance, and every policy radius is a lower bound.  The lower bound is exact
for affine policies (`defense.defense_local` solves the convex program), so
the squeeze runs once: nominal DC-OPF, the policy SOCP within the wall-clock
budget, one attack multistart seeded from the policy (`cross_feed`) within
what is left of that budget, then sampled verification of the policy.

Soundness rules: a value enters the trace only after certification (attack) or
exact radius evaluation (defense); lb <= ub + 1e-6 is enforced at every
append.  The attack's final certificate is the multistart's own: it proves
F empty at the inflated incumbent (1 + cert_inflation) * delta, and the
report keeps that Farkas ray.  The multistart is handed lb, and stops once a
certified attack meets it to 1e-8 relative: the bracket is closed, and no
further start could lower ub by more.
"""

import csv
import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .attack import AttackConfig, multistart_attack
from .defense import defense_local, verify_policy
from .dc_model import build_feasibility, solve_dcopf
from .errors import AttackError, ModelError
from .lin_solve import project_policy
from .numerics import DEFAULT_POLICY


@dataclass
class SqueezeConfig:
    budget_s: float = 600.0
    match_threshold: float = 0.01
    eps: float = 1e-3
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
    eps: float = 1e-3
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
        if self.ub is not None and self.lb > self.ub + 1e-6:
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
            "eps": self.eps,
            "seed": self.seed,
            "flags": self.flags,
            "trace": [{"elapsed_s": e, "side": s, "value": v}
                      for e, s, v in self.trace],
            "attack": self.attack,
            "defense": self.defense,
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)

    def trace_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["elapsed_s", "side", "value"])
        for e, s, v in self.trace:
            writer.writerow([f"{e:.6f}", s, repr(v)])
        return buf.getvalue()


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
        i = defense_best.binding_row
        d = project_policy(defense_best.p0, defense_best.G, mats.A[i],
                           mats.B[i], float(mats.c[i])).delta
        if d is not None and np.linalg.norm(d) > 0:
            hints.append(d)
    if defense_best.dual is not None:
        g = mats.B.T @ defense_best.dual[0]
        if float(g @ g) > 0:
            hints.append(g / float(g @ g))
    return hints


def squeeze_run(case, config=None, policy=DEFAULT_POLICY, mats=None):
    """One bracketing pass on one case (module docstring); returns a
    BoundsReport."""
    cfg = config or SqueezeConfig()
    if mats is None:
        mats = build_feasibility(case)
    t0 = time.monotonic()
    report = BoundsReport(case_name=mats.case.name,
                          match_threshold=cfg.match_threshold,
                          budget_s=cfg.budget_s, eps=cfg.eps, seed=cfg.seed)

    nominal = solve_dcopf(mats, None, policy)
    if not nominal.feasible:
        raise ModelError("case is infeasible before any perturbation")

    best_pol = defense_local(mats, policy=policy,
                             budget_s=cfg.budget_s - (time.monotonic() - t0))
    report.append(t0, "defense", best_pol.t)

    best_att = None
    hints = cross_feed(mats, best_pol)
    lb = best_pol.t if np.isfinite(best_pol.t) and best_pol.t > 0 else None
    try:
        rep = multistart_attack(
            mats, AttackConfig(eps=cfg.eps, restarts=cfg.restarts,
                               seed=cfg.seed),
            policy, extra_directions=hints,
            p_nom=nominal.p_hat,
            budget_s=cfg.budget_s - (time.monotonic() - t0), lb=lb)
        best_att = rep.best
        report.append(t0, "attack", best_att.norm_sq)
        if best_att.convergence == "zero-distance":
            # the infimum is 0; ub is only the certified binding-row point
            report.flags.append("zero-distance")
    except AttackError as exc:
        report.flags.append(f"attack-round0: {exc}")

    # the multistart certified the attack (its Farkas ray is kept); the
    # policy is verified here
    if best_att is not None:
        if not best_att.certified:
            raise ModelError("attack incumbent is not certified")
        report.attack = best_att.summary()
        report.attack["delta"] = best_att.delta.tolist()
    else:
        report.flags.append("no-certified-attack")
    verify_policy(mats, best_pol, cfg.verify_samples, seed=cfg.seed,
                  policy=policy)
    report.defense = best_pol.summary(mats)

    report.elapsed = time.monotonic() - t0
    return report
