"""The benchmark's workloads: which networks, which call, what counts as solved.

- bundled-squeeze: `squeeze_run` (default config, seed 0) on the four bundled
  networks.  The paper's own table; the defense dominates.
- ladder-attack: `multistart_attack` (restarts 5, seed 0) on the plain
  ladder at 30, 60 and 120 buses, five load snapshots each.  Tall LPs
  dominate; the defense never runs.
- degenerate-squeeze: `squeeze_run` (budget 30 s) on the degenerate ladder at
  30, 60 and 90 buses, whose rows are full of implicit equalities.

Each workload is a closed loop: one client solves its networks one after
another, in an order drawn from the seed.  The ladders' grids are fixed
(grid seed 0); the seed draws their load snapshot.
"""

import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import ladder
import oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUNDLED = ("case5_pjm", "case14_ieee", "case24_ieee_rts", "case30_as")
ATTACK_RESTARTS = 5
MATCH = 0.01              # the package's default match threshold


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str             # "squeeze" or "attack"
    budget_s: float       # per network: the squeeze budget, and the PAR charge
    sizes: tuple = ()     # ladder rungs; () = the bundled networks
    degenerate: bool = False
    snapshots: int = 1    # load snapshots per rung


WORKLOADS = {w.name: w for w in (
    Workload("bundled-squeeze", "squeeze", 600.0),
    Workload("ladder-attack", "attack", 30.0, (30, 60, 120), snapshots=5),
    Workload("degenerate-squeeze", "squeeze", 30.0, (30, 60, 90), True),
)}


def prepare(workload, seed, workdir, sizes=None):
    """Paths of the workload's network files in solve order.  Ladder networks
    are generated from the seed and written as MATPOWER text first, so the
    timed code reads them through `load_case` like any other case."""
    if seed < 0:
        raise ValueError("the seed must be non-negative")
    if workload.sizes:
        os.makedirs(workdir, exist_ok=True)
        paths = []
        for n in sizes or workload.sizes:
            for k in range(workload.snapshots):
                net = ladder.ladder(n, seed * workload.snapshots + k,
                                    degenerate=workload.degenerate)
                path = os.path.join(workdir, net["name"] + ".m")
                with open(path, "w") as fh:
                    fh.write(ladder.to_matpower(net))
                paths.append(path)
    else:
        paths = [os.path.join(ROOT, "cases", f"pglib_opf_{c}.m") for c in BUNDLED]
    order = np.random.default_rng(seed).permutation(len(paths))
    return [paths[i] for i in order]


def setup(paths):
    """load_case + build_feasibility over the networks: [(case, mats)]."""
    from dcattack import case_ingest, dc_model
    out = []
    for path in paths:
        case = case_ingest.load_case(path)
        out.append((case, dc_model.build_feasibility(case)))
    return out


@dataclass(eq=False)
class Outcome:
    network: str
    wall_s: float
    ub: float = None
    lb: float = 0.0
    solved: bool = False      # the workload's accuracy, before the oracle
    error: str = None
    fails: list = field(default_factory=list)
    cert: dict = field(default_factory=dict)
    ref_s: tuple = ()         # reference-kernel times around the solve

    @property
    def ok(self):
        return self.error is None and not self.fails

    @property
    def accurate(self):
        return self.ok and self.solved


def _call(workload, case, mats):
    from dcattack import attack, squeeze
    if workload.kind == "attack":
        rep = attack.multistart_attack(
            mats, attack.AttackConfig(restarts=ATTACK_RESTARTS, seed=0))
        best = rep.best
        # no defense runs here, so the bracket is [0, ub]
        return dict(ub=best.norm_sq, lb=0.0, solved=best.certified,
                    cert={"delta": best.delta, "mu": best.mu})
    rep = squeeze.squeeze_run(case, squeeze.SqueezeConfig(budget_s=workload.budget_s),
                              mats=mats)
    cert = {"p0": rep.defense["p0"], "G": rep.defense["G"]}
    if rep.attack is not None:
        cert["delta"] = rep.attack["delta"]
    return dict(ub=rep.ub, lb=rep.lb, solved=rep.matched, cert=cert)


def solve(workload, case, mats):
    """One timed solve.  A raised error is recorded, not propagated: it
    counts against the run as a failed network."""
    t0 = time.perf_counter()
    try:
        fields = _call(workload, case, mats)
    except Exception:
        return Outcome(mats.case.name, time.perf_counter() - t0,
                       error=traceback.format_exc(limit=3))
    return Outcome(mats.case.name, time.perf_counter() - t0, **fields)


def verify(outcome, case, mats):
    """Run the independent checks on one outcome (outside any timing)."""
    if outcome.error is not None:
        return outcome
    fails = []
    if outcome.ub is not None:    # a squeeze may end without one: unsolved
        fails += oracle.check_ub(case, mats, outcome.ub, outcome.cert["delta"])
    if "mu" in outcome.cert:
        fails += oracle.check_farkas(mats, np.asarray(outcome.cert["delta"]),
                                     outcome.cert["mu"])
    if "p0" in outcome.cert:
        fails += oracle.check_lb(mats, outcome.lb, outcome.ub,
                                 outcome.cert["p0"], outcome.cert["G"])
    outcome.fails = fails
    return outcome
