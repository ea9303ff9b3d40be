"""Acceptance gate: one verdict line per criterion.

Criterion 1 is parametrized so every benchmark network gets its own line.
Network files resolve through $PGLIB_OPF_DIR first, then the bundled
reconstructions under cases/; a row whose file cannot be found fails with
the path that would fix it rather than skipping -- the gate is only honest
when absence is loud.

Budgets follow the stated limits (300 s for the small networks, 600 s for
the large ones); on this hardware every bundled row finishes in seconds.
"""

import time

import numpy as np
import pytest

import oracle_utils
from conftest import pglib_path

from dcattack import attack, lin_solve
from dcattack.attack import AttackConfig, multistart_attack
from dcattack.case_ingest import load_case
from dcattack.dc_model import build_feasibility
from dcattack.defense import (defense_local, simplex_policy_fit,
                              verify_policy)
from dcattack.squeeze import SqueezeConfig, squeeze_run

# squeeze reports produced by earlier criteria, re-checked by criterion 7
_RUNS = {}

BENCH_ROWS = [
    # (file stem, reference values, rel tol, budget seconds)
    ("case5_pjm", (6.29,), 0.05, 300.0),
    ("case14_ieee", (0.178, 0.179), 0.05, 300.0),
    ("case30_as", (0.0144,), 0.05, 300.0),
    ("case57_ieee", (0.0547,), 0.05, 300.0),
    ("case24_ieee_rts", (1.81,), 0.10, 600.0),
    ("case60_c", (8.87,), 0.10, 600.0),
]


def _squeeze_network(stem, budget):
    key = (stem, budget)
    if key not in _RUNS:
        path = pglib_path(stem)
        if path is None:
            _RUNS[key] = FileNotFoundError(
                f"pglib_opf_{stem}.m is unavailable: not in $PGLIB_OPF_DIR and "
                "no bundled reconstruction exists for it.  Point PGLIB_OPF_DIR "
                "at a directory containing the file to run this row.")
        else:
            case = load_case(path)
            _RUNS[key] = squeeze_run(case, SqueezeConfig(budget_s=budget, seed=0))
    run = _RUNS[key]
    if isinstance(run, Exception):
        pytest.fail(str(run))
    return run


@pytest.mark.parametrize("stem,refs,tol,budget", BENCH_ROWS,
                         ids=[row[0] for row in BENCH_ROWS])
def test_criterion_1_benchmark(stem, refs, tol, budget):
    """Matched squeeze whose common value lands on the reference value."""
    rep = _squeeze_network(stem, budget)
    assert rep.elapsed <= budget * 1.05 + 5.0, \
        f"{stem}: ran {rep.elapsed:.1f}s against a {budget:.0f}s budget"
    assert rep.matched, (f"{stem}: bounds did not match within budget "
                         f"(lb={rep.lb:.6g} ub={rep.ub} gap={rep.gap})")
    dev = min(abs(rep.ub - r) / r for r in refs)
    assert dev <= tol, (f"{stem}: matched value {rep.ub:.6g} deviates "
                        f"{dev:.2%} from reference {refs} (allowed {tol:.0%})")


def test_criterion_1_benchmark_case118():
    """Large-network row: certified bracket rather than a full match."""
    rep = _squeeze_network("case118_ieee", 600.0)
    if rep.ub is not None:
        assert rep.lb <= rep.ub + 1e-6
    lb_ok = abs(rep.lb - 0.409) / 0.409 <= 0.05
    ub_ok = (rep.ub is not None and "no-certified-attack" not in rep.flags
             and rep.ub <= 0.580 * 1.05)
    assert lb_ok or ub_ok, (
        f"case118_ieee: lb={rep.lb:.6g} not within 5% of 0.409 and "
        f"ub={rep.ub} not a certified value <= {0.580 * 1.05:.4g}")


def test_criterion_2_certificate_soundness(desk2, desk2_limited, desk2_single,
                                           desk3):
    """Every emitted bound survives its independent oracle, under 60 s."""
    t0 = time.monotonic()
    attacks = defenses = 0
    for case in (desk2, desk2_limited, desk2_single, desk3):
        mats = build_feasibility(case)
        rep = multistart_attack(mats, AttackConfig(seed=0))
        delta = rep.best.delta * (1.0 + 1e-4)
        assert not oracle_utils.scipy_feasible(mats.A, mats.rhs(delta)), \
            f"{case.name}: attack bound failed the feasibility oracle"
        attacks += 1
        pol = defense_local(mats)
        verify_policy(mats, pol, samples=1000, seed=1)
        assert pol.verified_samples >= 1000
        defenses += 1
    elapsed = time.monotonic() - t0
    assert attacks == 4 and defenses == 4
    assert elapsed < 60.0, f"soundness suite took {elapsed:.1f}s (>= 60s)"


def test_criterion_3_projection_vs_dense_kkt():
    """Closed-form projections against a dense KKT solve, 1000 instances."""
    rng = np.random.default_rng(42)
    for trial in range(1000):
        n_p = int(rng.integers(0, 6))
        n_d = int(rng.integers(1, 8))
        a = rng.normal(size=n_p)
        b = rng.normal(size=n_d)
        c = float(rng.normal())
        p0 = rng.normal(size=n_p)
        use_policy = trial % 2 == 1
        G = rng.normal(size=(n_p, n_d)) if use_policy else None
        g = b if G is None else G.T @ a + b
        if float(g @ g) < 1e-8:          # essentially never for gaussians
            continue
        delta = oracle_utils.one_row(a, b, c).crossing(p0, G, 0)
        norm_sq = oracle_utils.row_radius(a, b, c, p0, G)
        margin = float(a @ p0 + c)
        k = n_d + 1
        K = np.zeros((k, k))
        K[:n_d, :n_d] = 2.0 * np.eye(n_d)
        K[:n_d, n_d] = g
        K[n_d, :n_d] = g
        rhs = np.zeros(k)
        rhs[n_d] = -margin
        sol = np.linalg.solve(K, rhs)
        d_kkt = sol[:n_d]
        nsq_kkt = float(d_kkt @ d_kkt)
        assert abs(norm_sq - nsq_kkt) <= 1e-9 * (1.0 + nsq_kkt)
        assert np.max(np.abs(delta - d_kkt)) <= \
            1e-9 * (1.0 + float(np.max(np.abs(d_kkt))))


def test_criterion_4_farkas_alternative():
    """Exactly one of {feasible witness, verified Farkas ray} per instance.
    Each system ends with box rows x <= x0 + w and -x <= w - x0, as a
    network ends with its unit bound rows, so the LP over Q starts from the
    same kind of crash basis: every upper row and the first lower row."""
    rng = np.random.default_rng(7)
    outcomes = {True: 0, False: 0}
    for _ in range(200):
        m = int(rng.integers(1, 21))
        n = int(rng.integers(1, 11))
        x0 = rng.normal(size=n)
        width = rng.uniform(0.5, 3.0, size=n)
        A = np.vstack([rng.normal(size=(m, n)), np.eye(n), -np.eye(n)])
        slack = rng.normal(loc=-0.3, size=m)
        rhs = np.concatenate([A[:m] @ x0 + slack, x0 + width, width - x0])
        crash = np.append(np.arange(m, m + n), m + n)
        feasible, x, ray = lin_solve.check_feasible(A, rhs, crash)
        if feasible:
            assert ray is None
            assert x is not None
            assert float(np.max(A @ x - rhs)) <= 1e-7, "witness violates rows"
        else:
            assert x is None
            y = np.asarray(ray)
            scale = 1.0 + float(np.max(np.abs(A)))
            assert np.all(y >= 0.0)
            assert abs(float(y.sum()) - 1.0) <= 1e-9
            assert float(np.max(np.abs(A.T @ y))) <= 1e-8 * scale
            assert float(y @ rhs) < 0.0
        outcomes[feasible] += 1
    assert outcomes[True] > 10 and outcomes[False] > 10, \
        f"unbalanced draw {outcomes}: property untested on one branch"


def test_criterion_5_simplex_exactness():
    """Vertex reproduction, convex weight recovery, and the 1-D identity."""
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3, 4, 5):
        for _ in range(2):
            while True:
                vertices = rng.normal(size=(dim + 1, dim))
                dhat = np.vstack([vertices.T, np.ones(dim + 1)])
                if np.linalg.cond(dhat) < 1e6:
                    break
            n_gen = int(rng.integers(1, 5))
            dispatches = rng.normal(size=(dim + 1, n_gen))
            sp = simplex_policy_fit(vertices, dispatches)
            scale = 1.0 + float(np.max(np.abs(dispatches)))
            for v, p in zip(vertices, dispatches):
                err = float(np.max(np.abs(sp.G @ v + sp.p0 - p)))
                assert err <= 1e-9 * scale
            for _ in range(100):
                w = rng.dirichlet(np.ones(dim + 1))
                delta = w @ vertices
                wr = sp.weights(delta)
                assert float(wr.min()) >= -1e-9
                assert abs(float(wr.sum()) - 1.0) <= 1e-9
    p_up, p_dn = 1.7, 0.3
    sp = simplex_policy_fit(np.array([[1.0], [-1.0]]),
                            np.array([[p_up], [p_dn]]))
    assert abs(sp.p0[0] - 0.5 * (p_up + p_dn)) <= 1e-14
    assert abs(sp.G[0, 0] - 0.5 * (p_up - p_dn)) <= 1e-14


def test_criterion_6_grid_oracle(desk2):
    """Literal grid sweep (step 1e-3 of load scale) vs the squeeze value."""
    mats = build_feasibility(desk2)
    rep = squeeze_run(desk2, SqueezeConfig(budget_s=60.0, seed=0), mats=mats)
    _RUNS[("desk2-grid", 60.0)] = rep
    assert rep.matched and rep.ub is not None
    load_scale = float(np.sum(np.abs([bus.p_d for bus in desk2.buses])))
    step = 1e-3 * load_scale
    grid = oracle_utils.grid_attack_oracle(mats, span=1.3, step=step)
    assert np.isfinite(grid), "grid sweep never left the feasible region"
    assert abs(rep.ub - grid) <= 0.01 * grid, \
        f"squeeze {rep.ub:.6g} vs grid oracle {grid:.6g}"


def test_criterion_7_bound_ordering(desk3):
    """lb <= ub + 1e-6 at every trace point of every run in the suite."""
    rep = squeeze_run(desk3, SqueezeConfig(budget_s=60.0, seed=0))
    _RUNS[("desk3-ordering", 60.0)] = rep
    points = 0
    for run in _RUNS.values():
        if isinstance(run, Exception):
            continue
        lb, ub = 0.0, np.inf
        for _elapsed, side, value in run.trace:
            if side == "defense":
                lb = max(lb, value)
            else:
                ub = min(ub, value)
            assert lb <= ub + 1e-6, \
                f"{run.case_name}: lb {lb:.9g} > ub {ub:.9g} on the trace"
            points += 1
        if run.ub is not None:
            assert run.lb <= run.ub + 1e-6
    assert points > 0


def test_criterion_8_eps_robustness(desk2, monkeypatch):
    """The certificate scale eps must not move the certified value."""
    mats = build_feasibility(desk2)
    monkeypatch.setattr(attack, "EPS", 1e-3)
    a = multistart_attack(mats, AttackConfig(seed=0))
    monkeypatch.setattr(attack, "EPS", 5e-4)
    b = multistart_attack(mats, AttackConfig(seed=0))
    assert a.best.certified and b.best.certified
    rel = abs(a.best.norm_sq - b.best.norm_sq) / a.best.norm_sq
    assert rel < 1e-3, f"eps halving moved the value by {rel:.4%}"
