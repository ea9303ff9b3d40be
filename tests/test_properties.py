"""Property tests over small random networks (Hypothesis, derandomized).

Each example is a connected network of 3 to 6 buses built with `build_case`:
a random spanning tree plus chords, loads on most buses, one to three
flexible units, and line ratings sized at 1.05x to 3x the flows of a
proportional dispatch, which is therefore a nominal witness.  The
invariants are the package's soundness claims, checked against scipy, the
affine SOCP's optimality against the rank-1 and fixed-dispatch policies, and
the squeeze's early stop against a full multistart.  On the bundled networks
and the 30-bus ladders, the lower bound is checked for invariance to the
choice of slack unit and to the power base.  On the networks with at most
four movable units, and on every random network, the bracket is checked
against the exact value of a Fourier-Motzkin projection
(`oracle_utils.exact_distance`).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracle_utils
from conftest import BUNDLED, bench_ladder, pglib_path
from dcattack.attack import AttackConfig, multistart_attack
from dcattack.case_ingest import build_case, load_case
from dcattack.dc_model import build_feasibility
from dcattack.defense import defense_local, t_tilde, warm_start_defense
from dcattack.squeeze import SqueezeConfig, cross_feed, squeeze_run


def _flows(n_bus, branches, injections):
    """DC flows of the net injections, referenced at bus position 0."""
    E = np.zeros((len(branches), n_bus))
    for k, (f, t, _x) in enumerate(branches):
        E[k, f], E[k, t] = 1.0, -1.0
    b = np.array([1.0 / x for _f, _t, x in branches])
    L = E[:, 1:].T @ (b[:, None] * E[:, 1:])
    theta = np.zeros(n_bus)
    theta[1:] = np.linalg.solve(L, injections[1:])
    return b * (E @ theta)


@st.composite
def networks(draw):
    n = draw(st.integers(3, 6))
    rnd = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    branches = [(int(rnd.integers(0, k)), k, float(rnd.uniform(0.05, 0.3)))
                for k in range(1, n)]
    for _ in range(draw(st.integers(0, 2))):
        f, t = rnd.choice(n, size=2, replace=False)
        branches.append((int(f), int(t), float(rnd.uniform(0.05, 0.3))))
    loads = np.where(rnd.random(n) < 0.7, rnd.uniform(0.2, 1.5, n), 0.0)
    loads[-1] = max(loads[-1], 0.5)
    n_gen = draw(st.integers(1, 3))
    gen_bus = rnd.choice(n, size=n_gen, replace=False)
    p_max = rnd.uniform(1.2, 2.5, n_gen) * loads.sum() / n_gen
    p_min = rnd.uniform(0.0, 0.3, n_gen) * loads.sum() / n_gen
    share = (loads.sum() - p_min.sum()) / (p_max - p_min).sum()
    injections = -loads.copy()
    np.add.at(injections, gen_bus, p_min + share * (p_max - p_min))
    flow = np.abs(_flows(n, branches, injections))
    factor = rnd.uniform(1.05, 3.0, len(branches))
    rated = rnd.random(len(branches)) < 0.8
    return dict(
        buses=[(i + 1, float(loads[i])) for i in range(n)],
        branches=[(f + 1, t + 1, x, float(factor[k] * flow[k] + 0.05)
                   if rated[k] else None)
                  for k, (f, t, x) in enumerate(branches)],
        generators=[(int(gen_bus[j]) + 1, float(p_min[j]), float(p_max[j]))
                    for j in range(n_gen)])


def _case(net, ids=None):
    ids = ids or {i: i for i, _pd in net["buses"]}
    return build_case(
        "fuzz", 100.0, [(ids[i], pd) for i, pd in net["buses"]],
        [(ids[f], ids[t], x, r) for f, t, x, r in net["branches"]],
        [(ids[g[0]], *g[1:]) for g in net["generators"]])


@settings(max_examples=40, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(net=networks(), relabel=st.permutations(range(100, 106)))
def test_bounds_are_sound_on_random_networks(net, relabel):
    case = _case(net)
    mats = build_feasibility(case)
    rep = multistart_attack(mats, AttackConfig(restarts=2, seed=0))
    best = rep.best
    # every certified attack is infeasible just past delta, per scipy HiGHS
    assert best.certified
    assert not oracle_utils.scipy_feasible(mats.A, mats.rhs((1 + 1e-4) * best.delta))
    assert rep.fixed_lb <= best.norm_sq
    # the SOCP optimum dominates every affine policy: the rank-1 policies
    # at the warm-start dispatch, whose units that move absorb the load
    # change 1^T delta in equal shares or in proportion to their outputs,
    # and that dispatch's fixed radius
    p_w, _G0, t_fixed = warm_start_defense(mats)
    base = mats.full_dispatch(p_w)[np.append(mats.slack_gen, mats.gen_order)]
    radii = [t_fixed]
    shares = [np.full(base.size, 1.0 / base.size)]
    if abs(float(base.sum())) >= 1e-12:
        shares.append(base / base.sum())
    for share in shares:
        G = np.outer(share[1:], np.ones(mats.n_delta))
        radii.append(t_tilde(mats, p_w, G)[0])
    pol = defense_local(mats)
    assert pol.t >= (1 - 1e-8) * max(radii)
    bounds = squeeze_run(case, SqueezeConfig(seed=0, restarts=2,
                                             verify_samples=200))
    assert bounds.lb <= bounds.ub
    # stopping the attack at lb loses nothing: every start from the same
    # directions, run to the end, certifies no smaller ub
    full = multistart_attack(mats, AttackConfig(restarts=2, seed=0),
                             extra_directions=cross_feed(mats, pol))
    assert bounds.ub == pytest.approx(full.best.norm_sq, rel=1e-8)
    # renumbering the buses changes nothing the attack sees
    ids = dict(zip(range(1, len(net["buses"]) + 1), relabel))
    mats2 = build_feasibility(_case(net, ids))
    ub2 = multistart_attack(mats2, AttackConfig(restarts=2, seed=0)).best.norm_sq
    assert ub2 == pytest.approx(best.norm_sq, rel=1e-9)


def _rebased(case, factor):
    """The case on a power base `factor` times larger: per-unit powers,
    ratings and susceptances shrink by `factor`, so the flows' shares and
    every MW value stay as they were."""
    rep = dataclasses.replace
    return rep(case, base_mva=factor * case.base_mva,
               buses=tuple(rep(b, p_d=b.p_d / factor) for b in case.buses),
               branches=tuple(rep(br, b=br.b / factor,
                                  rate=None if br.rate is None
                                  else br.rate / factor)
                              for br in case.branches),
               generators=tuple(rep(g, p_min=g.p_min / factor,
                                    p_max=g.p_max / factor)
                                for g in case.generators))


@pytest.mark.parametrize("name", BUNDLED + ("ladder30", "degenerate30"))
def test_lb_is_invariant_to_the_slack_and_the_base(name):
    """Each slack unit reduces the system differently, so the row
    generation takes its own path to the same optimum; in MW^2 the radius
    does not depend on the power base."""
    ladders = {"ladder30": False, "degenerate30": True}
    case = (bench_ladder(30, 0, ladders[name]) if name in ladders
            else load_case(pglib_path(name)))
    lo, hi = case.gen_bounds()
    ts = [defense_local(build_feasibility(case, slack_gen=int(k))).t
          for k in np.flatnonzero(lo < hi)]
    assert len(ts) > 1
    assert max(ts) == pytest.approx(min(ts), rel=1e-8)
    t = defense_local(build_feasibility(case)).t
    t2 = defense_local(build_feasibility(_rebased(case, 2.0))).t
    assert t2 * 4.0 == pytest.approx(t, rel=1e-12)


@pytest.mark.parametrize("name", ["case5_pjm", "case14_ieee", "desk2",
                                  "desk2_limited", "desk2_single", "desk3"])
def test_the_bracket_holds_the_exact_value(name, request):
    """lb <= exact <= ub, with lb within the SOCP's 1e-8 gap tolerance of
    the exact value (case5: exact 6.2861658, lb 8.4e-10 below it)."""
    case = load_case(pglib_path(name)) if name.startswith("case") \
        else request.getfixturevalue(name)
    mats = build_feasibility(case)
    exact = oracle_utils.exact_distance(mats)
    lb = defense_local(mats).t
    ub = multistart_attack(mats, AttackConfig(restarts=5, seed=0)).best.norm_sq
    assert lb <= exact * (1.0 + 1e-12)
    assert (exact - lb) / exact <= 1e-8
    assert exact <= ub


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(net=networks())
def test_the_bracket_holds_the_exact_value_on_random_networks(net):
    """lb <= exact <= ub on networks of 0 to 2 movable units.  lb may stay
    below exact: the best affine policy need not reach the exact value."""
    mats = build_feasibility(_case(net))
    assert mats.n_reduced <= oracle_utils.MAX_EXACT_UNITS
    exact = oracle_utils.exact_distance(mats)
    lb = defense_local(mats).t
    ub = multistart_attack(mats, AttackConfig(restarts=5, seed=0)).best.norm_sq
    assert lb <= exact * (1.0 + 1e-12)
    assert exact <= ub


def test_the_exact_oracle_refuses_more_than_four_units():
    mats = build_feasibility(load_case(pglib_path("case24_ieee_rts")))
    assert mats.n_reduced > oracle_utils.MAX_EXACT_UNITS
    with pytest.raises(ValueError, match="movable units"):
        oracle_utils.exact_distance(mats)
