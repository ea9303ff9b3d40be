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
from dcattack.attack import (AttackConfig, _p_lp, certify_infeasible,
                             multistart_attack)
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


def _network(n, seed, chords, n_gen):
    """One network of the module docstring, as `_case` reads it: n buses,
    `chords` extra branches and n_gen units, drawn from `seed`."""
    rnd = np.random.default_rng(seed)
    branches = [(int(rnd.integers(0, k)), k, float(rnd.uniform(0.05, 0.3)))
                for k in range(1, n)]
    for _ in range(chords):
        f, t = rnd.choice(n, size=2, replace=False)
        branches.append((int(f), int(t), float(rnd.uniform(0.05, 0.3))))
    loads = np.where(rnd.random(n) < 0.7, rnd.uniform(0.2, 1.5, n), 0.0)
    loads[-1] = max(loads[-1], 0.5)
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


@st.composite
def networks(draw):
    return _network(draw(st.integers(3, 6)), draw(st.integers(0, 2**32 - 1)),
                    draw(st.integers(0, 2)), draw(st.integers(1, 3)))


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
    base = oracle_utils.full_dispatch(mats, p_w)[
        np.append(mats.slack_gen, mats.gen_order)]
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


def test_the_bare_multistart_reaches_the_exact_value_on_a_fuzzed_network():
    """A 5-bus network that the fuzzing above draws, with units at buses 4
    and 2: from the cost-minimizing dispatch, the bare multistart stopped at
    0.7363499, 51% above the exact 0.48676662.  From the max-margin
    dispatch its fixed-dispatch start reaches exact (1 + 1e-6)^2, the
    reported attack's inflation of the exact optimum."""
    mats = build_feasibility(_case(_network(5, 302, 2, 2)))
    assert [g.bus for g in mats.case.generators] == [4, 2]
    exact = oracle_utils.exact_distance(mats)
    assert exact == pytest.approx(0.48676662, rel=1e-8)
    rep = multistart_attack(mats, AttackConfig(restarts=5, seed=0))
    assert rep.best.norm_sq == pytest.approx(exact * (1.0 + 1e-6) ** 2,
                                             rel=1e-9)


# networks whose one unit is the slack (n_reduced = 0): the attack's ub and
# the squeeze's lb, pinned
NO_MOVER = {
    "desk2_single": (1.000002000001, 1.0),
    "one3_0": (0.006032646816296984, 0.00603263475102145),
    "one3_1": (0.1673705324145387, 0.167370197673976),
    "one3_2": (0.17059952664620923, 0.17059918544766775),
    "one4_0": (0.0606461923127897, 0.060646071020587014),
    "one4_1": (0.3366957226919332, 0.3366950493014978),
    "one4_2": (0.5261824416865947, 0.5261813893232902),
    "one5_0": (0.01633462978662005, 0.01633459711740948),
    "one5_1": (0.035663923294711714, 0.03566385196697213),
    "one5_2": (0.06415842408965962, 0.0641582957730039),
    "one6_0": (0.12179099609350226, 0.12179075251187547),
    "one6_1": (0.06506497558143046, 0.06506484545167453),
    "one6_2": (0.0476638076484979, 0.047663712321025606),
}


@pytest.mark.parametrize("name", sorted(NO_MOVER))
def test_without_a_movable_unit_the_p_lps_start_from_one_row(name, request):
    """With n_reduced = 0, P = {mu >= 0 : -c^T mu = 1} has one row, and
    its crash basis is the row of largest -c_i: a P-LP from it meets
    scipy's optimum over P for the uniform and seeded directions.  The
    max-margin LP takes the fallback over Q, and the attack's ub and the
    squeeze's bracket keep their pinned values."""
    if name.startswith("one"):
        n, seed = map(int, name[3:].split("_"))
        case = _case(_network(n, seed, seed, 1))
    else:
        case = request.getfixturevalue(name)
    mats = build_feasibility(case)
    assert mats.n_reduced == 0 and np.any(mats.c < 0.0)
    crash = mats.crash_basis()
    np.testing.assert_array_equal(crash, [np.argmax(-mats.c)])
    rng = np.random.default_rng(seed=1)
    for g in (np.ones(mats.n_delta), rng.normal(size=mats.n_delta)):
        _mu, value, _basis = _p_lp(mats, g, crash)
        assert value == pytest.approx(oracle_utils.p_polytope_max(mats, g),
                                      rel=1e-12, abs=1e-15)
    assert mats.max_margin()[1] is None     # the fallback over Q
    ub, lb = NO_MOVER[name]
    rep = multistart_attack(mats, AttackConfig(restarts=5, seed=0))
    assert rep.best.certified
    assert rep.best.norm_sq == pytest.approx(ub, rel=1e-12)
    bounds = squeeze_run(case, SqueezeConfig(seed=0))
    assert bounds.ub == pytest.approx(ub, rel=1e-12)
    assert bounds.lb == pytest.approx(lb, rel=1e-12)


def test_the_exact_oracle_refuses_more_than_four_units():
    mats = build_feasibility(load_case(pglib_path("case24_ieee_rts")))
    assert mats.n_reduced > oracle_utils.MAX_EXACT_UNITS
    with pytest.raises(ValueError, match="movable units"):
        oracle_utils.exact_distance(mats)


def _rule_trials(mats, best):
    """The residual rule's verdict on the certified attack and on three
    perturbations of it: one support entry of mu doubled, one zeroed (each
    entry in turn), and delta halved.  Whenever the rule accepts, scipy
    finds F empty at the inflated point.  Returns the verdicts, the
    unperturbed one first and the halved delta's second."""
    point = (1.0 + 1e-4) * best.delta
    trials = [(point, best.mu), (0.5 * point, best.mu)]
    for i in np.flatnonzero(best.mu):
        for factor in (2.0, 0.0):
            mu = best.mu.copy()
            mu[i] *= factor
            trials.append((point, mu))
    verdicts = []
    for delta, mu in trials:
        ok, ray = certify_infeasible(mats, delta, mu)
        verdicts.append(ok)
        if ok:
            assert ray.min() >= 0.0 and abs(ray.sum() - 1.0) <= 1e-12
            assert not oracle_utils.scipy_feasible(mats.A, mats.rhs(delta))
        else:
            assert ray is None
    return verdicts


@settings(max_examples=40, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(net=networks())
def test_the_farkas_rule_is_sound_on_random_networks(net):
    mats = build_feasibility(_case(net))
    best = multistart_attack(mats, AttackConfig(restarts=2, seed=0)).best
    assert _rule_trials(mats, best)[0]


@pytest.mark.parametrize("name", BUNDLED)
def test_the_farkas_rule_is_sound_on_the_bundled_networks(name):
    """On these networks the attack is within 1e-4 of the exact minimum
    (the squeeze closes them), so half of it leaves F nonempty and the rule
    must refuse it; so it does for at least one broken multiplier."""
    mats = build_feasibility(load_case(pglib_path(name)))
    best = multistart_attack(mats, AttackConfig(restarts=5, seed=0)).best
    verdicts = _rule_trials(mats, best)
    assert verdicts[0] and not verdicts[1] and not all(verdicts[2:])
