"""Attack-side tests.

Expected values were computed from three independent routes (extreme-ray
enumeration, scipy-backed Cartesian/directional grids, and hand algebra) and
frozen here:

  desk2          min ||delta||^2 = 1.0       (slack headroom: total cap 4, load 3)
  desk2_limited  min ||delta||^2 = 0.25      (line cap 1.5 + remote gen cap)
  desk2_single   min ||delta||^2 = 1.0       (no recourse: single generator)
  desk3          min ||delta||^2 = 169/500   (flow cap 1.6 mixing with gen cap;
                                              optimum delta* = (0.52, 0.26))
"""

import types

import numpy as np
import pytest
from scipy.optimize import linprog

from dcattack import attack, lin_solve
from dcattack.attack import (AttackConfig, _p_lp, _Pool,
                             attack_local, certify_infeasible,
                             fixed_dispatch_lb, multistart_attack)
from dcattack.case_ingest import build_case, load_case
from dcattack.dc_model import build_feasibility
from dcattack.errors import ModelError, RestartSignal, SolverError

import oracle_utils
from conftest import BUNDLED, bench_ladder, pglib_path


def _attack(case, **kw):
    mats = build_feasibility(case)
    cfg = AttackConfig(**{"restarts": 4, "seed": 7, **kw})
    return mats, multistart_attack(mats, cfg)


def test_desk2_attack_value_and_certificate(desk2):
    mats, rep = _attack(desk2)
    sol = rep.best
    assert sol.certified and sol.converged
    assert sol.norm_sq == pytest.approx(1.0, rel=1e-4)
    assert sol.delta[0] > 0         # upward load push exhausts the fleet
    assert sol.residuals["At_mu_inf"] <= 1e-9
    assert abs(sol.residuals["eps_residual"]) <= 1e-9
    assert sol.residuals["mu_min"] >= -1e-12


def test_desk2_limited_attack_uses_line_and_gen_caps(desk2_limited):
    mats, rep = _attack(desk2_limited)
    sol = rep.best
    assert sol.norm_sq == pytest.approx(0.25, rel=1e-4)
    # the separating certificate must mix the flow cap with the remote
    # generator cap: rows 0 = flow-upper, 3 = gen-upper
    assert mats.row_labels[0].startswith("flow-upper")
    assert mats.row_labels[3].startswith("gen-upper")
    support = np.nonzero(sol.mu > 1e-9 * sol.mu.sum())[0]
    assert {0, 3} <= set(support.tolist())


def test_desk2_single_attack_equals_fixed_lb(desk2_single):
    mats = build_feasibility(desk2_single)
    # the one unit is the slack: the reduced dispatch is empty
    lb, _start = fixed_dispatch_lb(mats, np.zeros(0))
    rep = multistart_attack(mats, AttackConfig(restarts=2, seed=1))
    # with a single generator there is no recourse, so the fixed-dispatch
    # lower bound is already tight
    assert lb == pytest.approx(1.0, abs=1e-12)
    assert rep.fixed_lb == lb
    assert rep.best.norm_sq == pytest.approx(1.0, rel=1e-4)


def test_desk3_attack_matches_independent_oracles(desk3):
    mats, rep = _attack(desk3)
    sol = rep.best
    assert sol.norm_sq == pytest.approx(169.0 / 500.0, rel=1e-4)
    ray_val = oracle_utils.extreme_ray_oracle(mats)
    assert ray_val == pytest.approx(169.0 / 500.0, abs=1e-9)
    dir_val = oracle_utils.direction_grid_oracle(mats, n_dirs=400)
    assert sol.norm_sq == pytest.approx(dir_val, rel=1e-2)
    # optimizer lands on the known facet point
    assert np.allclose(sol.delta, [0.52, 0.26], atol=1e-3)


def test_multistart_is_deterministic(desk3):
    mats = build_feasibility(desk3)
    cfg = AttackConfig(restarts=5, seed=123)
    rep1 = multistart_attack(mats, cfg)
    rep2 = multistart_attack(mats, cfg)
    assert rep1.best.norm_sq == rep2.best.norm_sq
    assert np.array_equal(rep1.best.delta, rep2.best.delta)
    assert rep1.best.start == rep2.best.start


def test_eps_insensitivity(desk2, monkeypatch):
    mats = build_feasibility(desk2)
    vals = []
    for eps in (1e-3, 5e-4):
        monkeypatch.setattr(attack, "EPS", eps)
        rep = multistart_attack(mats, AttackConfig(restarts=3, seed=2))
        assert rep.best.certified
        sep = mats.B @ rep.best.delta + mats.c
        assert float(rep.best.mu @ sep) == pytest.approx(eps, rel=1e-9)
        vals.append(rep.best.norm_sq)
    assert abs(vals[0] - vals[1]) / vals[0] < 1e-3


def test_accepted_history_is_monotone(desk3):
    mats = build_feasibility(desk3)
    sol = attack_local(mats, np.ones(mats.n_delta))
    hist = np.asarray(sol.history)
    assert hist.size >= 1
    assert np.all(np.diff(hist) <= 1e-12)


def test_certify_refuses_an_interior_point(desk2):
    """At a point inside the attack's ball the attack's own multiplier is
    refused, with no ray, and scipy finds a dispatch there."""
    mats, rep = _attack(desk2)
    point = np.array([0.1])
    assert certify_infeasible(mats, point, rep.best.mu) == (False, None)
    assert oracle_utils.scipy_feasible(mats.A, mats.rhs(point))


def test_oracle_ray_invariants(desk2_limited):
    mats, rep = _attack(desk2_limited)
    y = rep.best.oracle_ray
    rhs = mats.rhs((1.0 + 1e-4) * rep.best.delta)
    assert np.all(y >= 0)
    assert y.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(mats.A.T @ y)) <= 1e-9
    assert y @ rhs < 0


def _string3():
    # two unlimited lines in a string, one huge generator: shifting load
    # between buses 2 and 3 never breaks anything
    return build_feasibility(build_case(
        "string3", 1.0, [(1, 0.0), (2, 1.0), (3, 1.0)],
        [(1, 2, 0.1, None), (2, 3, 0.1, None)], [(1, 0.0, 10.0)]))


def test_unbounded_direction_raises_restart():
    mats = _string3()
    assert oracle_utils.direction_boundary(mats, np.array([1.0, -1.0])) is None
    with pytest.raises(RestartSignal):
        attack_local(mats, np.array([1.0, -1.0]))


def test_a_restarted_hint_is_noted_and_the_other_starts_go_on():
    """A caller's direction along which F never closes is noted "restart"
    with the signal's reason, and the multistart still certifies."""
    rep = multistart_attack(_string3(), AttackConfig(restarts=5, seed=0),
                            extra_directions=[np.array([1.0, -1.0])])
    assert rep.starts[0] == {
        "start": "hint0", "status": "restart",
        "reason": "feasible set never closes along this direction"}
    assert rep.best.certified and np.isfinite(rep.best.norm_sq)


def test_nominally_infeasible_case_raises():
    """An empty F(0) fails the max-margin LP before any start, with a
    ModelError that names the heaviest row of its Farkas ray."""
    case = build_case("overload", 1.0, [(1, 0.0), (2, 10.0)], [(1, 2, 0.1, None)],
                      [(1, 0.0, 2.0), (2, 0.0, 2.0)])
    mats = build_feasibility(case)
    with pytest.raises(ModelError, match="max-margin LP") as exc:
        multistart_attack(mats, AttackConfig(restarts=1, seed=0))
    assert any(label in str(exc.value) for label in mats.row_labels)


def test_fixed_lb_bounds_every_certified_attack(desk2, desk2_limited, desk3):
    """fixed_lb is the radius of the max-margin dispatch, the defense's
    t_init to the bit, and bounds the attack."""
    from dcattack.defense import warm_start_defense

    for case in (desk2, desk2_limited, desk3, bench_ladder(30, 0, False)):
        mats, rep = _attack(case)
        assert rep.fixed_lb == warm_start_defense(mats)[2] > 0.0
        assert rep.fixed_lb <= rep.best.norm_sq + 1e-9


def _boundary(mats):
    """A dispatch on the boundary of F(0): from the max-margin one, every
    movable unit down (the slack up), along the face of each row met."""
    return oracle_utils.boundary_dispatch(mats, mats.max_margin()[0],
                                          -np.ones(mats.n_reduced))


def test_binding_row_ignores_rounding_noise(bundled_mats):
    """A boundary dispatch is tight on the rows it met; 1e-14 noise in it
    must not change the direction that seeds the attack, nor lb0 beyond
    rounding."""
    mats = bundled_mats
    p_nom = _boundary(mats)
    lb0, d0 = fixed_dispatch_lb(mats, p_nom)
    for k in range(10):
        noise = np.random.default_rng(k).normal(size=p_nom.size)
        lb, d = fixed_dispatch_lb(mats, p_nom + 1e-14 * noise)
        assert lb == pytest.approx(lb0, rel=1e-9)
        np.testing.assert_allclose(d, d0, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("stem", ["case5_pjm", "case24_ieee_rts"])
def test_fixed_lb_ignores_rounding_noise(stem):
    """The boundary dispatch meets the slack unit's upper row, which moves
    with delta and is tight up to rounding: lb0 is 0 by the tight-row rule,
    and 1e-14 noise in the dispatch must not move it."""
    mats = build_feasibility(load_case(pglib_path(stem)))
    p_nom = _boundary(mats)
    lb0, _start = fixed_dispatch_lb(mats, p_nom)
    assert lb0 == 0.0
    for k in range(10):
        noise = np.random.default_rng(k).normal(size=p_nom.size)
        lb, _start = fixed_dispatch_lb(mats, p_nom + 1e-14 * noise)
        assert lb == lb0


def test_fixed_dispatch_start_crosses_its_row(desk2_single):
    """The start is the crossing point of the row that sets lb0: at radius
    lb0, every row holds just short of it and some row breaks just past."""
    mats = build_feasibility(desk2_single)
    p = np.zeros(0)             # the one unit is the slack
    lb0, d = fixed_dispatch_lb(mats, p)
    assert d is not None
    assert float(d @ d) == pytest.approx(lb0, rel=1e-12)
    assert np.all(mats.margins(p, 0.999 * d) <= 0)
    assert np.max(mats.margins(p, 1.001 * d)) > 0


def test_every_chained_basis_is_primal_feasible(bundled_mats, monkeypatch):
    """Every P-LP step of every start gets a basis from the network's pool
    or its own previous step's; every such basis must pass the start
    checks, and every warm optimum must match scipy."""
    calls = []
    solve = lin_solve.lp_solve

    def spy(prob, basis=None, deadline=None):
        res = solve(prob, basis=basis, deadline=deadline)
        calls.append((prob, basis, res))
        return res

    monkeypatch.setattr(lin_solve, "lp_solve", spy)
    multistart_attack(bundled_mats, AttackConfig(restarts=3, seed=4))
    warm = [(prob, basis, res) for prob, basis, res in calls if basis is not None]
    assert warm
    for prob, basis, res in warm:
        lin_solve._Simplex(prob, basis)     # raises unless the checks pass
        ref = linprog(prob.c, A_eq=prob.A_eq, b_eq=prob.b_eq, bounds=(0, None),
                      method="highs")
        assert res.status == lin_solve.OPTIMAL and ref.status == 0
        assert res.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-12)


def test_p_steps_match_scipy(bundled_mats):
    """Each step of an ascent, from the crash basis or warm-started from the
    previous step's basis, reaches scipy's optimum over P at a point of P."""
    mats = bundled_mats
    rng = np.random.default_rng(5)
    for _ in range(3):
        g, basis = rng.normal(size=mats.n_delta), mats.crash_basis()
        for _step in range(4):
            mu, value, basis = _p_lp(mats, g, basis)
            assert value == pytest.approx(oracle_utils.p_polytope_max(mats, g),
                                          rel=1e-9, abs=1e-12)
            assert float(mats.B.T @ mu @ g) == pytest.approx(value, rel=1e-9)
            assert np.abs(mats.A.T @ mu).max(initial=0.0) <= 1e-12
            assert float(-mats.c @ mu) == pytest.approx(1.0, abs=1e-12)
            assert mu.min() >= 0.0
            g = mats.B.T @ mu


def test_ascent_ends_at_a_fixed_point_on_its_ray_boundary(bundled_mats):
    """From seeded starts, the returned mu, scaled back onto P, maximizes its
    own linearization over P (scipy), and 1/||B^T mu|| is the exact boundary
    distance along the reported delta, so no ray polish can improve it."""
    mats = bundled_mats
    rng = np.random.default_rng(8)
    for _ in range(5):
        sol = attack_local(mats, rng.normal(size=mats.n_delta))
        assert sol.convergence == "tight"
        mu = sol.mu / -float(mats.c @ sol.mu)
        y = mats.B.T @ mu
        assert oracle_utils.p_polytope_max(mats, y) <= float(y @ y) * (1 + 1e-8)
        u = sol.delta / np.linalg.norm(sol.delta)
        assert oracle_utils.direction_boundary(mats, u) == \
            pytest.approx(1.0 / np.linalg.norm(y), rel=1e-8)


def test_one_cold_p_lp_per_network(bundled_mats, monkeypatch):
    """The network's one P-LP without a pooled basis, its first, the
    max-margin LP, starts from `crash_basis()`, which the start checks
    accept; every later one starts from a pooled or a previous step's
    optimum."""
    given = []
    solve = lin_solve.lp_solve

    def spy(prob, basis=None, deadline=None):
        over_p = prob.A_eq.shape[0] == bundled_mats.n_reduced + 1 \
            and np.array_equal(prob.A_eq[-1], -bundled_mats.c)
        given.extend([(prob, basis)] if over_p else [])
        return solve(prob, basis=basis, deadline=deadline)

    monkeypatch.setattr(lin_solve, "lp_solve", spy)
    multistart_attack(bundled_mats, AttackConfig(restarts=3, seed=4))
    assert len(given) > 1 and all(basis is not None for _p, basis in given)
    prob, crash = given[0]
    np.testing.assert_array_equal(crash, bundled_mats.crash_basis())
    lin_solve._Simplex(prob, crash)         # raises unless the checks pass
    assert all(isinstance(basis, lin_solve.WarmStart)
               for _p, basis in given[1:])


def test_ladder_attack_pricing_pass_budget(monkeypatch):
    """Regression guard on the benchmark's `ladder-attack` networks of seed
    0 (30, 60 and 120 buses, five load snapshots each): the bare
    multistart, restarts 5 and seed 0, takes at most 3,400 pricing passes
    over all of them (5,392 under Dantzig's pricing, and 6,326 before that,
    when the max-margin LP was posed over Q and every start climbed P from
    the crash basis), and never probes Q.  On
    each network the pool's first entry is the max-margin LP's vertex,
    and the fixed-dispatch start's first P-LP enters from its basis."""
    passes, probes, p_lps, firsts, pools = [0], [], [], {}, []
    real_solve, real_local = lin_solve.lp_solve, attack.attack_local

    def solve_spy(prob, basis=None, deadline=None):
        res = real_solve(prob, basis=basis, deadline=deadline)
        passes[0] += res.iterations
        p_lps.append((prob, basis, res))
        return res

    def local_spy(mats, g, label, pool, *rest):
        firsts[label] = len(p_lps)
        pools.append(pool)
        return real_local(mats, g, label, pool, *rest)

    monkeypatch.setattr(lin_solve, "lp_solve", solve_spy)
    monkeypatch.setattr(lin_solve, "check_feasible",
                        lambda *a, **k: probes.append(1))
    monkeypatch.setattr(attack, "attack_local", local_spy)
    for n in (30, 60, 120):
        for s in range(5):
            mats = build_feasibility(bench_ladder(n, s, False))
            p_lps.clear()
            pools.clear()
            rep = multistart_attack(mats, AttackConfig(restarts=5, seed=0))
            assert rep.best.certified
            prob, crash, res = p_lps[0]
            assert prob.A_eq is mats.polytope.A_eq and np.all(prob.c == -1.0)
            np.testing.assert_array_equal(crash, mats.crash_basis())
            pool = pools[0]
            assert pool.seeds == 1 and pool.bases[0] is res.warm
            np.testing.assert_array_equal(
                pool.gw[0], mats.B.T @ np.maximum(res.x, 0.0))
            assert p_lps[firsts["binding-row"]][1] is res.warm
    assert not probes
    assert passes[0] <= 3400


def test_the_pool_holds_each_basis_once(monkeypatch):
    """On the seed-0 `ladder-attack` networks the ascents reach many
    vertices more than once (an ascent's last, "tight" step ends where it
    started); after each bare multistart no two pool entries share a
    column set."""
    pools, real_local = [], attack.attack_local

    def local_spy(mats, g, label, pool, *rest):
        pools.append(pool)
        return real_local(mats, g, label, pool, *rest)

    monkeypatch.setattr(attack, "attack_local", local_spy)
    for n in (30, 60, 120):
        for s in range(5):
            pools.clear()
            multistart_attack(build_feasibility(bench_ladder(n, s, False)),
                              AttackConfig(restarts=5, seed=0))
            keys = [tuple(np.sort(b.basis)) for b in pools[0].bases]
            assert len(set(keys)) == len(keys) > 1


@pytest.mark.parametrize("net", BUNDLED + ("ladder60",))
def test_each_start_warm_starts_from_the_best_pooled_vertex(net, monkeypatch):
    """The pool holds the max-margin LP's vertex, the network's first P-LP
    and the one from the crash basis, which the start checks accept, and
    then every optimal P-LP of the ascents.  Each start's first P-LP gets
    the pooled basis whose vertex scores highest on that LP's objective,
    g^T B^T mu, the earliest on ties; each later step gets that basis only
    when it scores above the step's own vertex's value v, and else its own
    previous one; every pooled basis passes the start checks; and each
    start reaches the norm that its ascent reaches alone from a pool that
    holds the max-margin vertex alone."""
    case = bench_ladder(60, 0, False) if net == "ladder60" \
        else load_case(pglib_path(net))
    mats = build_feasibility(case)
    p_lps, starts = [], []
    real_solve, real_local = lin_solve.lp_solve, attack.attack_local

    def solve_spy(prob, basis=None, deadline=None):
        res = real_solve(prob, basis=basis, deadline=deadline)
        if prob.A_eq is mats.polytope.A_eq:
            p_lps.append((prob, basis, res))
        return res

    def local_spy(mats, g, label, *rest):
        start = [g, label, len(p_lps), None]
        starts.append(start)
        start[3] = real_local(mats, g, label, *rest)
        return start[3]

    monkeypatch.setattr(lin_solve, "lp_solve", solve_spy)
    monkeypatch.setattr(attack, "attack_local", local_spy)
    multistart_attack(mats, AttackConfig(restarts=5, seed=0))
    monkeypatch.undo()

    def entry(res):
        return mats.B.T @ np.maximum(res.x, 0.0), res.warm

    def pooled(j):
        """The pool as the j-th P-LP found it."""
        return [entry(res) for _prob, _basis, res in p_lps[:j]
                if res.status == lin_solve.OPTIMAL]

    mm_prob, crash, _res = p_lps[0]
    assert starts[0][2] == 1 and np.all(mm_prob.c == -1.0)
    np.testing.assert_array_equal(crash, mats.crash_basis())
    lin_solve._Simplex(mm_prob, crash)
    for prob, _basis, res in p_lps:
        if res.warm is not None:
            lin_solve._Simplex(prob, res.warm.basis)
    picked, floored = [], 0
    ends = [first for _g, _l, first, _o in starts[1:]] + [len(p_lps)]
    for (g, label, first, out), end in zip(starts, ends):
        before = pooled(first)
        k = int(np.argmax([float(g @ gw) for gw, _warm in before]))
        np.testing.assert_array_equal(p_lps[first][1].basis,
                                      before[k][1].basis)
        picked.append(k)
        for j in range(first + 1, end):
            gw = entry(p_lps[j - 1][2])[0]
            v = float(gw @ gw)
            scores = [float(gw @ other) for other, _warm in pooled(j)]
            k = int(np.argmax(scores))
            if scores[k] > v * (1.0 + 1e-12):
                np.testing.assert_array_equal(p_lps[j][1].basis,
                                              pooled(j)[k][1].basis)
                floored += 1
            elif scores[k] < v * (1.0 - 1e-12):
                np.testing.assert_array_equal(p_lps[j][1].basis,
                                              p_lps[j - 1][2].warm.basis)
        seed = _Pool(mats.n_delta, entry(p_lps[0][2]))
        if out is None:         # the start raised RestartSignal
            with pytest.raises(RestartSignal):
                attack_local(mats, g, label, seed)
        else:
            alone = attack_local(mats, g, label, seed)
            assert alone.norm_sq == pytest.approx(out.norm_sq, rel=1e-9)
    assert len(picked) == len(starts) >= 7 and picked[0] == 0
    # on case24 the max-margin vertex scores highest for every start
    assert any(picked) or net == "case24_ieee_rts"
    assert floored or net != "ladder60"


@pytest.mark.parametrize("fill", ["inf", "nan", "mixed"])
def test_a_non_finite_hint_is_dropped(fill):
    """A start direction with an inf or a NaN entry is dropped with the zero
    and wrong-size ones, without a warning (they are errors here): the run
    is the run without hints."""
    mats = build_feasibility(load_case(pglib_path("case14_ieee")))
    cfg = AttackConfig(restarts=3, seed=0)
    clean = multistart_attack(mats, cfg)
    hint = {"inf": np.full(mats.n_delta, np.inf),
            "nan": np.full(mats.n_delta, np.nan),
            "mixed": np.r_[np.ones(mats.n_delta - 1), -np.inf]}
    rep = multistart_attack(mats, cfg, extra_directions=[hint[fill]])
    assert rep.best.norm_sq == clean.best.norm_sq
    assert rep.best.start == clean.best.start
    assert rep.starts == clean.starts


@pytest.mark.parametrize("scale", [1e300, 1e-300, 1e308, 5e-324])
def test_the_scale_of_a_hint_changes_nothing(scale):
    """A hint is scaled by an exact power of two before its ascent, so a
    hint of ones times 1e300, 1e308, 1e-300 or 5e-324 (subnormal) runs
    as the hint of ones to the bit, certifying from hint0, without an
    overflow warning (warnings are errors here); all-NaN, all-inf and
    all-zero hints are dropped, as if no hint were given."""
    mats = build_feasibility(load_case(pglib_path("case14_ieee")))
    cfg, ones = AttackConfig(), np.ones(mats.n_delta)
    ref = multistart_attack(mats, cfg, extra_directions=[ones])
    assert ref.best.start == "hint0"
    assert ref.best.norm_sq.hex() == "0x1.6ceac6a33ab01p-3"
    rep = multistart_attack(mats, cfg, extra_directions=[scale * ones])
    assert rep.best.start == "hint0"
    assert rep.best.norm_sq.hex() == ref.best.norm_sq.hex()
    assert rep.best.delta.tobytes() == ref.best.delta.tobytes()
    assert rep.starts == ref.starts
    bare = multistart_attack(mats, cfg)
    for fill in (np.nan, np.inf, 0.0):
        rep = multistart_attack(mats, cfg, extra_directions=[fill * ones])
        assert rep.starts == bare.starts, fill


def test_pool_ties_go_to_the_earliest_entry(monkeypatch):
    """Two pooled vertices with the same score: the first step warm-starts
    from the one pooled first, whichever order the pool has."""
    mats = build_feasibility(load_case(pglib_path("case14_ieee")))
    rng = np.random.default_rng(3)
    crash = mats.crash_basis()
    bases = [_p_lp(mats, rng.normal(size=mats.n_delta), crash)[2]]
    while len(bases) < 2:
        basis = _p_lp(mats, rng.normal(size=mats.n_delta), crash)[2]
        bases += [] if np.array_equal(basis.basis, bases[0].basis) else [basis]
    given, real = [], lin_solve.lp_solve

    def spy(prob, basis=None, deadline=None):
        given.append(basis)
        return real(prob, basis=basis, deadline=deadline)

    monkeypatch.setattr(lin_solve, "lp_solve", spy)
    score = np.ones(mats.n_delta)
    for order in (bases, bases[::-1]):
        given.clear()
        pool = _Pool(mats.n_delta)
        for basis in order:
            pool.add(score, basis)
        attack_local(mats, np.ones(mats.n_delta), "", pool)
        np.testing.assert_array_equal(given[0].basis, order[0].basis)


def test_case5_attack_reaches_the_vertex_enumeration_optimum():
    mats = build_feasibility(load_case(pglib_path("case5_pjm")))
    ub = multistart_attack(mats, AttackConfig()).best.norm_sq
    assert 6.2861658 <= ub <= 6.2861658 * (1 + 3e-6)


ZERO_DISTANCE = {
    # one unit, fixed at the load: P is empty
    "p-empty": build_case("zd", 100.0, [(1, 0.0), (2, 2.0)],
                          [(1, 2, 0.1, None)], [(1, 2.0, 2.0)]),
    # a fixed unit beside rated lines: P is unbounded along the slack rows
    "p-unbounded": build_case("zd3", 100.0, [(1, 0.0), (2, 1.0), (3, 1.0)],
                              [(1, 2, 0.1, 5.0), (2, 3, 0.1, 5.0)],
                              [(1, 2.0, 2.0)]),
}


# total capacity equal to total load: P is unbounded along load growth
CAPACITY_AT_LOAD = build_case(
    "cap", 100.0, [(1, 0.0), (2, 0.1), (3, 0.2)],
    [(1, 2, 0.1, 0.5), (2, 3, 0.1, 0.5), (1, 3, 0.1, 0.5)],
    [(1, 0.0, 0.15), (3, 0.0, 0.15)])


@pytest.mark.parametrize("case", [ZERO_DISTANCE["p-empty"],
                                  ZERO_DISTANCE["p-unbounded"],
                                  CAPACITY_AT_LOAD], ids=["zd", "zd3", "cap"])
def test_an_unbounded_step_ends_the_ascent_on_its_ray(case):
    """A P-LP without an optimum hands back a ray of P's recession cone:
    the ascent stops on it at the unit point B^T mu / ||B^T mu||, which its
    rescaled mu separates with residuals at rounding."""
    mats = build_feasibility(case)
    sol = attack_local(mats, np.ones(mats.n_delta))
    assert sol.convergence == "zero-distance" and sol.iterations == 1
    assert sol.norm_sq == pytest.approx(1.0, abs=1e-12)
    assert np.all(sol.mu >= 0)
    assert sol.residuals["At_mu_inf"] <= 1e-12
    assert abs(sol.residuals["eps_residual"]) <= 1e-12
    assert abs(float(sol.mu @ mats.c)) <= 1e-12
    assert not oracle_utils.scipy_feasible(mats.A, mats.rhs((1 + 1e-4) * sol.delta))


@pytest.mark.parametrize("kind", sorted(ZERO_DISTANCE))
def test_zero_distance_networks_keep_a_certified_attack(kind, monkeypatch):
    """An implicit equality that moves with delta leaves no finite ascent:
    every start ends on a ray of P, at a unit point that its own ray
    certifies, with no LP, and the squeeze flags it.  Without a movable
    unit and with every c_i >= 0, P is empty, which `_p_lp` tells from c:
    no LP over P is posed; otherwise each start's LP over P is unbounded."""
    from dcattack.squeeze import SqueezeConfig, squeeze_run

    case = ZERO_DISTANCE[kind]
    mats = build_feasibility(case)
    assert mats.n_reduced == 0
    assert np.all(mats.c >= 0.0) == (kind == "p-empty")
    expected = None if kind == "p-empty" else np.inf
    assert oracle_utils.p_polytope_max(mats, np.ones(mats.n_delta)) == expected
    calls = _spy_certification(monkeypatch)
    over_p, spied = [], lin_solve.lp_solve
    monkeypatch.setattr(lin_solve, "lp_solve", lambda prob, *args: over_p.append(
        np.array_equal(prob.A_eq[-1], -mats.c)) or spied(prob, *args))
    rep = multistart_attack(mats, AttackConfig(restarts=2, seed=0))
    monkeypatch.undo()
    # the max-margin LP over Q runs on both; only P-unbounded poses a P-LP
    assert any(over_p) == (kind == "p-unbounded")
    # F(0) has no interior: a delta-sensitive row is tight at the max-margin
    # dispatch, so the fixed-dispatch radius is 0 by the tight-row rule
    assert rep.fixed_lb == 0.0
    best = rep.best
    assert best.certified and best.convergence == "zero-distance"
    assert calls[-1]["mu"] is best.mu and not any(c["lps"] for c in calls)
    assert abs(float(best.mu @ mats.c)) <= 1e-12
    assert any(n.get("convergence") == "zero-distance" for n in rep.starts)
    assert not oracle_utils.scipy_feasible(mats.A, mats.rhs((1 + 1e-4) * best.delta))
    assert abs(best.residuals["eps_residual"]) <= 1e-12
    bounds = squeeze_run(case, SqueezeConfig(seed=0))
    assert bounds.ub == pytest.approx(best.norm_sq, rel=1e-12)
    assert bounds.lb <= bounds.ub and "zero-distance" in bounds.flags


def test_expired_deadline_still_certifies():
    """With no budget left the first start stops at its first vertex of P,
    which still certifies, and every later start is skipped and noted."""
    mats = build_feasibility(load_case(pglib_path("case24_ieee_rts")))
    rep = multistart_attack(mats, AttackConfig(restarts=3, seed=0), budget_s=0.0)
    best = rep.best
    assert best.certified and best.convergence == "deadline"
    assert best.iterations == 1
    assert not oracle_utils.scipy_feasible(mats.A, mats.rhs((1 + 1e-4) * best.delta))
    skipped = [n["start"] for n in rep.starts if n["status"] == "skipped"]
    assert skipped == ["uniform-up", "random0", "random1", "random2"]


def _assert_incumbent_notes(rep):
    """The notes follow the incumbent rule: the reported start's note says
    certified; a note that says certified has a norm below every earlier
    candidate's that was not refuted; and a candidate below every earlier
    one is certified or refuted."""
    cands = [n for n in rep.starts if n["status"] == "candidate"]
    refuted = {n["start"] for n in rep.starts if n["status"] == "refuted"}
    mine = [n for n in cands if n["start"] == rep.best.start]
    assert len(mine) == 1 and mine[0]["certified"] is True
    for i, note in enumerate(cands):
        earlier = cands[:i]
        if note["certified"]:
            assert all(note["norm_sq"] < n["norm_sq"]
                       for n in earlier if n["start"] not in refuted)
        if all(note["norm_sq"] < n["norm_sq"] for n in earlier):
            assert note["certified"] or note["start"] in refuted


def _incumbent_lowerings(rep):
    """The candidates, in start order, whose norm is below every earlier
    one's: with nothing refuted, the ones that lowered the incumbent."""
    lowest, out = np.inf, []
    for n in rep.starts:
        if n["status"] == "candidate" and n["norm_sq"] < lowest:
            lowest = n["norm_sq"]
            out.append(n["start"])
    return out


@pytest.mark.parametrize("kind", ["case24", "zd3"])
def test_the_reported_start_is_noted_certified(kind):
    """Each candidate's note is written as its start ends, and says
    certified exactly when the candidate lowered the incumbent."""
    case = load_case(pglib_path("case24_ieee_rts")) if kind == "case24" \
        else ZERO_DISTANCE["p-unbounded"]
    rep = multistart_attack(build_feasibility(case), AttackConfig(restarts=2, seed=0))
    assert rep.best.certified
    assert not any(n["status"] == "refuted" for n in rep.starts)
    _assert_incumbent_notes(rep)
    assert [n["start"] for n in rep.starts if n.get("certified")] == \
        _incumbent_lowerings(rep)


def test_only_a_candidate_that_lowers_the_incumbent_is_certified(monkeypatch):
    """On the 30-bus ladder, one certification runs per candidate that
    lowers the incumbent, and none for the rest.  Network seed 4: a random
    start lowers the fixed-dispatch start's candidate."""
    mats = build_feasibility(bench_ladder(30, 4, False))
    calls = _spy_certification(monkeypatch)
    rep = multistart_attack(mats, AttackConfig(restarts=5, seed=0))
    lowerings = _incumbent_lowerings(rep)
    assert len(lowerings) >= 2 and len(calls) == len(lowerings)
    assert calls[-1]["mu"] is rep.best.mu and rep.best.start == lowerings[-1]
    _assert_incumbent_notes(rep)


@pytest.mark.parametrize("seed", [0, 1])
def test_a_refused_smallest_candidate_leaves_the_smallest_that_certifies(
        seed, monkeypatch):
    """The smallest candidate arrives after a certified one and its
    certificate is refused: it is noted refuted, and the reported attack is
    the smallest candidate that certifies, the earliest on ties.  On the
    30-bus ladder of network seed 4, for multistart seeds 0 and 1, a
    random start lowers the fixed-dispatch start's candidate."""
    mats = build_feasibility(bench_ladder(30, 4, False))
    cfg = AttackConfig(restarts=5, seed=seed)
    clean = _incumbent_lowerings(multistart_attack(mats, cfg))
    assert len(clean) >= 2
    calls, real = [], attack.certify_infeasible

    def refuse_smallest(mats, delta, mu):
        calls.append(delta)
        return (False, None) if len(calls) == len(clean) \
            else real(mats, delta, mu)

    monkeypatch.setattr(attack, "certify_infeasible", refuse_smallest)
    rep = multistart_attack(mats, cfg)
    cands = [n for n in rep.starts if n["status"] == "candidate"]
    smallest = next(n for n in cands if n["start"] == clean[-1])
    assert smallest["norm_sq"] == min(n["norm_sq"] for n in cands)
    assert {"start": clean[-1], "status": "refuted",
            "norm_sq": smallest["norm_sq"]} in rep.starts
    rest = [n for n in cands if n["start"] != clean[-1]]
    expected = min(rest, key=lambda n: n["norm_sq"])
    assert rep.best.certified and rep.best.start == expected["start"]
    assert rep.best.norm_sq == expected["norm_sq"]
    _assert_incumbent_notes(rep)
    assert not oracle_utils.scipy_feasible(
        mats.A, mats.rhs((1 + 1e-4) * rep.best.delta))


def test_p_is_built_once_per_network(monkeypatch):
    """P's rows are built once per network, as `mats.polytope`: the
    max-margin LP and every step over P, in every start and in a second
    multistart, solve over that very array."""
    mats = build_feasibility(load_case(pglib_path("case24_ieee_rts")))
    steps, solved = [], []
    real_step, real_solve = attack._p_lp, lin_solve.lp_solve

    def step_spy(mats, g, basis, deadline=None):
        steps.append(1)
        return real_step(mats, g, basis, deadline)

    def solve_spy(prob, basis=None, deadline=None):
        if np.array_equal(prob.A_eq[-1], -mats.c):
            solved.append(prob.A_eq)
        return real_solve(prob, basis=basis, deadline=deadline)

    monkeypatch.setattr(attack, "_p_lp", step_spy)
    monkeypatch.setattr(lin_solve, "lp_solve", solve_spy)
    P = mats.polytope
    for _ in range(2):
        multistart_attack(mats, AttackConfig(restarts=3, seed=4))
    assert len(steps) > 10 and len(solved) == len(steps) + 2
    assert all(a is P.A_eq for a in solved) and mats.polytope is P


def _closing_inputs(mats):
    """The squeeze's inputs to the multistart: the policy SOCP's t as lb and
    its cross-fed starts."""
    from dcattack.defense import defense_local
    from dcattack.squeeze import cross_feed

    pol = defense_local(mats)
    return dict(extra_directions=cross_feed(mats, pol), lb=pol.t)


def test_a_refuted_closing_candidate_stops_nothing(monkeypatch):
    """The first candidate meets lb but its certificate is refused: the run
    goes on, that candidate is not tried again, and the reported attack is
    certified and confirmed by scipy."""
    mats = build_feasibility(load_case(pglib_path("case14_ieee")))
    kw = _closing_inputs(mats)
    calls, real = [], attack.certify_infeasible

    def refute_first(mats, delta, mu):
        calls.append(delta)
        return (False, None) if len(calls) == 1 else real(mats, delta, mu)

    monkeypatch.setattr(attack, "certify_infeasible", refute_first)
    rep = multistart_attack(mats, AttackConfig(seed=0), **kw)
    first = rep.starts[0]["start"]
    assert {"start": first, "status": "refuted",
            "norm_sq": rep.starts[0]["norm_sq"]} in rep.starts
    assert rep.starts[1]["status"] == "candidate"
    assert rep.best.certified and rep.best.start != first
    assert len(calls) == 2
    assert not oracle_utils.scipy_feasible(
        mats.A, mats.rhs((1 + 1e-4) * rep.best.delta))


@pytest.mark.parametrize("seed", [0, 1])
def test_the_bare_multistart_certifies_240_buses(seed, monkeypatch):
    """P's vertices are highly degenerate; with a Bland fallback alone, the
    first step of the uniform-up start once circled to the iteration cap on
    these networks.  The phase-2 perturbation gets every
    step through, and scipy confirms the certified attack.  Every LP starts
    from a feasible basis (crash, pooled or the candidate's vertex), and no
    ratio test falls back to Bland's rule."""
    mats = build_feasibility(bench_ladder(240, seed, False))
    bland, real_ratio = [], lin_solve._Simplex._ratio

    def ratio_spy(sx, w, use_bland):
        bland.append(use_bland)
        return real_ratio(sx, w, use_bland)

    monkeypatch.setattr(lin_solve._Simplex, "_ratio", ratio_spy)
    rep = multistart_attack(mats, AttackConfig(restarts=5, seed=0))
    assert bland and not any(bland)
    assert rep.best.certified
    assert all(n["status"] in ("candidate", "restart") for n in rep.starts)
    assert not oracle_utils.scipy_feasible(
        mats.A, mats.rhs((1 + 1e-4) * rep.best.delta))


@pytest.mark.parametrize("seed", [0, 1])
def test_the_bare_multistart_certifies_480_buses(seed, monkeypatch):
    """The largest tier-1 rung: the bare multistart certifies an attack
    that scipy confirms, in at most 8,000 pricing passes (14,664 and 14,090
    under Dantzig's pricing; 7,309 and 6,119 under the weighted rule)."""
    mats = build_feasibility(bench_ladder(480, seed, False))
    passes, real = [0], lin_solve.lp_solve

    def spy(prob, basis=None, deadline=None):
        res = real(prob, basis=basis, deadline=deadline)
        passes[0] += res.iterations
        return res

    monkeypatch.setattr(lin_solve, "lp_solve", spy)
    rep = multistart_attack(mats, AttackConfig(restarts=5, seed=0))
    assert rep.best.certified
    assert passes[0] <= 8000
    assert not oracle_utils.scipy_feasible(
        mats.A, mats.rhs((1 + 1e-4) * rep.best.delta))


def _clock_past_every_deadline(monkeypatch):
    """The LP kernel refactorizes after every pivot and reads a clock that
    is past any deadline; the attack's own clock between steps is real."""
    monkeypatch.setattr(lin_solve, "_REFACTOR_EVERY", 1)
    monkeypatch.setattr(lin_solve, "time",
                        types.SimpleNamespace(monotonic=lambda: np.inf))


def test_a_deadline_inside_a_step_keeps_the_current_vertex(monkeypatch):
    """From uniform growth on case30 the ascent takes three steps.  With
    the deadline passing inside the second step's LP, the ascent reports
    the first step's vertex, status deadline.  The first step, the
    network's first P-LP, runs to its end."""
    mats = build_feasibility(load_case(pglib_path("case30_as")))
    g = np.ones(mats.n_delta)
    full = attack_local(mats, g)
    assert full.iterations == 3 and len(full.history) == 2
    _clock_past_every_deadline(monkeypatch)
    sol = attack_local(mats, g, deadline=1e9)
    assert sol.convergence == "deadline" and sol.iterations == 1
    assert sol.norm_sq == full.history[0] and sol.history == full.history[:1]
    assert not oracle_utils.scipy_feasible(mats.A, mats.rhs((1 + 1e-4) * sol.delta))


def test_a_deadline_inside_a_first_step_skips_the_start(monkeypatch):
    """A later start whose first LP the deadline cuts is noted skipped, for
    the deadline; the first start still yields a certified attack."""
    mats = build_feasibility(load_case(pglib_path("case30_as")))
    _clock_past_every_deadline(monkeypatch)
    rep = multistart_attack(mats, AttackConfig(restarts=3, seed=0), budget_s=1e9)
    assert rep.starts[0]["status"] == "candidate"
    assert rep.best.certified and rep.best.start == rep.starts[0]["start"]
    assert [(n["status"], n["reason"]) for n in rep.starts[1:]] == \
        [("skipped", "deadline")] * 4


def test_a_failing_start_is_noted_and_the_others_go_on(monkeypatch):
    """A SolverError inside one start's P-LP ends that start only: it is
    noted failed with the message, and every other start runs as before."""
    mats = build_feasibility(load_case(pglib_path("case14_ieee")))
    cfg = AttackConfig(restarts=3, seed=0)
    clean = multistart_attack(mats, cfg)
    calls, real = [], lin_solve.lp_solve

    def spy(prob, *args, **kw):
        over_p = np.array_equal(prob.A_eq[-1], -mats.c)
        calls.extend([1] if over_p else [])
        if over_p and len(calls) == 3:
            raise SolverError("iteration cap exceeded (spy)")
        return real(prob, *args, **kw)

    monkeypatch.setattr(lin_solve, "lp_solve", spy)
    rep = multistart_attack(mats, cfg)
    failed = [n for n in rep.starts if n["status"] == "failed"]
    assert len(failed) == 1
    assert failed[0]["reason"] == "iteration cap exceeded (spy)"
    others = [n for n in clean.starts if n["start"] != failed[0]["start"]]
    assert [n["status"] for n in others] == \
        [n["status"] for n in rep.starts if n["status"] != "failed"]
    assert rep.best.certified
    assert rep.best.norm_sq == pytest.approx(clean.best.norm_sq, rel=1e-9)


def _spy_certification(monkeypatch):
    """Records each certification as {"delta", "mu", "lps"}, where "lps"
    counts the `lin_solve.lp_solve` and `lin_solve.check_feasible` calls
    made inside it."""
    calls, inside = [], [False]
    real_cert = attack.certify_infeasible

    def cert_spy(mats, delta, mu):
        calls.append({"delta": delta, "mu": mu, "lps": 0})
        inside[0] = True
        try:
            return real_cert(mats, delta, mu)
        finally:
            inside[0] = False

    def counted(real):
        def spy(*args, **kw):
            if inside[0]:
                calls[-1]["lps"] += 1
            return real(*args, **kw)
        return spy

    monkeypatch.setattr(attack, "certify_infeasible", cert_spy)
    for name in ("lp_solve", "check_feasible"):
        monkeypatch.setattr(lin_solve, name, counted(getattr(lin_solve, name)))
    return calls


def _assert_verified_ray(mats, delta, y):
    rhs = mats.rhs(delta)
    assert y.min() >= 0 and abs(y.sum() - 1) <= 1e-12
    assert np.max(np.abs(mats.A.T @ y)) <= 1e-9 and y @ rhs < 0


@pytest.mark.parametrize("net", BUNDLED + ("ladder60", "ladder240"))
def test_each_candidate_is_certified_from_its_own_vertex(net, monkeypatch):
    """Each candidate is certified from its own multiplier, the vertex mu of
    P its delta came from, by the residual rule alone: no LP runs inside a
    certification.  The reported ray is mu / 1^T mu, and every candidate's
    verdict at its inflated point is scipy's."""
    n = {"ladder60": 60, "ladder240": 240}.get(net)
    case = bench_ladder(n, 0, False) if n else load_case(pglib_path(net))
    mats = build_feasibility(case)
    cands, real_local = [], attack.attack_local

    def local_spy(*args, **kw):
        cands.append(real_local(*args, **kw))
        return cands[-1]

    monkeypatch.setattr(attack, "attack_local", local_spy)
    calls = _spy_certification(monkeypatch)
    rep = multistart_attack(mats, AttackConfig(restarts=5, seed=0))
    best = rep.best
    assert calls and calls[-1]["mu"] is best.mu
    assert len(cands) > 1 and any(sol is best for sol in cands)
    points = [(1 + 1e-4) * sol.delta for sol in cands]
    owns = [attack.certify_infeasible(mats, point, sol.mu)
            for point, sol in zip(points, cands)]
    monkeypatch.undo()
    assert len(calls) > len(cands) and all(c["lps"] == 0 for c in calls)
    assert best.certified
    assert np.max(np.abs(best.oracle_ray - best.mu / best.mu.sum())) <= 1e-15
    _assert_verified_ray(mats, (1 + 1e-4) * best.delta, best.oracle_ray)
    for point, sol, own in zip(points, cands, owns):
        assert own[0] == \
            (not oracle_utils.scipy_feasible(mats.A, mats.rhs(point)))
        assert own[1].tobytes() == (sol.mu / sol.mu.sum()).tobytes()


def test_a_multiplier_that_fails_the_rule_is_refuted_without_an_lp(
        monkeypatch):
    """The rule refuses, with no ray and no LP, a mu with one support entry
    doubled or zeroed (A^T mu = 0 breaks) and the attack's own mu at half
    the attack.  Its bar is ||A^T mu||_inf times the units' box
    sum_j max(|p_min,j|, |p_max,j|), read off the case: along the attack's
    direction, a point 1e-6 past that bar is accepted, and scipy finds F
    empty there, and a point 1e-6 short of it is refused."""
    mats = build_feasibility(bench_ladder(30, 0, False))
    best = multistart_attack(mats).best
    delta = (1 + 1e-4) * best.delta
    i = int(np.argmax(best.mu * np.abs(mats.A).sum(axis=1)))
    doubled, zeroed = best.mu.copy(), best.mu.copy()
    doubled[i] *= 2.0
    zeroed[i] = 0.0
    calls = _spy_certification(monkeypatch)
    for point, mu in ((delta, doubled), (delta, zeroed),
                      (0.5 * delta, best.mu)):
        assert attack.certify_infeasible(mats, point, mu) == (False, None)
    monkeypatch.undo()
    assert len(calls) == 3 and not any(c["lps"] for c in calls)
    assert oracle_utils.scipy_feasible(mats.A, mats.rhs(0.5 * delta))
    lo, hi = mats.case.gen_bounds()
    box = float(np.maximum(np.abs(lo), np.abs(hi))[mats.gen_order].sum())
    bar = float(np.max(np.abs(mats.A.T @ doubled))) * box
    # mu^T (B s delta + c) = s mu^T B delta + mu^T c meets the bar at s0
    s0 = (bar - doubled @ mats.c) / (doubled @ (mats.B @ delta))
    assert s0 > 1.0
    ok, ray = certify_infeasible(mats, (1 + 1e-6) * s0 * delta, doubled)
    assert ok and ray.tobytes() == (doubled / doubled.sum()).tobytes()
    assert not oracle_utils.scipy_feasible(
        mats.A, mats.rhs((1 + 1e-6) * s0 * delta))
    assert certify_infeasible(mats, (1 - 1e-6) * s0 * delta, doubled) == \
        (False, None)


def test_the_ladder_attack_networks_never_stall(monkeypatch):
    """On the 15 networks of the `ladder-attack` workload, no ratio test
    falls back to Bland's rule, and no certification LP runs: each attack
    is certified from its own multiplier."""
    bland, real_ratio = [], lin_solve._Simplex._ratio

    def ratio_spy(sx, w, use_bland):
        bland.append(use_bland)
        return real_ratio(sx, w, use_bland)

    monkeypatch.setattr(lin_solve._Simplex, "_ratio", ratio_spy)
    calls = _spy_certification(monkeypatch)
    for n in (30, 60, 120):
        for seed in range(5):
            mats = build_feasibility(bench_ladder(n, seed, False))
            rep = multistart_attack(mats, AttackConfig(restarts=5, seed=0))
            assert rep.best.certified, (n, seed)
    assert bland and not any(bland)
    assert len(calls) >= 15 and not any(c["lps"] for c in calls)


def _eager_random(mats, seed, k):
    """start random{k}'s direction as the draws were once made, all before
    the first start: normals of the stream (seed, k), scaled by the power
    of two that puts the largest |entry| in [0.5, 1)."""
    d = np.random.default_rng(np.random.SeedSequence((seed, k))).normal(
        size=mats.n_delta)
    return np.ldexp(d, -np.frexp(np.max(np.abs(d)))[1])


def test_a_bundled_squeeze_draws_no_random_start(monkeypatch):
    """Each bundled squeeze closes its bracket on the policy's hints, so
    its random starts are all skipped as "closed", and since a random start
    is drawn only as it begins, no stream (seed, k) is ever seeded."""
    from dcattack import squeeze
    seeded, reports = [], []
    real_seq, real_multi = np.random.SeedSequence, squeeze.multistart_attack

    def seq_spy(*args, **kw):
        seeded.append(args)
        return real_seq(*args, **kw)

    def multi_spy(*args, **kw):
        reports.append(real_multi(*args, **kw))
        return reports[-1]

    monkeypatch.setattr(np.random, "SeedSequence", seq_spy)
    monkeypatch.setattr(squeeze, "multistart_attack", multi_spy)
    for name in BUNDLED:
        squeeze.squeeze_run(load_case(pglib_path(name)),
                            squeeze.SqueezeConfig(seed=0))
        randoms = [n for n in reports[-1].starts
                   if n["start"].startswith("random")]
        assert [n["start"] for n in randoms] == [f"random{k}"
                                                  for k in range(5)]
        assert all(n == {"start": n["start"], "status": "skipped",
                         "reason": "closed"} for n in randoms)
    assert seeded == []


@pytest.mark.parametrize("seed", [0, 3])
def test_random_starts_drawn_late_are_the_eager_draws(seed, monkeypatch):
    """The bare multistart hands attack_local, in the same order, the
    directions the eager draws gave, byte for byte, so its start notes and
    best attack are those of the eager draws; two runs agree byte for
    byte."""
    runs, real = [], attack.attack_local

    def spy(mats, g, label, *rest):
        runs[-1].append((label, g.tobytes()))
        return real(mats, g, label, *rest)

    monkeypatch.setattr(attack, "attack_local", spy)
    for n, s in ((30, 0), (60, 2)):
        mats = build_feasibility(bench_ladder(n, s, False))
        reps = []
        for _ in range(2):
            runs.append([])
            reps.append(multistart_attack(
                mats, AttackConfig(restarts=5, seed=seed)))
        labels = ["binding-row", "uniform-up"] + [f"random{k}"
                                                  for k in range(5)]
        assert [label for label, _g in runs[-1]] == labels
        assert runs[-1][2:] == [(f"random{k}",
                                 _eager_random(mats, seed, k).tobytes())
                                for k in range(5)]
        assert runs[-2] == runs[-1]
        assert [n["start"] for n in reps[0].starts][:7] == labels
        assert repr(reps[0].starts) == repr(reps[1].starts)
        assert reps[0].best.delta.tobytes() == reps[1].best.delta.tobytes()
        assert reps[0].best.start == reps[1].best.start
