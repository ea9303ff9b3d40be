"""Defense-side tests.

Hand-derived anchors (desk2: line unrated, caps 2+2, load 3; desk3: ring with
line 1-2 rated 1.6, caps 3+1, loads 2.0/0.5):

  desk2 warm start: minimize max(1-p, p-2, p-3, -p) -> p*=1.5, margin -0.5,
        t_init = 0.25 via the slack-upper row (direction 1^T delta).
  desk3 warm start: minimize max(-0.1-g/3, g-1, ...) -> g*=0.675, and the
        binding flow row has direction (2/3, 1/3), so
        t_init = 0.325^2 / (5/9) = 0.190125.
  desk2 optimal policy: p0=1.5, G=[[0.5]] gives radius 1.0 = attack value.
  desk3 rank-1 uniform (shares 1/2, G = 0.5 from the warm start): binding
        row is the g3 cap with direction (0.5, 0.5): t = 0.325^2 / 0.5
        = 0.21125.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from dcattack.attack import multistart_attack, AttackConfig
from dcattack.case_ingest import build_case, load_case
from dcattack.dc_model import build_feasibility
from dcattack.defense import (DefensePolicy, defense_local, simplex_policy_fit,
                              t_tilde, verify_policy, warm_start_defense)
from dcattack import defense, lin_solve
from dcattack.errors import (GeometryError, PolicyVerificationError,
                             PreconditionError, SolverError)

import oracle_utils
from conftest import BUNDLED, bench_ladder, pglib_path


def _shares(mats, share=None):
    """A rank-1 policy at the warm-start dispatch: the units that move (the
    slack and `mats.gen_order`) absorb equal shares of the total load change
    1^T delta, or `share` each in the reduced coordinates."""
    p0, _G, _t = warm_start_defense(mats)
    if share is None:
        share = 1.0 / (mats.n_reduced + 1)
    return p0, np.full((mats.n_reduced, mats.n_delta), share)


def _assert_policy_invariants(mats, pol):
    margins = mats.A @ pol.p0 + mats.c
    assert np.all(margins <= 1e-8)
    per = mats.radii(pol.p0, pol.G)
    assert np.all(pol.t <= per + 1e-9)
    assert pol.t == pytest.approx(per[pol.binding_row], rel=1e-12)


def test_warm_start_desk2_hand_lp(desk2):
    mats = build_feasibility(desk2)
    p_init, G0, t_init = warm_start_defense(mats)
    assert p_init == pytest.approx([1.5], abs=1e-9)
    assert np.all(G0 == 0) and G0.shape == (1, 1)
    assert t_init == pytest.approx(0.25, abs=1e-9)
    assert t_init == pytest.approx(t_tilde(mats, p_init, None)[0], abs=1e-15)


def test_warm_start_desk3_hand_lp(desk3):
    mats = build_feasibility(desk3)
    p_init, _G0, t_init = warm_start_defense(mats)
    assert p_init == pytest.approx([0.675], abs=1e-9)
    assert t_init == pytest.approx(0.190125, abs=1e-9)
    _t, row = t_tilde(mats, p_init, None)
    assert mats.row_labels[row].startswith("flow-upper:br0")


def test_t_tilde_zero_on_boundary_dispatch(desk2):
    mats = build_feasibility(desk2)
    # the slack unit at its 2.0 cap, the other unit covers the remaining 1.0
    t, row = t_tilde(mats, np.array([1.0]), None)
    assert t == 0.0
    assert mats.row_labels[row].startswith("slack-gen-upper")


def test_t_tilde_precondition_names_rows(desk2):
    mats = build_feasibility(desk2)
    with pytest.raises(PreconditionError, match="gen-upper"):
        t_tilde(mats, np.array([5.0]), None)


def test_defense_local_matches_attack_desk2(desk2):
    mats = build_feasibility(desk2)
    pol = defense_local(mats)
    assert pol.t == pytest.approx(1.0, rel=1e-6)
    assert pol.t <= 1.0 + 1e-9
    assert pol.t > pol.meta["t_init"]        # improved on the warm start
    _assert_policy_invariants(mats, pol)


def test_defense_local_matches_attack_desk3(desk3):
    mats = build_feasibility(desk3)
    pol = defense_local(mats)
    assert pol.t == pytest.approx(169.0 / 500.0, rel=1e-6)
    assert pol.t <= 169.0 / 500.0 + 1e-6
    _assert_policy_invariants(mats, pol)


def test_defense_never_exceeds_certified_attack(desk2, desk3):
    for case in (desk2, desk3):
        mats = build_feasibility(case)
        rep = multistart_attack(mats, AttackConfig(restarts=3, seed=11))
        pol = defense_local(mats)
        assert pol.t <= rep.best.norm_sq + 1e-6


def test_defense_monotone_from_rank1_seed(desk3):
    """The exact affine optimum dominates every affine policy, rank-1 ones
    included."""
    mats = build_feasibility(desk3)
    seed_t, _row = t_tilde(mats, *_shares(mats))
    pol = defense_local(mats)
    assert pol.t >= seed_t - 1e-9


def test_defense_reaches_the_hand_optimal_radius_desk2(desk2):
    """p0 = 1.5, G = 0.5 has radius 1.0, the attack value; every optimal
    policy of desk2 lies on the segment p0 + G = 2, 0 <= G <= 1."""
    mats = build_feasibility(desk2)
    assert t_tilde(mats, np.array([1.5]), np.array([[0.5]]))[0] == 1.0
    pol = defense_local(mats)
    assert pol.t >= 1.0 - 1e-12
    assert pol.t == pytest.approx(1.0, rel=1e-9)
    assert float(pol.p0[0] + pol.G[0, 0]) == pytest.approx(2.0, abs=1e-6)


def test_verify_policy_warm_start(desk2):
    mats = build_feasibility(desk2)
    p_init, G0, t_init = warm_start_defense(mats)
    pol = DefensePolicy(p_init, G0, t_init, t_tilde(mats, p_init, G0)[1])
    assert verify_policy(mats, pol, samples=1000, seed=4) == 1000
    assert pol.verified_samples == 1000


def test_verify_policy_catches_inflated_radius(desk2):
    mats = build_feasibility(desk2)
    p_init, G0, t_init = warm_start_defense(mats)
    _t, row = t_tilde(mats, p_init, G0)
    bogus = DefensePolicy(p_init, G0, 1.21 * t_init, row)
    with pytest.raises(PolicyVerificationError):
        verify_policy(mats, bogus, samples=200, seed=4)


def test_rank1_uniform_desk2_splits_load_change(desk2):
    mats = build_feasibility(desk2)
    p0, G = _shares(mats)
    assert G == pytest.approx(np.array([[0.5]]))
    t, row = t_tilde(mats, p0, G)
    pol = DefensePolicy(p0, G, t, row)
    assert pol.t == pytest.approx(1.0, abs=1e-12)
    _assert_policy_invariants(mats, pol)
    assert verify_policy(mats, pol, samples=500, seed=3) == 500


def test_rank1_desk3_hand_values(desk3):
    mats = build_feasibility(desk3)
    p0, G = _shares(mats)
    assert G == pytest.approx(0.5 * np.ones((1, 2)))
    t, row = t_tilde(mats, p0, G)
    assert t == pytest.approx(0.21125, abs=1e-9)
    assert mats.row_labels[row].startswith("gen-upper")
    assert verify_policy(mats, DefensePolicy(p0, G, t, row), samples=500,
                         seed=3) == 500
    # warm-start dispatch 0.675 of 2.5 total -> share 0.27 for the non-slack
    # unit, in proportion to the base outputs
    assert p0 == pytest.approx([0.675], abs=1e-9)
    t_prop, _row = t_tilde(mats, *_shares(mats, 0.675 / 2.5))
    assert t_prop == pytest.approx(
        0.105625 / (0.576667 ** 2 + 0.243333 ** 2), rel=1e-4)


def test_simplex_fit_example2_construction(desk2):
    # vertices +-1 with feasible dispatches p+ = [2.0], p- = [1.0]
    sp = simplex_policy_fit([[1.0], [-1.0]], [[2.0], [1.0]])
    assert sp.p0 == pytest.approx([1.5])
    assert sp.G == pytest.approx(np.array([[0.5]]))
    mats = build_feasibility(desk2)
    t, _row = t_tilde(mats, sp.p0, sp.G)
    assert t == pytest.approx(1.0, abs=1e-12)
    # the exact affine optimum reaches the simplex policy's radius
    pol = defense_local(mats)
    assert pol.t >= 1.0 - 1e-9


def test_simplex_fit_identity_2d():
    verts = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    disp = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
    sp = simplex_policy_fit(verts, disp)
    assert sp.G == pytest.approx(np.vstack([np.eye(2), np.zeros((1, 2))]))
    assert sp.p0 == pytest.approx(np.zeros(3), abs=1e-12)


def test_simplex_fit_random_weights_and_reproduction():
    rng = np.random.default_rng(42)
    verts = rng.normal(size=(4, 3))
    disp = rng.normal(size=(4, 5))
    sp = simplex_policy_fit(verts, disp)
    # vertex reproduction
    err = np.max(np.abs(sp.G @ verts.T + sp.p0[:, None] - disp.T))
    assert err <= 1e-9 * (1.0 + np.max(np.abs(disp)))
    # interior points give convex weights
    for _ in range(100):
        w = rng.dirichlet(np.ones(4))
        delta = w @ verts
        w_rec = sp.weights(delta)
        assert w_rec.min() >= -1e-9
        assert w_rec.sum() == pytest.approx(1.0, abs=1e-9)
        assert sp.dispatch(delta) == pytest.approx(w @ disp, abs=1e-9)


def test_simplex_fit_degenerate_raises():
    with pytest.raises(GeometryError):
        simplex_policy_fit([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                           [[1.0], [2.0], [3.0]])
    with pytest.raises(GeometryError):
        simplex_policy_fit([[1.0], [-1.0], [0.0]], [[1.0], [2.0], [3.0]])


# -- the affine-policy SOCP --------------------------------------------------

# the vertex-enumeration optimum of case5 (all 26k five-column bases of P)
CASE5_GLOBAL = 6.2861658


def _check_dual(mats, pol):
    y, W = pol.dual
    return oracle_utils.socp_dual_failures(mats.A, mats.B, mats.c,
                                           pol.meta["lambda"], y, W)


@pytest.mark.parametrize("name", BUNDLED)
def test_socp_dual_certifies_the_bound(name):
    mats = build_feasibility(load_case(pglib_path(name)))
    pol = defense_local(mats)
    assert _check_dual(mats, pol) == []
    # every primal-dual iterate backs 1 / lambda^2; t is its exact radius
    assert 1.0 / pol.meta["lambda"] ** 2 <= pol.t * (1 + 1e-12)


def test_socp_dual_checker_rejects_corrupted_duals(desk3):
    mats = build_feasibility(desk3)
    pol = defense_local(mats)
    assert _check_dual(mats, pol) == []
    y, W = pol.dual
    for bad in ((y, -W), (y, 1.1 * W), (-y, W)):
        pol.dual = bad
        assert _check_dual(mats, pol) != []


def test_socp_desk2_single_has_only_lambda(desk2_single):
    mats = build_feasibility(desk2_single)
    assert mats.n_reduced == 0
    pol = defense_local(mats)
    assert pol.p0.shape == (0,) and pol.G.shape == (0, 1)
    assert pol.t == pytest.approx(1.0, abs=1e-12)
    assert pol.meta["lambda"] == pytest.approx(1.0, rel=1e-6)
    assert _check_dual(mats, pol) == []


def test_case14_folds_its_fixed_units_into_the_model():
    """Units 2-4 have p_min == p_max: no column, no rows, and a full dispatch
    holds them at their output; the policy program then has an interior."""
    case = load_case(pglib_path("case14_ieee"))
    mats = build_feasibility(case)
    assert mats.gen_order.tolist() == [1] and mats.m == 4
    _lo, hi = case.gen_bounds()
    p_full = oracle_utils.full_dispatch(mats, np.array([0.3]),
                                        np.full(mats.n_delta, 0.01))
    assert np.array_equal(p_full[2:], hi[2:])
    pol = defense_local(mats)
    assert pol.meta["stop"] == "converged"
    assert pol.t == pytest.approx(0.17818182, rel=1e-6)
    assert verify_policy(mats, pol, samples=2000, seed=5) == 2000
    assert _check_dual(mats, pol) == []


def test_rank1_policies_leave_fixed_units_alone():
    """case14's fixed units have no column, so a rank-1 policy cannot move
    them off their output: its radius is positive and verifies.  Hand value:
    the max-margin dispatch of the one unit that moves is 0.295, mid-way in
    [0, 0.59]; its upper row binds, with direction 1/2 on each of the 11
    loads, so t = 0.295^2 / (11 / 4)."""
    mats = build_feasibility(load_case(pglib_path("case14_ieee")))
    assert mats.gen_order.tolist() == [1]     # units 2-4 are fixed
    p0, G = _shares(mats)
    assert G == pytest.approx(0.5 * np.ones((1, mats.n_delta)))
    t, row = t_tilde(mats, p0, G)
    pol = DefensePolicy(p0, G, t, row)
    assert pol.t == pytest.approx(0.295 ** 2 / (11 / 4), rel=1e-9)
    assert mats.row_labels[pol.binding_row] == "gen-upper:g1@bus2"
    assert verify_policy(mats, pol, samples=1000, seed=3) == 1000


def test_socp_case5_reaches_the_global_optimum():
    mats = build_feasibility(load_case(pglib_path("case5_pjm")))
    pol = defense_local(mats)
    assert abs(pol.t - CASE5_GLOBAL) <= 1e-6 * CASE5_GLOBAL
    assert pol.t <= CASE5_GLOBAL * (1 + 1e-7)


def test_socp_deadline_returns_a_sound_iterate(desk3):
    mats = build_feasibility(desk3)
    pol = defense_local(mats, budget_s=0.0)
    assert pol.meta["deadline"] and pol.meta["stop"] == "deadline"
    assert pol.meta["newton_steps"] == 0
    assert verify_policy(mats, pol, samples=1000, seed=2) == 1000
    _assert_policy_invariants(mats, pol)
    assert pol.t <= 169.0 / 500.0 + 1e-9


def test_socp_error_names_the_stage_and_the_row(desk3, monkeypatch):
    """A lambda that the exact radius does not back is a solver fault."""
    mats = build_feasibility(desk3)
    real = defense._socp

    def overclaiming(*args):
        (q, lam, G), dual = real(*args)
        return (0.5 * q, 0.5 * lam, G), dual

    monkeypatch.setattr(defense, "_socp", overclaiming)
    with pytest.raises(SolverError, match=r"socp final: .* at row \S+:"):
        defense_local(mats)


def test_warm_start_runs_no_tall_lp(bundled_mats, monkeypatch):
    """The max-margin start goes through the (n+1)-row wide form."""
    shapes = []
    real = lin_solve.lp_solve

    def spy(prob, *args, **kwargs):
        shapes.append(prob.A_eq.shape[0])
        return real(prob, *args, **kwargs)

    monkeypatch.setattr(lin_solve, "lp_solve", spy)
    p, G0, t = warm_start_defense(bundled_mats)
    assert shapes and all(rows > 0 for rows in shapes)
    assert np.all(G0 == 0.0)
    assert float(np.max(bundled_mats.margins(p))) <= 0.0
    assert t == pytest.approx(t_tilde(bundled_mats, p, None)[0], rel=1e-15)


FIXED_SLACK = build_case("fixed_slack", 100.0, [(1, 0.0), (2, 2.5)],
                         [(1, 2, 0.1, None)],
                         [(1, 1.0, 1.0), (2, 0.0, 2.0)])


def test_socp_without_interior_returns_the_warm_start():
    """A fixed slack unit makes its two rows an implicit equality in (p, delta)
    that the model cannot fold, so no strictly interior point exists; the
    warm start comes back, still sound."""
    mats = build_feasibility(FIXED_SLACK, slack_gen=0)
    pol = defense_local(mats)
    p_w, G0, t_w = warm_start_defense(mats)
    assert pol.meta["stop"] == "no-interior" and pol.dual is None
    assert np.array_equal(pol.p0, p_w) and np.array_equal(pol.G, G0)
    assert pol.t == t_w == 0.0
    assert verify_policy(mats, pol, samples=100, seed=1) == 100


def test_the_default_slack_is_a_unit_that_can_move():
    """Unit 0 of fixed_slack is fixed, so unit 1 is the slack and unit 0 is
    folded: the bracket closes at the 0.25 p.u. of headroom left."""
    from dcattack.squeeze import SqueezeConfig, squeeze_run

    mats = build_feasibility(FIXED_SLACK)
    assert mats.slack_gen == 1 and mats.n_reduced == 0
    rep = squeeze_run(FIXED_SLACK, SqueezeConfig(seed=0), mats=mats)
    assert rep.defense["stop"] == "converged"
    assert rep.lb == pytest.approx(0.25, rel=1e-8)
    assert rep.lb <= rep.ub <= 0.25 * (1 + 1e-5)


@pytest.mark.parametrize(
    "n, seed, degenerate",
    [pytest.param(60, 3, False, id="60-False"),
     pytest.param(90, 3, True, id="90-True")]
    + [pytest.param(60, s, True, id=f"60-True-s{s}") for s in range(10)])
def test_socp_certifies_the_ladders_within_1e7(n, seed, degenerate):
    """ladder60_g0_s3 and degenerate90_g0_s3, where a log-barrier solve
    stalls at a certified gap near 1e-5, and the degenerate 60-bus rungs of
    seeds 0-9, where a corrector solved once unless its residual asks for
    more takes a path of its own (on seed 2, one more round)."""
    mats = build_feasibility(bench_ladder(n, seed, degenerate))
    pol = defense_local(mats)
    assert pol.meta["stop"] == "converged"
    assert pol.meta["gap"] <= 1e-7
    assert _check_dual(mats, pol) == []


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("name", ["desk3", "case24_ieee_rts"])
def test_socp_iterates_before_the_deadline_are_sound(name, k, desk3,
                                                     monkeypatch):
    """A clock that ticks once per reading expires the budget after k
    interior-point steps; the policy then in hand is sound, backs its
    1/lambda^2 and does not beat the unhurried solve."""
    case = desk3 if name == "desk3" else load_case(pglib_path(name))
    mats = build_feasibility(case)
    full = defense_local(mats)
    ticks = itertools.count()
    monkeypatch.setattr(defense.time, "monotonic",
                        lambda: float(next(ticks)))
    pol = defense_local(mats, budget_s=k + 0.5)
    assert pol.meta["stop"] == "deadline" and pol.meta["newton_steps"] == k
    assert verify_policy(mats, pol, samples=500, seed=k) == 500
    _assert_policy_invariants(mats, pol)
    assert 1.0 / pol.meta["lambda"] ** 2 <= pol.t * (1 + 1e-12)
    assert pol.t <= full.t


# -- row generation -----------------------------------------------------------

def _full_row_t(mats):
    """t of one SOCP solve on every row of mats."""
    p_w, _G0, _t = warm_start_defense(mats)
    (q, lam, G), _dual = defense._socp(mats, p_w, None,
                                       {"newton_steps": 0, "solves": 0})
    return t_tilde(mats, q / lam, G)[0]


def test_row_generation_matches_the_full_row_solve():
    """ladder(120, 0) and the degenerate 90-bus rung of seed 1 each take
    three or more rounds.  Each round but the last stops to grow at a gap
    of 1e-2, which bounds the Newton steps of all rounds together."""
    for args, steps in (((120, 0, False), 45), ((90, 1, True), 40)):
        mats = build_feasibility(bench_ladder(*args))
        pol = defense_local(mats)
        assert pol.meta["stop"] == "converged"
        assert pol.meta["rounds"] > 1 and pol.meta["rows"] < mats.m
        assert pol.meta["newton_steps"] <= steps
        assert pol.t == pytest.approx(_full_row_t(mats), rel=1e-10)
        assert pol.dual[0].shape == (mats.m,)
        assert _check_dual(mats, pol) == []


def test_case30_solves_on_fewer_rows():
    mats = build_feasibility(load_case(pglib_path("case30_as")))
    pol = defense_local(mats)
    assert pol.meta["rows"] < mats.m and pol.meta["rounds"] == 1
    assert pol.meta["stop"] == "converged"
    assert pol.t == pytest.approx(_full_row_t(mats), rel=1e-10)
    assert _check_dual(mats, pol) == []


@pytest.mark.parametrize("args, kept", [((30, 0, True), False),
                                        ((30, 0, False), False),
                                        ((60, 2, False), True)],
                         ids=["breaks-a-row", "trails-the-warm-start",
                              "beats-the-warm-start"])
def test_a_deadline_between_rounds_returns_a_sound_policy(args, kept,
                                                          monkeypatch):
    """The clock runs out right after the first subset solve.  On the
    degenerate 30-bus rung that solve's policy breaks a row outside its
    subset, and on the 30-bus rung its radius over every row is below the
    warm start's, so the warm start comes back; on the 60-bus rung it is
    sound and beats the warm start, so it is kept.  Either way t is the
    exact radius over every row, and no lambda is claimed for it."""
    mats = build_feasibility(bench_ladder(*args))
    p_w, _G0, t_init = warm_start_defense(mats)
    real, clock = defense._socp, [0.0]

    def one_round(*args):
        out = real(*args)
        clock[0] = np.inf
        return out

    monkeypatch.setattr(defense, "_socp", one_round)
    monkeypatch.setattr(defense.time, "monotonic", lambda: clock[0])
    pol = defense_local(mats, budget_s=60.0)
    assert pol.meta["stop"] == "deadline" and pol.meta["rounds"] == 1
    assert "lambda" not in pol.meta and pol.meta["gap"] is None
    assert pol.t == t_tilde(mats, pol.p0, pol.G)[0]
    assert np.array_equal(pol.p0, p_w) != kept
    assert (pol.t > t_init) == kept
    assert verify_policy(mats, pol, samples=500, seed=1) == 500


def test_the_corrector_refinement_absorbs_an_inexact_newton_solve(
        monkeypatch):
    """Near the optimum the bordered Newton system is ill-conditioned (on
    the fourth row subset of ladder(480, 0), two passes left a dual residual
    of 7e-9 and the solve ended "step-failed").  Here a solve perturbed by
    1e-5 relative stands in for it: with two fixed passes ladder(30, 0) ends
    "step-failed"; refined until its residual is below _REFINE_TOL, the
    corrector converges."""
    real = defense._newton_factor

    def inexact(*args):
        solve, rng = real(*args), np.random.default_rng(0)

        def perturbed(g_y, g_G):
            dy, dG = solve(g_y, g_G)
            return (dy * (1.0 + 1e-5 * rng.standard_normal(dy.shape)),
                    dG * (1.0 + 1e-5 * rng.standard_normal(dG.shape)))

        return perturbed

    monkeypatch.setattr(defense, "_newton_factor", inexact)
    mats = build_feasibility(bench_ladder(30, 0, False))
    pol = defense_local(mats)
    assert pol.meta["stop"] == "converged"
    assert _check_dual(mats, pol) == []


@pytest.mark.parametrize("net", ["case30_as", "ladder120"])
def test_a_newton_step_solves_fewer_than_three_systems(net, monkeypatch):
    """meta["solves"] counts every solve of the bordered Newton system over
    all rounds.  A step solves once for the predictor and once for the
    corrector, which before convergence is solved again only while its dual
    residual is above _REFINE_TOL, so the count stays below the three per
    step that two fixed corrector passes would take."""
    case = (load_case(pglib_path(net)) if net.startswith("case")
            else bench_ladder(120, 0, False))
    mats = build_feasibility(case)
    real, calls = np.linalg.solve, []

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(np.linalg, "solve", spy)
    pol = defense_local(mats)
    monkeypatch.undo()
    assert pol.meta["stop"] == "converged"
    assert len(calls) == pol.meta["solves"]
    assert 2 * pol.meta["newton_steps"] <= pol.meta["solves"] \
        < 3 * pol.meta["newton_steps"]


def test_the_480_bus_ladder_converges_with_an_on_demand_refinement():
    """On ladder(480, 0) a corrector of two fixed passes once ended a round
    "step-failed" at a dual residual of 7e-9.  Solved once and refined only
    while its residual is above _REFINE_TOL, every round converges."""
    mats = build_feasibility(bench_ladder(480, 0, False))
    pol = defense_local(mats)
    assert pol.meta["stop"] == "converged" and pol.meta["rounds"] <= 3
    assert _check_dual(mats, pol) == []
    assert 1.0 / pol.meta["lambda"] ** 2 <= pol.t * (1 + 1e-12)


@pytest.fixture(scope="module", params=[(90, True), (240, False)],
                ids=["D90_0", "L240_0"])
def ladder_policy(request):
    """(mats, verified policy) on ladder(90, 0, degenerate) (262 rows) and
    ladder(240, 0) (816 rows): each has more rows than one block of the
    sampled check holds at 1000 samples."""
    n, degenerate = request.param
    mats = build_feasibility(bench_ladder(n, 0, degenerate))
    pol = defense_local(mats)
    assert verify_policy(mats, pol, samples=1000, seed=0) == 1000
    return mats, pol


def _one_shot_message(mats, pol, samples, seed):
    """The sampled check with every row against every sample at once, as
    two m x (samples + 1) arrays: the message of the error it raises, or
    None.  The draws are those of `verify_policy`."""
    r = np.sqrt(pol.t * (1.0 - defense._BALL_SHRINK))
    n = mats.n_delta
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(samples, n))
    u /= np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-300)
    deltas = u * (r * rng.random(samples) ** (1.0 / n))[:, None]
    d = mats.crossing(pol.p0, pol.G, pol.binding_row)
    deltas = np.vstack([deltas, (d / np.linalg.norm(d) * r)[None, :]])
    viol = mats.margins(pol.p0)[:, None] + mats.directions(pol.G) @ deltas.T \
        > lin_solve.FEAS_TOL
    if not np.any(viol):
        return None
    row, col = np.argwhere(viol)[0]
    return (f"policy with t={pol.t:.6e} violates row "
            f"{mats.row_labels[int(row)]} at delta={deltas[int(col)]}")


@pytest.mark.parametrize("block", [defense._VERIFY_BLOCK, 300])
@pytest.mark.parametrize("samples", [0, 7, 1000])
@pytest.mark.parametrize("inflate", [1.05, 1.5, 4.0])
def test_blocked_verification_names_the_one_shot_violation(
        ladder_policy, inflate, samples, block, monkeypatch):
    """The rows are checked in blocks, in row order, and the check stops at
    the first block with a violation: the error names the row and the delta
    that the check of every row at once names first, whatever the block."""
    mats, pol = ladder_policy
    bogus = DefensePolicy(pol.p0, pol.G, inflate * pol.t, pol.binding_row)
    expected = _one_shot_message(mats, bogus, samples, seed=3)
    assert expected is not None
    monkeypatch.setattr(defense, "_VERIFY_BLOCK", block)
    with pytest.raises(PolicyVerificationError) as err:
        verify_policy(mats, bogus, samples=samples, seed=3)
    assert str(err.value) == expected
    assert bogus.verified_samples == 0


def test_blocked_verification_passes_through_a_partial_last_block(
        ladder_policy):
    """1200 samples make blocks of 13 rows, which divide neither network's
    row count, so the last block is partial."""
    mats, pol = ladder_policy
    samples = 1200
    assert mats.m % (defense._VERIFY_BLOCK // (samples + 1)) != 0
    assert _one_shot_message(mats, pol, samples, seed=5) is None
    assert verify_policy(mats, pol, samples=samples, seed=5) == samples
    assert pol.verified_samples == samples


def test_blocked_verification_holds_less_than_one_margin_array(ladder_policy):
    """The check never holds an m x (samples + 1) array of margins: the
    traced peak over the call stays below the size of one, 6.5 MB on
    ladder(240, 0) (816 rows, 1001 columns)."""
    mats, pol = ladder_policy
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert verify_policy(mats, pol, samples=1000, seed=0) == 1000
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * mats.m * (1000 + 1)
