import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from dcattack.case_ingest import build_case, load_case
from dcattack.dc_model import (build_feasibility, build_ptdf, project_policy,
                               solve_dcopf)
from dcattack.defense import defense_local
from dcattack.errors import ModelError, PreconditionError

import oracle_utils
from conftest import bench_ladder, pglib_path


def test_ptdf_two_bus(desk2):
    ptdf = build_ptdf(desk2, ref_bus=0)
    # unit injection at bus 2 flows entirely toward bus 1, i.e. against the
    # from->to orientation of the single line
    np.testing.assert_allclose(ptdf.phi, [[0.0, -1.0]], atol=1e-12)
    assert ptdf.ref_bus == 0


def test_ptdf_three_bus_ring(desk3):
    # equal susceptances: an injection at bus 2 (withdrawn at ref bus 1)
    # splits 2/3 over the direct line and 1/3 around the ring
    ptdf = build_ptdf(desk3, ref_bus=0)
    np.testing.assert_allclose(ptdf.phi[:, 1], [-2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
                               atol=1e-12)
    # reference column is identically zero
    np.testing.assert_allclose(ptdf.phi[:, 0], 0.0, atol=0.0)


def test_ptdf_brute_force_oracle(desk3):
    # solve the reduced Laplacian by hand for each injection and compare
    ptdf = build_ptdf(desk3, ref_bus=2)
    b = np.array([br.b for br in desk3.branches])
    pos = desk3.bus_position()
    E = np.zeros((desk3.n_branch, desk3.n_bus))
    for k, br in enumerate(desk3.branches):
        E[k, pos[br.f_bus]], E[k, pos[br.t_bus]] = 1.0, -1.0
    keep = [0, 1]
    L = E[:, keep].T @ (b[:, None] * E[:, keep])
    for bus in range(2):
        theta = np.linalg.solve(L, np.eye(2)[bus])
        flows = b * (E[:, keep] @ theta)
        np.testing.assert_allclose(ptdf.phi[:, bus], flows, atol=1e-12)


def test_feasibility_shape_and_labels(desk2_limited):
    mats = build_feasibility(desk2_limited, slack_gen=0)
    assert mats.m == 6  # 2 flow rows + 2 generators * 2 bounds
    assert mats.A.shape == (6, 1)
    assert mats.B.shape == (6, 1)
    assert mats.row_labels[0].startswith("flow-upper:")
    assert mats.row_labels[2] == "slack-gen-upper:g0@bus1"
    assert mats.row_labels[3] == "gen-upper:g1@bus2"
    assert mats.row_labels[4] == "slack-gen-lower:g0@bus1"
    # slack-gen-upper row: -1^T p + (total load + total delta) - pmax_slack <= 0
    np.testing.assert_allclose(mats.A[2], [-1.0])
    np.testing.assert_allclose(mats.B[2], [1.0])
    assert mats.c[2] == pytest.approx(3.0 - 2.0)
    # slack-gen-lower mirrors it
    np.testing.assert_allclose(mats.A[4], [1.0])
    np.testing.assert_allclose(mats.B[4], [-1.0])
    assert mats.c[4] == pytest.approx(0.0 - 3.0)


def test_unrated_branches_contribute_no_rows(desk2):
    mats = build_feasibility(desk2, slack_gen=0)
    assert mats.m == 4
    assert all(not lbl.startswith("flow") for lbl in mats.row_labels)


# networks whose fixed units the model folds into c
FOLDED = {"case14_ieee": lambda: load_case(pglib_path("case14_ieee")),
          "degenerate30_s0": lambda: bench_ladder(30, 0, True)}


@pytest.mark.parametrize("name", ["desk3", *FOLDED])
def test_reduction_matches_direct_model(name, desk3):
    """Core equivalence: reduced-system margins == raw dispatch-model margins
    for random reduced dispatches and perturbations."""
    case = desk3 if name == "desk3" else FOLDED[name]()
    mats = build_feasibility(case)
    rng = np.random.default_rng(42)
    for _ in range(100):
        p_hat = rng.normal(scale=2.0, size=mats.n_reduced)
        delta = rng.normal(scale=1.5, size=mats.n_delta)
        p_full = mats.full_dispatch(p_hat, delta)
        # power balance holds by construction of the slack injection
        assert p_full.sum() == pytest.approx(case.total_load() + delta.sum(),
                                             abs=1e-12)
        np.testing.assert_allclose(mats.margins(p_hat, delta),
                                   oracle_utils.model1_margins(mats, p_full, delta),
                                   atol=1e-10)


def test_reduction_matches_direct_model_single_gen(desk2_single):
    mats = build_feasibility(desk2_single, slack_gen=0)
    assert mats.A.shape == (2, 0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        delta = rng.normal(size=1)
        p_full = mats.full_dispatch(np.zeros(0), delta)
        np.testing.assert_allclose(mats.margins(np.zeros(0), delta),
                                   oracle_utils.model1_margins(mats, p_full, delta),
                                   atol=1e-12)


def test_solve_dcopf_cheapest_first(desk2):
    res = solve_dcopf(build_feasibility(desk2, slack_gen=0))
    assert res.feasible
    # cheap unit (bus 1, $10) runs at its 2.0 cap, the $20 unit covers the rest
    np.testing.assert_allclose(res.p_full, [2.0, 1.0], atol=1e-9)
    assert res.cost == pytest.approx(40.0, abs=1e-7)


def test_solve_dcopf_respects_line_limit(desk3):
    mats = build_feasibility(desk3, slack_gen=0)
    res = solve_dcopf(mats)
    assert res.feasible
    assert np.max(mats.margins(res.p_hat, None)) <= 1e-8
    flows = mats.ptdf.phi @ (
        np.array([res.p_full[0], 0.0, res.p_full[1]]) - desk3.p_d())
    assert abs(flows[0]) <= 1.6 + 1e-9


def test_solve_dcopf_infeasible_is_certified(desk2):
    mats = build_feasibility(desk2, slack_gen=0)
    res = solve_dcopf(mats, delta=np.array([1.2]))  # headroom is only 1.0
    assert not res.feasible
    y = res.ray
    assert np.all(y >= 0) and y.sum() == pytest.approx(1.0)
    assert np.max(np.abs(mats.A.T @ y)) <= 1e-9
    assert y @ (mats.B @ np.array([1.2]) + mats.c) > 0


def _scipy_dispatch_cost(mats, delta):
    costs = mats.case.gen_costs()
    red_cost = costs[mats.gen_order] - costs[mats.slack_gen]
    ref = linprog(red_cost, A_ub=mats.A, b_ub=mats.rhs(delta),
                  bounds=(None, None), method="highs")
    if ref.status == 2:
        return None
    assert ref.status == 0, ref.message
    return float(costs @ mats.full_dispatch(ref.x, delta))


def test_solve_dcopf_matches_scipy_on_bundled_cases(bundled_mats):
    """The dual-form dispatch against scipy's primal LP: same cost, a feasible
    dispatch; past the fleet's headroom, a Farkas ray that verifies."""
    mats = bundled_mats
    rng = np.random.default_rng(5)
    for delta in (None, 0.01 * rng.normal(size=mats.n_delta)):
        res = solve_dcopf(mats, delta)
        ref = _scipy_dispatch_cost(mats, delta)
        assert res.feasible and ref is not None
        assert res.cost == pytest.approx(ref, rel=1e-9, abs=1e-9)
        assert np.max(mats.margins(res.p_hat, delta)) <= 1e-8
    _lo, hi = mats.case.gen_bounds()
    headroom = float(hi.sum()) - mats.case.total_load()
    delta = np.full(mats.n_delta, 1.5 * headroom / mats.n_delta)
    res = solve_dcopf(mats, delta)
    assert not res.feasible
    assert _scipy_dispatch_cost(mats, delta) is None
    y, rhs = res.ray, mats.rhs(delta)
    assert np.all(y >= 0) and y.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(mats.A.T @ y)) <= 1e-9
    assert y @ rhs < 0


def test_slack_choice_invariance(desk3):
    costs = []
    for slack in range(desk3.n_gen):
        res = solve_dcopf(build_feasibility(desk3, slack_gen=slack))
        assert res.feasible
        costs.append(res.cost)
    assert abs(costs[0] - costs[1]) <= 1e-7


def test_no_perturbable_loads_rejected():
    case = build_case("noload", 100.0, buses=[(1, 0.0), (2, 0.0)],
                      branches=[(1, 2, 0.1, None)],
                      generators=[(1, 0.0, 2.0)])
    with pytest.raises(ModelError, match="nonzero loads"):
        build_feasibility(case)


def test_dump_dict_round_trip(desk2_limited):
    mats = build_feasibility(desk2_limited)
    doc = mats.to_json_dict()
    assert doc["rows"] == 6
    np.testing.assert_allclose(np.array(doc["A"]), mats.A)
    assert doc["row_labels"][2] == "slack-gen-upper:g0@bus1"
    assert doc["load_bus_ids"] == [2]
    assert doc["gen_order"] == mats.gen_order.tolist() == [1]


def _two_rows(desk2, B, c):
    """desk2's polytope (one column, one delta) with its rows replaced by
    A = [[1], [-1]] and the given B, c."""
    return dataclasses.replace(
        build_feasibility(desk2), A=np.array([[1.0], [-1.0]]),
        B=np.array(B, float), c=np.array(c, float), row_labels=("r0", "r1"))


def test_radii_min_and_precondition(desk2):
    # second row is delta-insensitive
    mats = _two_rows(desk2, [[1.0], [0.0]], [-2.0, -1.0])
    per = mats.radii(np.array([0.5]))
    # row 0 margin -1.5 direction 1 -> 2.25 ; row 1 insensitive -> inf
    assert per[0] == pytest.approx(2.25, abs=1e-12)
    assert per[1] == np.inf
    assert int(np.argmin(per)) == 0
    # a tight but insensitive row still imposes no bound
    tight = _two_rows(desk2, [[1.0], [0.0]], [-2.0, 0.5])
    per2 = tight.radii(np.array([0.5]))
    assert per2[1] == np.inf
    assert per2.min() == pytest.approx(2.25, abs=1e-12)
    with pytest.raises(PreconditionError, match="'r0'"):
        mats.radii(np.array([3.0]))


def test_radii_and_crossing_match_the_row_projection(bundled_mats):
    """The vectorized radii and the per-row crossing points agree with the
    closed-form projection of each row, under the SOCP policy and at the
    nominal dispatch.  A row whose direction vanishes reads +inf in radii
    even when tight, where the projection reports 0 (already crossed)."""
    mats = bundled_mats
    pol = defense_local(mats)
    for p0, G in ((pol.p0, pol.G), (solve_dcopf(mats).p_hat, None)):
        per = mats.radii(p0, G)
        dead = ~np.any(mats.directions(G) != 0.0, axis=1)
        for i in range(mats.m):
            proj = project_policy(p0, G, mats.A[i], mats.B[i], float(mats.c[i]))
            d = mats.crossing(p0, G, i)
            if proj.delta is None:
                assert d is None
            else:
                assert np.array_equal(d, proj.delta)
            if dead[i]:
                assert per[i] == np.inf and proj.norm_sq in (0.0, np.inf)
            else:
                assert per[i] == pytest.approx(proj.norm_sq, rel=1e-9,
                                               abs=1e-18)
