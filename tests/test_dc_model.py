import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from dcattack import lin_solve
from dcattack.attack import AttackConfig, multistart_attack
from dcattack.case_ingest import build_case, load_case
from dcattack.dc_model import build_feasibility, build_ptdf
from dcattack.defense import defense_local, warm_start_defense
from dcattack.errors import ModelError, PreconditionError
from dcattack.lin_solve import FEAS_TOL

import oracle_utils
from conftest import BUNDLED, bench_ladder, pglib_path


def test_ptdf_two_bus(desk2):
    phi = build_ptdf(desk2, ref_bus=0)
    # unit injection at bus 2 flows entirely toward bus 1, i.e. against the
    # from->to orientation of the single line
    np.testing.assert_allclose(phi, [[0.0, -1.0]], atol=1e-12)


def test_ptdf_three_bus_ring(desk3):
    # equal susceptances: an injection at bus 2 (withdrawn at ref bus 1)
    # splits 2/3 over the direct line and 1/3 around the ring
    phi = build_ptdf(desk3, ref_bus=0)
    np.testing.assert_allclose(phi[:, 1], [-2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
                               atol=1e-12)
    # reference column is identically zero
    np.testing.assert_allclose(phi[:, 0], 0.0, atol=0.0)


def test_ptdf_brute_force_oracle(desk3):
    # solve the reduced Laplacian by hand for each injection and compare
    phi = build_ptdf(desk3, ref_bus=2)
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
        np.testing.assert_allclose(phi[:, bus], flows, atol=1e-12)


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
        p_full = oracle_utils.full_dispatch(mats, p_hat, delta)
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
        p_full = oracle_utils.full_dispatch(mats, np.zeros(0), delta)
        np.testing.assert_allclose(mats.margins(np.zeros(0), delta),
                                   oracle_utils.model1_margins(mats, p_full, delta),
                                   atol=1e-12)


def test_max_margin_matches_scipy_on_bundled_cases(bundled_mats):
    """The nominal point has scipy's largest margin, min_p max_i
    a_i^T p + c_i, and satisfies every row of F(0)."""
    mats = bundled_mats
    p = mats.max_margin()
    ref = linprog(np.eye(mats.n_reduced + 1)[-1],
                  A_ub=np.hstack([mats.A, -np.ones((mats.m, 1))]),
                  b_ub=-mats.c, bounds=(None, None), method="highs")
    assert ref.status == 0
    assert float(np.max(mats.margins(p))) == pytest.approx(ref.fun, rel=1e-9,
                                                           abs=1e-12)
    assert ref.fun < 0.0


def test_max_margin_of_an_empty_nominal_set_names_a_row():
    """Load past the fleet's capacity: the max-margin LP's Farkas ray proves
    F(0) empty, and the ModelError names its heaviest row, the slack
    unit's upper bound."""
    case = build_case("overload", 1.0, [(1, 0.0), (2, 10.0)],
                      [(1, 2, 0.1, None)], [(1, 0.0, 2.0), (2, 0.0, 2.0)])
    mats = build_feasibility(case)
    assert not oracle_utils.scipy_feasible(mats.A, mats.rhs())
    with pytest.raises(ModelError, match="heaviest on slack-gen-upper:g0@bus1"):
        mats.max_margin()


@pytest.mark.parametrize("name", BUNDLED)
def test_record_order_invariance(name):
    """Shuffling the bus and branch records, ids unchanged, moves the
    reference bus and permutes rows, columns and delta, but not the policy
    SOCP's radius."""
    case = load_case(pglib_path(name))
    t = defense_local(build_feasibility(case)).t
    for seed in range(3):
        rng = np.random.default_rng(seed)
        shuffled = dataclasses.replace(
            case,
            buses=tuple(case.buses[i] for i in rng.permutation(case.n_bus)),
            branches=tuple(case.branches[i]
                           for i in rng.permutation(case.n_branch)))
        t_shuffled = defense_local(build_feasibility(shuffled)).t
        assert t_shuffled == pytest.approx(t, rel=1e-12)


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
    """The vectorized radii and the per-row crossing points agree, under the
    SOCP policy and at the max-margin dispatch: each row's crossing point is
    the one of the bare row (`oracle_utils.one_row`), and its squared norm
    is the row's radius.  A row whose direction vanishes has no crossing
    point and reads +inf in radii, even when tight."""
    mats = bundled_mats
    pol = defense_local(mats)
    for p0, G in ((pol.p0, pol.G), (mats.max_margin(), None)):
        per = mats.radii(p0, G)
        dead = ~np.any(mats.directions(G) != 0.0, axis=1)
        for i in range(mats.m):
            one = oracle_utils.one_row(mats.A[i], mats.B[i], mats.c[i])
            d = mats.crossing(p0, G, i)
            if dead[i]:
                assert d is None and one.crossing(p0, G, 0) is None
                assert per[i] == np.inf
            else:
                assert np.array_equal(d, one.crossing(p0, G, 0))
                assert per[i] == pytest.approx(float(d @ d), rel=1e-9,
                                               abs=1e-18)


def test_a_tight_row_under_the_policy_keeps_its_radius():
    """The attack's tight-row rule (radius 0 for a sensitive row within
    FEAS_TOL of its bound) holds at fixed dispatch only.  At the SOCP optimum
    of this network the policy holds a flow row at a noise-sized margin with
    a noise-sized direction; its radius is a real ratio at or above t, so
    zeroing it in `radii` would break the defense's exact-radius check."""
    mats = build_feasibility(bench_ladder(30, 1, True))
    pol = defense_local(mats)
    margins = mats.margins(pol.p0)
    den = np.linalg.norm(mats.directions(pol.G), axis=1)
    per = mats.radii(pol.p0, pol.G)
    kept = (np.abs(margins) <= FEAS_TOL) & (den > 0) & np.isfinite(per) \
        & (per >= pol.t)
    assert np.any(kept)


_CRASHED = BUNDLED + tuple(f"ladder{n}{kind}" for n in (30, 60, 120)
                           for kind in ("", "-degenerate")) \
    + ("desk2", "desk2_limited", "desk3")


def _crash_lps(mats, monkeypatch):
    """Every LP of the defense's warm start and of a bare multistart, as
    (prob, basis, result): the max-margin LP of each, then the P-LPs;
    `lp_solve` raises on a basis that fails its start checks."""
    calls, real_solve = [], lin_solve.lp_solve

    def solve_spy(prob, basis, deadline=None):
        calls.append((prob, basis, real_solve(prob, basis, deadline)))
        return calls[-1][2]

    monkeypatch.setattr(lin_solve, "lp_solve", solve_spy)
    warm_start_defense(mats)
    multistart_attack(mats, AttackConfig(restarts=0, seed=0))
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("name", _CRASHED)
def test_every_crash_basis_is_feasible_and_reaches_the_cold_optimum(
        name, request, monkeypatch):
    """The max-margin LP over Q, which the defense's warm start and the
    multistart each run to the same optimum, and the multistart's first
    P-LP start from `crash_basis`, which the start checks accept, and each
    reaches the optimum of scipy's cold solve."""
    n, _, kind = name.removeprefix("ladder").partition("-")
    case = (request.getfixturevalue(name) if name.startswith("desk")
            else load_case(pglib_path(name)) if name in BUNDLED
            else bench_ladder(int(n), 0, kind == "degenerate"))
    mats = build_feasibility(case)
    calls = _crash_lps(mats, monkeypatch)
    q, again, p = calls[:3]
    assert np.array_equal(p[0].A_eq[-1], -mats.c)
    assert np.array_equal(again[0].A_eq, q[0].A_eq)
    assert again[2].y.tobytes() == q[2].y.tobytes()
    for prob, basis, res in (q, p):
        np.testing.assert_array_equal(basis, mats.crash_basis())
        ref = linprog(prob.c, A_eq=prob.A_eq, b_eq=prob.b_eq,
                      bounds=(0, None), method="highs")
        assert res.status == lin_solve.OPTIMAL and ref.status == 0
        assert res.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-12)


def test_without_a_movable_unit_every_lp_starts_from_the_one_row_basis(
        desk2_single, monkeypatch):
    """With n_reduced = 0, Q and P have the one row r^T mu = 1 and the
    crash basis is the row of largest -c_i, feasible for both: the
    max-margin LPs of the defense's warm start and of the multistart and
    the first P-LP start from it, and each reaches scipy's optimum."""
    mats = build_feasibility(desk2_single)
    assert mats.n_reduced == 0
    np.testing.assert_array_equal(mats.crash_basis(), [np.argmax(-mats.c)])
    calls = _crash_lps(mats, monkeypatch)
    assert len(calls) >= 3
    for prob, basis, res in calls[:3]:
        np.testing.assert_array_equal(basis, mats.crash_basis())
        ref = linprog(prob.c, A_eq=prob.A_eq, b_eq=prob.b_eq,
                      bounds=(0, None), method="highs")
        assert res.status == lin_solve.OPTIMAL and ref.status == 0
        assert res.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-12)
