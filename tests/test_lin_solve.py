import numpy as np
import pytest
from scipy.optimize import linprog

from dcattack import lin_solve
from dcattack.dc_model import project_policy
from dcattack.lin_solve import (
    INFEASIBLE, OPTIMAL, UNBOUNDED, FarkasCertificate, LpProblem, check_feasible,
    lp_solve,
)

import oracle_utils


def _standard(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, lb=None, ub=None):
    """min c^T x s.t. A_ub x <= b_ub, A_eq x = b_eq, lb <= x <= ub, rewritten
    as an LpProblem: x = x0 + T u with u >= 0 (a shift for a finite lb, a
    reflection for a finite ub alone, a split u+ - u- for a free x), then
    one slack column per <= row and per finite box.  Returns (prob, x0, T):
    the first T.shape[1] entries of a standard-form point map back to
    x0 + T u, and c^T x = c_std^T x_std + c^T x0."""
    c = np.asarray(c, dtype=float)
    n = c.size
    lb = np.broadcast_to(-np.inf if lb is None else np.asarray(lb, float), (n,))
    ub = np.broadcast_to(np.inf if ub is None else np.asarray(ub, float), (n,))
    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, float)
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, float)
    x0 = np.where(np.isfinite(lb), lb, np.where(np.isfinite(ub), ub, 0.0))
    cols, box = [], []
    for j, e in enumerate(np.eye(n)):
        if np.isfinite(lb[j]):
            cols.append(e)
            if np.isfinite(ub[j]):
                box.append((len(cols) - 1, ub[j] - lb[j]))
        elif np.isfinite(ub[j]):
            cols.append(-e)
        else:
            cols += [e, -e]
    T = np.array(cols).T
    k, m, nb = T.shape[1], A_ub.shape[0], len(box)
    A = np.zeros((m + nb + A_eq.shape[0], k + m + nb))
    A[:m, :k] = A_ub @ T
    A[:m + nb, k:] = np.eye(m + nb)
    for i, (col, _width) in enumerate(box):
        A[m + i, col] = 1.0
    A[m + nb:, :k] = A_eq @ T
    b = np.concatenate([b_ub - A_ub @ x0, [w for _col, w in box],
                        b_eq - A_eq @ x0])
    prob = LpProblem(c=np.concatenate([T.T @ c, np.zeros(m + nb)]), A_eq=A, b_eq=b)
    return prob, x0, T


def _original(x_std, x0, T):
    return x0 + T @ x_std[:T.shape[1]]


def test_simple_bound():
    # min x s.t. x >= 1
    prob, x0, T = _standard([1.0], A_ub=[[-1.0]], b_ub=[-1.0])
    res = lp_solve(prob)
    assert res.status == OPTIMAL
    assert _original(res.x, x0, T)[0] == pytest.approx(1.0, abs=1e-10)
    assert res.objective == pytest.approx(1.0, abs=1e-10)


def test_two_variable_vertex():
    # min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0
    prob, x0, T = _standard([-1.0, -2.0], A_ub=[[1, 1]], b_ub=[4], lb=0.0,
                            ub=[3.0, 2.0])
    res = lp_solve(prob)
    assert res.status == OPTIMAL
    assert _original(res.x, x0, T) == pytest.approx([2.0, 2.0], abs=1e-9)
    assert res.objective == pytest.approx(-6.0, abs=1e-9)


def test_equality_rows():
    # min x + y s.t. x + 2y = 3, x - y = 0  ->  x = y = 1
    res = lp_solve(LpProblem(c=[1.0, 1.0], A_eq=[[1, 2], [1, -1]], b_eq=[3, 0]))
    assert res.status == OPTIMAL
    assert res.x == pytest.approx([1.0, 1.0], abs=1e-9)


def test_infeasible_certificate():
    # x <= 1 and x >= 2 cannot both hold
    prob, _x0, _T = _standard([0.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])
    res = lp_solve(prob)
    assert res.status == INFEASIBLE
    ok, detail = res.certificate.verify(prob)
    assert ok, detail
    assert res.phase1_objective > 1e-6


def test_infeasible_with_bounds():
    # rows force x >= 5 while ub pins x <= 1
    prob, _x0, _T = _standard([0.0], A_ub=[[-1.0]], b_ub=[-5.0], lb=0.0, ub=1.0)
    res = lp_solve(prob)
    assert res.status == INFEASIBLE
    ok, detail = res.certificate.verify(prob)
    assert ok, detail


def test_unbounded_ray():
    # min -x with x >= 0 free above
    prob, x0, T = _standard([-1.0], A_ub=[[-1.0]], b_ub=[0.0])
    res = lp_solve(prob)
    assert res.status == UNBOUNDED
    assert (T @ res.ray[:T.shape[1]])[0] > 0


def test_malformed_problem_rejected():
    with pytest.raises(ValueError):
        LpProblem(c=[1.0, 1.0], A_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0])
    with pytest.raises(ValueError):
        LpProblem(c=[1.0], A_eq=[[1.0]], b_eq=[1.0, 2.0])
    with pytest.raises(ValueError):
        LpProblem(c=[1.0], A_eq=[1.0], b_eq=[1.0])
    for bad in ({"c": [np.nan]}, {"A_eq": [[np.inf]]}, {"b_eq": [-np.inf]}):
        with pytest.raises(ValueError, match="non-finite"):
            LpProblem(**{"c": [1.0], "A_eq": [[1.0]], "b_eq": [1.0], **bad})
    prob = LpProblem(c=[1.0], A_eq=[[1.0]], b_eq=[1.0])
    with pytest.raises(ValueError):
        prob.with_objective([1.0, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        prob.with_objective([np.nan])


def test_free_variable_optimum():
    # min |x|-style: x free, rows x >= -3, objective +x drives x to -3
    prob, x0, T = _standard([1.0], A_ub=[[-1.0]], b_ub=[3.0])
    res = lp_solve(prob)
    assert res.status == OPTIMAL
    assert _original(res.x, x0, T)[0] == pytest.approx(-3.0, abs=1e-9)


def _random_problem(rng, n, m, k, box=True, poison=False):
    """A general LP as keyword arguments of `_standard`."""
    c = rng.normal(size=n)
    A_ub = rng.normal(size=(m, n))
    # anchor rhs at a random interior point so most draws are feasible
    x0 = rng.normal(size=n)
    b_ub = A_ub @ x0 + rng.uniform(0.1, 2.0, size=m)
    if poison and m:
        # append the negated sum of the rows with an rhs that forces 0 <= -gap
        A_ub = np.vstack([A_ub, -A_ub.sum(axis=0)])
        b_ub = np.concatenate([b_ub, [-b_ub.sum() - rng.uniform(0.5, 2.0)]])
    A_eq = rng.normal(size=(k, n)) if k else None
    b_eq = (A_eq @ x0) if k else None
    lb = x0 - rng.uniform(0.5, 3.0, size=n) if box else None
    ub = x0 + rng.uniform(0.5, 3.0, size=n) if box else None
    return dict(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, lb=lb, ub=ub)


def _scipy_solve(prob):
    return linprog(prob.c, A_eq=prob.A_eq if prob.A_eq.size else None,
                   b_eq=prob.b_eq if prob.b_eq.size else None,
                   bounds=(0, None), method="highs")


def test_random_lps_match_reference_solver():
    """Dual-route check on 200 random LPs: our simplex against scipy HiGHS."""
    rng = np.random.default_rng(1234)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for trial in range(200):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 13))
        k = int(rng.integers(0, min(n, 4)))
        box = trial % 3 != 0
        gen = _random_problem(rng, n, m, k, box=box, poison=trial % 5 == 4)
        prob, x0, T = _standard(**gen)
        res = lp_solve(prob)
        ref = _scipy_solve(prob)
        if res.status == OPTIMAL:
            assert ref.status == 0, f"trial {trial}: we optimal, scipy {ref.status}"
            assert res.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7), \
                f"trial {trial}"
            # primal feasibility of our point, in both forms
            if prob.A_eq.size:
                assert np.max(np.abs(prob.A_eq @ res.x - prob.b_eq)) <= 1e-8
            assert np.all(res.x >= -1e-8)
            x = _original(res.x, x0, T)
            if m:
                assert np.max(gen["A_ub"] @ x - gen["b_ub"]) <= 1e-8
            if k:
                assert np.max(np.abs(gen["A_eq"] @ x - gen["b_eq"])) <= 1e-8
            if box:
                assert np.all(x >= gen["lb"] - 1e-8)
                assert np.all(x <= gen["ub"] + 1e-8)
            # strong duality
            assert float(prob.b_eq @ res.y) == \
                pytest.approx(res.objective, abs=1e-8 * (1 + abs(res.objective)))
        elif res.status == INFEASIBLE:
            assert ref.status == 2, f"trial {trial}: we infeasible, scipy {ref.status}"
            ok, detail = res.certificate.verify(prob)
            assert ok, f"trial {trial}: {detail}"
        else:
            assert ref.status == 3, f"trial {trial}: we unbounded, scipy {ref.status}"
            ray = res.ray
            assert prob.c @ ray < 0
            assert np.all(ray >= 0)
            if prob.A_eq.size:
                assert np.max(np.abs(prob.A_eq @ ray)) <= 1e-7 * (1 + np.max(np.abs(ray)))
            d = T @ ray[:T.shape[1]]
            if m:
                assert np.max(gen["A_ub"] @ d) <= 1e-7 * (1 + np.max(np.abs(ray)))
            if k:
                assert np.max(np.abs(gen["A_eq"] @ d)) <= 1e-7 * (1 + np.max(np.abs(ray)))
        statuses[res.status] += 1
    # the draw should exercise every branch
    assert statuses["optimal"] > 100
    assert statuses["infeasible"] > 5


def test_farkas_certificate_rejects_corrupted_vectors():
    """verify() re-derives A_eq^T y <= 0 and b_eq^T y > 0 itself: the negated
    certificate and one with a single entry pushed until a column of
    A_eq^T y turns positive must both fail, on every infeasible draw."""
    rng = np.random.default_rng(1234)
    checked = 0
    for trial in range(200):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 13))
        gen = _random_problem(rng, n, m, 0, box=trial % 2 == 0, poison=True)
        prob, _x0, _T = _standard(**gen)
        res = lp_solve(prob)
        if res.status != INFEASIBLE:
            continue
        # the poison row makes every draw infeasible; the interior-point
        # solver confirms it (HiGHS's simplex reports a solve error on one)
        ref = linprog(gen["c"], A_ub=gen["A_ub"], b_ub=gen["b_ub"],
                      bounds=list(zip(gen["lb"], gen["ub"])) if trial % 2 == 0
                      else (None, None), method="highs-ipm")
        assert ref.status == 2
        cert = res.certificate
        assert cert.verify(prob)[0]
        assert not FarkasCertificate(y=-cert.y, gap=-cert.gap).verify(prob)[0]
        h = prob.A_eq.T @ cert.y
        j = int(np.argmax(h))
        i = int(np.argmax(np.abs(prob.A_eq[:, j])))
        y = cert.y.copy()
        y[i] += np.sign(prob.A_eq[i, j]) * (abs(h[j]) + 1.0) / abs(prob.A_eq[i, j])
        ok, detail = FarkasCertificate(y=y, gap=cert.gap).verify(prob)
        assert not ok and detail["h_max"] >= 1.0 - 1e-9
        checked += 1
    assert checked > 5


def test_degenerate_stacked_rows():
    # many redundant copies of the same facet: stalls must not cycle
    A = np.vstack([np.tile([1.0, 1.0], (8, 1)), [[-1, 0]], [[0, -1]]])
    b = np.concatenate([np.full(8, 1.0), [0.0, 0.0]])
    prob, _x0, _T = _standard([-1.0, -1.0], A_ub=A, b_ub=b)
    res = lp_solve(prob)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-1.0, abs=1e-9)


# -- warm start ----------------------------------------------------------------


def _random_wide_problem(rng, rows, cols):
    """min c^T x s.t. A x = b, x >= 0 with b = A x0, x0 >= 0: feasible, and
    bounded because c > 0."""
    A = rng.normal(size=(rows, cols))
    b = A @ rng.uniform(0.0, 1.0, size=cols)
    return LpProblem(c=rng.uniform(0.1, 2.0, size=cols), A_eq=A, b_eq=b)


def _mu_problem(mats, delta, eps=1e-3):
    """A wide LP whose last row moves with delta (a warm start across a row
    change): min 1^T mu s.t. A^T mu = 0, (B delta + c)^T mu = eps."""
    sep = mats.B @ delta + mats.c
    b_eq = np.zeros(mats.n_reduced + 1)
    b_eq[-1] = eps
    return LpProblem(c=np.ones(mats.m), A_eq=np.vstack([mats.A.T, sep]),
                     b_eq=b_eq)


def _separable_delta(mats):
    """A point just past the feasibility boundary along uniform load growth."""
    u = np.ones(mats.n_delta) / np.sqrt(mats.n_delta)
    s = oracle_utils.direction_boundary(mats, u)
    return u * (1.01 * s + 1e-6)


def _assert_warm_optimal(prob):
    cold = lp_solve(prob)
    ref = _scipy_solve(prob)
    assert cold.status == OPTIMAL and ref.status == 0
    assert cold.basis is not None
    warm = lp_solve(prob, basis=cold.basis)
    assert warm.status == cold.status
    assert warm.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-12)
    assert warm.iterations == 1           # one pricing pass, no pivot
    assert warm.phase1_objective == 0.0
    np.testing.assert_array_equal(np.sort(warm.basis), np.sort(cold.basis))


def test_warm_start_at_the_optimal_basis_takes_no_pivot(bundled_mats):
    rng = np.random.default_rng(31)
    for _ in range(10):
        rows = int(rng.integers(1, 8))
        _assert_warm_optimal(_random_wide_problem(rng, rows,
                                                  rows + int(rng.integers(1, 20))))
    _assert_warm_optimal(_mu_problem(bundled_mats, _separable_delta(bundled_mats)))


def _same_result(a, b, label=""):
    assert a.status == b.status and a.iterations == b.iterations, label
    assert a.objective == b.objective
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.basis, b.basis)


def test_rejected_bases_fall_back_to_the_cold_solve():
    rng = np.random.default_rng(32)
    prob = _random_wide_problem(rng, 5, 14)
    cold = lp_solve(prob)
    assert cold.status == OPTIMAL and cold.iterations > 1
    n_real = prob.c.size
    dup = cold.basis.copy()
    dup[1] = dup[0]
    bad = {"short": cold.basis[:-1], "long": np.append(cold.basis, 0),
           "duplicate": dup}
    for name, index in (("artificial", n_real), ("out-of-range", n_real + 50),
                        ("negative", -1)):
        b = cold.basis.copy()
        b[0] = index
        bad[name] = b
    # columns 0 and 1 made identical: any basis holding both is singular
    twin = LpProblem(c=prob.c, A_eq=prob.A_eq.copy(), b_eq=prob.b_eq)
    twin.A_eq[:, 1] = twin.A_eq[:, 0]
    # a basis that factorizes but whose basic solution leaves x >= 0
    infeasible = None
    for cols in (rng.permutation(n_real)[:5] for _ in range(200)):
        B = prob.A_eq[:, cols]
        if abs(np.linalg.det(B)) > 1e-3 and \
                np.min(np.linalg.solve(B, prob.b_eq)) < -1e-3:
            infeasible = cols
            break
    assert infeasible is not None
    bad["primal-infeasible"] = infeasible
    for name, basis in bad.items():
        _same_result(lp_solve(prob, basis=basis), cold, name)
    twin_cold = lp_solve(twin)
    _same_result(lp_solve(twin, basis=np.array([0, 1, 2, 3, 4])), twin_cold)
    assert twin_cold.objective == pytest.approx(_scipy_solve(twin).fun, rel=1e-9)


def test_a_pinned_artificial_blocks_in_phase_2(monkeypatch):
    """Row 3 repeats row 1 twice over, so one artificial stays basic to the
    end; row 2 (-x2 = 0) leaves its artificial basic at 0 after phase 1,
    where x2 has w < 0 in its row.  In phase 2 x2 enters, and that pinned
    artificial blocks it at a zero step."""
    prob = LpProblem(c=[2.0, -1.0, 1.0],
                     A_eq=[[1.0, 1.0, 1.0], [0.0, -1.0, 0.0], [2.0, 2.0, 2.0]],
                     b_eq=[1.0, 0.0, 2.0])
    pinned_blocks, ratio = [], lin_solve._Simplex._ratio

    def spy(sx, w, bland):
        pinned_blocks.append(sx.pinned and bool(np.any(sx.art & (w < -1e-10))))
        return ratio(sx, w, bland)

    monkeypatch.setattr(lin_solve._Simplex, "_ratio", spy)
    res = lp_solve(prob)
    assert any(pinned_blocks)
    assert res.status == OPTIMAL and res.basis is None
    ref = _scipy_solve(prob)
    assert ref.status == 0
    assert res.objective == pytest.approx(ref.fun, rel=1e-12, abs=1e-12)
    assert np.max(np.abs(prob.A_eq @ res.x - prob.b_eq)) <= 1e-12


def test_ratio_test_matches_the_full_array_reference():
    """_ratio divides only at the blocking positions; on seeded random basic
    values and columns, with forced ties, Bland's rule and pinned
    artificials, it returns the full-array reference's (t, r) bit for bit."""
    rng = np.random.default_rng(19)
    M, N = 9, 12
    sx = lin_solve._Simplex(LpProblem(c=np.zeros(N), A_eq=np.zeros((M, N)),
                                      b_eq=np.zeros(M)))
    seen = set()
    for _ in range(4000):
        w = rng.normal(size=M) * np.where(rng.random(M) < 0.2, 1e-10, 1.0)
        xB = rng.uniform(0.0, 2.0, M)
        tied = rng.random(M) < 0.4
        xB[tied] = 0.7 * np.abs(w[tied])
        xB[rng.random(M) < 0.15] = 0.0
        xB[rng.random(M) < 0.05] = -1e-9
        art = rng.random(M) < 0.3
        sx.xB, sx.art, sx.n_art = xB, art, int(art.sum())
        sx.basis = np.where(art, N + np.arange(M), rng.permutation(N)[:M])
        sx.pinned, bland = bool(rng.random() < 0.5), bool(rng.random() < 0.3)
        t, r = sx._ratio(w, bland)
        t_ref, r_ref = oracle_utils.full_ratio_test(xB, w, art, sx.basis,
                                                    sx.pinned, bland)
        assert r == r_ref and t.hex() == t_ref.hex()
        if r is not None:
            seen.add("bland" if bland else "dantzig")
            seen.update(["pinned"] if sx.art[r] and w[r] < 0 else [])
            seen.update(["tie"] if np.sum(tied & (w > 1e-10)) > 1
                        and abs(t - 0.7) < 1e-12 else [])
        else:
            seen.add("unblocked")
    assert seen == {"bland", "dantzig", "pinned", "tie", "unblocked"}


def test_mu_lp_chain_warm_starts_match_scipy(bundled_mats):
    """mu-LP at delta_k, delta-step onto mu_k's hyperplane, then the mu-LP at
    delta_k+1 from mu_k's basis: the old basis is accepted (it reproduces
    mu_k), and every warm optimum matches scipy."""
    mats, eps = bundled_mats, 1e-3
    delta = _separable_delta(mats)
    res = lp_solve(_mu_problem(mats, delta, eps))
    assert res.status == OPTIMAL
    for _ in range(4):
        g = mats.B.T @ res.x
        delta = g * ((eps - float(res.x @ mats.c)) / float(g @ g))
        prob = _mu_problem(mats, delta, eps)
        basis, kept = res.basis, res.basis.copy()
        assert lin_solve._Simplex(prob).warm_start(basis)
        res = lp_solve(prob, basis=basis)
        # the caller's basis is not pivoted in place
        np.testing.assert_array_equal(basis, kept)
        ref = _scipy_solve(prob)
        assert res.status == OPTIMAL and ref.status == 0
        assert res.objective == pytest.approx(ref.fun, rel=1e-9)
        assert np.max(np.abs(prob.A_eq @ res.x - prob.b_eq)) <= 1e-9
        assert res.x.min() >= -1e-12


def test_check_feasible_gordan_branch():
    """m <= n generic rows leave {y >= 0 : rows^T y = 0, 1^T y = 1} empty, so
    the witness must come from a Gordan direction rows z < 0."""
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, n + 1))
        rows = rng.normal(size=(m, n))
        rhs = rng.normal(loc=-1.0, size=m)
        wide = linprog(rhs, A_eq=np.vstack([rows.T, np.ones((1, m))]),
                       b_eq=np.eye(n + 1)[-1], bounds=(0, None), method="highs")
        assert wide.status == 2
        feas, x, ray = check_feasible(rows, rhs)
        assert feas and ray is None
        assert np.max(rows @ x - rhs) <= 1e-9


def test_check_feasible_witness_and_ray():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    feas, x, ray = check_feasible(rows, np.array([1.0, 1.0, -0.5]))
    assert feas and np.max(rows @ x - [1.0, 1.0, -0.5]) <= 1e-8

    feas, x, ray = check_feasible(rows, np.array([1.0, 1.0, -3.0]))
    assert not feas
    assert np.all(ray >= 0) and ray.sum() == pytest.approx(1.0)
    assert np.max(np.abs(rows.T @ ray)) <= lin_solve._CERT_TOL
    assert ray @ [1.0, 1.0, -3.0] < 0


# -- projections --------------------------------------------------------------


def _kkt_projection(g, margin):
    """Independent oracle: equality-constrained QP min d^T d s.t. g^T d = -margin
    solved through its dense KKT system."""
    n = g.size
    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = 2.0 * np.eye(n)
    K[:n, n] = g
    K[n, :n] = g
    rhs = np.zeros(n + 1)
    rhs[n] = -margin
    sol = np.linalg.solve(K, rhs)
    return sol[:n]


def test_project_fixed_matches_kkt_oracle():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n_p, n_d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = rng.normal(size=n_p)
        b = rng.normal(size=n_d)
        c = float(rng.normal())
        p0 = rng.normal(size=n_p)
        res = project_policy(p0, None, a, b, c)
        margin = float(a @ p0 + c)
        ref = _kkt_projection(b, margin)
        assert res.delta == pytest.approx(ref, abs=1e-9)
        assert res.norm_sq == pytest.approx(float(res.delta @ res.delta), abs=1e-12)
        # the row is tight at the projected point
        assert abs(a @ p0 + b @ res.delta + c) <= 1e-9


def test_project_policy_matches_kkt_oracle():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        n_p, n_d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = rng.normal(size=n_p)
        b = rng.normal(size=n_d)
        G = rng.normal(size=(n_p, n_d))
        c = float(rng.normal())
        p0 = rng.normal(size=n_p)
        res = project_policy(p0, G, a, b, c)
        margin = float(a @ p0 + c)
        g = G.T @ a + b
        ref = _kkt_projection(g, margin)
        assert res.delta == pytest.approx(ref, abs=1e-9)
        # tightness under the response: a^T(p0 + G d) + b^T d + c = 0
        assert abs(a @ (p0 + G @ res.delta) + b @ res.delta + c) <= 1e-9


def test_projection_no_cheaper_point_sampled():
    """Sampled optimality: no random point on the target hyperplane beats the
    closed form."""
    rng = np.random.default_rng(9)
    a = np.array([1.0, -2.0])
    b = np.array([0.5, 1.5, -1.0])
    c = -3.0
    p0 = np.array([0.3, 0.9])
    res = project_policy(p0, None, a, b, c)
    margin = a @ p0 + c
    for _ in range(500):
        d = rng.normal(size=3)
        # project the sample onto the hyperplane b^T d = -margin
        d = d - (b @ d + margin) / (b @ b) * b
        assert d @ d >= res.norm_sq - 1e-9


def test_project_policy_reduces_to_fixed_at_zero_gain():
    rng = np.random.default_rng(10)
    for _ in range(50):
        a = rng.normal(size=4)
        b = rng.normal(size=3)
        c = float(rng.normal())
        p0 = rng.normal(size=4)
        res_f = project_policy(p0, None, a, b, c)
        res_p = project_policy(p0, np.zeros((4, 3)), a, b, c)
        assert res_p.norm_sq == pytest.approx(res_f.norm_sq, abs=1e-12)
        if res_f.delta is not None:
            assert res_p.delta == pytest.approx(res_f.delta, abs=1e-12)


def test_projection_degenerate_rows():
    a = np.array([1.0])
    p0 = np.array([0.0])
    zero_b = np.zeros(2)
    # slack row insensitive to delta: uncrossable
    res = project_policy(p0, None, a, zero_b, -1.0)
    assert res.norm_sq == np.inf and res.delta is None
    # tight insensitive row: crossed at zero distance
    res = project_policy(p0, None, a, zero_b, 0.0)
    assert res.norm_sq == 0.0
    # tight sensitive row
    res = project_policy(p0, None, a, np.array([2.0, 0.0]), 0.0)
    assert res.norm_sq == 0.0
    assert res.delta == pytest.approx([0.0, 0.0], abs=1e-15)
