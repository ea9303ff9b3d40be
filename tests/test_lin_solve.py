import types

import numpy as np
import pytest
from scipy.optimize import linprog

from dcattack import lin_solve
from dcattack.attack import AttackConfig, multistart_attack
from dcattack.dc_model import build_feasibility
from dcattack.errors import DeadlineSignal, SolverError
from dcattack.lin_solve import (
    OPTIMAL, UNBOUNDED, LpProblem, check_feasible, lp_solve,
)

import oracle_utils
from conftest import bench_ladder


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


def _slacks(prob, T):
    """The slack basis of a `_standard` problem without equality rows,
    feasible when x0 meets every row."""
    return np.arange(T.shape[1], prob.c.size)


def _original(x_std, x0, T):
    return x0 + T @ x_std[:T.shape[1]]


def test_simple_bound():
    # min x s.t. x >= 1, with x = u+ - u- free: the one feasible basis is
    # u+ = 1, as the slack would be -1 at x0 = 0
    prob, x0, T = _standard([1.0], A_ub=[[-1.0]], b_ub=[-1.0])
    res = lp_solve(prob, [0])
    assert res.status == OPTIMAL
    assert _original(res.x, x0, T)[0] == pytest.approx(1.0, abs=1e-10)
    assert res.objective == pytest.approx(1.0, abs=1e-10)


def test_two_variable_vertex():
    # min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0, from the origin
    prob, x0, T = _standard([-1.0, -2.0], A_ub=[[1, 1]], b_ub=[4], lb=0.0,
                            ub=[3.0, 2.0])
    res = lp_solve(prob, _slacks(prob, T))
    assert res.status == OPTIMAL and res.iterations > 1
    assert _original(res.x, x0, T) == pytest.approx([2.0, 2.0], abs=1e-9)
    assert res.objective == pytest.approx(-6.0, abs=1e-9)


def test_equality_rows():
    # min x + y s.t. x + 2y = 3, x - y = 0  ->  x = y = 1
    res = lp_solve(LpProblem(c=[1.0, 1.0], A_eq=[[1, 2], [1, -1]], b_eq=[3, 0]),
                   [0, 1])
    assert res.status == OPTIMAL
    assert res.x == pytest.approx([1.0, 1.0], abs=1e-9)


def _assert_farkas_ray(rows, rhs, ray):
    assert np.all(ray >= 0) and ray.sum() == pytest.approx(1.0)
    assert np.max(np.abs(rows.T @ ray)) <= lin_solve._CERT_TOL
    assert ray @ rhs < 0


def test_infeasible_certificate():
    # x <= 1 and x >= 2 cannot both hold; the two rows are a unit's bound
    # rows, so y = (1/2, 1/2) is Q's crash basis
    rows, rhs = np.array([[1.0], [-1.0]]), np.array([1.0, -2.0])
    feas, x, ray = check_feasible(rows, rhs, [0, 1])
    assert not feas and x is None
    _assert_farkas_ray(rows, rhs, ray)


def test_infeasible_with_bounds():
    # a row forces x >= 5 while the bounds pin 0 <= x <= 1
    rows, rhs = np.array([[-1.0], [1.0], [-1.0]]), np.array([-5.0, 1.0, 0.0])
    feas, _x, ray = check_feasible(rows, rhs, [1, 2])
    assert not feas
    _assert_farkas_ray(rows, rhs, ray)
    assert ray[0] > 0


def test_unbounded_ray():
    # min -x with x >= 0 free above, from x = 0
    prob, x0, T = _standard([-1.0], A_ub=[[-1.0]], b_ub=[0.0])
    res = lp_solve(prob, _slacks(prob, T))
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
    res = lp_solve(prob, _slacks(prob, T))
    assert res.status == OPTIMAL
    assert _original(res.x, x0, T)[0] == pytest.approx(-3.0, abs=1e-9)


def _planted(rng, rows, cols, zeros=0.0, c=None):
    """min c^T x s.t. A x = b, x >= 0 with b = A_B x_B for a planted basis
    B of `rows` distinct columns and x_B >= 0, about a share `zeros` of it
    0 (a degenerate start); c > 0, which keeps the LP bounded, unless
    given.  Returns (prob, B)."""
    A = rng.normal(size=(rows, cols))
    basis = rng.permutation(cols)[:rows]
    x_B = np.where(rng.random(rows) < zeros, 0.0, rng.uniform(0.1, 2.0, rows))
    c = rng.uniform(0.1, 2.0, size=cols) if c is None else c
    return LpProblem(c=c, A_eq=A, b_eq=A[:, basis] @ x_B), basis


def _scipy_solve(prob):
    return linprog(prob.c, A_eq=prob.A_eq if prob.A_eq.size else None,
                   b_eq=prob.b_eq if prob.b_eq.size else None,
                   bounds=(0, None), method="highs")


def test_random_lps_match_reference_solver():
    """Dual-route check on 200 random LPs with a planted feasible basis, half
    of them degenerate, against scipy HiGHS: the same optimum, a point, duals
    that close the gap and price every column, or a verified ray."""
    rng = np.random.default_rng(1234)
    statuses = {OPTIMAL: 0, UNBOUNDED: 0}
    for trial in range(200):
        rows = int(rng.integers(1, 9))
        cols = rows + int(rng.integers(1, 12))
        prob, basis = _planted(rng, rows, cols, zeros=0.3 * (trial % 2),
                               c=rng.normal(size=cols) if trial % 3 else None)
        res = lp_solve(prob, basis)
        ref = _scipy_solve(prob)
        if res.status == OPTIMAL:
            assert ref.status == 0, f"trial {trial}: we optimal, scipy {ref.status}"
            assert res.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7), \
                f"trial {trial}"
            assert np.max(np.abs(prob.A_eq @ res.x - prob.b_eq)) <= 1e-8
            assert np.all(res.x >= -1e-8)
            # strong duality, and no column prices below zero
            assert float(prob.b_eq @ res.y) == \
                pytest.approx(res.objective, abs=1e-8 * (1 + abs(res.objective)))
            assert np.min(prob.c - prob.A_eq.T @ res.y) >= -1e-8
        else:
            assert ref.status == 3, f"trial {trial}: we unbounded, scipy {ref.status}"
            ray = res.ray
            assert prob.c @ ray < 0
            assert np.all(ray >= 0)
            assert np.max(np.abs(prob.A_eq @ ray)) <= 1e-7 * (1 + np.max(np.abs(ray)))
        statuses[res.status] += 1
    # the draw should exercise both outcomes
    assert statuses[OPTIMAL] > 100 and statuses[UNBOUNDED] > 10, statuses


def test_farkas_certificate_rejects_corrupted_vectors():
    """`normalize_farkas_ray` re-derives y >= 0, rows^T y = 0 and y @ rhs < 0
    itself: on every draw, made infeasible by a poison row, check_feasible's
    ray passes it, and the negated ray and one with a unit weight added on
    one row both fail.  Each draw ends with box rows, so Q starts from the
    crash basis of every upper row and the first lower one."""
    rng = np.random.default_rng(1234)
    checked = 0
    for _ in range(200):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 13))
        x0 = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = A @ x0 + rng.uniform(0.1, 2.0, size=m)
        # the negated sum of the rows with an rhs that forces 0 <= -gap
        A = np.vstack([A, -A.sum(axis=0), np.eye(n), -np.eye(n)])
        width = rng.uniform(0.5, 3.0, size=n)
        rhs = np.concatenate([b, [-b.sum() - rng.uniform(0.5, 2.0)],
                              x0 + width, width - x0])
        crash = np.append(np.arange(m + 1, m + n + 1), m + n + 1)
        feas, _x, ray = check_feasible(A, rhs, crash)
        assert not feas and not oracle_utils.scipy_feasible(A, rhs)
        np.testing.assert_allclose(
            lin_solve.normalize_farkas_ray(A, rhs, ray), ray, rtol=1e-12)
        with pytest.raises(SolverError, match="degenerate"):
            lin_solve.normalize_farkas_ray(A, rhs, -ray)
        # weight on x_1's upper box row puts about 1/2 in rows^T y
        pushed = ray.copy()
        pushed[m + 1] += 1.0
        with pytest.raises(SolverError, match="re-verification"):
            lin_solve.normalize_farkas_ray(A, rhs, pushed)
        checked += 1
    assert checked == 200


def test_degenerate_stacked_rows():
    # many redundant copies of the same facet: stalls must not cycle
    A = np.vstack([np.tile([1.0, 1.0], (8, 1)), [[-1, 0]], [[0, -1]]])
    b = np.concatenate([np.full(8, 1.0), [0.0, 0.0]])
    prob, _x0, T = _standard([-1.0, -1.0], A_ub=A, b_ub=b)
    res = lp_solve(prob, _slacks(prob, T))
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-1.0, abs=1e-9)


# -- start bases ---------------------------------------------------------------


def _mu_problem(mats, delta, eps=1e-3):
    """A wide LP whose last row moves with delta (a warm start across a row
    change): min 1^T mu s.t. A^T mu = 0, (B delta + c)^T mu = eps."""
    sep = mats.B @ delta + mats.c
    b_eq = np.zeros(mats.n_reduced + 1)
    b_eq[-1] = eps
    return LpProblem(c=np.ones(mats.m), A_eq=np.vstack([mats.A.T, sep]),
                     b_eq=b_eq)


def _mu_start(mats, delta):
    """A feasible basis of `_mu_problem(mats, delta)`: the optimal one of
    max (B delta)^T mu over P, from P's crash basis.  Its vertex mu has
    (B delta)^T mu > 1 when F(delta) is empty, so the same columns stay
    nonsingular under the mu-LP's last row and hold
    mu eps / (B delta + c)^T mu >= 0."""
    res = lp_solve(mats.polytope.with_objective(-(mats.B @ delta)),
                   mats.crash_basis())
    assert res.status == OPTIMAL and -res.objective > 1.0
    return res.warm.basis


def _separable_delta(mats):
    """A point just past the feasibility boundary along uniform load growth."""
    u = np.ones(mats.n_delta) / np.sqrt(mats.n_delta)
    s = oracle_utils.direction_boundary(mats, u)
    return u * (1.01 * s + 1e-6)


def _assert_warm_optimal(prob, start):
    first = lp_solve(prob, start)
    ref = _scipy_solve(prob)
    assert first.status == OPTIMAL and ref.status == 0
    again = lp_solve(prob, first.warm.basis)
    assert again.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-12)
    assert again.iterations == 1          # one pricing pass, no pivot
    np.testing.assert_array_equal(np.sort(again.warm.basis),
                                  np.sort(first.warm.basis))


def test_warm_start_at_the_optimal_basis_takes_no_pivot(bundled_mats):
    rng = np.random.default_rng(31)
    for _ in range(10):
        rows = int(rng.integers(1, 8))
        _assert_warm_optimal(*_planted(rng, rows, rows + int(rng.integers(1, 20))))
    delta = _separable_delta(bundled_mats)
    _assert_warm_optimal(_mu_problem(bundled_mats, delta),
                         _mu_start(bundled_mats, delta))


def _same_result(a, b, label=""):
    """Two LpResults agree to the bit in every field a later solve reads."""
    assert (a.status, a.iterations, a.objective) == \
        (b.status, b.iterations, b.objective), label
    for name in ("x", "y"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), \
            (label, name)
    for name in ("basis", "B_inv"):
        assert getattr(a.warm, name).tobytes() == \
            getattr(b.warm, name).tobytes(), (label, name)


def test_malformed_bases_raise_solver_error():
    """A start basis that fails a check raises SolverError naming it, bare
    or wrapped in a WarmStart built by a caller: a wrong size, an index out
    of range, a repeated index, a singular B and an x_B below 0.  The
    planted basis still solves."""
    rng = np.random.default_rng(32)
    prob, start = _planted(rng, 5, 14)
    n_real = prob.c.size
    dup = start.copy()
    dup[1] = dup[0]
    bad = {"short": (start[:-1], "has 4 columns"),
           "long": (np.append(start, 0), "has 6 columns"),
           "duplicate": (dup, "repeats a column")}
    for name, index in (("one past the end", n_real),
                        ("far out of range", n_real + 50), ("negative", -1)):
        b = start.copy()
        b[0] = index
        bad[name] = (b, "outside")
    # a basis that factorizes but whose basic solution leaves x >= 0
    infeasible = None
    for cols in (rng.permutation(n_real)[:5] for _ in range(200)):
        B = prob.A_eq[:, cols]
        if abs(np.linalg.det(B)) > 1e-3 and \
                np.min(np.linalg.solve(B, prob.b_eq)) < -1e-3:
            infeasible = cols
            break
    assert infeasible is not None
    bad["primal-infeasible"] = (infeasible, "x_B >= 0")
    for name, (basis, message) in bad.items():
        for given in (basis, lin_solve.WarmStart(basis, np.eye(5))):
            with pytest.raises(SolverError, match=message):
                lp_solve(prob, given)
    # columns 0 and 1 made identical: any basis holding both is singular
    twin = LpProblem(c=prob.c, A_eq=prob.A_eq.copy(), b_eq=prob.b_eq)
    twin.A_eq[:, 1] = twin.A_eq[:, 0]
    with pytest.raises(SolverError, match="singular"):
        lp_solve(twin, np.array([0, 1, 2, 3, 4]))
    res = lp_solve(prob, start)
    assert res.objective == pytest.approx(_scipy_solve(prob).fun, rel=1e-9)


def test_ratio_test_matches_the_full_array_reference():
    """_ratio divides only at the blocking positions; on seeded random basic
    values and columns, with forced ties and Bland's rule, it returns the
    full-array reference's (t, r) bit for bit."""
    rng = np.random.default_rng(19)
    M, N = 9, 12
    sx = lin_solve._Simplex(LpProblem(c=np.zeros(N), A_eq=np.eye(M, N),
                                      b_eq=np.ones(M)), np.arange(M))
    seen = set()
    for _ in range(4000):
        w = rng.normal(size=M) * np.where(rng.random(M) < 0.2, 1e-10, 1.0)
        xB = rng.uniform(0.0, 2.0, M)
        tied = rng.random(M) < 0.4
        xB[tied] = 0.7 * np.abs(w[tied])
        xB[rng.random(M) < 0.15] = 0.0
        xB[rng.random(M) < 0.05] = -1e-9
        sx.xB, sx.basis = xB, rng.permutation(N)[:M]
        bland = bool(rng.random() < 0.3)
        t, r = sx._ratio(w, bland)
        t_ref, r_ref = oracle_utils.full_ratio_test(xB, w, sx.basis, bland)
        assert r == r_ref and t.hex() == t_ref.hex()
        if r is not None:
            seen.add("bland" if bland else "dantzig")
            seen.update(["tie"] if np.sum(tied & (w > 1e-10)) > 1
                        and abs(t - 0.7) < 1e-12 else [])
        else:
            seen.add("unblocked")
    assert seen == {"bland", "dantzig", "tie", "unblocked"}


def test_mu_lp_chain_warm_starts_match_scipy(bundled_mats):
    """mu-LP at delta_k, delta-step onto mu_k's hyperplane, then the mu-LP at
    delta_k+1 from mu_k's basis: the old basis is accepted (it reproduces
    mu_k), and every warm optimum matches scipy."""
    mats, eps = bundled_mats, 1e-3
    delta = _separable_delta(mats)
    res = lp_solve(_mu_problem(mats, delta, eps), _mu_start(mats, delta))
    assert res.status == OPTIMAL
    for _ in range(4):
        g = mats.B.T @ res.x
        delta = g * ((eps - float(res.x @ mats.c)) / float(g @ g))
        prob = _mu_problem(mats, delta, eps)
        basis, kept = res.warm.basis, res.warm.basis.copy()
        lin_solve._Simplex(prob, basis)     # raises unless the checks pass
        res = lp_solve(prob, basis)
        # the caller's basis is not pivoted in place
        np.testing.assert_array_equal(basis, kept)
        ref = _scipy_solve(prob)
        assert res.status == OPTIMAL and ref.status == 0
        assert res.objective == pytest.approx(ref.fun, rel=1e-9)
        assert np.max(np.abs(prob.A_eq @ res.x - prob.b_eq)) <= 1e-9
        assert res.x.min() >= -1e-12


def test_check_feasible_witness_and_ray():
    # y = 1/3 on each row is the one point of Q
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    feas, x, ray = check_feasible(rows, np.array([1.0, 1.0, -0.5]), np.arange(3))
    assert feas and np.max(rows @ x - [1.0, 1.0, -0.5]) <= 1e-8

    feas, x, ray = check_feasible(rows, np.array([1.0, 1.0, -3.0]), np.arange(3))
    assert not feas
    _assert_farkas_ray(rows, np.array([1.0, 1.0, -3.0]), ray)


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
        delta = oracle_utils.one_row(a, b, c).crossing(p0, None, 0)
        margin = float(a @ p0 + c)
        ref = _kkt_projection(b, margin)
        assert delta == pytest.approx(ref, abs=1e-9)
        assert oracle_utils.row_radius(a, b, c, p0) == \
            pytest.approx(float(delta @ delta), abs=1e-12)
        # the row is tight at the projected point
        assert abs(a @ p0 + b @ delta + c) <= 1e-9


def test_crossing_under_a_policy_matches_kkt_oracle():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        n_p, n_d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = rng.normal(size=n_p)
        b = rng.normal(size=n_d)
        G = rng.normal(size=(n_p, n_d))
        c = float(rng.normal())
        p0 = rng.normal(size=n_p)
        delta = oracle_utils.one_row(a, b, c).crossing(p0, G, 0)
        margin = float(a @ p0 + c)
        g = G.T @ a + b
        ref = _kkt_projection(g, margin)
        assert delta == pytest.approx(ref, abs=1e-9)
        # tightness under the response: a^T(p0 + G d) + b^T d + c = 0
        assert abs(a @ (p0 + G @ delta) + b @ delta + c) <= 1e-9


def test_projection_no_cheaper_point_sampled():
    """Sampled optimality: no random point on the target hyperplane beats the
    closed form."""
    rng = np.random.default_rng(9)
    a = np.array([1.0, -2.0])
    b = np.array([0.5, 1.5, -1.0])
    c = -3.0
    p0 = np.array([0.3, 0.9])
    norm_sq = oracle_utils.row_radius(a, b, c, p0)
    margin = a @ p0 + c
    for _ in range(500):
        d = rng.normal(size=3)
        # project the sample onto the hyperplane b^T d = -margin
        d = d - (b @ d + margin) / (b @ b) * b
        assert d @ d >= norm_sq - 1e-9


def test_crossing_reduces_to_fixed_at_zero_gain():
    rng = np.random.default_rng(10)
    for _ in range(50):
        a = rng.normal(size=4)
        b = rng.normal(size=3)
        c = float(rng.normal())
        p0 = rng.normal(size=4)
        G = np.zeros((4, 3))
        assert oracle_utils.row_radius(a, b, c, p0, G) == \
            pytest.approx(oracle_utils.row_radius(a, b, c, p0), abs=1e-12)
        row = oracle_utils.one_row(a, b, c)
        d_f = row.crossing(p0, None, 0)
        if d_f is not None:
            assert row.crossing(p0, G, 0) == pytest.approx(d_f, abs=1e-12)


def test_projection_degenerate_rows():
    a = np.array([1.0])
    p0 = np.array([0.0])
    zero_b = np.zeros(2)
    # slack row insensitive to delta: uncrossable
    assert oracle_utils.row_radius(a, zero_b, -1.0, p0) == np.inf
    assert oracle_utils.one_row(a, zero_b, -1.0).crossing(p0, None, 0) is None
    # tight insensitive row: no delta moves it either
    assert oracle_utils.one_row(a, zero_b, 0.0).crossing(p0, None, 0) is None
    # tight sensitive row
    b = np.array([2.0, 0.0])
    assert oracle_utils.row_radius(a, b, 0.0, p0) == 0.0
    assert oracle_utils.one_row(a, b, 0.0).crossing(p0, None, 0) == \
        pytest.approx([0.0, 0.0], abs=1e-15)


# -- phase-2 perturbation, carried inverse, deadline ---------------------------


def _p_chain(mats, steps, seed):
    """An ascent's chain of LPs over the Farkas polytope P = {mu >= 0 :
    A^T mu = 0, -c^T mu = 1}, whose right-hand side is one unit entry, so
    its vertices are highly degenerate: max (B g)^T mu from P's crash basis,
    then g = B^T mu with the optimal basis and its inverse carried to the
    next step.  Returns [(prob, result)]."""
    P = mats.polytope
    g = np.random.default_rng(seed).normal(size=mats.n_delta)
    out, warm = [], mats.crash_basis()
    for _ in range(steps):
        prob = P.with_objective(-(mats.B @ g))
        res = lp_solve(prob, warm)
        assert res.status == OPTIMAL
        out.append((prob, res))
        g, warm = mats.B.T @ np.maximum(res.x, 0.0), res.warm
    return out


def _assert_scipy_optimum(prob, res):
    ref = _scipy_solve(prob)
    assert res.status == OPTIMAL and ref.status == 0
    assert res.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-12)
    assert np.max(np.abs(prob.A_eq @ res.x - prob.b_eq)) <= lin_solve.FEAS_TOL
    assert res.x.min() >= -lin_solve.FEAS_TOL


def test_a_perturbed_p_lp_chain_meets_the_original_rows(monkeypatch):
    """Each step of a degenerate P-LP chain runs phase 2 on the shifted
    right-hand side; the returned x is read at the restored one, so it meets
    the original rows to FEAS_TOL and matches scipy's optimum, and the basis
    inverse it hands on is inv(A_eq[:, basis]) to the bit."""
    mats = build_feasibility(bench_ladder(120, 0, False))
    shifted, shift = [], lin_solve._shift
    monkeypatch.setattr(lin_solve, "_shift", lambda M: shifted.append(M) or shift(M))
    degenerate = 0
    for prob, res in _p_chain(mats, 4, seed=11):
        _assert_scipy_optimum(prob, res)
        degenerate += int(np.sum(res.x[res.warm.basis] <= lin_solve.FEAS_TOL))
        inv = np.linalg.inv(prob.A_eq[:, res.warm.basis])
        assert [v.hex() for v in res.warm.B_inv.ravel()] == \
            [v.hex() for v in inv.ravel()]
    # the vertices hold basic columns at 0
    assert len(shifted) == 4 and degenerate > 4


def test_a_failed_restore_falls_back_to_an_unperturbed_solve(monkeypatch):
    """A shift far too large leaves a final basis that the restored b makes
    infeasible: the solve starts again without the shift, from the basis
    the caller gave, and still reaches scipy's optimum."""
    monkeypatch.setattr(lin_solve, "_shift", lambda M: np.full(M, 0.5))
    calls, solve = [], lin_solve._solve

    def spy(prob, basis, deadline, perturb):
        calls.append((perturb, basis))
        return solve(prob, basis, deadline, perturb)

    monkeypatch.setattr(lin_solve, "_solve", spy)
    mats = build_feasibility(bench_ladder(60, 0, False))
    for prob, res in _p_chain(mats, 6, seed=11):
        _assert_scipy_optimum(prob, res)
    flags = [perturb for perturb, _basis in calls]
    assert flags.count(True) == 6 and flags.count(False) >= 1
    for (perturb, basis), (again, start) in zip(calls, calls[1:]):
        assert again or (perturb and start is basis)


def test_a_corrupted_carried_inverse_is_rejected():
    """A WarmStart on arrays other than the ones it was solved on, or built
    by a caller, is re-entered as its bare basis: its carried B_inv is not
    read, so a NaN-filled, scaled, damaged or misshapen one gives the bare
    basis's solve to the bit, which matches scipy.  The caller's arrays are
    not edited by the pivots."""
    mats = build_feasibility(bench_ladder(30, 2, False))
    (_p0, first), (prob, _res) = _p_chain(mats, 2, seed=4)
    basis, inv = first.warm.basis, first.warm.B_inv
    kept = (basis.copy(), inv.copy())
    bare = lp_solve(prob, basis)
    assert bare.iterations > 1
    rows, nan = (prob.A_eq.copy(), prob.b_eq.copy()), np.full_like(inv, np.nan)
    for name, bad, on in (("sound", inv, None), ("nan", nan, None),
                          ("nan, other rows", nan, rows),
                          ("scaled", inv * (1 + 1e-6), None),
                          ("one column", inv + np.eye(len(inv))[0] * 1e-3, None),
                          ("shape", inv[:-1], rows)):
        res = lp_solve(prob, lin_solve.WarmStart(basis, bad, on))
        _same_result(res, bare, name)
    _assert_scipy_optimum(prob, bare)
    np.testing.assert_array_equal(basis, kept[0])
    assert inv.tobytes() == kept[1].tobytes()


def test_a_carried_inverse_with_a_duplicated_basis_is_rejected():
    """A WarmStart whose basis repeats an index is rejected whatever inverse
    comes with it, a true inverse of the other columns or a pseudo-inverse
    of the singular B: the solve raises SolverError naming the check.  The
    caller's arrays are not edited."""
    mats = build_feasibility(bench_ladder(30, 2, False))
    (_p0, first), (prob, _res) = _p_chain(mats, 2, seed=4)
    basis, inv = first.warm.basis, first.warm.B_inv
    kept = (basis.copy(), inv.copy())
    dup = basis.copy()
    dup[1] = dup[0]
    for name, bad in (("inverse", inv),
                      ("pseudo-inverse", np.linalg.pinv(prob.A_eq[:, dup]))):
        with pytest.raises(SolverError, match="repeats a column"):
            lp_solve(prob, lin_solve.WarmStart(dup, bad))
    np.testing.assert_array_equal(basis, kept[0])
    assert inv.tobytes() == kept[1].tobytes()


def _spy_inv(monkeypatch):
    calls, real = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv",
                        lambda a: calls.append(a.shape) or real(a))
    return calls


def test_an_own_warm_start_reenters_its_rows_without_reproof(monkeypatch):
    """An `LpResult.warm` re-entered on the very A_eq and b_eq arrays it was
    solved on skips the index checks and takes no inverse: a re-entry that
    makes no pivot takes none at all, and both it and a re-entry that
    pivots are the bare basis's solves to the bit.  On a copy of the rows,
    equal but not the same arrays, the same WarmStart is re-entered as its
    bare basis, with exactly one inverse, to the same bits."""
    mats = build_feasibility(bench_ladder(30, 2, False))
    (own, first), (prob, _res) = _p_chain(mats, 2, seed=4)
    assert prob.A_eq is own.A_eq and prob.b_eq is own.b_eq
    assert first.warm.rows[0] is own.A_eq and first.warm.rows[1] is own.b_eq
    twin = LpProblem(c=own.c, A_eq=own.A_eq.copy(), b_eq=own.b_eq.copy())
    bare = {name: lp_solve(p, first.warm.basis)
            for name, p in (("own", own), ("next", prob), ("twin", twin))}
    calls = _spy_inv(monkeypatch)
    again = lp_solve(own, first.warm)
    assert again.iterations == 1 and calls == []
    _same_result(again, bare["own"], "no pivot")
    step = lp_solve(prob, first.warm)
    assert step.iterations > 1
    _same_result(step, bare["next"], "pivots")
    calls.clear()
    copy = lp_solve(twin, first.warm)
    assert copy.iterations == 1 and len(calls) == 1
    _same_result(copy, bare["twin"], "copy of the rows")


def test_every_optimal_warm_reenters_on_its_own_arrays(bundled_mats,
                                                       monkeypatch):
    """Along P-LP chains of the bundled networks, every optimum's `warm`
    names the very arrays it was solved on, which every later P-LP shares,
    and re-enters there on its x_B checks alone: no inverse is taken, and
    the carried one is kept to the bit."""
    for seed in range(3):
        chain = _p_chain(bundled_mats, 4, seed)
        calls = _spy_inv(monkeypatch)
        for prob, res in chain:
            assert res.warm.rows[0] is prob.A_eq is chain[0][0].A_eq
            assert res.warm.rows[1] is prob.b_eq is chain[0][0].b_eq
            sx = lin_solve._Simplex(chain[-1][0], res.warm)
            assert sx.B_inv.tobytes() == res.warm.B_inv.tobytes()
        assert calls == []
        monkeypatch.undo()


def test_an_own_warm_start_that_fails_its_x_checks_is_proved_afresh():
    """An own WarmStart whose B_inv was doubled in place fails the residual
    check B x_B = b_eq that re-entry keeps; it is then re-entered as its
    bare basis with a fresh inverse, so the solve is the bare basis's to
    the bit."""
    mats = build_feasibility(bench_ladder(30, 2, False))
    (_own, first), (prob, _res) = _p_chain(mats, 2, seed=4)
    bare = lp_solve(prob, first.warm.basis)
    warm = first.warm
    warm.B_inv[:] *= 2.0
    Bmat = prob.A_eq[:, warm.basis]
    assert abs(Bmat @ (warm.B_inv @ prob.b_eq) - prob.b_eq).max() \
        > lin_solve.FEAS_TOL
    sx = lin_solve._Simplex(prob, warm)
    assert sx.B_inv.tobytes() == np.linalg.inv(Bmat).tobytes()
    _same_result(lp_solve(prob, warm), bare)


def test_every_short_reentry_passes_the_full_checks(monkeypatch):
    """During a multistart, every own WarmStart that re-entry accepts on
    its x_B checks alone is accepted as its bare basis too, with the same
    inverse and x_B to the bit."""
    mats = build_feasibility(bench_ladder(60, 0, False))
    real, short = lin_solve._Simplex._start, []

    def spy(sx, basis):
        if isinstance(basis, lin_solve.WarmStart) and basis.rows is not None \
                and basis.rows[0] is sx.A and basis.rows[1] is sx.b:
            rows = types.SimpleNamespace(A_eq=sx.A, b_eq=sx.b)
            idx = np.array(basis.basis)
            probe = object.__new__(lin_solve._Simplex)
            probe.A, probe.b, probe.b_scale = sx.A, sx.b, sx.b_scale
            if probe._enter(idx, np.array(basis.B_inv), sx.A[:, idx]) is None:
                full = lin_solve._Simplex(rows, idx)
                assert full.B_inv.tobytes() == probe.B_inv.tobytes()
                assert full.xB.tobytes() == probe.xB.tobytes()
                short.append(idx)
        return real(sx, basis)

    monkeypatch.setattr(lin_solve._Simplex, "_start", spy)
    multistart_attack(mats, AttackConfig(restarts=5, seed=0))
    assert len(short) >= 20, len(short)


def test_the_deadline_is_checked_at_each_refactorization(monkeypatch):
    """With a refactorization after every pivot and a clock past the
    deadline, a solve that pivots raises DeadlineSignal at its first pivot;
    one that needs no pivot, and one whose deadline is still ahead, finish."""
    monkeypatch.setattr(lin_solve, "_REFACTOR_EVERY", 1)
    monkeypatch.setattr(lin_solve, "time",
                        types.SimpleNamespace(monotonic=lambda: 10.0))
    prob, start = _planted(np.random.default_rng(32), 5, 14)
    first = lp_solve(prob, start)
    assert first.iterations > 1
    with pytest.raises(DeadlineSignal, match="after 1 pricing passes"):
        lp_solve(prob, start, deadline=5.0)
    assert lp_solve(prob, first.warm, deadline=5.0).iterations == 1
    assert lp_solve(prob, start, deadline=20.0).objective == first.objective
