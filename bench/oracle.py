"""Independent checks of every bound the benchmark times.

Nothing here calls the package's solvers.  `ub` is confirmed with scipy's
HiGHS on the bus-angle form of DC-OPF, built straight from the parsed case
(not from the package's PTDF reduction): the load (1 + 1e-4) * delta must
leave no feasible dispatch.  A Farkas multiplier is re-checked in plain numpy
against the package's (A, B, c).  `lb` is recomputed as the exact policy
radius from the reported p0 and G.

Each check returns a list of failure strings; an empty list is a pass.
"""

import numpy as np

INFLATION = 1e-4          # ub is checked at (1 + INFLATION) * delta
FEAS_TOL = 1e-8           # matches the package's feasibility tolerance
LB_RTOL = 1e-7
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-9,
                 "dual_feasibility_tolerance": 1e-9}


def dispatch_feasible(case, load_pos, delta):
    """True when some dispatch serves loads p_d + delta (delta on the buses
    at dense positions `load_pos`) within unit limits and line ratings.
    Variables: unit outputs p and bus angles theta, theta[0] = 0."""
    from scipy.optimize import linprog

    n_b, n_g = case.n_bus, case.n_gen
    pos = case.bus_position()
    E = np.zeros((case.n_branch, n_b))
    b = np.array([br.b for br in case.branches])
    for k, br in enumerate(case.branches):
        E[k, pos[br.f_bus]], E[k, pos[br.t_bus]] = 1.0, -1.0
    flow = b[:, None] * E                     # branch flows = flow @ theta
    gen_at = np.zeros((n_b, n_g))
    for g, gen in enumerate(case.generators):
        gen_at[pos[gen.bus], g] = 1.0
    load = np.array([bus.p_d for bus in case.buses])
    load[np.asarray(load_pos)] += np.asarray(delta, float)

    A_eq = np.hstack([gen_at, -E.T @ flow])   # injections = B_bus theta
    rated = [k for k, br in enumerate(case.branches) if br.rate is not None]
    rates = np.array([case.branches[k].rate for k in rated])
    F = np.hstack([np.zeros((len(rated), n_g)), flow[rated]])
    bounds = ([(g.p_min, g.p_max) for g in case.generators]
              + [(0.0, 0.0)] + [(None, None)] * (n_b - 1))
    res = linprog(np.zeros(n_g + n_b), A_ub=np.vstack([F, -F]),
                  b_ub=np.concatenate([rates, rates]), A_eq=A_eq, b_eq=load,
                  bounds=bounds, method="highs", options=HIGHS_OPTIONS)
    if res.status not in (0, 2):
        raise RuntimeError(f"oracle LP ended with status {res.status}: {res.message}")
    return res.status == 0


def check_ub(case, mats, ub, delta):
    delta = np.asarray(delta, float)
    fails = []
    if not np.isclose(float(delta @ delta), ub, rtol=1e-9, atol=0.0):
        fails.append(f"ub {ub!r} is not ||delta||^2 = {float(delta @ delta)!r}")
    if dispatch_feasible(case, mats.load_pos, (1.0 + INFLATION) * delta):
        fails.append("a dispatch exists at (1 + 1e-4) * delta: ub not certified")
    return fails


def check_farkas(mats, delta, mu):
    """mu >= 0, A^T mu ~ 0 and mu^T (B delta + c) > 0.  The last is required
    to beat the worst the A^T mu residual can do over the unit limits, so
    the check is sound, not just small residuals."""
    mu = np.asarray(mu, float)
    fails = []
    if mu.min() < -1e-12 * max(1.0, float(np.abs(mu).max())):
        fails.append(f"mu has a negative entry {mu.min()!r}")
    mu = np.maximum(mu, 0.0)
    resid = float(np.abs(mats.A.T @ mu).max()) if mats.A.size else 0.0
    lo, hi = mats.case.gen_bounds()
    box = float(np.maximum(np.abs(lo), np.abs(hi))[mats.gen_order].sum())
    sep = float(mu @ (mats.B @ delta + mats.c))
    if not sep > resid * box:
        fails.append(f"mu^T(B delta + c) = {sep!r} does not beat "
                     f"||A^T mu||_inf * ||p||_1 = {resid * box!r}")
    return fails


def policy_radius(mats, p0, G):
    """Exact radius of p(delta) = p0 + G delta: min over rows of
    (a_i^T p0 + c_i)^2 / ||G^T a_i + b_i||^2, rows with a zero direction
    left out.  Returns (t, worst margin)."""
    p0 = np.asarray(p0, float)
    G = np.asarray(G, float).reshape(mats.n_reduced, mats.n_delta)
    margin = mats.A @ p0 + mats.c
    direction = mats.A @ G + mats.B
    den = (direction ** 2).sum(axis=1)
    live = den > 0.0
    t = float((margin[live] ** 2 / den[live]).min()) if live.any() else np.inf
    return t, float(margin.max())


def check_lb(mats, lb, ub, p0, G):
    fails = []
    t, worst = policy_radius(mats, p0, G)
    if worst > FEAS_TOL:
        fails.append(f"policy p0 violates a row by {worst!r}")
    if not abs(t - lb) <= LB_RTOL * max(abs(lb), 1e-5):
        fails.append(f"lb {lb!r} differs from the recomputed radius {t!r}")
    if ub is not None and not lb <= ub + 1e-6:
        fails.append(f"lb {lb!r} > ub {ub!r} + 1e-6")
    return fails
