"""Brute-force oracles for the desk cases, kept independent of the package's
own LP kernel: feasibility and boundary searches go through scipy's HiGHS
solver, and the extreme-ray route is plain linear algebra.  Expected attack
values in the tests were computed with these helpers and then frozen.
"""

import itertools
import re

import numpy as np
from scipy.optimize import linprog

from dcattack.case_ingest import (
    Branch, Bus, Generator, NetworkCase, validate_case,
)
from dcattack.dc_model import FeasibilityMatrices, build_ptdf


def scipy_feasible(A, rhs):
    """Is {p : A p <= rhs} nonempty, per scipy/HiGHS."""
    if A.shape[1] == 0:
        return bool(np.all(rhs >= 0))
    res = linprog(np.zeros(A.shape[1]), A_ub=A, b_ub=rhs,
                  bounds=(None, None), method="highs")
    if res.status == 0:
        return True
    if res.status == 2:
        return False
    raise RuntimeError(f"scipy feasibility probe failed: {res.message}")


def boundary_dispatch(mats, p, d):
    """Walk from p in F(0) along d, projected at each row it meets onto the
    face of the rows met so far, until no row blocks it.  Returns the
    dispatch reached: on the boundary of F(0), with every row met tight to
    rounding."""
    p, d, met = np.asarray(p, float), np.asarray(d, float), []
    while True:
        if met:
            _u, sv, vt = np.linalg.svd(mats.A[met])
            null = vt[int(np.sum(sv > 1e-12)):]
            d = null.T @ (null @ d)
        ad = mats.A @ d
        up = np.flatnonzero(ad > 1e-12 * (1.0 + np.linalg.norm(d)))
        if not up.size:
            return p
        steps = -mats.margins(p)[up] / ad[up]
        k = int(np.argmin(steps))
        p = p + max(float(steps[k]), 0.0) * d
        met.append(int(up[k]))


def grid_attack_oracle(mats, span, step):
    """Literal Cartesian sweep: smallest ||delta||^2 over the grid whose
    F(delta) is empty (np.inf if every grid point stays feasible)."""
    axis = np.arange(-span, span + step / 2.0, step)
    best = np.inf
    for point in itertools.product(axis, repeat=mats.n_delta):
        delta = np.asarray(point)
        nsq = float(delta @ delta)
        if nsq >= best or nsq == 0.0:
            continue
        if not scipy_feasible(mats.A, mats.rhs(delta)):
            best = nsq
    return best


def direction_boundary(mats, u):
    """max s >= 0 with F(s u) nonempty, or None when unbounded (scipy route)."""
    n = mats.n_reduced
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    A = np.hstack([mats.A, (mats.B @ u)[:, None]])
    bounds = [(None, None)] * n + [(0, None)]
    res = linprog(cost, A_ub=A, b_ub=-mats.c, bounds=bounds, method="highs")
    if res.status == 3:
        return None
    if res.status != 0:
        raise RuntimeError(f"boundary probe failed: {res.message}")
    return float(res.x[-1])


def direction_grid_oracle(mats, n_dirs=2000):
    """Two-dimensional delta spaces only: sweep unit directions, take the
    exact feasibility boundary along each, return the smallest boundary
    distance squared."""
    assert mats.n_delta == 2
    best = np.inf
    for theta in np.linspace(0.0, 2.0 * np.pi, n_dirs, endpoint=False):
        u = np.array([np.cos(theta), np.sin(theta)])
        s = direction_boundary(mats, u)
        if s is not None:
            best = min(best, s * s)
    return best


def extreme_ray_oracle(mats):
    """Enumerate the extreme rays of {mu >= 0 : A^T mu = 0} by support sets;
    each ray with B^T mu != 0 contributes a halfspace whose boundary distance
    from the origin is (-mu^T c)/||B^T mu||.  The minimum over rays is the
    exact attack value for these small cases."""
    A, B, c = mats.A, mats.B, mats.c
    m, n = A.shape
    best = np.inf
    for k in range(1, min(n + 1, m) + 1):
        for S in itertools.combinations(range(m), k):
            M = A[list(S), :].T          # n x k
            if np.linalg.matrix_rank(M, tol=1e-10) != k - 1:
                continue
            _, _, vt = np.linalg.svd(M) if M.size else (None, None, np.eye(k))
            z = vt[-1]
            if z.min() < -1e-12:
                z = -z
            if z.min() < -1e-12 or z.max() <= 0:
                continue
            mu = np.zeros(m)
            mu[list(S)] = np.clip(z, 0.0, None)
            if np.max(np.abs(A.T @ mu), initial=0.0) > 1e-9 * mu.sum():
                continue
            g = B.T @ mu
            gn = float(np.linalg.norm(g))
            if gn <= 1e-12 * mu.sum():
                continue
            rhs = -float(mu @ c)
            assert rhs >= -1e-9, "nominally infeasible case handed to the oracle"
            best = min(best, (rhs / gn) ** 2)
    return best


def socp_dual_failures(A, B, c, lam, y, W, tol=1e-6):
    """Check (y, W) as a dual certificate for lam in the affine-policy SOCP

        min lam  s.t.  ||G^T a_i + b_i|| <= -(a_i^T q + lam c_i),

    whose dual is  max -<W, B>  s.t.  A^T y = 0, c^T y = -1, A^T W = 0,
    ||w_i|| <= y_i.  Weak duality then gives lam >= -<W, B>, so a relative
    gap |lam + <W, B>| / lam within tol proves lam optimal to tol.  Plain
    numpy; returns a list of failures (empty on a pass)."""
    y, W = np.asarray(y, float), np.asarray(W, float)
    scale = tol * (1.0 + float(np.abs(y).sum())) \
        * (1.0 + float(np.abs(A).max(initial=0.0)))
    fails = []
    if A.size and float(np.abs(A.T @ y).max()) > scale:
        fails.append(f"A^T y = {float(np.abs(A.T @ y).max()):.3e}")
    if abs(float(c @ y) + 1.0) > tol:
        fails.append(f"c^T y = {float(c @ y)!r}, not -1")
    if A.size and float(np.abs(A.T @ W).max()) > scale:
        fails.append(f"A^T W = {float(np.abs(A.T @ W).max()):.3e}")
    cone = float(np.max(np.linalg.norm(W, axis=1) - y))
    if cone > tol * 1e-3:
        fails.append(f"||w_i|| exceeds y_i by {cone:.3e}")
    gap = (lam + float(np.sum(W * B))) / lam
    if abs(gap) > tol:
        fails.append(f"relative duality gap {gap:.3e}")
    return fails


def p_polytope_max(mats, g):
    """max (B g)^T mu over P = {mu >= 0 : A^T mu = 0, -c^T mu = 1}, the
    attack's Farkas polytope, through scipy/HiGHS: None when P is empty,
    inf when the maximum is unbounded."""
    e = np.zeros(mats.n_reduced + 1)
    e[-1] = 1.0
    res = linprog(-(mats.B @ g), A_eq=np.vstack([mats.A.T, -mats.c[None, :]]),
                  b_eq=e, bounds=(0, None), method="highs")
    if res.status == 2:
        return None
    if res.status == 3:
        return np.inf
    if res.status != 0:
        raise RuntimeError(f"P-polytope probe failed: {res.message}")
    return float(-res.fun)


def full_ratio_test(xB, w, basis, bland):
    """The simplex ratio test in its full-array form, the reference for
    `lin_solve._Simplex._ratio`: every basis position gets a ratio (+inf
    where w <= 1e-10), ratios are clipped at 0, and the tie window, Bland's
    lowest basis index and the largest |w| pick the row.  Returns (t, r),
    or (inf, None) when nothing blocks."""
    t = np.full(xB.size, np.inf)
    np.divide(xB, w, out=t, where=w > 1e-10)
    np.maximum(t, 0.0, out=t)
    t_min = float(t.min()) if xB.size else np.inf
    if not t_min < np.inf:
        return np.inf, None
    cand = (t <= t_min + 1e-9 * (1.0 + t_min)).nonzero()[0]
    if bland:
        r = int(cand[np.argmin(basis[cand])])
    else:
        r = int(cand[np.argmax(np.abs(w[cand]))])
    return float(t[r]), r


def full_dispatch(mats, p_hat, delta=None):
    """Every unit's output for the reduced dispatch p_hat: the units with
    p_min == p_max at their output, the movers at p_hat and the slack unit
    balancing the load plus delta."""
    total = float(mats.case.p_d().sum()) + (0.0 if delta is None
                                            else float(np.sum(delta)))
    p_full = mats.case.gen_bounds()[1].copy()
    p_full[mats.gen_order] = np.asarray(p_hat, float)
    p_full[mats.slack_gen] = 0.0
    p_full[mats.slack_gen] = total - float(p_full.sum())
    return p_full


def model1_margins(mats, p_full, delta=None):
    """Independent margin computation straight from the dispatch model:
    full PTDF flows against ratings plus the raw bounds of the slack and the
    units that move, on the rows `mats.margins` has and in its order.  Used
    as the reduction's cross-check."""
    case = mats.case
    p_full = np.asarray(p_full, float)
    inj = np.zeros(case.n_bus)
    np.add.at(inj, case.gen_positions(), p_full)
    inj -= case.p_d()
    if delta is not None:
        np.subtract.at(inj, mats.load_pos, np.asarray(delta, float))
    flows = build_ptdf(case, mats.ref_bus) @ inj
    rates = np.array([br.rate for br in case.branches if br.rate is not None])
    bounded = [k for k, br in enumerate(case.branches) if br.rate is not None]
    lo, hi = case.gen_bounds()
    s = mats.slack_gen
    others = mats.gen_order
    return np.concatenate([
        flows[bounded] - rates,
        -flows[bounded] - rates,
        [p_full[s] - hi[s]],
        p_full[others] - hi[others],
        [lo[s] - p_full[s]],
        lo[others] - p_full[others],
    ])[mats.emitted]


def one_row(a, b, c):
    """a^T p + b^T delta + c <= 0 as a one-row FeasibilityMatrices with no
    case behind it, so `crossing(p0, G, 0)` and `radii` apply to a bare
    row."""
    a = np.atleast_1d(np.asarray(a, float))
    b = np.atleast_1d(np.asarray(b, float))
    return FeasibilityMatrices(
        A=a[None, :], B=b[None, :], c=np.array([float(c)]),
        row_labels=("row",), slack_gen=0, ref_bus=0,
        gen_order=np.arange(a.size), emitted=np.arange(1),
        load_pos=np.arange(b.size), load_bus_ids=tuple(range(b.size)),
        case=None)


def row_radius(a, b, c, p0, G=None):
    """`radii` of `one_row(a, b, c)` under p0 + G delta.  `radii` wants p0
    to satisfy the row, so a broken row is negated first: -a, -b, -c has
    the same hyperplane, crossing point and radius."""
    s = -1.0 if float(np.dot(a, p0) + c) > 0.0 else 1.0
    return float(one_row(s * np.asarray(a, float), s * np.asarray(b, float),
                         s * c).radii(p0, G)[0])


MAX_EXACT_UNITS = 4
_NOISE = 1e-12


def _implied(rows, h, r):
    """Is row r of rows x <= h implied by the others?  max rows[r] x over
    them, capped at h[r] + 1, through scipy/HiGHS; kept (False) unless that
    maximum is below h[r] by more than HiGHS's own tolerances."""
    keep = np.arange(h.size) != r
    res = linprog(-rows[r], A_ub=np.vstack([rows[keep], rows[r]]),
                  b_ub=np.append(h[keep], h[r] + 1.0),
                  bounds=(None, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"redundancy probe failed: {res.message}")
    return -res.fun <= h[r] - 1e-7 * (1.0 + abs(h[r]))


def exact_distance(mats):
    """The exact min ||delta||^2 with F(delta) empty, by projection: p is
    eliminated from {(p, delta) : A p + B delta <= -c} by Fourier-Motzkin
    with Chernikov's rule (a combined row is kept only when at most k + 1
    original rows made it, k eliminations in) and rows that the others
    imply are pruned with HiGHS after each step but the last.  What is left
    is the projection D = {delta : M delta <= h}, implied rows included.
    The nearest delta outside D lies on a facet, and an implied row's
    boundary is no nearer than D's, so the value is (min_i h_i / ||M_i||)^2
    over the rows with M_i != 0; inf when there are none.  An entry at most
    _NOISE times the size of the terms that made it is rounding noise (a
    PTDF entry that is 0 on a radial line, or two parallel lines' rows
    cancelling) and is set to 0, so that noise is neither eliminated nor
    normalized up to a row.  Refuses more than MAX_EXACT_UNITS movable
    units, where the projection grows past what a test can wait for."""
    n = mats.n_reduced
    if n > MAX_EXACT_UNITS:
        raise ValueError(f"exact_distance: {n} movable units; the projection "
                         f"is practical for at most {MAX_EXACT_UNITS}")
    rows, h = np.hstack([mats.A, mats.B]), -mats.c
    size = np.abs(rows).max(axis=1)
    rows[np.abs(rows) <= _NOISE * size[:, None]] = 0.0
    made = [frozenset([i]) for i in range(h.size)]
    for k in range(n):
        a, size = rows[:, 0], np.abs(rows).max(axis=1)
        pos, neg = np.flatnonzero(a > 0), np.flatnonzero(a < 0)
        zero = np.flatnonzero(a == 0)
        new_rows, new_h = [rows[zero, 1:]], [h[zero]]
        new_made, terms = [made[i] for i in zero], [size[zero]]
        for i in pos:
            for j in neg:
                if len(made[i] | made[j]) > k + 2:
                    continue
                new_rows.append((-a[j] * rows[i, 1:] + a[i] * rows[j, 1:])[None])
                new_h.append([-a[j] * h[i] + a[i] * h[j]])
                new_made.append(made[i] | made[j])
                terms.append([-a[j] * size[i] + a[i] * size[j]])
        rows, h, made = np.vstack(new_rows), np.concatenate(new_h), new_made
        rows[np.abs(rows) <= _NOISE * np.concatenate(terms)[:, None]] = 0.0
        scale = np.abs(rows).max(axis=1)
        live = scale > 0
        if np.any(h[~live] < 0):
            raise RuntimeError("nominally infeasible case handed to the oracle")
        rows, h = rows[live] / scale[live, None], h[live] / scale[live]
        made = [made[i] for i in np.flatnonzero(live)]
        r = 0 if k + 1 < n else h.size      # the last rows all stay
        while r < h.size and h.size > 1:
            if _implied(rows, h, r):
                rows, h = np.delete(rows, r, 0), np.delete(h, r)
                del made[r]
            else:
                r += 1
    norms = np.linalg.norm(rows, axis=1)
    live = norms > 0
    if not np.any(live):
        return np.inf
    return float(np.min(h[live] / norms[live])) ** 2


_SCALAR_RE = re.compile(
    r"^(?:mpc\.)?(\w+)\s*=\s*([0-9.eE+-]+|[+-]?(?:nan|inf(?:inity)?))\s*;", re.I)
_TABLE_RE = re.compile(r"^(?:mpc\.)?(\w+)\s*=\s*\[(.*)$")


def reference_case(text, name="case"):
    """The MATPOWER reader as it was before tables were read as arrays: one
    float() per token and one record per row, with no rectangular rule.  A
    parity reference for `case_ingest.parse_case_text` on files it accepts;
    returns the validated NetworkCase."""
    scalars, tables, current = {}, {}, None
    for raw in text.splitlines():
        line = raw.split("%", 1)[0].strip()
        if current is None:
            m = _SCALAR_RE.match(line)
            if m:
                scalars[m.group(1)] = float(m.group(2))
                continue
            m = _TABLE_RE.match(line)
            if not m:
                continue
            current, line = m.group(1), m.group(2)
            tables[current] = []
        closed = line.endswith("];")
        for chunk in (line[:-2] if closed else line).split(";"):
            if chunk.strip():
                tables[current].append(
                    [float(p) for p in chunk.replace(",", " ").split()])
        if closed:
            current = None
    base = scalars["baseMVA"]

    def as_int(value):
        assert value.is_integer()
        return int(value)

    buses = tuple(Bus(id=as_int(row[0]), p_d=row[2] / base)
                  for row in tables["bus"])
    branches = tuple(
        Branch(f_bus=as_int(row[0]), t_bus=as_int(row[1]), b=1.0 / row[3],
               rate=None if row[5] == 0 else row[5] / base)
        for row in tables["branch"]
        if (as_int(row[10]) if len(row) > 10 else 1) > 0)
    gens = tuple(Generator(bus=as_int(row[0]), p_min=row[9] / base,
                           p_max=row[8] / base)
                 for row in tables["gen"] if as_int(row[7]) > 0)
    return validate_case(NetworkCase(name=name, base_mva=base, buses=buses,
                                     branches=branches, generators=gens))
