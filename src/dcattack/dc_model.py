"""DC power-flow model: PTDF construction and the reduced feasibility polytope.

The lossless DC dispatch problem over a case is flattened into a single
inequality system in the injections p of the non-slack units that can move
(the slack unit absorbs the power balance) and the load perturbation delta:

    F(delta) = { p : A p + B delta + c <= 0 }

Flows enter through the PTDF matrix referenced at the slack generator's bus,
which is exactly what makes the slack elimination exact (the slack column of
the PTDF is zero, so slack injections never appear in a flow row).  delta
lives on the perturbable buses only: those with nonzero nominal load.

Units with p_min == p_max, bar the slack, are constant injections: they
enter c through the flow and slack rows and get no column and no rows.  A
flow row this leaves constant (zero in A and B) and satisfied is not emitted.

Row stacking order (load-bearing, relied on by labels and certificates):
flow upper bounds, flow lower bounds, slack-gen upper, other gen uppers,
slack-gen lower, other gen lowers.  Unrated branches contribute no rows.

Row geometry.  Under the response p(delta) = p0 + G delta (G = None: p0
held) row i reads m_i + g_i^T delta <= 0, with m_i = a_i^T p0 + c_i and
g_i = G^T a_i + b_i.  Its crossing point -(m_i / ||g_i||^2) g_i is the
smallest delta that makes it tight, at radius^2 m_i^2 / ||g_i||^2: their
minimum is the policy's radius (the lower bound), and the attack starts
from crossing points.  A row with g_i = 0 has neither (radius +inf, even
when tight).  `FeasibilityMatrices.radii` and `.crossing` are the one copy
of this formula; only `attack.fixed_dispatch_lb` adds a tight-row rule.
"""

import numpy as np
from dataclasses import dataclass, replace

from . import lin_solve
from .errors import ModelError, PreconditionError, SolverError


def build_ptdf(case, ref_bus):
    """Power transfer distribution factors phi (n_branch x n_bus) with the
    given reference position, whose column is zero.

    Flow orientation is from-bus -> to-bus: row k of phi is the sensitivity of
    that oriented flow to a unit injection at each bus (withdrawn at the
    reference).
    """
    n_b, n_l = case.n_bus, case.n_branch
    if not 0 <= ref_bus < n_b:
        raise PreconditionError(f"ref_bus {ref_bus} out of range")
    pos = case.bus_position()
    E = np.zeros((n_l, n_b))
    b = np.empty(n_l)
    for k, br in enumerate(case.branches):
        E[k, pos[br.f_bus]] = 1.0
        E[k, pos[br.t_bus]] = -1.0
        b[k] = br.b
    keep = np.arange(n_b) != ref_bus
    E_hat = E[:, keep]
    YlE_hat = b[:, None] * E_hat
    L_hat = E_hat.T @ YlE_hat
    try:
        phi_reduced = np.linalg.solve(L_hat, YlE_hat.T).T
    except np.linalg.LinAlgError:
        raise ModelError(
            "reduced susceptance Laplacian is singular (disconnected network "
            "or pathological susceptances)")
    resid = float(np.max(np.abs(L_hat @ phi_reduced.T - YlE_hat.T))) if n_l else 0.0
    if resid > 1e-6 * (1.0 + float(np.max(np.abs(b))) if n_l else 1.0):
        raise ModelError(f"PTDF solve residual {resid:.2e}; network nearly singular")
    phi = np.zeros((n_l, n_b))
    phi[:, keep] = phi_reduced
    return phi


@dataclass
class FeasibilityMatrices:
    """The reduced system A p + B delta + c <= 0 plus its provenance."""

    A: np.ndarray
    B: np.ndarray
    c: np.ndarray
    row_labels: tuple
    slack_gen: int
    ref_bus: int
    gen_order: np.ndarray    # reduced column -> original generator index
    held: np.ndarray         # fixed units folded into c, at their output
    emitted: np.ndarray      # each row's position in the unpruned stacking
    load_pos: np.ndarray     # dense bus positions of delta components
    load_bus_ids: tuple
    case: object

    @property
    def m(self):
        return self.c.size

    @property
    def n_delta(self):
        return self.load_pos.size

    @property
    def n_reduced(self):
        return self.A.shape[1]

    def unit_rows(self):
        """(upper, lower): the rows p_j <= p_max and p_j >= p_min of each
        reduced column j, i.e. a_i = e_j and a_i = -e_j with b_i = 0; they
        end the row stacking order."""
        n, m = self.n_reduced, self.m
        return np.arange(m - 2 * n - 1, m - n - 1), np.arange(m - n, m)

    def row_blocks(self):
        """(flow, bounds): the positions of the flow rows, which open the
        row stacking order, and of the slack and unit bound rows (the last
        2 n_reduced + 2), which end it."""
        split = self.m - 2 * self.n_reduced - 2
        return np.arange(split), np.arange(split, self.m)

    def crash_basis(self):
        """A feasible start of the wide forms P and Q read off `unit_rows`
        (Bixby 1992's crash basis).  For their rows [A^T; r^T] mu = e_last
        (r = -c or 1): every upper row and the widest unit u's lower row,
        nonsingular as a_i = +-e_j, with mu_up(u) = mu_lo(u) =
        1/(p_max - p_min) or 1/2; any u would do, and the pick stays fixed
        because the vertices the LPs reach follow from it.  With no movable
        unit the one row is r^T mu = 1, and the basis is the row of largest
        -c_i: feasible for Q, and for P whenever P is nonempty."""
        if not self.n_reduced:
            return np.argmax(-self.c, keepdims=True)
        up, lo = self.unit_rows()
        return np.append(up, lo[np.argmax(-self.c[up] - self.c[lo])])

    def margins(self, p_hat, delta=None):
        """A p + B delta + c, the reduced-system row margins."""
        out = self.A @ np.asarray(p_hat, float) + self.c
        if delta is not None:
            out = out + self.B @ np.asarray(delta, float)
        return out

    def directions(self, G=None):
        """A G + B: row i is g_i = G^T a_i + b_i (module docstring)."""
        return self.B if G is None else self.A @ np.asarray(G, float) + self.B

    def radii(self, p0, G=None):
        """Each row's radius^2 m_i^2 / ||g_i||^2 under p0 + G delta (module
        docstring), +inf for a row whose direction vanishes: no delta moves
        it.  Raises PreconditionError naming the rows p0 violates."""
        margins = self.margins(p0)
        bad = np.flatnonzero(margins > lin_solve.FEAS_TOL)
        if bad.size:
            names = [self.row_labels[i] for i in bad[:5]]
            raise PreconditionError(
                f"p0 violates {names} (worst margin {margins.max():.3e})")
        dirs = self.directions(G)
        den = np.einsum("ij,ij->i", dirs, dirs)
        per = np.full(self.m, np.inf)
        live = den > 0.0
        per[live] = margins[live] ** 2 / den[live]
        return per

    def crossing(self, p0, G, row):
        """The crossing point of `row` under p0 + G delta (module
        docstring), or None when its direction vanishes: the rows `radii`
        reads as +inf."""
        a, b = self.A[row], self.B[row]
        margin = float(a @ np.asarray(p0, float) + float(self.c[row]))
        g = b if G is None else np.asarray(G, float).T @ a + b
        den = float(g @ g)
        return -(margin / den) * g if den > 0.0 else None

    def take(self, rows):
        """The system on `rows` alone (ascending positions), with their
        labels and unpruned positions; a subset that keeps the unit and
        slack rows keeps `unit_rows`."""
        rows = np.asarray(rows)
        return replace(self, A=self.A[rows], B=self.B[rows], c=self.c[rows],
                       row_labels=tuple(self.row_labels[i]
                                        for i in rows.tolist()),
                       emitted=self.emitted[rows])

    def rhs(self, delta=None):
        """-(B delta + c): feasibility of F(delta) is  A p <= rhs."""
        if delta is None:
            return -self.c
        return -(self.B @ np.asarray(delta, float) + self.c)

    def full_dispatch(self, p_hat, delta=None):
        """Reinsert the held units' outputs and the slack generator's
        balancing injection."""
        p_hat = np.asarray(p_hat, float)
        total = self.case.total_load()
        if delta is not None:
            total += float(np.sum(delta))
        p_full = self.case.gen_bounds()[1].copy()
        p_full[self.gen_order] = p_hat
        p_full[self.slack_gen] = total - float(p_hat.sum()) \
            - float(p_full[self.held].sum())
        return p_full

    def to_json_dict(self):
        return {
            "rows": self.m,
            "n_reduced": self.n_reduced,
            "n_delta": self.n_delta,
            "slack_gen": int(self.slack_gen),
            "gen_order": self.gen_order.tolist(),
            "ref_bus_id": int(self.case.buses[self.ref_bus].id),
            "load_bus_ids": [int(i) for i in self.load_bus_ids],
            "row_labels": list(self.row_labels),
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "c": self.c.tolist(),
        }


def build_feasibility(case, slack_gen=None):
    """Assemble F(delta) for the case (module docstring).  The slack is
    `slack_gen`, by default the first unit with p_min < p_max (unit 0 when
    every unit is fixed)."""
    if case.n_gen == 0:
        raise ModelError("case has no generators")
    lo, hi = case.gen_bounds()
    fixed = lo == hi
    if slack_gen is None:
        slack_gen = int(np.argmin(fixed))
    if not 0 <= slack_gen < case.n_gen:
        raise PreconditionError(f"slack_gen {slack_gen} out of range")
    load_pos = case.load_positions()
    if load_pos.size == 0:
        raise ModelError("case has no nonzero loads to perturb")
    gen_pos = case.gen_positions()
    ref = int(gen_pos[slack_gen])
    phi = build_ptdf(case, ref)
    not_slack = np.arange(case.n_gen) != slack_gen
    others = np.flatnonzero(not_slack & ~fixed)
    held = np.flatnonzero(not_slack & fixed)
    # branch flows and the load left to the slack and the movers at p = 0,
    # delta = 0, with the held units at their output
    flow0 = phi[:, gen_pos[held]] @ hi[held] - phi @ case.p_d()
    net_load = case.total_load() - float(hi[held].sum())
    n_red = others.size
    n_delta = load_pos.size

    phi_gen = phi[:, gen_pos[others]]
    phi_load = phi[:, load_pos]
    bounded = [k for k, br in enumerate(case.branches) if br.rate is not None]
    rates = np.array([case.branches[k].rate for k in bounded])

    nb = len(bounded)
    m = 2 * nb + 2 * n_red + 2
    A = np.zeros((m, n_red))
    B = np.zeros((m, n_delta))
    c = np.zeros(m)

    fu = slice(0, nb)
    A[fu] = phi_gen[bounded]
    B[fu] = -phi_load[bounded]
    c[fu] = flow0[bounded] - rates
    fl = slice(nb, 2 * nb)
    A[fl] = -phi_gen[bounded]
    B[fl] = phi_load[bounded]
    c[fl] = -flow0[bounded] - rates
    rated = [(k, case.branches[k]) for k in bounded]
    labels = [f"{tag}:br{k}:{br.f_bus}-{br.t_bus}"
              for tag in ("flow-upper", "flow-lower") for k, br in rated]

    r = 2 * nb
    slack_bus_id = case.generators[slack_gen].bus
    A[r] = -1.0
    B[r] = 1.0
    c[r] = net_load - hi[slack_gen]
    labels.append(f"slack-gen-upper:g{slack_gen}@bus{slack_bus_id}")
    r += 1
    gu = slice(r, r + n_red)
    A[gu] = np.eye(n_red)
    c[gu] = -hi[others]
    for j in others:
        labels.append(f"gen-upper:g{j}@bus{case.generators[j].bus}")
    r += n_red
    A[r] = 1.0
    B[r] = -1.0
    c[r] = lo[slack_gen] - net_load
    labels.append(f"slack-gen-lower:g{slack_gen}@bus{slack_bus_id}")
    r += 1
    gl = slice(r, r + n_red)
    A[gl] = -np.eye(n_red)
    c[gl] = lo[others]
    for j in others:
        labels.append(f"gen-lower:g{j}@bus{case.generators[j].bus}")

    mats = FeasibilityMatrices(
        A=A, B=B, c=c, row_labels=tuple(labels), slack_gen=int(slack_gen),
        ref_bus=ref, gen_order=others, held=held, emitted=np.arange(m),
        load_pos=load_pos,
        load_bus_ids=tuple(int(case.buses[i].id) for i in load_pos),
        case=case)
    emitted = np.flatnonzero(np.any(A != 0.0, axis=1) | np.any(B != 0.0, axis=1)
                             | (c > lin_solve.FEAS_TOL))
    return mats if emitted.size == m else mats.take(emitted)


@dataclass
class DcopfResult:
    feasible: bool
    p_hat: np.ndarray = None
    ray: np.ndarray = None   # normalized Farkas ray over the rows when infeasible


def solve_dcopf(mats, delta=None):
    """Cost-minimizing dispatch inside F(delta), or a certified-infeasible flag.

    The slack generator's cost is folded into the reduced objective through
    the power-balance substitution; `mats.full_dispatch(p_hat, delta)` gives
    every unit's output.

    The LP  min c_red^T p s.t. A p <= rhs  is solved through its dual

        min rhs^T mu  s.t.  A^T mu = -c_red,  mu >= 0,

    whose basis has n_reduced rows instead of m.  It starts from the
    merit-order corner of the unit rows (`FeasibilityMatrices.unit_rows`):
    unit j's upper row when red_cost[j] <= 0, else its lower one, so
    B = diag(+-1) and x_B = |red_cost| >= 0, empty when no unit moves.  The
    dispatch is read off the equality duals and returned only once it
    satisfies every row and closes the duality gap; an unbounded dual is a
    Farkas ray of F(delta).
    """
    costs = mats.case.gen_costs()
    red_cost = costs[mats.gen_order] - costs[mats.slack_gen]
    rhs = mats.rhs(delta)
    up, lo = mats.unit_rows()
    res = lin_solve.lp_solve(
        lin_solve.LpProblem(c=rhs, A_eq=mats.A.T, b_eq=-red_cost),
        np.where(red_cost <= 0, up, lo))
    if res.status == lin_solve.UNBOUNDED:
        ray = lin_solve.normalize_farkas_ray(mats.A, rhs, res.ray)
        return DcopfResult(feasible=False, ray=ray)
    p_hat = res.y
    tol = lin_solve.scaled_tol(rhs)
    worst = float(np.max(mats.A @ p_hat - rhs))
    gap = float(red_cost @ p_hat + res.objective)
    if worst > tol or abs(gap) > tol * (1.0 + float(np.abs(res.x) @ np.abs(rhs))):
        raise SolverError(f"dispatch from the dual LP fails its check: worst row "
                          f"{worst:.3e}, duality gap {gap:.3e}")
    return DcopfResult(feasible=True, p_hat=p_hat)
