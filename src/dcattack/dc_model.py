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

No bound depends on generator costs, so the one nominal point is
`FeasibilityMatrices.max_margin`, the dispatch of F(0) with the largest
margin: the attack and the defense start there, and its LP checks F(0).
That LP is posed over the attack's Farkas polytope P
(`FeasibilityMatrices.polytope`), so its optimal vertex also starts the
attack's ascents.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import lin_solve
from .errors import ModelError, PreconditionError


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
    # the incidence matrix without the reference column, column-major: the
    # layout sets the order in which BLAS sums below, so phi's last bits
    pos, keep = case.bus_position(), np.arange(n_b) != ref_bus
    col = np.cumsum(keep) - 1               # bus position -> column of E_hat
    E_hat = np.zeros((n_l, n_b - 1), order="F")
    for sign, end in ((1.0, "f_bus"), (-1.0, "t_bus")):
        at = np.array([pos[getattr(br, end)] for br in case.branches], int)
        rows = np.flatnonzero(keep[at])
        E_hat[rows, col[at[rows]]] = sign
    b = np.array([br.b for br in case.branches], dtype=float)
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

    @functools.cached_property
    def polytope(self):
        """The attack's Farkas polytope P = {mu >= 0 : A^T mu = 0,
        -c^T mu = 1} as an LpProblem with a zero objective, built once:
        every LP over P poses its objective on these very arrays, so an
        optimal basis over P re-enters `lin_solve.lp_solve` without
        re-proof."""
        return lin_solve.LpProblem(
            c=np.zeros(self.m), A_eq=np.vstack([self.A.T, -self.c[None, :]]),
            b_eq=np.eye(self.n_reduced + 1)[-1])

    def max_margin(self):
        """(p, res): F(0)'s max-margin dispatch p, min m s.t. a_i^T p + c_i
        <= m, and res, the optimal `LpResult` of max 1^T mu over P from
        `crash_basis()`, whose vertex starts the attack's ascents.  That LP
        is the dual of max tau s.t. a_i^T x - c_i tau <= -1, so 1^T mu* is
        1 / t* for the largest margin t*, and p = -x / tau, re-checked
        against every row as `lin_solve.check_feasible`'s witness is.
        Without a movable unit, or when the LP is unbounded (exactly when
        F(0) has no interior point), `check_feasible` over Q decides from
        the same basis, with res None: ModelError naming the heaviest row
        of its Farkas ray when F(0) is empty."""
        rhs, crash = self.rhs(), self.crash_basis()
        if self.n_reduced:
            res = lin_solve.lp_solve(
                self.polytope.with_objective(-np.ones(self.m)), crash)
            if res.status == lin_solve.OPTIMAL:
                return lin_solve.checked_witness(
                    self.A, rhs, res.y[:-1] / -res.y[-1]), res
        ok, p, ray = lin_solve.check_feasible(self.A, rhs, crash)
        if not ok:
            worst = self.row_labels[int(np.argmax(ray))]
            raise ModelError("max-margin LP: no dispatch satisfies the nominal "
                             f"constraints (Farkas ray heaviest on {worst})")
        return p, None

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


def json_default(value):
    """`default=` of every json.dump of a report: reports keep their numpy
    arrays, which JSON writes as nested lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


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
    p_d = case.p_d()
    load_pos = np.flatnonzero(p_d != 0.0)
    if load_pos.size == 0:
        raise ModelError("case has no nonzero loads to perturb")
    gen_pos = case.gen_positions()
    ref = int(gen_pos[slack_gen])
    phi = build_ptdf(case, ref)
    not_slack = np.arange(case.n_gen) != slack_gen
    others = np.flatnonzero(not_slack & ~fixed)
    held = np.flatnonzero(not_slack & fixed)
    rated = [(k, br) for k, br in enumerate(case.branches)
             if br.rate is not None]
    bounded = np.array([k for k, _ in rated], dtype=int)
    rates = np.array([br.rate for _, br in rated])
    # rated branches' flows and the load left to the slack and the movers
    # at p = 0, delta = 0, with the held units at their output
    flow0 = (phi[:, gen_pos[held]] @ hi[held] - phi @ p_d)[bounded]
    net_load = float(p_d.sum()) - float(hi[held].sum())
    phi_rated = phi[bounded]
    phi_gen, phi_load = phi_rated[:, gen_pos[others]], phi_rated[:, load_pos]
    nb, n_red = len(bounded), others.size
    m = 2 * nb + 2 * n_red + 2
    A, B = np.zeros((m, n_red)), np.zeros((m, load_pos.size))
    # the row blocks in stacking order (module docstring)
    A[:nb], B[nb:2 * nb] = phi_gen, phi_load
    np.negative(phi_gen, out=A[nb:2 * nb])
    np.negative(phi_load, out=B[:nb])
    up, low = 2 * nb, 2 * nb + n_red + 1          # the slack unit's rows
    A[up], B[up], A[low], B[low] = -1.0, 1.0, 1.0, -1.0
    A[up + 1:low], A[low + 1:] = np.eye(n_red), -np.eye(n_red)
    c = np.concatenate([flow0 - rates, -flow0 - rates,
                        [net_load - hi[slack_gen]], -hi[others],
                        [lo[slack_gen] - net_load], lo[others]])
    branches = [f"br{k}:{br.f_bus}-{br.t_bus}" for k, br in rated]
    slack = f"g{slack_gen}@bus{case.generators[slack_gen].bus}"
    units = [f"g{j}@bus{case.generators[j].bus}" for j in others.tolist()]
    labels = [f"flow-upper:{s}" for s in branches] \
        + [f"flow-lower:{s}" for s in branches] \
        + [f"slack-gen-upper:{slack}"] + [f"gen-upper:{s}" for s in units] \
        + [f"slack-gen-lower:{slack}"] + [f"gen-lower:{s}" for s in units]

    mats = FeasibilityMatrices(
        A=A, B=B, c=c, row_labels=tuple(labels), slack_gen=int(slack_gen),
        ref_bus=ref, gen_order=others, emitted=np.arange(m),
        load_pos=load_pos,
        load_bus_ids=tuple(case.buses[i].id for i in load_pos.tolist()),
        case=case)
    # only a flow row can be zero in A and B: each slack or unit row has a 1
    live = np.any(phi_gen != 0.0, axis=1) | np.any(phi_load != 0.0, axis=1)
    live = np.concatenate([live, live, np.ones(m - 2 * nb, dtype=bool)])
    emitted = np.flatnonzero(live | (c > lin_solve.FEAS_TOL))
    return mats if emitted.size == m else mats.take(emitted)

