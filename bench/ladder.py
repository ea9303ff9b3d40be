"""Seeded synthetic ladder networks, written as MATPOWER text.

A ladder of n buses is a ring plus n/2 random chords, about 60% load buses
and n/5 generators.  The degenerate variant keeps that backbone and adds the
features presolve is meant to handle: radial spurs, about 20% unrated lines,
parallel branches, two zero-output units and one must-run unit with
p_min == p_max.

Every network is nominally feasible by construction: line ratings are sized
at 1.3x to 2x the flows of a proportional dispatch on the final topology
(spurs, parallel branches and fixed units included), so that dispatch is a
witness.  Values are drawn on the MW scale and rounded before the flows are
computed, so the ratings hold for exactly the numbers the file carries.
"""

import numpy as np

BASE_MVA = 100.0
RATING_MIN = 1.3          # rating >= RATING_MIN * |witness flow|
RATING_MAX = 2.0
RATING_FLOOR_MW = 10.0    # no rating below this, whatever the witness flow
MUST_RUN_MW = 40.0
LOAD_JITTER = 0.025     # snapshot loads within +-2.5% of the base loads


def _rng(n, seed, degenerate, stream=0):
    return np.random.default_rng(
        np.random.SeedSequence((seed, n, int(degenerate), stream)))


def _r(v, digits=4):
    return float(round(float(v), digits))


def witness_flows(n_bus, branches, injections_mw):
    """DC flows (MW) of the given net injections, referenced at bus 0.
    branches: list of (f, t, x) with 0-based bus positions."""
    n_l = len(branches)
    E = np.zeros((n_l, n_bus))
    b = np.empty(n_l)
    for k, (f, t, x) in enumerate(branches):
        E[k, f], E[k, t] = 1.0, -1.0
        b[k] = 1.0 / x
    L = E[:, 1:].T @ (b[:, None] * E[:, 1:])
    theta = np.zeros(n_bus)
    theta[1:] = np.linalg.solve(L, np.asarray(injections_mw, float)[1:])
    return b * (E @ theta)


def proportional_dispatch(gens, total_load_mw):
    """Fixed units at their fixed output; every flexible unit at the same
    share of its p_max, together covering the load."""
    p = np.array([g["p_min"] if g["p_min"] == g["p_max"] else 0.0 for g in gens])
    flex = np.array([g["p_min"] != g["p_max"] for g in gens])
    cap = np.array([g["p_max"] for g in gens])
    share = (total_load_mw - p.sum()) / cap[flex].sum()
    if not 0.0 <= share <= 1.0:
        raise ValueError(f"flexible capacity cannot cover the load (share {share})")
    p[flex] = share * cap[flex]
    return p


def ladder(n, seed, degenerate=False, grid_seed=0):
    """One network as plain records: {"name", "buses", "branches", "gens"}.

    `grid_seed` draws the grid: topology, reactances, which buses carry load
    and their base loads, the units, and each line's rating factor.  `seed`
    draws the load snapshot: every load is its base value times a factor in
    [1 - LOAD_JITTER, 1 + LOAD_JITTER].  Ratings are sized on the snapshot.

    buses: [{"id", "p_d"}], branches: [{"f", "t", "x", "rate"}] with
    rate None for unrated, gens: [{"bus", "p_min", "p_max", "cost"}].
    Bus ids are 1..n; all power values are MW.
    """
    if n < 10:
        raise ValueError("a ladder needs at least 10 buses")
    rng = _rng(n, grid_seed, degenerate)
    n_spur = n // 10 if degenerate else 0
    n_ring = n - n_spur

    pairs = [(i, (i + 1) % n_ring) for i in range(n_ring)]
    used = {frozenset(p) for p in pairs}
    while len(pairs) < n_ring + n // 2:
        a, b = (int(v) for v in rng.choice(n_ring, size=2, replace=False))
        if frozenset((a, b)) not in used:
            used.add(frozenset((a, b)))
            pairs.append((a, b))
    for s in range(n_spur):
        pairs.append((int(rng.integers(n_ring)), n_ring + s))
    if degenerate:
        for k in rng.choice(n_ring, size=max(2, n // 15), replace=False):
            pairs.append(pairs[int(k)])     # parallel twin of a ring branch
    xs = [_r(rng.uniform(0.01, 0.1), 5) for _ in pairs]

    p_d = np.zeros(n)
    spurs = list(range(n_ring, n))
    n_load = int(round(0.6 * n))
    load_buses = spurs + [int(v) for v in rng.choice(
        n_ring, size=n_load - len(spurs), replace=False)]
    base_load = rng.uniform(20.0, 100.0, size=len(load_buses))

    n_gen = max(2, n // 5)
    gen_buses = [int(v) for v in rng.choice(n_ring, size=n_gen, replace=False)]
    weights = rng.uniform(0.5, 1.5, size=n_gen)
    p_max = weights / weights.sum() * 1.6 * float(base_load.sum())
    gens = [{"bus": b, "p_min": 0.0, "p_max": _r(pm, 2),
             "cost": _r(rng.uniform(10.0, 50.0), 2)}
            for b, pm in zip(gen_buses, p_max)]
    if degenerate:
        # extra units with fixed output, at buses of their own
        spare = [b for b in range(n_ring) if b not in gen_buses]
        fixed_buses = [int(v) for v in rng.choice(spare, size=3, replace=False)]
        for b, out in zip(fixed_buses, (0.0, 0.0, MUST_RUN_MW)):
            gens.append({"bus": b, "p_min": out, "p_max": out,
                         "cost": _r(rng.uniform(10.0, 50.0), 2)})
        gen_buses += fixed_buses

    factors = rng.uniform(RATING_MIN, RATING_MAX, size=len(pairs))
    unrated = set()
    if degenerate:
        unrated = {int(k) for k in rng.choice(len(pairs), size=round(0.2 * len(pairs)),
                                              replace=False)}

    snap = _rng(n, seed, degenerate, stream=1)
    jitter = snap.uniform(1.0 - LOAD_JITTER, 1.0 + LOAD_JITTER, size=len(load_buses))
    p_d[load_buses] = [_r(v, 2) for v in base_load * jitter]
    inj = -p_d.copy()
    np.add.at(inj, gen_buses, proportional_dispatch(gens, float(p_d.sum())))
    flows = witness_flows(n, [(f, t, x) for (f, t), x in zip(pairs, xs)], inj)
    branches = []
    for k, ((f, t), x, flow, factor) in enumerate(zip(pairs, xs, flows, factors)):
        rate = None if k in unrated else \
            float(np.ceil(max(factor * abs(flow), RATING_FLOOR_MW) * 100) / 100)
        branches.append({"f": f + 1, "t": t + 1, "x": x, "rate": rate})

    kind = "degenerate" if degenerate else "ladder"
    return {"name": f"{kind}{n}_g{grid_seed}_s{seed}",
            "buses": [{"id": i + 1, "p_d": float(p_d[i])} for i in range(n)],
            "branches": branches,
            "gens": [{**g, "bus": g["bus"] + 1} for g in gens]}


def to_matpower(net):
    """MATPOWER text for a network from `ladder`."""
    out = [f"function mpc = {net['name']}",
           "mpc.version = '2';",
           f"mpc.baseMVA = {BASE_MVA!r};",
           "mpc.bus = ["]
    for bus in net["buses"]:
        kind = 3 if bus["id"] == net["gens"][0]["bus"] else 1
        out.append(f"\t{bus['id']}\t{kind}\t{bus['p_d']!r}"
                   "\t0\t0\t0\t1\t1\t0\t230\t1\t1.1\t0.9;")
    out.append("];")
    out.append("mpc.gen = [")
    for g in net["gens"]:
        out.append(f"\t{g['bus']}\t0\t0\t0\t0\t1\t{BASE_MVA!r}\t1\t{g['p_max']!r}\t{g['p_min']!r};")
    out.append("];")
    out.append("mpc.gencost = [")
    for g in net["gens"]:
        out.append(f"\t2\t0\t0\t2\t{g['cost']!r}\t0;")
    out.append("];")
    out.append("mpc.branch = [")
    for br in net["branches"]:
        rate = 0.0 if br["rate"] is None else br["rate"]
        out.append(f"\t{br['f']}\t{br['t']}\t0\t{br['x']!r}\t0"
                   f"\t{rate!r}\t{rate!r}\t{rate!r}\t0\t0\t1\t-360\t360;")
    out.append("];")
    return "\n".join(out) + "\n"

