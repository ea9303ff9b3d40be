"""The traced run, the oracle, and the ROADMAP reference values."""

import importlib

import numpy as np
import pytest

import oracle
import workloads
from spans import TARGETS, Tracer, layer_totals, self_times

EVERYWHERE = {
    "case_ingest.load_case", "dc_model.build_feasibility",
    "dc_model.solve_dcopf", "lin_solve.lp_solve.tall",
    "lin_solve.lp_solve.wide", "lin_solve.check_feasible",
    "attack.ray_boundary", "attack.attack_local", "attack.certify_infeasible",
    "attack.multistart_attack",
}
SQUEEZE_ONLY = {
    "defense.warm_start_defense", "defense.defense_local", "defense.t_tilde",
    "defense.verify_policy", "squeeze.cross_feed", "squeeze.squeeze_run",
}
# smallest rung of each ladder workload keeps the test quick
SIZES = {"bundled-squeeze": None, "ladder-attack": (30,),
         "degenerate-squeeze": (30,)}

# ROADMAP baseline, lb / ub per bundled case
ROADMAP = {"pglib_opf_case5_pjm": (6.2397, 6.2862),
           "pglib_opf_case14_ieee": (0.17778, 0.17818),
           "pglib_opf_case24_ieee_rts": (1.8100, 1.8119),
           "pglib_opf_case30_as": (0.014454, 0.014454)}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced pass per workload: {name: (outcomes, spans, nets)}."""
    out = {}
    for name, sizes in SIZES.items():
        wl = workloads.WORKLOADS[name]
        paths = workloads.prepare(wl, 0, str(tmp_path_factory.mktemp(name)), sizes)
        with Tracer() as tracer:
            nets = workloads.setup(paths)
            outcomes = [workloads.solve(wl, case, mats) for case, mats in nets]
        for o, (case, mats) in zip(outcomes, nets):
            workloads.verify(o, case, mats)
        out[name] = (outcomes, tracer.spans, nets)
    return out


@pytest.mark.parametrize("name", sorted(SIZES))
def test_every_wrapped_name_fires_where_expected(traced, name):
    outcomes, spans, _nets = traced[name]
    fired = set(layer_totals(spans))
    expected = EVERYWHERE | (SQUEEZE_ONLY if name.endswith("squeeze") else set())
    assert fired == expected
    assert all(o.ok for o in outcomes), [o.error or o.fails for o in outcomes]


def test_every_target_is_covered_by_some_workload(traced):
    fired = set().union(*(layer_totals(s) for _o, s, _n in traced.values()))
    names = {f"{m}.{f}" for m, f, _a, _r in TARGETS}
    assert names - {"lin_solve.lp_solve"} <= fired
    assert {"lin_solve.lp_solve.tall", "lin_solve.lp_solve.wide"} <= fired


@pytest.mark.parametrize("name", sorted(SIZES))
def test_spans_nest_with_nonnegative_self_time(traced, name):
    _outcomes, spans, _nets = traced[name]
    for _n, start, end, parent, _info in spans:
        assert end >= start
        if parent is not None:
            p_start, p_end = spans[parent][1], spans[parent][2]
            assert p_start <= start and end <= p_end
    assert min(self_times(spans)) >= -1e-9
    roots = [s for s in spans if s[3] is None]
    assert {s[0] for s in roots} <= {"case_ingest.load_case",
                                     "dc_model.build_feasibility",
                                     "attack.multistart_attack",
                                     "squeeze.squeeze_run"}


def test_uninstall_restores_every_name():
    modules = [importlib.import_module(f"dcattack.{m}")
               for m in ("attack", "defense", "squeeze", "dc_model", "lin_solve")]
    before = [dict(vars(m)) for m in modules]
    with Tracer():
        from dcattack import squeeze
        assert hasattr(squeeze.defense_local, "__wrapped__")
    assert [dict(vars(m)) for m in modules] == before


def test_bundled_squeeze_reproduces_the_roadmap_table(traced):
    outcomes, _spans, _nets = traced["bundled-squeeze"]
    got = {o.network: (o.lb, o.ub) for o in outcomes}
    assert set(got) == set(ROADMAP)
    for net, (lb, ub) in ROADMAP.items():
        assert f"{got[net][0]:.4g}" == f"{lb:.4g}", net
        assert f"{got[net][1]:.4g}" == f"{ub:.4g}", net
    assert all(o.accurate for o in outcomes)


def test_degenerate_squeeze_shows_the_lb_defect(traced):
    outcomes, _spans, _nets = traced["degenerate-squeeze"]
    for o in outcomes:
        assert o.ok and not o.solved
        assert o.lb < 1e-12 < o.ub


def test_oracle_rejects_wrong_bounds(traced):
    outcomes, _spans, nets = traced["bundled-squeeze"]
    o, (case, mats) = next((o, net) for o, net in zip(outcomes, nets)
                           if o.network == "pglib_opf_case5_pjm")
    delta = np.asarray(o.cert["delta"])
    assert oracle.check_ub(case, mats, o.ub, delta) == []
    half = 0.5 * delta
    assert oracle.check_ub(case, mats, float(half @ half), half)
    assert oracle.check_lb(mats, o.lb * 1.01, o.ub, o.cert["p0"], o.cert["G"])
    assert oracle.check_lb(mats, o.lb, 0.9 * o.lb, o.cert["p0"], o.cert["G"])

    outcomes, _spans, nets = traced["ladder-attack"]
    a, (_case, amats) = outcomes[0], nets[0]
    delta = np.asarray(a.cert["delta"])
    assert oracle.check_farkas(amats, delta, a.cert["mu"]) == []
    assert oracle.check_farkas(amats, delta, -a.cert["mu"])
    assert oracle.check_farkas(amats, 0.0 * delta, a.cert["mu"])


def test_a_target_the_package_lacks_is_skipped(monkeypatch):
    import spans
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("attack", "no_such_function", None, None),
        ("no_such_module", "f", None, None)))
    with Tracer() as tracer:
        from dcattack import attack
        assert hasattr(attack.attack_local, "__wrapped__")
    assert tracer.missing == ["attack.no_such_function", "no_such_module.f"]


def test_an_extractor_that_no_longer_fits_records_nothing():
    tracer = Tracer()
    wrapped = tracer._wrap("f", lambda x: x, None, lambda _a, r: {"n": r.iterations})
    assert wrapped(3) == 3
    assert tracer.spans[0][4] == {}
