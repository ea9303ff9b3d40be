"""Squeeze coordination tests (desk scale)."""

import json
import tracemalloc

import numpy as np
import pytest

import oracle_utils
from conftest import BUNDLED, bench_ladder, pglib_path

from dcattack import attack, lin_solve, squeeze
from dcattack.attack import AttackConfig, attack_local, multistart_attack
from dcattack.case_ingest import build_case, load_case
from dcattack.dc_model import build_feasibility
from dcattack.defense import DefensePolicy, defense_local, verify_policy
from dcattack.errors import ModelError, SolverError
from dcattack.squeeze import (BoundsReport, SqueezeConfig, cross_feed,
                              squeeze_run)


def _run(case, **kw):
    cfg = SqueezeConfig(**{"budget_s": 60.0, "seed": 3, **kw})
    return squeeze_run(case, cfg)


def test_desk2_squeeze_matches_global_value(desk2):
    rep = _run(desk2)
    assert rep.matched and rep.match_time is not None
    assert rep.ub == pytest.approx(1.0, rel=1e-3)
    assert rep.lb == pytest.approx(1.0, rel=1e-3)
    assert rep.gap < rep.match_threshold
    assert rep.attack["certified"]
    assert rep.defense["verified_samples"] == 1000


def test_desk3_squeeze_matches_global_value(desk3):
    rep = _run(desk3)
    assert rep.matched
    assert rep.ub == pytest.approx(169.0 / 500.0, rel=1e-3)
    assert rep.lb == pytest.approx(169.0 / 500.0, rel=1e-3)


def test_trace_invariants(desk3):
    rep = _run(desk3)
    lb, ub = 0.0, np.inf
    for _e, side, value in rep.trace:
        if side == "defense":
            assert value >= lb - 1e-15      # lb nondecreasing
            lb = value
        else:
            assert value <= ub + 1e-15      # ub nonincreasing
            ub = value
        assert lb <= ub + 1e-6
    elapsed = [e for e, _s, _v in rep.trace]
    assert elapsed == sorted(elapsed)


def test_identical_seeds_reproduce_traces(desk3):
    rep1 = _run(desk3, seed=21)
    rep2 = _run(desk3, seed=21)
    assert [(s, v) for _e, s, v in rep1.trace] == \
        [(s, v) for _e, s, v in rep2.trace]


def test_report_serialization_roundtrip(desk2):
    rep = _run(desk2)
    blob = json.loads(json.dumps(rep.to_dict()))
    assert blob["schema"] == "dcattack-bounds/1"
    assert blob["case"] == "desk2"
    assert blob["matched"] is True
    assert blob["lb"] == rep.lb and blob["ub"] == rep.ub
    assert len(blob["trace"]) == len(rep.trace)


def test_bound_ordering_violation_is_fatal():
    """lb above ub fails at any scale: the bar is relative to ub, so a pair
    far below 1e-6 pu^2 fails too, and lb = ub (1 + 1e-7) passes."""
    for ub, lb in ((1.0, 1.5), (1e-8, 5e-7)):
        rep = BoundsReport(case_name="x")
        rep.append(0.0, "attack", ub)
        with pytest.raises(ModelError):
            rep.append(0.0, "defense", lb)
        rep = BoundsReport(case_name="x")
        rep.append(0.0, "attack", ub)
        rep.append(0.0, "defense", ub * (1.0 + 1e-7))


def test_report_without_attack_serializes():
    rep = BoundsReport(case_name="x")
    rep.append(0.0, "defense", 0.5)
    blob = json.loads(json.dumps(rep.to_dict()))
    assert blob["ub"] is None and blob["gap"] is None
    assert blob["matched"] is False


def test_cross_feed_seeds_the_attack_from_the_policy(desk2):
    from dcattack.defense import DefensePolicy, defense_local

    mats = build_feasibility(desk2)
    pol = defense_local(mats)
    hints = cross_feed(mats, pol)
    assert len(hints) == 2    # binding row, then B^T y
    farkas = hints[1]
    # 1 / ||B^T y||^2 is the affine optimum, here the global one
    assert float(farkas @ farkas) == pytest.approx(pol.t, rel=1e-6)
    for d in hints:
        # each start alone recovers the optimum in one shot
        sol = attack_local(mats, d)
        assert sol.norm_sq == pytest.approx(1.0, rel=1e-2)

    # a policy without a binding row or a dual gives no start
    unbounded = DefensePolicy(pol.p0, pol.G, np.inf, None)
    assert cross_feed(mats, unbounded) == []


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_squeeze_closes_the_gap(name):
    """One pass: one defense and one attack entry, a certified ub and an lb
    within 1e-5 of it."""
    rep = squeeze_run(load_case(pglib_path(name)), SqueezeConfig(seed=0))
    assert [side for _e, side, _v in rep.trace] == ["defense", "attack"]
    assert rep.attack["certified"]
    assert rep.lb <= rep.ub and rep.gap < 1e-5
    assert "zero-distance" not in rep.flags
    mats = build_feasibility(load_case(pglib_path(name)))
    delta = np.asarray(rep.attack["delta"]) * (1 + 1e-4)
    assert not oracle_utils.scipy_feasible(mats.A, mats.rhs(delta))


def _spy(monkeypatch, name):
    """Replace squeeze.<name> by a wrapper; returns the list of its
    results."""
    real, results = getattr(squeeze, name), []

    def spy(*args, **kw):
        results.append(real(*args, **kw))
        return results[-1]

    monkeypatch.setattr(squeeze, name, spy)
    return results


def test_the_240_bus_ladder_closes(monkeypatch):
    """The only tier-1 squeeze that solves the policy SOCP at 240 buses;
    its rounds stop to grow at a gap of 1e-2, so the steps stay few.  Both
    certificates re-check from the report: the Farkas multiplier at the
    inflated delta, and the policy by a sampled check of its own.  The
    squeeze's traced peak is about 9.4 MB; when the sampled check held all
    816 x 1001 margins at once, it was 17.8 MB."""
    mats = build_feasibility(bench_ladder(240, 0, False))
    attacks = _spy(monkeypatch, "multistart_attack")
    tracemalloc.start()
    try:
        rep = squeeze_run(mats.case, SqueezeConfig(budget_s=60), mats=mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.matched and rep.gap <= 2.1e-6 and rep.flags == []
    assert rep.defense["newton_steps"] <= 40
    assert rep.lb <= rep.ub
    delta = (1 + attack._CERT_INFLATION) * rep.attack["delta"]
    lin_solve.normalize_farkas_ray(mats.A, mats.rhs(delta),
                                   attacks[0].best.oracle_ray)
    pol = DefensePolicy(rep.defense["p0"], rep.defense["G"], rep.lb,
                        mats.row_labels.index(rep.defense["binding_row"]))
    assert verify_policy(mats, pol, samples=1000, seed=1) == 1000
    assert peak < 12e6


def test_reports_keep_arrays_until_json(monkeypatch):
    """The report's p0, G and delta are the policy's and the attack's own
    float64 arrays; to_dict() turns every array into lists."""
    attacks = _spy(monkeypatch, "multistart_attack")
    policies = _spy(monkeypatch, "defense_local")
    rep = squeeze_run(load_case(pglib_path("case14_ieee")),
                      SqueezeConfig(seed=0))
    pol, best = policies[0], attacks[0].best
    for got, own in ((rep.defense["p0"], pol.p0), (rep.defense["G"], pol.G),
                     (rep.attack["delta"], best.delta)):
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.shape == own.shape and got.tobytes() == own.tobytes()

    def arrays(value):
        if isinstance(value, dict):
            return sum(arrays(v) for v in value.values())
        if isinstance(value, (list, tuple)):
            return sum(arrays(v) for v in value)
        return int(isinstance(value, np.ndarray))

    doc = rep.to_dict()
    assert arrays(doc) == 0
    assert doc["defense"]["G"] == pol.G.tolist()
    assert doc["attack"]["delta"] == best.delta.tolist()


def test_squeeze_with_no_budget_stays_sound(desk3):
    rep = _run(desk3, budget_s=0.0)
    assert rep.defense["deadline"]
    assert rep.defense["verified_samples"] == 1000
    assert rep.lb <= rep.ub


def test_zero_distance_is_flagged():
    """A unit fixed beside rated lines makes an implicit equality that moves
    with delta: the infimum is 0, the ub is only a certified point, and the
    report says so."""
    case = build_case("zd3", 100.0, [(1, 0.0), (2, 1.0), (3, 1.0)],
                      [(1, 2, 0.1, 5.0), (2, 3, 0.1, 5.0)], [(1, 2.0, 2.0)])
    rep = squeeze_run(case, SqueezeConfig(seed=0))
    assert rep.attack["convergence"] == "zero-distance"
    assert "zero-distance" in rep.flags
    assert rep.lb <= rep.ub
    assert json.loads(json.dumps(rep.to_dict()))["flags"] == rep.flags


def _spied_squeeze(case, monkeypatch):
    """squeeze_run with the multistart's report captured and the ascents
    counted."""
    reports, ascents = _spy(monkeypatch, "multistart_attack"), []
    real_local = attack.attack_local

    def local_spy(*args, **kw):
        ascents.append(1)
        return real_local(*args, **kw)

    monkeypatch.setattr(attack, "attack_local", local_spy)
    rep = squeeze_run(case, SqueezeConfig(seed=0))
    monkeypatch.undo()
    return rep, reports[0], ascents


def test_a_proven_zero_distance_is_flagged_whatever_wins(monkeypatch):
    """Total capacity equals total load, so any load increase empties F: the
    starts whose ascent ends on a ray of P prove the infimum 0, even though
    a finite ascent, not a ray's unit point, is the reported attack."""
    case = build_case(
        "cap", 100.0, [(1, 0.0), (2, 0.1), (3, 0.2)],
        [(1, 2, 0.1, 0.5), (2, 3, 0.1, 0.5), (1, 3, 0.1, 0.5)],
        [(1, 0.0, 0.15), (3, 0.0, 0.15)])
    rep, att, _ascents = _spied_squeeze(case, monkeypatch)
    assert any(note.get("convergence") == "zero-distance" for note in att.starts)
    assert rep.attack["convergence"] != "zero-distance"
    assert "zero-distance" in rep.flags
    assert rep.lb <= rep.ub


@pytest.mark.parametrize("name", BUNDLED)
def test_squeeze_stops_the_attack_once_the_bracket_closes(name, monkeypatch):
    """A certified attack that meets lb ends the multistart: every later
    start is skipped as closed, one ascent runs (from the first hint), and
    ub equals that of a full multistart from the same starts to 1e-8."""
    case = load_case(pglib_path(name))
    rep, ms, ascents = _spied_squeeze(case, monkeypatch)
    mats = build_feasibility(case)
    pol = defense_local(mats)
    full = multistart_attack(
        mats, AttackConfig(seed=0), extra_directions=cross_feed(mats, pol)).best
    assert rep.lb == pol.t
    assert rep.ub == pytest.approx(full.norm_sq, rel=1e-8)
    assert len(ascents) == 1
    status = [n["status"] for n in ms.starts]
    closing = status.index("skipped")
    assert all(n["status"] == "candidate" for n in ms.starts[:closing])
    assert all((n["status"], n["reason"]) == ("skipped", "closed")
               for n in ms.starts[closing:])
    assert ms.best.start == ms.starts[closing - 1]["start"]


def test_an_open_bracket_runs_every_start(monkeypatch):
    """degenerate30, seed 1: the affine lb stays 1e-3 below ub, so nothing
    closes and all nine ascents run."""
    rep, ms, ascents = _spied_squeeze(bench_ladder(30, 1, True), monkeypatch)
    assert rep.gap > 1e-4
    assert len(ascents) == len(ms.starts) == 9
    assert not any(n.get("reason") == "closed" for n in ms.starts)


@pytest.mark.parametrize("name", BUNDLED)
def test_squeeze_lp_budget(name, monkeypatch):
    """Regression guard: one bundled squeeze runs at most 6 LPs (the
    max-margin LP over P of the SOCP's warm start, whose result the
    multistart reuses, and the ascents' steps), and no probe over Q: the
    max-margin LP has an optimum, and the incumbent is certified from its
    own multiplier."""
    case = load_case(pglib_path(name))
    mats = build_feasibility(case)
    solves, probes = [], []
    real_solve, real_check = lin_solve.lp_solve, lin_solve.check_feasible

    def solve_spy(*args, **kw):
        solves.append(1)
        return real_solve(*args, **kw)

    def check_spy(*args, **kw):
        probes.append(1)
        return real_check(*args, **kw)

    monkeypatch.setattr(lin_solve, "lp_solve", solve_spy)
    monkeypatch.setattr(lin_solve, "check_feasible", check_spy)
    rep = squeeze_run(case, SqueezeConfig(seed=0), mats=mats)
    assert rep.attack["certified"]
    assert len(solves) <= 6 and not probes


@pytest.mark.parametrize("runs", [1, 2])
def test_each_squeeze_solves_the_max_margin_lp_once(desk3, runs,
                                                    monkeypatch):
    """The defense solves F(0)'s max-margin LP, max 1^T mu over P, and hands
    its result to the multistart, which would otherwise solve it again;
    nothing keeps it on `mats` between calls, so each call solves it
    once."""
    mats = build_feasibility(desk3)
    calls, real = [], lin_solve.lp_solve

    def spy(prob, *args, **kw):
        if prob.A_eq is mats.polytope.A_eq and np.all(prob.c == -1.0):
            calls.append(1)
        return real(prob, *args, **kw)

    monkeypatch.setattr(lin_solve, "lp_solve", spy)
    for _ in range(runs):
        rep = squeeze_run(desk3, SqueezeConfig(seed=0), mats=mats)
        assert rep.matched
    assert len(calls) == runs


def test_a_failing_attack_keeps_the_certified_lb(monkeypatch):
    """Every P-LP of the attack's ascents raises SolverError: each start is
    noted failed, nothing certifies, and the squeeze still reports the
    policy's certified lb with ub None, flagged, under the same report
    keys."""
    case = load_case(pglib_path("case14_ieee"))
    mats = build_feasibility(case)
    clean = squeeze_run(case, SqueezeConfig(seed=0), mats=mats)

    def spy(*args, **kw):
        raise SolverError("iteration cap exceeded (spy)")

    monkeypatch.setattr(attack, "_p_lp", spy)
    rep = squeeze_run(case, SqueezeConfig(seed=0), mats=mats)
    assert rep.lb == clean.lb > 0 and rep.ub is None and rep.attack is None
    assert "no-certified-attack" in rep.flags
    assert any("failed" in f and "iteration cap exceeded (spy)" in f
               for f in rep.flags)
    blob = json.loads(json.dumps(rep.to_dict()))
    assert blob.keys() == clean.to_dict().keys()


def test_a_failing_defense_keeps_the_certified_ub(monkeypatch):
    """The policy SOCP raises SolverError: the multistart still runs, with
    no hints and no lb, and the squeeze reports its certified ub with lb 0,
    defense None and both flags, under the same report keys, without
    verifying a policy; scipy confirms the attack.  An empty F(0) still
    raises ModelError from the defense's warm start."""
    case = load_case(pglib_path("case14_ieee"))
    mats = build_feasibility(case)
    clean = squeeze_run(case, SqueezeConfig(seed=0), mats=mats)
    bare = multistart_attack(mats, AttackConfig(restarts=5, seed=0))
    handed, real = [], squeeze.multistart_attack

    def fail(mats, budget_s=None):
        raise SolverError("policy SOCP diverged (spy)")

    def spy(mats, config=None, extra_directions=(), budget_s=None, lb=None,
            nominal=None):
        handed.append((list(extra_directions), lb, nominal))
        return real(mats, config, extra_directions, budget_s, lb, nominal)

    def no_policy(*args, **kw):
        raise AssertionError("no policy to verify")

    monkeypatch.setattr(squeeze, "defense_local", fail)
    monkeypatch.setattr(squeeze, "multistart_attack", spy)
    monkeypatch.setattr(squeeze, "verify_policy", no_policy)
    rep = squeeze_run(case, SqueezeConfig(seed=0), mats=mats)
    assert handed == [([], None, None)]
    assert rep.lb == 0.0 and rep.defense is None
    assert rep.ub == bare.best.norm_sq and rep.attack["certified"]
    assert rep.flags == ["defense-round0: policy SOCP diverged (spy)",
                         "no-certified-policy"]
    assert [side for _e, side, _v in rep.trace] == ["attack"]
    blob = json.loads(json.dumps(rep.to_dict()))
    assert blob.keys() == clean.to_dict().keys()
    assert not oracle_utils.scipy_feasible(
        mats.A, mats.rhs((1 + 1e-4) * np.asarray(rep.attack["delta"])))

    monkeypatch.setattr(squeeze, "defense_local", defense_local)
    overload = build_case("overload", 1.0, [(1, 0.0), (2, 10.0)],
                          [(1, 2, 0.1, None)],
                          [(1, 0.0, 2.0), (2, 0.0, 2.0)])
    with pytest.raises(ModelError, match="max-margin LP"):
        squeeze_run(overload, SqueezeConfig(seed=0))
