"""The seeded ladder generator: determinism, feasibility, degenerate features."""

from collections import Counter

import numpy as np
import pytest

import ladder
import oracle
from dcattack.case_ingest import parse_case_text
from dcattack.dc_model import build_feasibility

PLAIN = (30, 60, 120)
DEGENERATE = (30, 60, 90)


def _case(net):
    return parse_case_text(ladder.to_matpower(net), name=net["name"])


@pytest.mark.parametrize("degenerate", [False, True])
def test_same_seed_same_network(degenerate):
    a = ladder.to_matpower(ladder.ladder(60, 4, degenerate))
    b = ladder.to_matpower(ladder.ladder(60, 4, degenerate))
    assert a == b


@pytest.mark.parametrize("degenerate", [False, True])
def test_seed_draws_the_load_snapshot_on_a_fixed_grid(degenerate):
    a, b = ladder.ladder(60, 0, degenerate), ladder.ladder(60, 1, degenerate)
    assert [(br["f"], br["t"], br["x"]) for br in a["branches"]] == \
        [(br["f"], br["t"], br["x"]) for br in b["branches"]]
    assert [g["bus"] for g in a["gens"]] == [g["bus"] for g in b["gens"]]
    pa = np.array([bus["p_d"] for bus in a["buses"]])
    pb = np.array([bus["p_d"] for bus in b["buses"]])
    assert not np.array_equal(pa, pb)
    assert np.array_equal(pa > 0, pb > 0)
    loaded = pa > 0
    assert np.all(np.abs(pb[loaded] / pa[loaded] - 1.0)
                  <= 2 * ladder.LOAD_JITTER / (1 - ladder.LOAD_JITTER) + 1e-3)


@pytest.mark.parametrize("n,degenerate",
                         [(n, False) for n in PLAIN] + [(n, True) for n in DEGENERATE])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_every_network_is_nominally_feasible(n, degenerate, seed):
    net = ladder.ladder(n, seed, degenerate)
    case = _case(net)
    mats = build_feasibility(case)
    assert oracle.dispatch_feasible(case, mats.load_pos, np.zeros(mats.n_delta))

    # the witness: the proportional dispatch, with every rating >= 1.3x its flow
    p_d = np.array([bus["p_d"] for bus in net["buses"]])
    inj = -p_d
    np.add.at(inj, [g["bus"] - 1 for g in net["gens"]],
              ladder.proportional_dispatch(net["gens"], p_d.sum()))
    flows = ladder.witness_flows(
        n, [(br["f"] - 1, br["t"] - 1, br["x"]) for br in net["branches"]], inj)
    for br, flow in zip(net["branches"], flows):
        if br["rate"] is not None:
            assert br["rate"] >= ladder.RATING_MIN * abs(flow)


def _features(net):
    n = len(net["buses"])
    degree = Counter()
    pairs = Counter()
    for br in net["branches"]:
        degree[br["f"]] += 1
        degree[br["t"]] += 1
        pairs[frozenset((br["f"], br["t"]))] += 1
    return {
        "spurs": sum(1 for b in range(1, n + 1) if degree[b] == 1),
        "unrated": sum(br["rate"] is None for br in net["branches"]),
        "parallel": sum(c - 1 for c in pairs.values()),
        "zero_units": sum(g["p_min"] == g["p_max"] == 0.0 for g in net["gens"]),
        "must_run": sum(g["p_min"] == g["p_max"] > 0.0 for g in net["gens"]),
        "branches": len(net["branches"]),
    }


@pytest.mark.parametrize("n", DEGENERATE)
def test_degenerate_features_in_expected_counts(n):
    net = ladder.ladder(n, 0, degenerate=True)
    f = _features(net)
    assert f["spurs"] == n // 10
    assert f["parallel"] == max(2, n // 15)
    assert f["unrated"] == round(0.2 * f["branches"])
    assert f["zero_units"] == 2
    assert f["must_run"] == 1
    # the parsed case keeps them: unrated lines carry no rating
    case = _case(net)
    assert sum(br.rate is None for br in case.branches) == f["unrated"]
    assert case.n_branch == f["branches"]


@pytest.mark.parametrize("n", PLAIN)
def test_plain_ladder_has_none_of_them(n):
    net = ladder.ladder(n, 0)
    f = _features(net)
    assert f == {"spurs": 0, "unrated": 0, "parallel": 0, "zero_units": 0,
                 "must_run": 0, "branches": n + n // 2}
    assert sum(bus["p_d"] > 0 for bus in net["buses"]) == round(0.6 * n)
    assert len(net["gens"]) == n // 5
