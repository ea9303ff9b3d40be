"""The runner's output agrees with BENCHMARK.json, it refuses to run
without the package, and its scaling to the reference VM cancels host
speed."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_json_within_limits(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
        for m in spec[group]:
            assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_output_matches_the_spec(spec, trace, group):
    proc = _run(ROOT, "--workload", "bundled-squeeze", "--seed", "1",
                "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 4
    want = {m["name"]: m["unit"] for m in spec[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    # every end-to-end metric, bounded or not, is printed by name with its unit
    for name in ("time_to_solution_s", "setup_s", "ub_geomean", "bracket_ratio",
                 "unmatched_frac", "error_frac", "peak_rss_mb"):
        assert any(re.match(rf"^{name} \S+ \S+$", line) for line in lines), name


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "ladder-attack", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_scaling_cancels_host_speed():
    wl = workloads.WORKLOADS["bundled-squeeze"]
    nominal = [workloads.Outcome("a", 2.0, solved=True,
                                 ref_s=(run.REF_NOMINAL_S,) * 2),
               workloads.Outcome("b", 1.0, error="raised",
                                 ref_s=(run.REF_NOMINAL_S,) * 2)]
    # the same work on a host half as fast: every time doubles
    slow = [workloads.Outcome(o.network, 2 * o.wall_s, solved=o.solved,
                              error=o.error, ref_s=(2 * run.REF_NOMINAL_S,) * 2)
            for o in nominal]
    for outs in (nominal, slow):
        assert run.pass_time(wl, outs) == pytest.approx(3.0 + wl.budget_s)
    assert run.pass_time(wl, slow, scale=False) == pytest.approx(
        6.0 + wl.budget_s)
