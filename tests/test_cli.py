"""End-to-end CLI tests (reports, exit codes, manifests, artifacts)."""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from dcattack.case_ingest import case_to_json
from dcattack.cli import build_parser, main

DESK2_M = """\
function mpc = desk2m
mpc.baseMVA = 100;
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1\t0\t230\t1\t1.1\t0.9;
\t2\t1\t300\t0\t0\t0\t1\t1\t0\t230\t1\t1.1\t0.9;
];
mpc.gen = [
\t1\t0\t0\t0\t0\t1\t100\t1\t200\t0;
\t2\t0\t0\t0\t0\t1\t100\t1\t200\t0;
];
mpc.branch = [
\t1\t2\t0\t0.1\t0\t0\t0\t0\t0\t0\t1\t-360\t360;
];
mpc.gencost = [
\t2\t0\t0\t2\t10\t0;
\t2\t0\t0\t2\t20\t0;
];
"""


@pytest.fixture
def desk2_m(tmp_path):
    path = tmp_path / "desk2.m"
    path.write_text(DESK2_M)
    return str(path)


@pytest.fixture
def desk3_json(tmp_path, desk3):
    path = tmp_path / "desk3.json"
    path.write_text(case_to_json(desk3))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_attack_command_end_to_end(desk2_m, tmp_path, capsys):
    trace = tmp_path / "delta.csv"
    code, out = _run(capsys, ["attack", desk2_m, "--seed", "7",
                              "--trace", str(trace)])
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "dcattack-attack/1"
    assert rep["certified"] is True
    assert rep["norm_sq"] == pytest.approx(1.0, rel=1e-3)
    assert rep["manifest"]["config"]["seed"] == 7
    assert rep["manifest"]["config"]["seed_generated"] is False
    buses = [row["bus"] for row in rep["per_bus"]]
    assert buses == [2]
    assert rep["per_bus"][0]["pct_of_total_load"] == pytest.approx(
        100.0 * rep["delta"][0] / 3.0)
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "bus,delta_pu,pct_of_total_load"
    assert len(lines) == 2


def test_attack_manifest_echoes_eps(desk2_m, capsys):
    code, out = _run(capsys, ["attack", desk2_m, "--eps", "1e-4", "--seed", "1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["manifest"]["config"]["eps"] == pytest.approx(1e-4)
    assert rep["eps"] == pytest.approx(1e-4)


def test_missing_file_exits_2_with_error_json(capsys):
    code, out = _run(capsys, ["attack", "/nonexistent/case.m"])
    assert code == 2
    rep = json.loads(out)
    assert rep["schema"] == "dcattack-error/1"
    assert rep["error"]["type"] == "FileNotFoundError"
    assert rep["manifest"]["command"] == "attack"


def test_generated_seed_is_recorded(desk2_m, capsys):
    code, out = _run(capsys, ["defend", desk2_m, "--policy", "warm"])
    assert code == 0
    rep = json.loads(out)
    assert rep["manifest"]["config"]["seed_generated"] is True
    assert isinstance(rep["manifest"]["config"]["seed"], int)


def test_defend_local_and_rank1(desk2_m, capsys):
    code, out = _run(capsys, ["defend", desk2_m, "--seed", "3"])
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "dcattack-defense/1"
    assert rep["t"] == pytest.approx(1.0, rel=1e-3)
    assert rep["verified_samples"] == 1000

    code, out = _run(capsys, ["defend", desk2_m, "--seed", "3",
                              "--policy", "rank1-uniform",
                              "--verify-samples", "500"])
    assert code == 0
    rep = json.loads(out)
    assert rep["t"] == pytest.approx(1.0, abs=1e-9)
    assert rep["verified_samples"] == 500
    assert np.asarray(rep["G"]) == pytest.approx(np.array([[0.5]]))


def test_squeeze_writes_artifacts(desk3_json, tmp_path, capsys):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "trace.csv"
    code, out = _run(capsys, ["squeeze", desk3_json, "--seed", "5",
                              "--budget", "60", "--json", str(out_json),
                              "--trace", str(out_csv)])
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "dcattack-bounds/1"
    assert rep["matched"] is True
    assert rep["ub"] == pytest.approx(169.0 / 500.0, rel=1e-3)
    disk = json.loads(out_json.read_text())
    assert disk["lb"] == rep["lb"]
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "elapsed_s,side,value"
    assert len(lines) >= 3


def test_dump_matrices(desk2_m, tmp_path, capsys):
    path = tmp_path / "mats.json"
    code, _out = _run(capsys, ["defend", desk2_m, "--policy", "warm",
                               "--dump-matrices", str(path)])
    assert code == 0
    blob = json.loads(path.read_text())
    assert np.asarray(blob["A"]).shape == (4, 1)
    assert len(blob["row_labels"]) == 4


def test_table_renders_md_and_csv(desk2_m, desk3_json, capsys):
    code, out = _run(capsys, ["table", desk2_m, desk3_json, "--seed", "2",
                              "--budget", "60"])
    assert code == 0
    assert out.startswith("| case")
    assert "desk2" in out and "desk3" in out
    assert "True" in out

    code, out = _run(capsys, ["table", desk2_m, "--seed", "2", "--budget", "60",
                              "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "case,lb,ub,gap,matched,match_time_s"
    assert lines[1].startswith("desk2,")


def test_table_empty_case_list_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table"])
    assert exc.value.code == 2


def test_infeasible_case_is_domain_error(tmp_path, capsys):
    bad = DESK2_M.replace("\t2\t1\t300", "\t2\t1\t900")
    path = tmp_path / "bad.m"
    path.write_text(bad)
    code, out = _run(capsys, ["attack", str(path)])
    assert code == 3
    rep = json.loads(out)
    assert rep["error"]["type"] == "AttackError"


@pytest.mark.parametrize("name, text", [
    ("list.json", lambda doc: "[1, 2]"),
    ("unnamed.json", lambda doc: json.dumps(
        {k: v for k, v in doc.items() if k != "name"})),
    ("extra-field.json", lambda doc: json.dumps(dict(
        doc, buses=[dict(doc["buses"][0], q=1.0)] + doc["buses"][1:]))),
    ("nan-load.m", lambda doc: DESK2_M.replace("\t2\t1\t300", "\t2\t1\tnan")),
    ("nan-bus-id.m", lambda doc: DESK2_M.replace("\t2\t1\t300", "\tnan\t1\t300")),
], ids=["not-an-object", "missing-key", "unknown-field", "nan-load",
        "nan-bus-id"])
def test_malformed_case_is_a_case_error(desk3, tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text(json.loads(case_to_json(desk3))))
    code, out = _run(capsys, ["attack", str(path)])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "CaseError"


def test_readme_documents_exactly_the_parser_flags():
    """The --flags in README's "Command line" section are the subcommands'
    option strings (bar argparse's own --help), both ways."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {opt for p in sub.choices.values() for a in p._actions
               for opt in a.option_strings if opt.startswith("--")}
    assert documented == options - {"--help"}
