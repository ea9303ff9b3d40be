"""End-to-end CLI tests (reports, exit codes, manifests, artifacts)."""

import argparse
import csv
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from dcattack.attack import certify_infeasible
from dcattack.case_ingest import case_to_json, load_case
from dcattack import cli, squeeze
from dcattack.cli import build_parser, main
from dcattack.dc_model import build_feasibility
from dcattack.errors import SolverError

from conftest import BUNDLED, pglib_path

ROOT = Path(__file__).resolve().parents[1]

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
    assert set(rep) == {
        "schema", "manifest", "case", "norm_sq", "objective", "eps",
        "certified", "converged", "convergence", "iterations", "residuals",
        "fixed_dispatch_lb", "delta", "farkas_rows", "farkas_weights",
        "per_bus", "starts", "elapsed_s"}
    assert rep["eps"] == 1e-3
    assert rep["certified"] is True
    assert rep["norm_sq"] == pytest.approx(1.0, rel=1e-3)
    assert rep["objective"] == rep["norm_sq"]
    assert rep["manifest"]["config"]["seed"] == 7
    assert rep["manifest"]["config"]["seed_generated"] is False
    buses = [row["bus"] for row in rep["per_bus"]]
    assert buses == [2]
    assert rep["per_bus"][0]["pct_of_total_load"] == pytest.approx(
        100.0 * rep["delta"][0] / 3.0)
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "bus,delta_pu,pct_of_total_load"
    assert len(lines) == 2


def test_missing_file_exits_2_with_error_json(capsys):
    code, out = _run(capsys, ["attack", "/nonexistent/case.m"])
    assert code == 2
    rep = json.loads(out)
    assert rep["schema"] == "dcattack-error/1"
    assert rep["error"]["type"] == "FileNotFoundError"
    assert rep["manifest"]["command"] == "attack"


def test_generated_seed_is_recorded(desk2_m, capsys):
    code, out = _run(capsys, ["defend", desk2_m])
    assert code == 0
    rep = json.loads(out)
    assert rep["manifest"]["config"]["seed_generated"] is True
    assert isinstance(rep["manifest"]["config"]["seed"], int)


def test_defend_reports_a_verified_policy(desk2_m, capsys):
    code, out = _run(capsys, ["defend", desk2_m, "--seed", "3"])
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "dcattack-defense/1"
    assert rep["t"] == pytest.approx(1.0, rel=1e-3)
    assert rep["verified_samples"] == 1000
    # the warm start's fixed-dispatch radius rides along in every report
    assert rep["t_init"] == pytest.approx(0.25, abs=1e-12)

    code, out = _run(capsys, ["defend", desk2_m, "--seed", "3",
                              "--verify-samples", "500"])
    assert code == 0
    rep = json.loads(out)
    assert rep["t"] == pytest.approx(1.0, rel=1e-9)
    assert rep["verified_samples"] == 500
    # every optimal policy of desk2 has p0 + G = 2 (tests/test_defense.py)
    assert rep["p0"][0] + rep["G"][0][0] == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("net", ["desk3", "case14_ieee"])
def test_defend_trace_lists_every_row_radius(net, desk3_json, tmp_path,
                                             capsys):
    """`defend --trace` writes one radius per row of F, in row order; the
    smallest is the report's t, on its binding row."""
    path = desk3_json if net == "desk3" else pglib_path(net)
    trace = tmp_path / "radii.csv"
    code, out = _run(capsys, ["defend", path, "--seed", "0",
                              "--trace", str(trace)])
    assert code == 0
    rep = json.loads(out)
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "radius_sq"]
    labels = build_feasibility(load_case(path)).row_labels
    assert [r[0] for r in rows[1:]] == list(labels)
    radii = [float(r[1]) for r in rows[1:]]
    i = int(np.argmin(radii))
    assert radii[i] == rep["t"] and rows[1 + i][0] == rep["binding_row"]


def test_squeeze_writes_artifacts(desk3_json, tmp_path, capsys):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "trace.csv"
    code, out = _run(capsys, ["squeeze", desk3_json, "--seed", "5",
                              "--budget", "60", "--json", str(out_json),
                              "--trace", str(out_csv)])
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "dcattack-bounds/1"
    assert set(rep) == {
        "schema", "manifest", "case", "lb", "ub", "gap", "matched",
        "match_threshold", "match_time_s", "elapsed_s", "budget_s", "eps",
        "seed", "flags", "trace", "attack", "defense"}
    assert set(rep["attack"]) == {
        "norm_sq", "objective", "eps", "converged", "convergence",
        "iterations", "certified", "start", "residuals", "delta",
        "farkas_rows", "farkas_weights"}
    assert rep["eps"] == rep["attack"]["eps"] == 1e-3
    assert rep["matched"] is True
    assert rep["ub"] == pytest.approx(169.0 / 500.0, rel=1e-3)
    disk = json.loads(out_json.read_text())
    assert disk["lb"] == rep["lb"]
    # one row per trace entry, as csv writes them: \r\n row ends
    raw = out_csv.read_bytes()
    assert raw.count(b"\r\n") == raw.count(b"\n") == len(rep["trace"]) + 1
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["elapsed_s", "side", "value"]] + [
        [f"{e['elapsed_s']:.6f}", e["side"], repr(e["value"])]
        for e in rep["trace"]]
    assert len(rows) >= 3


def _listified(value):
    """`value` with every numpy array in it, at any depth, as nested
    lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _listified(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_listified(v) for v in value]
    return value


@pytest.mark.parametrize("net", ["case5_pjm", "case14_ieee"])
@pytest.mark.parametrize("command", ["attack", "defend", "squeeze"])
def test_report_json_is_the_listified_report(command, net, tmp_path,
                                             monkeypatch, capsys):
    """Reports keep their numpy arrays until JSON is written: stdout and
    --json are, byte for byte, the report with its arrays as lists."""
    reports, real = [], cli._emit

    def spy(report, args):
        reports.append(report)
        real(report, args)

    monkeypatch.setattr(cli, "_emit", spy)
    path = tmp_path / "report.json"
    code, out = _run(capsys, [command, pglib_path(net), "--seed", "0",
                              "--json", str(path)])
    assert code == 0
    text = json.dumps(_listified(reports[0]), indent=2) + "\n"
    assert out == text and path.read_text() == text


@pytest.mark.parametrize("net", BUNDLED)
def test_each_report_carries_a_farkas_certificate_that_checks(net, capsys):
    """The attack report and the bounds report's attack block carry mu /
    1^T mu on its support, as row labels and weights.  mu rebuilt from the
    JSON alone is the multistart's ray to the bit, and the residual rule
    accepts it at the inflated point (1 + 1e-4) delta."""
    mats = build_feasibility(load_case(pglib_path(net)))
    for command in ("attack", "squeeze"):
        code, out = _run(capsys, [command, pglib_path(net), "--seed", "0"])
        assert code == 0
        rep = json.loads(out)
        block = rep if command == "attack" else rep["attack"]
        rows = [mats.row_labels.index(label) for label in block["farkas_rows"]]
        assert rows == sorted(set(rows))
        assert 0 < len(rows) <= mats.n_reduced + 1
        mu = np.zeros(mats.m)
        mu[rows] = block["farkas_weights"]
        assert np.all(mu[rows] > 0) and abs(mu.sum() - 1.0) <= 1e-12
        delta = (1.0 + 1e-4) * np.array(block["delta"])
        ok, ray = certify_infeasible(mats, delta, mu)
        assert ok and ray.tobytes() == (mu / mu.sum()).tobytes()


def test_table_json_is_the_listified_reports(tmp_path, monkeypatch, capsys):
    reps, real = [], cli.squeeze_run

    def spy(*args, **kw):
        reps.append(real(*args, **kw))
        return reps[-1]

    monkeypatch.setattr(cli, "squeeze_run", spy)
    paths = [pglib_path("case5_pjm"), pglib_path("case14_ieee")]
    out = tmp_path / "table.json"
    code, _out = _run(capsys, ["table", *paths, "--seed", "0",
                               "--json", str(out)])
    assert code == 0
    text = out.read_text()
    doc = {"schema": "dcattack-table/1",
           "manifest": json.loads(text)["manifest"],
           "runs": [{**_listified(rep.to_dict()), "path": path}
                    for rep, path in zip(reps, paths)]}
    assert text == json.dumps(doc, indent=2)


def test_dump_matrices(desk2_m, tmp_path, capsys):
    path = tmp_path / "mats.json"
    code, _out = _run(capsys, ["defend", desk2_m,
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


def test_table_csv_quotes_a_case_name_with_a_comma(tmp_path, capsys):
    path = tmp_path / "a,b.m"
    path.write_text(DESK2_M)
    code, out = _run(capsys, ["table", str(path), "--seed", "2",
                              "--budget", "60", "--format", "csv"])
    assert code == 0
    header, row = csv.reader(out.splitlines())
    assert len(header) == len(row) == 6
    assert row[0] == "a,b"


def test_table_empty_case_list_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["attack", "defend", "squeeze"])
def test_infeasible_case_is_domain_error(tmp_path, capsys, command):
    """A case infeasible before any perturbation exits 3 with the
    ModelError of the one max-margin LP, which names a row of its Farkas
    ray."""
    bad = DESK2_M.replace("\t2\t1\t300", "\t2\t1\t900")
    path = tmp_path / "bad.m"
    path.write_text(bad)
    code, out = _run(capsys, [command, str(path)])
    assert code == 3
    rep = json.loads(out)
    assert rep["error"]["type"] == "ModelError"
    assert rep["error"]["message"].startswith("max-margin LP")
    labels = build_feasibility(load_case(str(path))).row_labels
    assert any(label in rep["error"]["message"] for label in labels)


def _diverge(*args, **kw):
    raise SolverError("diverged (spy)")


@pytest.mark.parametrize("side, flag", [
    ("defense_local", "no-certified-policy"),
    ("multistart_attack", "no-certified-attack")], ids=["policy", "attack"])
@pytest.mark.parametrize("command", ["squeeze", "table"])
def test_a_bracket_side_without_a_bound_exits_3(desk2_m, tmp_path, monkeypatch,
                                                capsys, command, side, flag):
    """When the policy SOCP or the attack raises SolverError, squeeze and
    table still write the other side's bound with the flag, and exit 3 by
    the same rule; the clean run exits 0."""
    path = tmp_path / "out.json"
    argv = [command, desk2_m, "--seed", "0", "--json", str(path)]
    assert _run(capsys, argv)[0] == 0
    monkeypatch.setattr(squeeze, side, _diverge)
    assert _run(capsys, argv)[0] == 3
    rep = json.loads(path.read_text())
    assert flag in (rep if command == "squeeze" else rep["runs"][0])["flags"]


@pytest.mark.parametrize("command", ["attack", "table"])
def test_unwritable_json_path_is_one_error_report(desk2_m, capsys, command):
    """A --json path in a missing directory exits 2 with the error report
    as the only output on stdout."""
    code, out = _run(capsys, [command, desk2_m, "--seed", "0",
                              "--json", "/nonexistent/dir/out.json"])
    assert code == 2
    rep = json.loads(out)
    assert rep["schema"] == "dcattack-error/1"
    assert rep["error"]["type"] == "FileNotFoundError"


def test_unexpected_failure_exits_1_with_error_json(desk2_m, monkeypatch,
                                                    capsys):
    def boom(args, manifest):
        raise RuntimeError("boom")
    monkeypatch.setitem(cli._COMMANDS, "attack", boom)
    code, out = _run(capsys, ["attack", desk2_m, "--seed", "1"])
    assert code == 1
    rep = json.loads(out)
    assert rep["schema"] == "dcattack-error/1"
    assert rep["error"] == {"type": "RuntimeError", "message": "boom"}
    assert rep["manifest"]["command"] == "attack"


@pytest.mark.parametrize("name, text", [
    ("list.json", lambda doc: "[1, 2]"),
    ("unnamed.json", lambda doc: json.dumps(
        {k: v for k, v in doc.items() if k != "name"})),
    ("extra-field.json", lambda doc: json.dumps(dict(
        doc, buses=[dict(doc["buses"][0], q=1.0)] + doc["buses"][1:]))),
    ("nan-load.m", lambda doc: DESK2_M.replace("\t2\t1\t300", "\t2\t1\tnan")),
    ("nan-bus-id.m", lambda doc: DESK2_M.replace("\t2\t1\t300", "\tnan\t1\t300")),
    ("bad-base.m", lambda doc: DESK2_M.replace("= 100;", "= 1.0.0;")),
    ("nan-base.m", lambda doc: DESK2_M.replace("= 100;", "= nan;")),
    ("inf-base.m", lambda doc: DESK2_M.replace("= 100;", "= 1e999;")),
    ("latin1.m", lambda doc: (DESK2_M + "% caf\xe9\n").encode("latin-1")),
], ids=["not-an-object", "missing-key", "unknown-field", "nan-load",
        "nan-bus-id", "bad-scalar", "nan-base", "inf-base", "not-utf8"])
def test_malformed_case_is_a_case_error(desk3, tmp_path, capsys, name, text):
    path = tmp_path / name
    data = text(json.loads(case_to_json(desk3)))
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    code, out = _run(capsys, ["attack", str(path)])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "CaseError"



@pytest.mark.parametrize("command, flag, value", [
    ("attack", "--seed", "-1"), ("defend", "--verify-samples", "-2"),
    ("squeeze", "--budget", "nan"), ("squeeze", "--budget", "inf"),
    ("squeeze", "--match-threshold", "-1"),
    ("squeeze", "--match-threshold", "0"), ("attack", "--restarts", "-3"),
])
def test_bad_numeric_option_is_a_usage_error(desk2_m, capsys, command, flag,
                                             value):
    """The match threshold is finite and > 0, the budget finite and
    >= 0, the counts and the seed >= 0; anything else exits 2 at parse
    time, naming the flag."""
    with pytest.raises(SystemExit) as exc:
        main([command, desk2_m, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err

# per subcommand: flags it does not read (each with a value), and the keys of
# its manifest's config
_SPLIT = {
    "attack": ([("--eps", "1e-4"), ("--budget", "60"),
                ("--match-threshold", "0.5"), ("--policy", "warm"),
                ("--verify-samples", "3"), ("--format", "csv")],
               {"restarts"}),
    "defend": ([("--eps", "1e-4"), ("--restarts", "2"),
                ("--match-threshold", "0.5"), ("--format", "csv"),
                ("--policy", "local")],
               {"budget_s", "verify_samples"}),
    "squeeze": ([("--eps", "1e-4"), ("--policy", "warm"),
                 ("--format", "csv")],
                {"restarts", "budget_s", "match_threshold",
                 "verify_samples"}),
    "table": ([("--eps", "1e-4"), ("--trace", "x.csv"),
               ("--dump-matrices", "m.json"), ("--policy", "warm")],
              {"restarts", "budget_s", "match_threshold",
               "verify_samples"}),
}


@pytest.mark.parametrize("command", sorted(_SPLIT))
def test_subcommands_take_only_the_flags_they_read(desk2_m, tmp_path, capsys,
                                                    command):
    """A flag the subcommand would ignore is a usage error, and the manifest
    echoes only the subcommand's own options plus the seed."""
    dropped, config_keys = _SPLIT[command]
    for flag, value in dropped:
        with pytest.raises(SystemExit) as exc:
            main([command, desk2_m, flag, value])
        assert exc.value.code == 2, (command, flag)
    capsys.readouterr()

    out_json = tmp_path / "report.json"
    code = main([command, desk2_m, "--seed", "1", "--json", str(out_json)])
    capsys.readouterr()
    assert code == 0
    config = json.loads(out_json.read_text())["manifest"]["config"]
    assert set(config) == config_keys | {"seed", "seed_generated"}


def test_readme_library_block_runs(monkeypatch, capsys):
    """The README's "Library" example runs as written from the repo root."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    ns = {}
    exec(compile(code, "README.md", "exec"), ns)
    capsys.readouterr()
    assert ns["report"].best.certified and ns["pol"].verified_samples
    assert ns["bounds"].lb <= ns["bounds"].ub


def _command_line_section():
    readme = (ROOT / "README.md").read_text()
    return readme.split("## Command line", 1)[1].split("\n## ", 1)[0]


def _flag_owners():
    """{--flag: the subcommands whose parser has it}, bar --help."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    owners = {}
    for name, p in sub.choices.items():
        for a in p._actions:
            for opt in a.option_strings:
                if opt.startswith("--") and opt != "--help":
                    owners.setdefault(opt, set()).add(name)
    return owners


def test_readme_documents_exactly_the_parser_flags():
    """The --flags in README's "Command line" section are the subcommands'
    option strings (bar argparse's own --help), both ways."""
    documented = set(re.findall(r"--[a-z][a-z-]*", _command_line_section()))
    assert documented == set(_flag_owners())


def test_readme_names_the_subcommands_of_each_flag():
    """Each flag bullet's "(attack, squeeze, table)" or "(all)" names exactly
    the subcommands whose parser has that flag."""
    owners = _flag_owners()
    everyone = set().union(*owners.values())
    listed = re.findall(r"`(--[a-z][a-z-]*)[^`]*` \(([a-z, ]+)\)",
                        _command_line_section())
    assert {flag for flag, _names in listed} == set(owners)
    for flag, names in listed:
        named = everyone if names == "all" else set(names.split(", "))
        assert named == owners[flag], flag


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    """Every `dcattack ...` line of README's "Command line" block exits 0,
    run from a scratch directory with its case paths taken from the repo
    root."""
    block = _command_line_section().split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("dcattack ")]
    assert len(commands) == 4
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        argv = [str(ROOT / a) if a.startswith("cases/") else a for a in argv]
        assert main(argv) == 0, argv
        capsys.readouterr()
