"""Command-line front end.

JSON on stdout is the canonical output of every subcommand; human-readable
tables are derived views.  Every report (and every error) embeds a manifest
echoing the exact configuration, so a run is reproducible from its report
alone.  Exit codes: 0 when the computation completed and every certification
passed, 2 for missing/unreadable inputs and usage errors, 3 for domain
failures (infeasible case, failed certification, ...), 1 for unexpected ones.
"""

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import __version__
from .attack import AttackConfig, multistart_attack
from .case_ingest import load_case
from .dc_model import build_feasibility
from .defense import (DefensePolicy, defense_local, rank1_policy, t_tilde,
                      verify_policy, warm_start_defense)
from .errors import DcAttackError
from .lin_solve import policy_radius
from .numerics import DEFAULT_POLICY
from .squeeze import SqueezeConfig, squeeze_run


def _add_common(p):
    p.add_argument("--eps", type=float, default=1e-3,
                   help="scale of the attack's certificate: mu^T (B delta + c) = eps")
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--seed", type=int, default=None,
                   help="root seed; generated and recorded when absent")
    p.add_argument("--budget", type=float, default=600.0,
                   help="wall-clock budget in seconds (defend/squeeze/table)")
    p.add_argument("--match-threshold", type=float, default=0.01)
    p.add_argument("--tol-feas", type=float, default=None,
                   help="override the feasibility tolerance (default 1e-8)")
    p.add_argument("--json", dest="json_path", default=None,
                   help="also write the report JSON to this path")
    p.add_argument("--trace", dest="trace_path", default=None,
                   help="write the subcommand's CSV artifact to this path")
    p.add_argument("--dump-matrices", dest="dump_matrices", default=None,
                   help="write the reduced feasibility matrices to this path")
    p.add_argument("--policy", dest="policy_kind", default="local",
                   choices=["local", "rank1-uniform", "rank1-proportional",
                            "warm"])
    p.add_argument("--verify-samples", type=int, default=1000)
    p.add_argument("--format", dest="table_format", default="md",
                   choices=["md", "csv"])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcattack",
        description="Smallest infeasibility-inducing load perturbations, "
                    "largest certified control radii, and their squeeze.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
            ("attack", "smallest certified infeasibility perturbation"),
            ("defend", "control policy with certified solvability radius"),
            ("squeeze", "drive attack and defense toward a common value")]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("case", help="case file (.m or .json)")
        _add_common(p)
    p = sub.add_parser("table", help="squeeze several cases, render a table")
    p.add_argument("cases", nargs="+", help="case files")
    _add_common(p)
    return parser


def _manifest(args):
    seed_generated = args.seed is None
    seed = (int(np.random.SeedSequence().entropy) & 0xFFFFFFFF
            if seed_generated else args.seed)
    cases = getattr(args, "cases", None) or [getattr(args, "case", None)]
    return {
        "command": args.command,
        "version": __version__,
        "case": cases[0] if len(cases) == 1 else cases,
        "config": {
            "eps": args.eps,
            "restarts": args.restarts,
            "seed": seed,
            "seed_generated": seed_generated,
            "budget_s": args.budget,
            "match_threshold": args.match_threshold,
            "tol_feas": args.tol_feas,
            "verify_samples": args.verify_samples,
            "policy": args.policy_kind,
        },
        "outputs": {
            "json": args.json_path,
            "trace": args.trace_path,
            "dump_matrices": args.dump_matrices,
        },
    }


def _numeric_policy(args):
    if args.tol_feas is not None:
        return DEFAULT_POLICY.with_feas_tol(args.tol_feas)
    return DEFAULT_POLICY


def _emit(report, args):
    text = json.dumps(report, indent=2)
    print(text)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(text + "\n")


def _maybe_dump_matrices(mats, args):
    if args.dump_matrices:
        with open(args.dump_matrices, "w") as fh:
            json.dump(mats.to_json_dict(), fh, indent=2)


def _load(args):
    case = load_case(args.case)
    mats = build_feasibility(case)
    _maybe_dump_matrices(mats, args)
    return case, mats


def _per_bus_rows(mats, delta):
    total = float(np.abs(mats.case.p_d()).sum())
    rows = []
    for bus_id, d in zip(mats.load_bus_ids, delta):
        rows.append({"bus": int(bus_id), "delta_pu": float(d),
                     "pct_of_total_load": 100.0 * float(d) / total
                     if total else float("nan")})
    return rows


def cmd_attack(args, manifest):
    policy = _numeric_policy(args)
    case, mats = _load(args)
    t0 = time.monotonic()
    rep = multistart_attack(
        mats, AttackConfig(eps=args.eps, restarts=args.restarts,
                           seed=manifest["config"]["seed"]),
        policy)
    sol = rep.best
    per_bus = _per_bus_rows(mats, sol.delta)
    report = {
        "schema": "dcattack-attack/1",
        "manifest": manifest,
        "case": case.name,
        "norm_sq": sol.norm_sq,
        "objective": sol.objective,
        "eps": sol.eps,
        "certified": sol.certified,
        "converged": sol.converged,
        "convergence": sol.convergence,
        "iterations": sol.iterations,
        "residuals": sol.residuals,
        "fixed_dispatch_lb": rep.fixed_lb,
        "delta": sol.delta.tolist(),
        "per_bus": per_bus,
        "starts": rep.starts,
        "elapsed_s": time.monotonic() - t0,
    }
    if args.trace_path:
        with open(args.trace_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["bus", "delta_pu", "pct_of_total_load"])
            for row in per_bus:
                w.writerow([row["bus"], repr(row["delta_pu"]),
                            f"{row['pct_of_total_load']:.6f}"])
    _emit(report, args)
    return 0


def cmd_defend(args, manifest):
    policy = _numeric_policy(args)
    case, mats = _load(args)
    t0 = time.monotonic()
    kind = args.policy_kind
    if kind == "local":
        pol = defense_local(mats, policy=policy, budget_s=args.budget)
    elif kind == "warm":
        p0, G0, t_init = warm_start_defense(mats, policy)
        pol = DefensePolicy(p0, G0, t_init, t_tilde(mats, p0, G0, policy)[1],
                            meta={"kind": "warm"})
    else:
        pol = rank1_policy(mats, kind.split("-", 1)[1], policy=policy)
    verify_policy(mats, pol, args.verify_samples,
                  seed=manifest["config"]["seed"], policy=policy)
    report = {
        "schema": "dcattack-defense/1",
        "manifest": manifest,
        "case": case.name,
        **pol.summary(mats),
        "elapsed_s": time.monotonic() - t0,
    }
    if args.trace_path:
        _t, _row, per = policy_radius(mats.A, mats.B, mats.c, pol.p0, pol.G,
                                      policy)
        with open(args.trace_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["row", "radius_sq"])
            for label, val in zip(mats.row_labels, per):
                w.writerow([label, repr(float(val))])
    _emit(report, args)
    return 0


def _squeeze_config(args, manifest):
    return SqueezeConfig(budget_s=args.budget,
                         match_threshold=args.match_threshold,
                         eps=args.eps, seed=manifest["config"]["seed"],
                         restarts=args.restarts,
                         verify_samples=args.verify_samples)


def cmd_squeeze(args, manifest):
    policy = _numeric_policy(args)
    case, mats = _load(args)
    rep = squeeze_run(case, _squeeze_config(args, manifest), policy, mats=mats)
    report = rep.to_dict()
    report["manifest"] = manifest
    if args.trace_path:
        with open(args.trace_path, "w") as fh:
            fh.write(rep.trace_csv())
    _emit(report, args)
    return 0 if "no-certified-attack" not in rep.flags else 3


def _render_table(rows, fmt):
    header = ["case", "lb", "ub", "gap", "matched", "match_time_s"]
    if fmt == "csv":
        buf = [",".join(header)]
        for r in rows:
            buf.append(",".join(str(r[h]) for h in header))
        return "\n".join(buf) + "\n"
    widths = [max(len(h), *(len(str(r[h])) for r in rows)) for h in header]
    def line(vals):
        return "| " + " | ".join(str(v).ljust(w) for v, w in zip(vals, widths)) + " |"
    out = [line(header), line(["-" * w for w in widths])]
    out.extend(line([r[h] for h in header]) for r in rows)
    return "\n".join(out) + "\n"


def cmd_table(args, manifest):
    policy = _numeric_policy(args)
    rows, reports, code = [], [], 0
    for path in args.cases:
        case = load_case(path)
        rep = squeeze_run(case, _squeeze_config(args, manifest), policy)
        if "no-certified-attack" in rep.flags:
            code = 3
        reports.append({**rep.to_dict(), "path": path})
        rows.append({
            "case": case.name,
            "lb": f"{rep.lb:.6g}",
            "ub": "-" if rep.ub is None else f"{rep.ub:.6g}",
            "gap": "-" if rep.gap is None else f"{rep.gap:.3%}",
            "matched": rep.matched,
            "match_time_s": "-" if rep.match_time is None
            else f"{rep.match_time:.2f}",
        })
    sys.stdout.write(_render_table(rows, args.table_format))
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump({"schema": "dcattack-table/1", "manifest": manifest,
                       "runs": reports}, fh, indent=2)
    return code


_COMMANDS = {"attack": cmd_attack, "defend": cmd_defend,
             "squeeze": cmd_squeeze, "table": cmd_table}


def main(argv=None):
    args = build_parser().parse_args(argv)
    manifest = _manifest(args)
    try:
        return _COMMANDS[args.command](args, manifest)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        _emit({"schema": "dcattack-error/1", "manifest": manifest,
               "error": {"type": type(exc).__name__, "message": str(exc)}},
              args)
        return 2
    except DcAttackError as exc:
        _emit({"schema": "dcattack-error/1", "manifest": manifest,
               "error": {"type": type(exc).__name__, "message": str(exc)}},
              args)
        return 3
    except Exception as exc:   # noqa: BLE001 -- errors must stay machine-readable
        _emit({"schema": "dcattack-error/1", "manifest": manifest,
               "error": {"type": type(exc).__name__, "message": str(exc)}},
              args)
        return 1


if __name__ == "__main__":
    sys.exit(main())
