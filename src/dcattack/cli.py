"""Command-line front end.

JSON on stdout is the canonical output of every subcommand; human-readable
tables are derived views.  Every report (and every error) embeds a manifest
echoing the exact configuration, so a run is reproducible from its report
alone.  Exit codes: 0 when the computation completed and every certification
passed, 2 for missing/unreadable inputs and usage errors, 3 for domain
failures (infeasible case, failed certification, a squeeze side without a
certified bound, ...), 1 for unexpected ones.
"""

import argparse
import csv
import io
import json
import sys
import time

import numpy as np

from . import __version__
from .attack import AttackConfig, multistart_attack
from .case_ingest import load_case
from .dc_model import build_feasibility, json_default
from .defense import defense_local, verify_policy
from .errors import DcAttackError
from .squeeze import SqueezeConfig, squeeze_run


def _at_least(kind, low, strict=False):
    """An argparse type: a finite `kind` >= low (> low when strict), so a
    bad value is a usage error naming its flag."""
    def parse(text):
        value = kind(text)
        if (value > low if strict else value >= low) and value != np.inf:
            return value
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a finite number {'>' if strict else '>='} {low}")
    parse.__name__ = kind.__name__
    return parse


# every option's add_argument keywords; the manifest echoes a subcommand's
# options under their dests, the ones in _CONFIG as config, in _OUTPUTS as
# outputs
_OPTIONS = {
    "--restarts": dict(type=_at_least(int, 0), default=5),
    "--seed": dict(type=_at_least(int, 0), default=None,
                   help="root seed; generated and recorded when absent"),
    "--budget": dict(dest="budget_s", type=_at_least(float, 0), default=600.0,
                     help="wall-clock budget in seconds"),
    "--match-threshold": dict(type=_at_least(float, 0, strict=True),
                              default=0.01),
    "--verify-samples": dict(type=_at_least(int, 0), default=1000),
    "--json": dict(help="also write the report JSON to this path"),
    "--trace": dict(help="write the subcommand's CSV artifact to this path"),
    "--dump-matrices": dict(
        help="write the reduced feasibility matrices to this path"),
    "--format": dict(default="md", choices=["md", "csv"]),
}
_CONFIG = ("restarts", "budget_s", "match_threshold", "verify_samples")
_OUTPUTS = ("json", "trace", "dump_matrices")

# each subcommand takes exactly the options it reads
_SUBCOMMANDS = {
    "attack": ("smallest certified infeasibility perturbation",
               "--restarts --seed --json --trace --dump-matrices"),
    "defend": ("control policy with certified solvability radius",
               "--seed --budget --json --trace --dump-matrices "
               "--verify-samples"),
    "squeeze": ("drive attack and defense toward a common value",
                "--restarts --seed --budget --match-threshold --json "
                "--trace --dump-matrices --verify-samples"),
    "table": ("squeeze several cases, render a table",
              "--restarts --seed --budget --match-threshold --json "
              "--verify-samples --format"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcattack",
        description="Smallest infeasibility-inducing load perturbations, "
                    "largest certified control radii, and their squeeze.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        if name == "table":
            p.add_argument("cases", nargs="+", help="case files")
        else:
            p.add_argument("case", help="case file (.m or .json)")
        for flag in flags.split():
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def _manifest(args):
    seed_generated = args.seed is None
    seed = (int(np.random.SeedSequence().entropy) & 0xFFFFFFFF
            if seed_generated else args.seed)
    cases = getattr(args, "cases", None) or [getattr(args, "case", None)]
    opts = vars(args)
    return {
        "command": args.command,
        "version": __version__,
        "case": cases[0] if len(cases) == 1 else cases,
        "config": {"seed": seed, "seed_generated": seed_generated,
                   **{k: opts[k] for k in _CONFIG if k in opts}},
        "outputs": {k: opts[k] for k in _OUTPUTS if k in opts},
    }


def _emit(report, args):
    """Write --json first: a failed write prints nothing, so the error
    report is then the only JSON on stdout."""
    text = json.dumps(report, indent=2, default=json_default)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _write_csv(path, header, rows):
    """A subcommand's --trace artifact: the header, then one line per row."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _load(args):
    case = load_case(args.case)
    mats = build_feasibility(case)
    if args.dump_matrices:
        with open(args.dump_matrices, "w") as fh:
            json.dump(mats.to_json_dict(), fh, indent=2)
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
    case, mats = _load(args)
    t0 = time.monotonic()
    rep = multistart_attack(
        mats, AttackConfig(restarts=args.restarts,
                           seed=manifest["config"]["seed"]))
    sol = rep.best
    per_bus = _per_bus_rows(mats, sol.delta)
    report = {
        "schema": "dcattack-attack/1",
        "manifest": manifest,
        "case": case.name,
        **sol.summary(),
        "fixed_dispatch_lb": rep.fixed_lb,
        "delta": sol.delta,
        **sol.certificate(mats.row_labels),
        "per_bus": per_bus,
        "starts": rep.starts,
        "elapsed_s": time.monotonic() - t0,
    }
    if args.trace:
        _write_csv(args.trace, ["bus", "delta_pu", "pct_of_total_load"],
                   ([row["bus"], repr(row["delta_pu"]),
                     f"{row['pct_of_total_load']:.6f}"] for row in per_bus))
    _emit(report, args)
    return 0


def cmd_defend(args, manifest):
    case, mats = _load(args)
    t0 = time.monotonic()
    pol = defense_local(mats, budget_s=args.budget_s)
    verify_policy(mats, pol, args.verify_samples,
                  seed=manifest["config"]["seed"])
    report = {
        "schema": "dcattack-defense/1",
        "manifest": manifest,
        "case": case.name,
        **pol.summary(mats),
        "elapsed_s": time.monotonic() - t0,
    }
    if args.trace:
        per = mats.radii(pol.p0, pol.G)
        _write_csv(args.trace, ["row", "radius_sq"],
                   ([label, repr(float(val))]
                    for label, val in zip(mats.row_labels, per)))
    _emit(report, args)
    return 0


def _squeeze_config(args, manifest):
    return SqueezeConfig(budget_s=args.budget_s,
                         match_threshold=args.match_threshold,
                         seed=manifest["config"]["seed"],
                         restarts=args.restarts,
                         verify_samples=args.verify_samples)


def _squeeze_code(rep):
    """3 when either side of the bracket has no certified bound, else 0."""
    lost = {"no-certified-attack", "no-certified-policy"} & set(rep.flags)
    return 3 if lost else 0


def cmd_squeeze(args, manifest):
    case, mats = _load(args)
    rep = squeeze_run(case, _squeeze_config(args, manifest), mats=mats)
    report = rep.to_dict()
    report["manifest"] = manifest
    if args.trace:
        _write_csv(args.trace, ["elapsed_s", "side", "value"],
                   ([f"{e:.6f}", s, repr(v)] for e, s, v in rep.trace))
    _emit(report, args)
    return _squeeze_code(rep)


def _render_table(rows, fmt):
    header = ["case", "lb", "ub", "gap", "matched", "match_time_s"]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [header] + [[r[h] for h in header] for r in rows])
        return buf.getvalue()
    widths = [max(len(h), *(len(str(r[h])) for r in rows)) for h in header]
    def line(vals):
        return "| " + " | ".join(str(v).ljust(w) for v, w in zip(vals, widths)) + " |"
    out = [line(header), line(["-" * w for w in widths])]
    out.extend(line([r[h] for h in header]) for r in rows)
    return "\n".join(out) + "\n"


def cmd_table(args, manifest):
    rows, reports, code = [], [], 0
    for path in args.cases:
        case = load_case(path)
        rep = squeeze_run(case, _squeeze_config(args, manifest))
        code = max(code, _squeeze_code(rep))
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
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"schema": "dcattack-table/1", "manifest": manifest,
                       "runs": reports}, fh, indent=2, default=json_default)
    sys.stdout.write(_render_table(rows, args.format))
    return code


_COMMANDS = {"attack": cmd_attack, "defend": cmd_defend,
             "squeeze": cmd_squeeze, "table": cmd_table}


def main(argv=None):
    args = build_parser().parse_args(argv)
    manifest = _manifest(args)
    try:
        return _COMMANDS[args.command](args, manifest)
    except Exception as exc:   # noqa: BLE001 -- errors must stay machine-readable
        error = {"schema": "dcattack-error/1", "manifest": manifest,
                 "error": {"type": type(exc).__name__, "message": str(exc)}}
        try:
            _emit(error, args)
        except OSError:
            print(json.dumps(error, indent=2))
        if isinstance(exc, (FileNotFoundError, IsADirectoryError,
                            PermissionError)):
            return 2
        return 3 if isinstance(exc, DcAttackError) else 1


if __name__ == "__main__":
    sys.exit(main())
