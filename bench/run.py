"""Benchmark runner: time to a certified bracket, end to end and per layer.

    python3 bench/run.py --workload ladder-attack --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, each in a fresh process

One run: generate the workload's networks from the seed, time `load_case` +
`build_feasibility` (set-up, repeated, median), then solve the networks in a
closed loop, pass after pass, until --seconds is spent.  Every result is then
checked by the independent oracle (`oracle.py`) and the metrics are printed,
one `name value unit` line each; the last line is one JSON object.  With
--trace 1, untraced and traced passes alternate and the JSON carries the
per-layer metrics from the spans of `spans.py`.

Solve times are scaled to a reference host speed: a fixed kernel that is not
the package's code (`reference_s`) is timed before the first network and
after each one, and each network's wall time is scaled by REF_NOMINAL_S over
the mean of the two samples around it; set-up time is scaled the same way,
block by block.  On a shared host the speed drifts by tens of percent over
minutes; the scaling cancels that drift, and a change to the package still
moves the scaled time in full.

Runs on one core: threads=1 in the package, BLAS pinned to one thread.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_BLOCKS, SETUP_REPS = 5, 9     # set-up repetitions: blocks x reps each
# the reference kernel's median time on a 2-vCPU Xeon VM (2.1 GHz, Python
# 3.11, numpy 2.4, OpenBLAS 0.3.31, one thread); scaled times are seconds
# on that VM
REF_NOMINAL_S = 0.085

END_TO_END_UNITS = {
    "time_to_solution_s": "s", "setup_s": "s", "ub_geomean": "pu2",
    "gap_mean": "frac", "peak_rss_mb": "MB",
}
# printed for every workload; the JSON carries END_TO_END_UNITS only
REPORTED_UNITS = {**END_TO_END_UNITS, "bracket_ratio": "frac",
                  "unmatched_frac": "frac", "error_frac": "frac",
                  "wall_to_solution_s": "s", "host_speed": "x"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import dcattack from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import dcattack
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import dcattack from {src}: {exc}")
    if not os.path.abspath(dcattack.__file__).startswith(src + os.sep):
        raise SystemExit(f"bench: dcattack resolved to {dcattack.__file__}, "
                         f"not to {src}")


def environment(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "threads": 1, "seed": seed}


def timed_setup(workloads, paths):
    """Set-up time scaled to the reference VM: SETUP_BLOCKS blocks of
    SETUP_REPS repetitions, each block's median scaled by the reference
    samples before and after it; the median over blocks."""
    workloads.setup(paths)       # the first call pays lazy imports
    blocks, before = [], reference_s()
    for _ in range(SETUP_BLOCKS):
        times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            nets = workloads.setup(paths)
            times.append(time.perf_counter() - t0)
        after = reference_s()
        blocks.append(statistics.median(times) * REF_NOMINAL_S
                      / statistics.fmean((before, after)))
        before = after
    return statistics.median(blocks), nets


def reference_s():
    """Wall time of a fixed kernel that never calls the package: a Python
    loop and small dense numpy algebra, the two kinds of work a solve does.
    It takes about REF_NOMINAL_S on the reference VM."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((60, 60)) + 60.0 * np.eye(60)
    b = rng.standard_normal(60)
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(180_000):
        acc += (i * 0.5) % 7.0
        table[i & 1023] = acc
    for _ in range(650):
        acc += np.maximum(a @ np.linalg.solve(a, b), 0.0).sum()
    return time.perf_counter() - t0


def run_pass(workloads, workload, nets):
    """Solve every network once, timing the reference kernel before the
    first solve and after each one."""
    out, before = [], reference_s()
    for case, mats in nets:
        o = workloads.solve(workload, case, mats)
        after = reference_s()
        o.ref_s = (before, after)
        out.append(o)
        before = after
    return out


def speed(o):
    """Host speed around one solve, relative to the reference VM."""
    return REF_NOMINAL_S / statistics.fmean(o.ref_s)


def scaled(outcomes, scale=True):
    """Solve wall time summed over networks, scaled to the reference VM
    unless `scale` is false."""
    return sum(o.wall_s * (speed(o) if scale else 1.0) for o in outcomes)


def pass_time(workload, outcomes, scale=True):
    """PAR-1 style: a network that misses the workload's accuracy is charged
    the budget on top of the time it took, so giving up early never looks
    fast and the sum still moves with the work done."""
    return scaled(outcomes, scale) + sum(
        0.0 if o.accurate else workload.budget_s for o in outcomes)


def end_to_end(workloads, workload, passes, setup_s, rss_mb):
    """The workload's end-to-end metrics from its untraced passes."""
    import numpy as np
    last = passes[-1]
    with_ub = [o for o in last if o.ok and o.ub is not None]
    ratios = [o.lb / o.ub for o in with_ub]
    every = [o for p in passes for o in p]
    nan = float("nan")
    return {
        "time_to_solution_s": statistics.median(
            [pass_time(workload, p) for p in passes]),
        "wall_to_solution_s": statistics.median(
            [pass_time(workload, p, scale=False) for p in passes]),
        "host_speed": statistics.median([speed(o) for o in every]),
        "setup_s": setup_s,
        "ub_geomean": float(np.exp(np.mean(np.log([o.ub for o in with_ub]))))
        if with_ub else nan,
        "gap_mean": 1.0 - float(np.mean(ratios)) if ratios else nan,
        "bracket_ratio": float(np.mean(ratios)) if ratios else nan,
        "unmatched_frac": 1.0 - sum(1.0 - r < workloads.MATCH
                                    for r in ratios) / len(last),
        "error_frac": sum(not o.ok for o in every) / len(every),
        "peak_rss_mb": rss_mb,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(spans, traced_wall, untraced_wall):
    from spans import layer_totals
    layers = layer_totals(spans)

    def get(layer, key):
        return layers.get(layer, {}).get(key, 0.0)

    def share(layer, key, invert=False):
        """Share of the layer's calls with `key` set (or unset); 0 if none."""
        calls = get(layer, "calls")
        if not calls:
            return 0.0
        frac = get(layer, key) / calls
        return 1.0 - frac if invert else frac

    out = {}
    for layer, keys in (
            ("defense.defense_local", ("calls", "s", "self_s", "pushes")),
            ("defense.warm_start_defense", ("s",)),
            ("defense.t_tilde", ("calls",)),
            ("defense.verify_policy", ("s",)),
            ("lin_solve.lp_solve.tall", ("calls", "s", "pivots")),
            ("lin_solve.lp_solve.wide", ("calls", "s", "pivots")),
            ("lin_solve.check_feasible", ("s",)),
            ("attack.ray_boundary", ("calls", "s")),
            ("attack.attack_local", ("calls", "s", "self_s", "alternations")),
            ("attack.certify_infeasible", ("s",)),
            ("dc_model.solve_dcopf", ("calls", "s")),
            ("case_ingest.load_case", ("s",)),
            ("dc_model.build_feasibility", ("s",)),
            ("squeeze.cross_feed", ("s",))):
        for key in keys:
            out[f"{layer}.{key}"] = get(layer, key)
    out["defense.improve_yield"] = share("defense.defense_local", "stalled",
                                         invert=True)
    out["attack.start_yield"] = share("attack.attack_local", "raised",
                                      invert=True)
    out["attack.certify_yield"] = share("attack.certify_infeasible", "certified")
    out["dc_model.rows"] = get("dc_model.build_feasibility", "rows")
    out["squeeze.rounds"] = squeeze_rounds(spans)
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return out, layers


def squeeze_rounds(spans):
    """Alternation rounds: defense_local calls made directly by a squeeze,
    less the one of round 0."""
    runs = {i for i, s in enumerate(spans) if s[0] == "squeeze.squeeze_run"}
    calls = sum(1 for s in spans
                if s[0] == "defense.defense_local" and s[3] in runs)
    return float(calls - len(runs))


PER_LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s", "pushes": "count",
                   "pivots": "count", "alternations": "count"}


def layer_unit(name):
    if name.endswith(("_yield", "_frac")):
        return "frac"
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def measure(args, workload):
    """Set-up, then passes until --seconds is spent (at least one; with
    --trace 1 at least one untraced and one traced, alternating).
    Returns (untraced passes, traced passes, setup_s, peak RSS in MB)."""
    import workloads
    from spans import Tracer

    workdir = os.path.join(HERE, ".work", f"{workload.name}-s{args.seed}")
    paths = workloads.prepare(workload, args.seed, workdir)
    reference_s()                # its first call pays numpy's lazy set-up
    setup_s, nets = timed_setup(workloads, paths)

    plain, traced = [], []       # traced: (outcomes, spans)
    missing = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if args.trace and len(plain) > len(traced):
            with Tracer() as tracer:
                out = run_pass(workloads, workload, workloads.setup(paths))
            traced.append((out, tracer.spans))
            missing = tracer.missing
        else:
            plain.append(run_pass(workloads, workload, nets))
        lap = time.perf_counter() - t0
        if (not args.trace or traced) and \
                time.perf_counter() + lap > t_start + args.seconds:
            break
    rss_mb = peak_rss_mb()       # before the oracle imports scipy

    for out in plain + [out for out, _ in traced]:
        for o, (case, mats) in zip(out, nets):
            workloads.verify(o, case, mats)
    for name in missing:
        print(f"# layer not found in the package: {name}")
    return plain, traced, setup_s, rss_mb


def report(args, workload, env, plain, traced, metrics):
    outcomes = [o for out in plain + [out for out, _ in traced] for o in out]
    failed = [o for o in outcomes if not o.ok]
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {workload.name}: {len(plain[0])} networks, "
          f"{len(plain)} untraced and {len(traced)} traced passes, "
          "closed loop, one client")
    for o in plain[-1]:
        print(f"# network {o.network}: wall {o.wall_s:.4f} s  ub {o.ub!r}  "
              f"lb {o.lb!r}  solved {o.solved}  oracle "
              f"{'ok' if o.ok else 'FAILED'}")
    for o in failed[:5]:
        print(f"# failure {o.network}: {o.error or '; '.join(o.fails)}")
    for name, unit in REPORTED_UNITS.items():
        print(f"{name} {metrics[name]!r} {unit}")

    if args.trace:
        base = statistics.median([scaled(out) for out in plain])
        rows = [per_layer(spans, scaled(out), base) for out, spans in traced]
        chosen = {k: {"value": statistics.median([r[0][k] for r in rows]),
                      "unit": layer_unit(k)} for k in rows[0][0]}
        layers = rows[-1][1]
        total = sum(v["self_s"] for v in layers.values())
        for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"# layer {name}: self {row['self_s']:.4f} s "
                  f"({row['self_s'] / total:.1%}), inclusive {row['s']:.4f} s, "
                  f"calls {int(row['calls'])}")
        for name, m in chosen.items():
            print(f"{name} {m['value']!r} {m['unit']}")
    else:
        chosen = {k: {"value": metrics[k], "unit": u}
                  for k, u in END_TO_END_UNITS.items()}
    if any(m["value"] != m["value"] for m in chosen.values()):
        raise SystemExit("bench: a metric is undefined (no certified bound)")
    print(json.dumps({"correct": not any(o.fails for o in outcomes),
                      "attempted": len(outcomes), "failed": len(failed),
                      "metrics": chosen}))


def run_all(args):
    """Every workload in a fresh process, so peak_rss_mb is its own."""
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"## {name}", flush=True)
        proc = subprocess.run(cmd, check=False)
        status = status or proc.returncode
    return status


def main(argv=None):
    for var in THREAD_VARS:
        os.environ[var] = "1"
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    import_package()
    import workloads
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)} or all")
    workload = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    plain, traced, setup_s, rss_mb = measure(args, workload)
    metrics = end_to_end(workloads, workload, plain, setup_s, rss_mb)
    report(args, workload, env, plain, traced, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
