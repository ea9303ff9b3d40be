"""Spans around the package's module boundaries, recorded from outside.

`Tracer.install()` replaces each traced function with a wrapper in every
loaded `dcattack` module that holds it, so a name imported by value (for
example `squeeze.defense_local` or `attack.solve_dcopf`) is timed the same
as a call through its home module.  `uninstall()` puts the originals back.
A target the package no longer has is listed in `missing` and its layer
reports zero, so a refactor of the package does not break the traced run.

A span is (name, start, end, parent, info): `parent` is the index of the
span that was open when this one started, and `info` holds what the wrapper
read off the call's arguments or result (pivots, pushes, ...).  Spans stay in
memory; `layer_totals` folds them into per-layer calls, times and counts.
"""

import importlib
import sys
import time
from collections import defaultdict


def _lp_family(args, _result):
    prob = args[0]
    return {"family": "wide" if prob.A_eq.shape[0] else "tall"}


def _lp_pivots(_args, result):
    return {"pivots": result.iterations}


def _defense_info(_args, result):
    return {"pushes": result.meta.get("pushes", 0),
            "stalled": bool(result.meta.get("stalled", False))}


def _alternations(_args, result):
    return {"alternations": result.iterations}


def _certified(_args, result):
    return {"certified": bool(result[0])}


def _rows(_args, result):
    return {"rows": result.m}


# (module, function, reads info off the arguments, reads info off the result)
TARGETS = (
    ("case_ingest", "load_case", None, None),
    ("dc_model", "build_feasibility", None, _rows),
    ("dc_model", "solve_dcopf", None, None),
    ("lin_solve", "lp_solve", _lp_family, _lp_pivots),
    ("lin_solve", "check_feasible", None, None),
    ("attack", "ray_boundary", None, None),
    ("attack", "attack_local", None, _alternations),
    ("attack", "certify_infeasible", None, _certified),
    ("attack", "multistart_attack", None, None),
    ("defense", "warm_start_defense", None, None),
    ("defense", "defense_local", None, _defense_info),
    ("defense", "t_tilde", None, None),
    ("defense", "verify_policy", None, None),
    ("squeeze", "cross_feed", None, None),
    ("squeeze", "squeeze_run", None, None),
)


def _read(extract, args, result):
    """What an extractor reads; nothing when the call no longer has that
    shape, so a changed signature costs a count, never the traced call."""
    try:
        return extract(args, result)
    except (AttributeError, IndexError, KeyError, TypeError):
        return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []        # targets the package no longer has
        self._open = []
        self._patched = []

    def _wrap(self, name, fn, on_args, on_result):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            info = _read(on_args, args, None) if on_args else {}
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          open_[-1] if open_ else None, info])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                info["raised"] = 1
                raise
            else:
                if on_result:
                    info.update(_read(on_result, args, result))
                return result
            finally:
                spans[idx][2] = time.perf_counter()
                open_.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod_name, *_ in TARGETS:
            try:
                importlib.import_module(f"dcattack.{mod_name}")
            except ModuleNotFoundError:
                pass
        modules = [m for key, m in list(sys.modules.items())
                   if key == "dcattack" or key.startswith("dcattack.")]
        for mod_name, fn_name, on_args, on_result in TARGETS:
            home = sys.modules.get(f"dcattack.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original,
                                 on_args, on_result)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def span_name(span):
    """Layer name of a span; lp_solve spans carry their LP family."""
    name, info = span[0], span[4]
    return f"{name}.{info['family']}" if "family" in info else name


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _info in spans:
        if parent is not None:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, child)]


def layer_totals(spans):
    """{layer: {"calls", "s" (inclusive time), "self_s", <summed info>}}.
    No layer calls itself, so a layer's spans never overlap and "s" is the
    wall time spent inside the layer."""
    out = defaultdict(lambda: defaultdict(float))
    for span, self_s in zip(spans, self_times(spans)):
        row = out[span_name(span)]
        row["calls"] += 1
        row["s"] += span[2] - span[1]
        row["self_s"] += self_s
        for key, value in span[4].items():
            if isinstance(value, (bool, int, float)):
                row[key] += value
    return {k: dict(v) for k, v in out.items()}
