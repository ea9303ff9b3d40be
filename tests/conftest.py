import importlib.util
import os

import pytest

from dcattack.case_ingest import build_case

CASES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "cases")


@pytest.fixture
def desk2():
    """Two buses, two generators, unlimited line.  Up-headroom 1.0 p.u. is the
    cheapest way to break feasibility (down-direction costs 3.0)."""
    return build_case(
        "desk2", 100.0,
        buses=[(1, 0.0), (2, 3.0)],
        branches=[(1, 2, 0.1, None)],
        generators=[(1, 0.0, 2.0), (2, 0.0, 2.0)],
    )


@pytest.fixture
def desk2_limited():
    """Same grid with the line rated at 1.5 p.u.: the rating plus the bus-2
    generator cap make 0.5 p.u. of extra load unservable. m = 2*1 + 2*2 = 6."""
    return build_case(
        "desk2_limited", 100.0,
        buses=[(1, 0.0), (2, 3.0)],
        branches=[(1, 2, 0.1, 1.5)],
        generators=[(1, 0.0, 2.0), (2, 0.0, 2.0)],
    )


@pytest.fixture
def desk2_single():
    """Single generator: the reduced dispatch space is zero-dimensional and
    every row of the polytope is a pure delta constraint."""
    return build_case(
        "desk2_single", 100.0,
        buses=[(1, 0.0), (2, 3.0)],
        branches=[(1, 2, 0.1, None)],
        generators=[(1, 0.0, 4.0)],
    )


@pytest.fixture
def desk3():
    """Three-bus ring with equal susceptances, two perturbable loads."""
    return build_case(
        "desk3", 100.0,
        buses=[(1, 0.0), (2, 2.0), (3, 0.5)],
        branches=[(1, 2, 0.1, 1.6), (2, 3, 0.1, 5.0), (3, 1, 0.1, 5.0)],
        generators=[(1, 0.0, 3.0), (3, 0.0, 1.0)],
    )


def pglib_path(stem):
    """Resolve a pglib case file: $PGLIB_OPF_DIR first, then the bundled
    reconstructions in cases/."""
    fname = f"pglib_opf_{stem}.m"
    env = os.environ.get("PGLIB_OPF_DIR")
    if env and os.path.exists(os.path.join(env, fname)):
        return os.path.join(env, fname)
    bundled = os.path.join(CASES_DIR, fname)
    if os.path.exists(bundled):
        return bundled
    return None


def bench_ladder_text(n, seed, degenerate):
    """(name, MATPOWER text) of a network of the benchmark's ladder
    generator (bench/ladder.py, read only)."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                        "ladder.py")
    spec = importlib.util.spec_from_file_location("bench_ladder", path)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    net = ladder.ladder(n, seed, degenerate=degenerate)
    return net["name"], ladder.to_matpower(net)


def bench_ladder(n, seed, degenerate):
    """A network of the benchmark's ladder generator, parsed from its
    MATPOWER text in memory."""
    from dcattack.case_ingest import parse_case_text
    name, text = bench_ladder_text(n, seed, degenerate)
    return parse_case_text(text, name)


BUNDLED = ("case5_pjm", "case14_ieee", "case24_ieee_rts", "case30_as")


@pytest.fixture(scope="module", params=BUNDLED)
def bundled_mats(request):
    """The reduced polytope of each bundled network (slack = generator 0)."""
    from dcattack.case_ingest import load_case
    from dcattack.dc_model import build_feasibility
    return build_feasibility(load_case(pglib_path(request.param)))
