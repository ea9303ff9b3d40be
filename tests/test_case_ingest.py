import io
import json
import re

import numpy as np
import pytest

from dcattack.case_ingest import (
    build_case, case_from_json, case_to_json, load_case, parse_case,
    parse_case_text,
)
from dcattack.errors import CaseError

from conftest import pglib_path

TWO_BUS = """\
function mpc = desk2
mpc.version = '2';
mpc.baseMVA = 100;
%% bus data
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1\t0\t230\t1\t1.1\t0.9;
\t2\t1\t50\t10\t0\t0\t1\t1\t0\t230\t1\t1.1\t0.9;
];
mpc.gen = [
\t1\t0\t0\t30\t-30\t1\t100\t1\t200\t0;
];
mpc.branch = [
\t1\t2\t0\t0.1\t0\t100\t0\t0\t0\t0\t1\t-30\t30;
];
mpc.gencost = [
\t2\t0\t0\t3\t0\t12\t0;
];
"""


def test_parse_two_bus_units():
    case = parse_case_text(TWO_BUS, name="desk2")
    assert case.base_mva == 100.0
    assert [b.p_d for b in case.buses] == [0.0, 0.5]
    br = case.branches[0]
    assert br.b == pytest.approx(10.0)
    assert br.rate == pytest.approx(1.0)
    g = case.generators[0]
    assert (g.p_min, g.p_max) == (0.0, 2.0)
    assert g.cost == 12.0


def test_a_short_gencost_table_is_rejected():
    """case5_pjm without its last gencost row would leave that unit at cost
    0; the error names both row counts and the line that opens the table.
    No table at all still means cost 0, and a 2 n_gen table (reactive costs
    after the active ones) still reads its first block."""
    with open(pglib_path("case5_pjm")) as fh:
        text = fh.read()
    last = "\t2\t0.0\t0.0\t2\t10.0\t0.0;\n"
    assert text.count(last) == 1
    opens = text[:text.index("mpc.gencost")].count("\n") + 1
    with pytest.raises(CaseError, match=rf"line {opens}: gencost has 4 rows "
                                        "for 5 gen rows"):
        parse_case_text(text.replace(last, ""))
    block = text[text.index("mpc.gencost"):]
    block = block[:block.index("];") + 2]
    assert [g.cost for g in parse_case_text(text).generators] \
        == [14.0, 15.0, 30.0, 40.0, 10.0]
    assert [g.cost for g in parse_case_text(text.replace(block, "")
                                            ).generators] == [0.0] * 5
    reactive = "\t2\t0.0\t0.0\t2\t99.0\t0.0;\n" * 5
    doubled = text.replace(block, block[:-2] + reactive + "];")
    assert [g.cost for g in parse_case_text(doubled).generators] \
        == [14.0, 15.0, 30.0, 40.0, 10.0]


def test_parse_case_accepts_stream():
    case = parse_case(io.StringIO(TWO_BUS), name="desk2")
    assert case.name == "desk2"
    assert case == parse_case(TWO_BUS, name="desk2")


def test_parse_drops_out_of_service():
    text = TWO_BUS.replace(
        "mpc.gen = [\n\t1\t0\t0\t30\t-30\t1\t100\t1\t200\t0;",
        "mpc.gen = [\n\t1\t0\t0\t30\t-30\t1\t100\t1\t200\t0;\n"
        "\t2\t0\t0\t30\t-30\t1\t100\t0\t500\t0;")
    case = parse_case_text(text)
    assert case.n_gen == 1

    text = TWO_BUS.replace(
        "\t1\t2\t0\t0.1\t0\t100\t0\t0\t0\t0\t1\t-30\t30;",
        "\t1\t2\t0\t0.1\t0\t100\t0\t0\t0\t0\t1\t-30\t30;\n"
        "\t1\t2\t0\t0.4\t0\t100\t0\t0\t0\t0\t0\t-30\t30;")
    case = parse_case_text(text)
    assert case.n_branch == 1


def test_rate_zero_is_unbounded():
    text = TWO_BUS.replace("\t1\t2\t0\t0.1\t0\t100", "\t1\t2\t0\t0.1\t0\t0")
    case = parse_case_text(text)
    assert case.branches[0].rate is None


def test_negative_matpower_rating_is_rejected():
    text = TWO_BUS.replace("\t1\t2\t0\t0.1\t0\t100", "\t1\t2\t0\t0.1\t0\t-100")
    with pytest.raises(CaseError, match="branch 1-2.*rating"):
        parse_case_text(text)


@pytest.mark.parametrize("rate", [-0.5, 0.0])
def test_non_positive_rating_is_rejected(rate):
    """A rating <= 0 from build_case or JSON would empty F(0) or pin the
    flow to zero; None is the only way to say "unlimited"."""
    args = ("bad", 100.0, [(1, 0.0), (2, 1.0)], [(1, 2, 0.1, rate)],
            [(1, 0.0, 2.0)])
    with pytest.raises(CaseError, match="branch 1-2.*rating"):
        build_case(*args)
    doc = json.loads(case_to_json(build_case(*args[:3], [(1, 2, 0.1, 1.0)],
                                             args[4])))
    doc["branches"][0]["rate"] = rate
    with pytest.raises(CaseError, match="branch 1-2.*rating"):
        case_from_json(json.dumps(doc))


def test_missing_table_and_basemva():
    with pytest.raises(CaseError, match="missing mpc.gen"):
        parse_case_text(TWO_BUS.replace("mpc.gen", "mpc.notgen"))
    with pytest.raises(CaseError, match="baseMVA"):
        parse_case_text(TWO_BUS.replace("mpc.baseMVA = 100;", ""))


def test_duplicate_bus_rejected():
    text = TWO_BUS.replace(
        "\t2\t1\t50\t10\t0\t0\t1\t1\t0\t230\t1\t1.1\t0.9;",
        "\t2\t1\t50\t10\t0\t0\t1\t1\t0\t230\t1\t1.1\t0.9;\n"
        "\t2\t1\t10\t0\t0\t0\t1\t1\t0\t230\t1\t1.1\t0.9;")
    with pytest.raises(CaseError, match="duplicate"):
        parse_case_text(text)


def test_unknown_bus_reference():
    text = TWO_BUS.replace("mpc.gen = [\n\t1", "mpc.gen = [\n\t9")
    with pytest.raises(CaseError, match="unknown bus"):
        parse_case_text(text)


def test_disconnected_rejected():
    with pytest.raises(CaseError, match="disconnected"):
        build_case("bad", 100.0, buses=[(1, 0.0), (2, 1.0), (3, 0.0)],
                   branches=[(1, 2, 0.1, None)],
                   generators=[(1, 0.0, 2.0)])


def test_zero_reactance_rejected():
    with pytest.raises(CaseError, match="zero reactance"):
        parse_case_text(TWO_BUS.replace("\t1\t2\t0\t0.1", "\t1\t2\t0\t0"))


def test_bad_number_reports_line():
    with pytest.raises(CaseError, match="line 7"):
        parse_case_text(TWO_BUS.replace("\t2\t1\t50", "\t2\tx\t50"))


def test_bad_scalar_reports_line():
    with pytest.raises(CaseError, match=r"line 3: bad number '1\.0\.0' "
                                        r"for baseMVA"):
        parse_case_text(TWO_BUS.replace("baseMVA = 100;", "baseMVA = 1.0.0;"))


@pytest.mark.parametrize("value", ["nan", "NaN", "1e999", "-Inf"])
def test_a_non_finite_basemva_is_named(value):
    with pytest.raises(CaseError, match="non-finite baseMVA"):
        parse_case_text(TWO_BUS.replace("baseMVA = 100;", f"baseMVA = {value};"))


def test_load_case_that_is_not_utf8_names_the_path(tmp_path):
    p = tmp_path / "latin1.m"
    p.write_bytes(TWO_BUS.replace("%% bus data", "%% bus data, caf\xe9")
                  .encode("latin-1"))
    with pytest.raises(CaseError, match=re.escape(f"{p}: not UTF-8")):
        load_case(p)


def test_gen_bounds_sanity():
    with pytest.raises(CaseError, match="p_min"):
        build_case("bad", 100.0, buses=[(1, 1.0)], branches=[],
                   generators=[(1, 3.0, 2.0)])


def test_json_round_trip(desk3):
    text = case_to_json(desk3)
    back = case_from_json(text)
    assert back == desk3
    # a second trip is byte-identical (canonical form)
    assert case_to_json(back) == text


def test_json_round_trip_from_matpower():
    case = parse_case_text(TWO_BUS, name="desk2")
    assert case_from_json(case_to_json(case)) == case


def test_load_case_json(tmp_path, desk2):
    p = tmp_path / "desk2.json"
    p.write_text(case_to_json(desk2))
    assert load_case(p) == desk2


def test_load_case_matpower(tmp_path):
    p = tmp_path / "two.m"
    p.write_text(TWO_BUS)
    case = load_case(p)
    assert case.name == "two"
    assert case.n_bus == 2


def test_helper_arrays(desk3):
    assert desk3.total_load() == pytest.approx(2.5)
    np.testing.assert_array_equal(desk3.load_positions(), [1, 2])
    np.testing.assert_array_equal(desk3.gen_positions(), [0, 2])
    lo, hi = desk3.gen_bounds()
    np.testing.assert_allclose(hi, [3.0, 1.0])


@pytest.mark.parametrize("doc, field", [
    ("[1, 2]", "object"),
    ('"case"', "object"),
])
def test_json_that_is_not_an_object_is_rejected(doc, field):
    with pytest.raises(CaseError, match=field):
        case_from_json(doc)


@pytest.mark.parametrize("key", ["name", "base_mva", "buses", "branches",
                                 "generators"])
def test_json_missing_key_names_it(desk2, key):
    doc = json.loads(case_to_json(desk2))
    del doc[key]
    with pytest.raises(CaseError, match=f"'{key}'"):
        case_from_json(json.dumps(doc))


@pytest.mark.parametrize("table, edit, field", [
    ("buses", lambda r: r.update(q=1.0), "'q'"),
    ("branches", lambda r: r.update(x=0.1), "'x'"),
    ("generators", lambda r: r.pop("p_max"), "'p_max'"),
], ids=["bus-extra-q", "branch-extra-x", "generator-without-p_max"])
def test_json_record_field_errors_name_the_field(desk2, table, edit, field):
    doc = json.loads(case_to_json(desk2))
    edit(doc[table][0])
    with pytest.raises(CaseError, match=field):
        case_from_json(json.dumps(doc))


def test_json_bad_values_are_case_errors(desk2):
    doc = json.loads(case_to_json(desk2))
    for key, value in (("base_mva", "abc"), ("buses", 5), ("generators", [7])):
        bad = dict(doc, **{key: value})
        with pytest.raises(CaseError):
            case_from_json(json.dumps(bad))
    for p_d in (float("nan"), "1.0", 10 ** 400):   # json round-trips each
        doc["buses"][1]["p_d"] = p_d
        with pytest.raises(CaseError, match="bus 2"):
            case_from_json(json.dumps(doc))


@pytest.mark.parametrize("table, field, record", [
    ("buses", "p_d", "bus 3"),
    ("branches", "rate", "branch 1-2"),
    ("generators", "p_max", "generator 0"),
])
def test_json_booleans_are_not_numbers(desk3, table, field, record):
    """JSON `true` is not a load of 1.0 p.u. nor a rating of 1.0 p.u."""
    doc = json.loads(case_to_json(desk3))
    doc[table][0 if table != "buses" else 2][field] = True
    with pytest.raises(CaseError, match=re.escape(record)):
        case_from_json(json.dumps(doc))


def test_json_boolean_base_is_rejected(desk3):
    doc = dict(json.loads(case_to_json(desk3)), base_mva=True)
    with pytest.raises(CaseError, match="baseMVA"):
        case_from_json(json.dumps(doc))


def test_load_case_json_error_is_a_case_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("[1, 2]")
    with pytest.raises(CaseError, match="object"):
        load_case(p)


@pytest.mark.parametrize("old, new, record", [
    ("\t2\t1\t50\t", "\t2\t1\tnan\t", "bus 2"),
    ("\t2\t1\t50\t", "\t2\t1\t-Inf\t", "bus 2"),
    ("\t1\t2\t0\t0.1\t", "\t1\t2\t0\tnan\t", "branch 1-2"),
    ("\t1\t2\t0\t0.1\t", "\t1\t2\t0\tInf\t", "branch 1-2"),
    ("\t1\t2\t0\t0.1\t0\t100\t", "\t1\t2\t0\t0.1\t0\tnan\t", "branch 1-2"),
    ("\t1\t2\t0\t0.1\t0\t100\t", "\t1\t2\t0\t0.1\t0\tInf\t", "branch 1-2"),
    ("\t1\t200\t0;", "\t1\tnan\t0;", "generator 0"),
    ("\t1\t200\t0;", "\t1\t200\tnan;", "generator 0"),
    ("\t3\t0\t12\t0;", "\t3\t0\tInf\t0;", "generator 0"),
], ids=["load-nan", "load-neg-inf", "x-nan", "x-inf", "rating-nan",
        "rating-inf", "p_max-nan", "p_min-nan", "cost-inf"])
def test_non_finite_matpower_values_name_the_record(old, new, record):
    assert TWO_BUS.count(old) == 1
    with pytest.raises(CaseError, match=record):
        parse_case_text(TWO_BUS.replace(old, new))


@pytest.mark.parametrize("old, new, what", [
    ("\t2\t1\t50\t", "\tnan\t1\t50\t", "bus id nan"),
    ("\t2\t1\t50\t", "\t2.7\t1\t50\t", "bus id 2.7"),
    ("\n\t1\t2\t0\t0.1\t", "\n\t1\tInf\t0\t0.1\t", "bus id inf"),
    ("\t0\t1\t-30\t30;", "\t0\t0.5\t-30\t30;", "status 0.5"),
    ("\n\t1\t0\t0\t30", "\n\t1.5\t0\t0\t30", "bus id 1.5"),
    ("\t1\t200\t0;", "\tnan\t200\t0;", "status nan"),
    ("\t2\t0\t0\t3\t0", "\t2.5\t0\t0\t3\t0", "gencost model 2.5"),
    ("\t2\t0\t0\t3\t0", "\t2\t0\t0\tnan\t0", "ncost nan"),
], ids=["bus-nan", "bus-fraction", "branch-inf", "branch-status",
        "gen-bus", "gen-status", "gencost-model", "ncost"])
def test_integer_fields_must_be_integers(old, new, what):
    """Ids, status flags and gencost model/ncost are integers; any other
    number is an error naming its line, never a truncated id."""
    assert TWO_BUS.count(old) == 1
    with pytest.raises(CaseError, match=rf"line \d+: {what} is not an integer"):
        parse_case_text(TWO_BUS.replace(old, new))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("buses, branches, generators, record", [
    ([(1, 0.0), (2, NAN)], [(1, 2, 0.1, None)], [(1, 0.0, 2.0)], "bus 2"),
    ([(1, 0.0), (2, 1.0)], [(1, 2, NAN, None)], [(1, 0.0, 2.0)], "branch 1-2"),
    ([(1, 0.0), (2, 1.0)], [(1, 2, INF, None)], [(1, 0.0, 2.0)], "branch 1-2"),
    ([(1, 0.0), (2, 1.0)], [(1, 2, 0.1, INF)], [(1, 0.0, 2.0)], "branch 1-2"),
    ([(1, 0.0), (2, 1.0)], [(1, 2, 0.1, None)], [(1, NAN, 2.0)], "generator 0"),
    ([(1, 0.0), (2, 1.0)], [(1, 2, 0.1, None)], [(1, 0.0, INF)], "generator 0"),
    ([(1, 0.0), (2, 1.0)], [(1, 2, 0.1, None)], [(1, 0.0, 2.0, NAN)],
     "generator 0"),
], ids=["load-nan", "x-nan", "x-inf", "rating-inf", "p_min-nan", "p_max-inf",
        "cost-nan"])
def test_build_case_rejects_non_finite_values(buses, branches, generators,
                                              record):
    with pytest.raises(CaseError, match=record):
        build_case("bad", 100.0, buses, branches, generators)


def _rename(records, old, new, columns):
    return [tuple(new if k in columns and v == old else v
                  for k, v in enumerate(r)) for r in records]


_DESK3 = dict(buses=[(1, 0.0), (2, 2.0), (3, 0.5)],
              branches=[(1, 2, 0.1, 1.6), (2, 3, 0.1, 5.0), (3, 1, 0.1, 5.0)],
              generators=[(1, 0.0, 3.0, 5.0), (3, 0.0, 1.0, 8.0)])
_EVERYWHERE = dict(buses={0}, branches={0, 1}, generators={0})


def _via_build_case(records):
    return build_case("desk3", 100.0, **records)


def _via_json(records):
    doc = {"format": "dcattack-case", "version": 1, "name": "desk3",
           "base_mva": 100.0,
           "buses": [{"id": i, "p_d": pd} for i, pd in records["buses"]],
           "branches": [{"f_bus": f, "t_bus": t, "b": 1.0 / x, "rate": r}
                        for f, t, x, r in records["branches"]],
           "generators": [{"bus": b, "p_min": lo, "p_max": hi, "cost": c}
                          for b, lo, hi, c in records["generators"]]}
    return case_from_json(json.dumps(doc))


@pytest.mark.parametrize("route", [_via_build_case, _via_json],
                         ids=["build_case", "json"])
@pytest.mark.parametrize("old, new, where, record", [
    (3, 3.5, _EVERYWHERE, "bus 3.5"),
    (1, True, _EVERYWHERE, "bus True"),
    (1, True, dict(buses={0}), "bus True"),
    (3, 3.0, dict(branches={1}), "branch 2-3.0"),
    (3, 3.0, dict(generators={0}), "generator 1"),
], ids=["bus-renamed-fraction", "bus-renamed-bool", "bus-id-bool",
        "branch-endpoint-float", "gen-bus-float"])
def test_non_integral_bus_ids_are_case_errors(route, old, new, where, record):
    """Bus ids, branch endpoints and generator buses must be ints: a float or
    bool id is an error naming its record, never truncated onto a bus."""
    assert route(_DESK3).n_bus == 3
    records = {table: _rename(rows, old, new, where.get(table, ()))
               for table, rows in _DESK3.items()}
    with pytest.raises(CaseError, match=re.escape(record)):
        route(records)
