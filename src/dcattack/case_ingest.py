"""MATPOWER-subset case ingestion and a canonical JSON form.

Only the fields the DC model consumes are kept: bus ids and active loads,
branch endpoints / reactance / thermal rating / status, and generator bus,
active limits and status; no bound reads a cost, so `gencost` is not read.
Everything is converted to per-unit on the system base at parse time. A
rating of 0 in MATPOWER means "unlimited" and is stored as None; any other
rating must be finite and positive.

The bus, branch and gen tables (`mpc.<table> = [ ... ];`) are each read as
one float array; a row ends at `;` or at the end of its line. They are
rectangular, as in MATLAB: every row holds as many numbers as the first. An
error names the line at fault.
"""

import json
import math
import re
import sys
from dataclasses import dataclass, asdict

import numpy as np

from .errors import CaseError


@dataclass(frozen=True)
class Bus:
    id: int
    p_d: float  # p.u.


@dataclass(frozen=True)
class Branch:
    f_bus: int
    t_bus: int
    b: float            # susceptance 1/x, p.u.
    rate: float = None  # p.u., None = unbounded


@dataclass(frozen=True)
class Generator:
    bus: int
    p_min: float  # p.u.
    p_max: float  # p.u.


@dataclass(frozen=True)
class NetworkCase:
    name: str
    base_mva: float
    buses: tuple
    branches: tuple
    generators: tuple

    # -- index helpers -------------------------------------------------------

    @property
    def n_bus(self):
        return len(self.buses)

    @property
    def n_branch(self):
        return len(self.branches)

    @property
    def n_gen(self):
        return len(self.generators)

    def bus_position(self):
        """bus id -> dense position."""
        return {bus.id: i for i, bus in enumerate(self.buses)}

    def p_d(self):
        return np.array([bus.p_d for bus in self.buses])

    def gen_positions(self):
        pos = self.bus_position()
        return np.array([pos[g.bus] for g in self.generators], dtype=int)

    def gen_bounds(self):
        lo = np.array([g.p_min for g in self.generators])
        hi = np.array([g.p_max for g in self.generators])
        return lo, hi


def build_case(name, base_mva, buses, branches, generators):
    """Assemble and validate a NetworkCase from per-unit records.

    buses: (id, p_d), branches: (f, t, x, rate-or-None), generators:
    (bus, p_min, p_max).  Used by tests and fixtures; file ingestion goes
    through parse_case_text/load_case.
    """
    for f, t, x, _rate in branches:
        if x == 0:
            raise CaseError(f"branch {f}-{t} has zero reactance")
    return validate_case(NetworkCase(
        name=name, base_mva=float(base_mva),
        buses=tuple(Bus(i, float(pd)) for i, pd in buses),
        branches=tuple(Branch(f, t, 1.0 / float(x),
                              None if rate is None else float(rate))
                       for f, t, x, rate in branches),
        generators=tuple(Generator(g, float(lo), float(hi))
                         for g, lo, hi in generators)))


def _reals(values):
    """`values` as a float array, nan for any that is not a number a float
    holds: a bool (JSON `true`), a str, None, or an int past its range."""
    return np.array([v if type(v) is float else float(v)
                     if type(v) is int and abs(v) <= sys.float_info.max
                     else math.nan for v in values], dtype=float)


def _first(bad, say):
    """CaseError with say(k) for the first k where the bools `bad` hold."""
    if True in bad:
        raise CaseError(say(list(bad).index(True)))


def validate_case(case):
    """Raise CaseError naming a bad record: each check runs over a whole
    table and names its first failing record.  Bus ids must be ints (a
    bool is not): a float id is never truncated onto another bus."""
    return _check(case, _reals([bus.p_d for bus in case.buses]),
                  _reals([br.b for br in case.branches]),
                  _reals([1.0 if br.rate is None else br.rate
                          for br in case.branches]),
                  _reals([g.p_min for g in case.generators]),
                  _reals([g.p_max for g in case.generators]))


def _check(case, p_d, b, rate, lo, hi):
    """`validate_case`, given the loads, susceptances, ratings (1 for
    unlimited) and unit limits as float arrays, nan where a record holds
    no number."""
    if not (np.isfinite(_reals([case.base_mva])[0]) and case.base_mva > 0):
        raise CaseError(f"baseMVA must be positive, got {case.base_mva!r}")
    if case.n_bus == 0:
        raise CaseError("case has no buses")
    if case.n_gen == 0:
        raise CaseError("case has no in-service generators")
    buses, branches, gens = case.buses, case.branches, case.generators
    ids = [bus.id for bus in buses]
    _first([type(i) is not int for i in ids],
           lambda k: f"bus {ids[k]!r}: the id is not an integer")
    _first(~np.isfinite(p_d),
           lambda k: f"bus {ids[k]}: load {buses[k].p_d!r} is not finite")
    pos = dict(zip(ids, range(len(ids))))
    if len(pos) < len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise CaseError(f"duplicate bus ids: {dup}")

    f, t = [br.f_bus for br in branches], [br.t_bus for br in branches]
    _first([type(a) is not int for a in f + t],
           lambda k: f"branch {f[k % len(f)]!r}-{t[k % len(f)]!r}: an "
                     "endpoint is not an integer bus id")
    _first(~np.isfinite(b) | (b == 0),
           lambda k: f"branch {f[k]}-{t[k]}: susceptance must be finite "
                     f"and nonzero, got {branches[k].b!r}")
    _first(~np.isfinite(rate) | (rate <= 0),
           lambda k: f"branch {f[k]}-{t[k]}: rating must be finite and "
                     f"positive, got {branches[k].rate!r}")
    at_f, at_t = (np.array([pos.get(a, -1) for a in ends], dtype=int)
                  for ends in (f, t))
    _first((at_f < 0) | (at_t < 0),
           lambda k: f"branch {f[k]}-{t[k]} references unknown bus")
    _first(at_f == at_t, lambda k: f"branch {f[k]}-{t[k]} is a self-loop")

    at = [g.bus for g in gens]
    _first([type(a) is not int for a in at],
           lambda k: f"generator {k}: bus {at[k]!r} is not an integer")
    _first(~(np.isfinite(lo) & np.isfinite(hi)),
           lambda k: f"generator {k} at bus {at[k]}: limits must be finite "
                     f"({gens[k].p_min!r}, {gens[k].p_max!r})")
    _first([a not in pos for a in at],
           lambda k: f"generator {k} references unknown bus {at[k]}")
    _first(lo > hi, lambda k: f"generator {k} at bus {at[k]}: p_min "
                              f"{gens[k].p_min} > p_max {gens[k].p_max}")
    _check_connected(case, at_f.tolist(), at_t.tolist())
    return case


def _check_connected(case, f, t):
    """CaseError unless the branches f[k]-t[k] (positions) reach every bus."""
    adj = [[] for _ in range(case.n_bus)]
    for a, b in zip(f, t):
        adj[a].append(b)
        adj[b].append(a)
    seen, stack = [True] + [False] * (case.n_bus - 1), [0]
    while stack:
        for v in adj[stack.pop()]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    if not all(seen):
        missing = [bus.id for bus, s in zip(case.buses, seen) if not s][:8]
        raise CaseError(
            f"network is disconnected: buses {missing} unreachable from bus "
            f"{case.buses[0].id} over in-service branches")


# -- MATPOWER-subset parsing ---------------------------------------------------

# a number, or MATLAB's NaN and Inf, which float() reads and the caller
# names as non-finite
_SCALAR_RE = re.compile(
    r"^(?:mpc\.)?(\w+)\s*=\s*([0-9.eE+-]+|[+-]?(?:nan|inf(?:inity)?))\s*;", re.I)
_TABLE_RE = re.compile(r"^(?:mpc\.)?(\w+)\s*=\s*\[(.*)$")
_COMMENT_RE = re.compile(r"%.*")
_CLOSE_RE = re.compile(r"\];[^\S\n]*$", re.M)


def _tokenize_tables(text):
    """Scalar fields, and each table as (the line it opens on, its text
    from its '[' to its '];', comments cut): a table ends at the first line
    that ends in '];', and no line before that holds a '='."""
    text = _COMMENT_RE.sub("", "\n".join(text.splitlines())) + "\n"
    scalars, tables, lineno, pos = {}, {}, 0, 0
    while pos < len(text):
        end = text.index("\n", pos)
        line, lineno, pos = text[pos:end].strip(), lineno + 1, end + 1
        m = _SCALAR_RE.match(line)
        if m:
            try:
                scalars[m.group(1)] = float(m.group(2))
            except ValueError:
                raise CaseError(f"line {lineno}: bad number "
                                f"{m.group(2)!r} for {m.group(1)}")
            continue
        m = _TABLE_RE.match(line)
        if not m:
            continue
        name, body, opened = m.group(1), m.group(2), lineno
        if not body.endswith("];"):
            close = _CLOSE_RE.search(text, pos)
            rest = text[pos:close.start() if close else len(text)]
            equals = rest.find("=")              # no table row has one
            if close is None or equals >= 0:
                at = lineno + 1 + rest.count("\n", 0, equals)
                raise CaseError(("" if equals < 0 else f"line {at}: ")
                                + f"table '{name}', opened on line {opened}, "
                                "is never closed with '];'")
            body = f"{body}\n{rest}];"
            lineno += rest.count("\n") + 1
            pos = close.end() + 1
        tables[name] = (opened, body[:-2])
    return scalars, tables


def _rows(table):
    """A table's rows as (line number, text), split at ';' and line ends."""
    opened, body = table
    return [(lineno, chunk)
            for lineno, line in enumerate(body.split("\n"), opened)
            for chunk in line.replace(",", " ").split(";") if chunk.strip()]


def _fault(table, name, min_cols):
    """The message for a table's first row holding a token np.loadtxt
    rejects, fewer than `min_cols` numbers, or not as many as the first."""
    width = None
    for lineno, row in _rows(table):
        for token in row.split():
            try:
                np.loadtxt([token], comments=None)
            except ValueError:
                return f"line {lineno}: bad number {token!r} in {name} row"
        n = len(row.split())
        width = width or n
        if n < min_cols:
            return (f"line {lineno}: {name} row has {n} columns, need at "
                    f"least {min_cols}")
        if n != width:
            return (f"line {lineno}: {name} row has {n} columns where the "
                    f"table's first row has {width}")
    return f"line {table[0]}: table '{name}' does not read as numbers"


def _array(table, name, min_cols):
    """A table as one float array, read by np.loadtxt in one pass; CaseError
    naming the line of the first bad row (`_fault`)."""
    text = table[1].replace(",", " ").replace(";", "\n")
    if not text or text.isspace():               # np.loadtxt warns on no rows
        return np.empty((0, min_cols))
    try:
        out = np.loadtxt(text.split("\n"), ndmin=2, comments=None)
        if out.shape[1] >= min_cols:
            return out
    except ValueError:
        pass
    raise CaseError(_fault(table, name, min_cols))


def _integers(table, col, what, rows=True):
    """CaseError naming the line of the first of `rows` whose entry of
    `col` is not an integer (nan and inf are not)."""
    _first(rows & ~(np.isfinite(col) & (col == np.trunc(col))),
           lambda i: f"line {_rows(table)[i][0]}: {what} {float(col[i])!r} "
                     "is not an integer")


def parse_case_text(text, name="case"):
    """Parse MATPOWER-format text into a validated NetworkCase."""
    scalars, tables = _tokenize_tables(text)
    if "baseMVA" not in scalars:
        raise CaseError("missing baseMVA")
    base = scalars["baseMVA"]
    if not math.isfinite(base):
        raise CaseError(f"non-finite baseMVA: {base}")
    if base <= 0:
        raise CaseError(f"baseMVA must be positive, got {base}")
    for required in ("bus", "gen", "branch"):
        if required not in tables:
            raise CaseError(f"missing mpc.{required} table")

    bus, branch, gen = (_array(tables[t], t, k)
                        for t, k in (("bus", 3), ("branch", 6), ("gen", 10)))
    status = branch[:, 10] if branch.shape[1] > 10 else np.ones(len(branch))
    on, gen_on = status > 0, gen[:, 7] > 0
    _integers(tables["bus"], bus[:, 0], "bus id")
    _integers(tables["branch"], status, "status")
    _integers(tables["branch"], branch[:, 0], "bus id", on)
    _integers(tables["branch"], branch[:, 1], "bus id", on)
    _integers(tables["gen"], gen[:, 7], "status")
    _integers(tables["gen"], gen[:, 0], "bus id", gen_on)
    _first(on & (branch[:, 3] == 0),
           lambda i: f"line {_rows(tables['branch'])[i][0]}: in-service "
                     f"branch {int(branch[i, 0])}-{int(branch[i, 1])} has "
                     "zero reactance")
    branch, gen = branch[on], gen[gen_on]

    with np.errstate(over="ignore"):     # inf, as float division gives
        p_d, b, rate = bus[:, 2] / base, 1 / branch[:, 3], branch[:, 5] / base
        p_min, p_max = gen[:, 9] / base, gen[:, 8] / base
    unlimited = branch[:, 5] == 0
    rates = [None if u else r
             for u, r in zip(unlimited.tolist(), rate.tolist())]
    ints = [map(int, col.tolist())
            for col in (bus[:, 0], branch[:, 0], branch[:, 1], gen[:, 0])]
    case = NetworkCase(
        name=name, base_mva=base,
        buses=tuple(map(Bus, ints[0], p_d.tolist())),
        branches=tuple(map(Branch, ints[1], ints[2], b.tolist(), rates)),
        generators=tuple(map(Generator, ints[3], p_min.tolist(),
                             p_max.tolist())))
    return _check(case, p_d, b, np.where(unlimited, 1.0, rate), p_min, p_max)


def load_case(path):
    """Load a case from a .m (MATPOWER subset) or .json (canonical) file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise CaseError(f"{path}: not UTF-8 text (byte {exc.start})")
    name = re.sub(r"\.(m|json)$", "", str(path).rsplit("/", 1)[-1])
    if str(path).endswith(".json") or text.lstrip().startswith("{"):
        return case_from_json(text)
    return parse_case_text(text, name=name)


# -- canonical JSON ------------------------------------------------------------

_JSON_FORMAT = "dcattack-case"
_JSON_VERSION = 1


def case_to_json(case, indent=2):
    doc = {
        "format": _JSON_FORMAT,
        "version": _JSON_VERSION,
        "name": case.name,
        "base_mva": case.base_mva,
        "buses": [asdict(b) for b in case.buses],
        "branches": [asdict(b) for b in case.branches],
        "generators": [asdict(g) for g in case.generators],
    }
    return json.dumps(doc, indent=indent)


def case_from_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseError(f"invalid case JSON: {exc}")
    if not isinstance(doc, dict):
        raise CaseError(f"case JSON must be an object, not {type(doc).__name__}")
    if doc.get("format") != _JSON_FORMAT:
        raise CaseError(f"not a {_JSON_FORMAT} document")
    if doc.get("version") != _JSON_VERSION:
        raise CaseError(f"unsupported case JSON version {doc.get('version')}")
    try:
        case = NetworkCase(
            name=doc["name"],
            base_mva=doc["base_mva"],
            buses=tuple(Bus(**b) for b in doc["buses"]),
            branches=tuple(Branch(**b) for b in doc["branches"]),
            # a version-1 document may carry a `cost`, which no bound reads
            generators=tuple(Generator(**{k: v for k, v in g.items()
                                          if k != "cost"})
                             for g in doc["generators"]),
        )
    except KeyError as exc:
        raise CaseError(f"case JSON lacks the field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise CaseError(f"malformed case JSON: {exc}") from None
    validate_case(case)
    return case
