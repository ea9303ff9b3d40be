"""MATPOWER-subset case ingestion and a canonical JSON form.

Only the fields the DC model consumes are kept: bus ids and active loads,
branch endpoints / reactance / thermal rating / status, generator bus, active
limits, status and linear cost (which no bound reads). Everything is
converted to per-unit on the
system base at parse time. A rating of 0 in MATPOWER means "unlimited" and is
stored as None; any other rating must be finite and positive.
"""

import json
import math
import re
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
    cost: float = 0.0  # linear coefficient, $/MWh


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

    def load_positions(self):
        """Positions of perturbable (nonzero-load) buses, ascending."""
        return np.flatnonzero(self.p_d() != 0.0)

    def total_load(self):
        return float(self.p_d().sum())

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
    (bus, p_min, p_max[, cost]).  Used by tests and fixtures; file ingestion
    goes through parse_case_text/load_case.
    """
    bus_objs = tuple(Bus(id=i, p_d=float(pd)) for i, pd in buses)
    br_objs = []
    for f, t, x, rate in branches:
        if x == 0:
            raise CaseError(f"branch {f}-{t} has zero reactance")
        br_objs.append(Branch(f_bus=f, t_bus=t, b=1.0 / float(x),
                              rate=None if rate is None else float(rate)))
    gen_objs = tuple(Generator(bus=g[0], p_min=float(g[1]), p_max=float(g[2]),
                               cost=float(g[3]) if len(g) > 3 else 0.0)
                     for g in generators)
    case = NetworkCase(name=name, base_mva=float(base_mva), buses=bus_objs,
                       branches=tuple(br_objs), generators=gen_objs)
    validate_case(case)
    return case


def _finite(*values):
    """Every value a finite number; a bool is not one (JSON `true`)."""
    if bool in map(type, values):
        return False
    try:
        return all(map(math.isfinite, values))
    except (TypeError, OverflowError):    # not a number, or an int too
        return False                      # large for a float (JSON input)


def validate_case(case):
    """Raise CaseError naming the first bad record.  Bus ids must be ints
    (a bool is not): a float id is never truncated onto another bus."""
    if not _finite(case.base_mva) or case.base_mva <= 0:
        raise CaseError(f"baseMVA must be positive, got {case.base_mva!r}")
    if case.n_bus == 0:
        raise CaseError("case has no buses")
    if case.n_gen == 0:
        raise CaseError("case has no in-service generators")
    for bus in case.buses:
        if type(bus.id) is not int:
            raise CaseError(f"bus {bus.id!r}: the id is not an integer")
        if not _finite(bus.p_d):
            raise CaseError(f"bus {bus.id}: load {bus.p_d!r} is not finite")
    ids = [bus.id for bus in case.buses]
    if len(set(ids)) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise CaseError(f"duplicate bus ids: {dup}")
    known = set(ids)
    for br in case.branches:
        if type(br.f_bus) is not int or type(br.t_bus) is not int:
            raise CaseError(f"branch {br.f_bus!r}-{br.t_bus!r}: an endpoint "
                            f"is not an integer bus id")
        rate = 1.0 if br.rate is None else br.rate
        if not _finite(br.b, rate) or br.b == 0 or rate <= 0:
            what = (f"susceptance must be finite and nonzero, got {br.b!r}"
                    if not _finite(br.b) or br.b == 0 else
                    f"rating must be finite and positive, got {br.rate!r}")
            raise CaseError(f"branch {br.f_bus}-{br.t_bus}: {what}")
        if br.f_bus not in known or br.t_bus not in known:
            raise CaseError(f"branch {br.f_bus}-{br.t_bus} references unknown bus")
        if br.f_bus == br.t_bus:
            raise CaseError(f"branch {br.f_bus}-{br.t_bus} is a self-loop")
    for i, g in enumerate(case.generators):
        if type(g.bus) is not int:
            raise CaseError(f"generator {i}: bus {g.bus!r} is not an integer")
        if not _finite(g.p_min, g.p_max, g.cost):
            raise CaseError(f"generator {i} at bus {g.bus}: limits and cost "
                            f"must be finite ({g.p_min!r}, {g.p_max!r}, "
                            f"{g.cost!r})")
        if g.bus not in known:
            raise CaseError(f"generator {i} references unknown bus {g.bus}")
        if g.p_min > g.p_max:
            raise CaseError(
                f"generator {i} at bus {g.bus}: p_min {g.p_min} > p_max {g.p_max}")
    _check_connected(case)
    return case


def _check_connected(case):
    pos = case.bus_position()
    adj = [[] for _ in range(case.n_bus)]
    for br in case.branches:
        a, b = pos[br.f_bus], pos[br.t_bus]
        adj[a].append(b)
        adj[b].append(a)
    seen = np.zeros(case.n_bus, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    if not seen.all():
        missing = [case.buses[i].id for i in np.flatnonzero(~seen)[:8]]
        raise CaseError(
            f"network is disconnected: buses {missing} unreachable from bus "
            f"{case.buses[0].id} over in-service branches")


# -- MATPOWER-subset parsing ---------------------------------------------------

# a number, or MATLAB's NaN and Inf, which float() reads and the caller
# names as non-finite
_SCALAR_RE = re.compile(
    r"^(?:mpc\.)?(\w+)\s*=\s*([0-9.eE+-]+|[+-]?(?:nan|inf(?:inity)?))\s*;", re.I)
_TABLE_RE = re.compile(r"^(?:mpc\.)?(\w+)\s*=\s*\[(.*)$")


def _tokenize_tables(text):
    """Extract scalar fields, numeric tables and each table's opening line;
    rows carry line numbers."""
    scalars, tables, opened, current = {}, {}, {}, None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        if current is not None and "=" in line:   # no table row has one
            raise CaseError(f"line {lineno}: table '{current}', opened on "
                            f"line {opened[current]}, is never closed with '];'")
        if current is None:
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
            current, line = m.group(1), m.group(2)
            tables[current], opened[current] = [], lineno
        closed = line.endswith("];")
        for chunk in (line[:-2] if closed else line).split(";"):
            if chunk.strip():
                tables[current].append((lineno, chunk.strip()))
        if closed:
            current = None
    if current is not None:
        raise CaseError(f"table '{current}', opened on line "
                        f"{opened[current]}, is never closed with '];'")
    return scalars, tables, opened


def _numeric_rows(table, name, min_cols):
    out = []
    for lineno, chunk in table:
        parts = chunk.replace(",", " ").split()
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise CaseError(f"line {lineno}: bad number in {name} row: {exc}")
        if len(row) < min_cols:
            raise CaseError(
                f"line {lineno}: {name} row has {len(row)} columns, "
                f"need at least {min_cols}")
        out.append((lineno, row))
    return out


def _integer(value, lineno, what):
    """An id, status or count field as an int; CaseError naming the line
    when it is not integral (nan and inf are not)."""
    if not value.is_integer():
        raise CaseError(f"line {lineno}: {what} {value!r} is not an integer")
    return int(value)


def parse_case_text(text, name="case"):
    """Parse MATPOWER-format text into a validated NetworkCase."""
    scalars, tables, opened = _tokenize_tables(text)
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

    buses = []
    for lineno, row in _numeric_rows(tables["bus"], "bus", 3):
        buses.append(Bus(id=_integer(row[0], lineno, "bus id"),
                         p_d=row[2] / base))

    branches = []
    for lineno, row in _numeric_rows(tables["branch"], "branch", 6):
        status = _integer(row[10], lineno, "status") if len(row) > 10 else 1
        if status <= 0:
            continue
        f = _integer(row[0], lineno, "bus id")
        t = _integer(row[1], lineno, "bus id")
        x = row[3]
        if x == 0:
            raise CaseError(f"line {lineno}: in-service branch "
                            f"{f}-{t} has zero reactance")
        rate = None if row[5] == 0 else row[5] / base   # validated below
        branches.append(Branch(f_bus=f, t_bus=t, b=1.0 / x, rate=rate))

    raw_gens = []
    for lineno, row in _numeric_rows(tables["gen"], "gen", 10):
        if _integer(row[7], lineno, "status") <= 0:
            raw_gens.append(None)
            continue
        raw_gens.append(Generator(bus=_integer(row[0], lineno, "bus id"),
                                  p_min=row[9] / base,
                                  p_max=row[8] / base))

    if "gencost" in tables:
        cost_rows = _numeric_rows(tables["gencost"], "gencost", 4)
        if any(g is not None for g in raw_gens[len(cost_rows):]):
            # an in-service unit without a cost row; out-of-service ones
            # are dropped, whether or not they have one
            raise CaseError(
                f"line {opened['gencost']}: gencost has {len(cost_rows)} "
                f"rows for {len(raw_gens)} gen rows")
        # MATPOWER permits 2*n_gen rows (reactive costs follow); take the first block
        cost_rows = cost_rows[:len(raw_gens)]
        for i, (lineno, row) in enumerate(cost_rows):
            if raw_gens[i] is None:
                continue
            model = _integer(row[0], lineno, "gencost model")
            ncost = _integer(row[3], lineno, "ncost")
            if model != 2:
                raise CaseError(
                    f"line {lineno}: unsupported gencost model {model} "
                    "(only polynomial, model 2)")
            coeffs = row[4:4 + ncost]
            if len(coeffs) != ncost:
                raise CaseError(f"line {lineno}: gencost row promises {ncost} "
                                f"coefficients, has {len(coeffs)}")
            linear = coeffs[-2] if ncost >= 2 else 0.0
            raw_gens[i] = Generator(bus=raw_gens[i].bus, p_min=raw_gens[i].p_min,
                                    p_max=raw_gens[i].p_max, cost=linear)

    gens = tuple(g for g in raw_gens if g is not None)
    case = NetworkCase(name=name, base_mva=base, buses=tuple(buses),
                       branches=tuple(branches), generators=gens)
    validate_case(case)
    return case


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
            generators=tuple(Generator(**g) for g in doc["generators"]),
        )
    except KeyError as exc:
        raise CaseError(f"case JSON lacks the field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CaseError(f"malformed case JSON: {exc}") from None
    validate_case(case)
    return case
