"""The package's layering, read from the import statements of its modules:
the LP kernel depends on nothing but the errors, and the model on nothing
but the kernel and the errors, so row geometry stays with the model.  The
attack and the defense each stand on the model alone, and only the squeeze
and the CLI compose them.  No module reaches a private numpy name: those
move between numpy releases (`numpy._core` does not exist in numpy 1.23,
which pyproject.toml admits), so skipping a wrapper through one trades a
few microseconds for a broken import.  No public function or class goes
uncalled unless an allow-list says why it stays, and no function binds a
local name it never reads.  The attack, the defense and the squeeze call
no `.tolist()`: their reports keep numpy arrays until JSON is written."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dcattack"


def _package_imports(module):
    """The dcattack modules `module` imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name != "dcattack" and not name.startswith("dcattack."):
                    continue
                name = name[len("dcattack"):].lstrip(".")
            if name:
                found.add(name.split(".")[0])
            else:       # from . import x, from dcattack import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("dcattack."))
    return found


@pytest.mark.parametrize("module, allowed", [
    ("lin_solve", {"errors"}),
    ("dc_model", {"lin_solve", "errors"}),
    ("attack", {"lin_solve", "dc_model", "errors"}),
    ("defense", {"lin_solve", "dc_model", "errors"}),
])
def test_lower_layers_import_only_below_them(module, allowed):
    assert _package_imports(module) <= allowed


def test_only_the_squeeze_and_the_cli_compose_attack_and_defense():
    users = {path.stem for path in SRC.glob("*.py")
             if _package_imports(path.stem) & {"attack", "defense"}}
    assert users == {"squeeze", "cli"}


def test_the_reader_finds_both_relative_forms():
    """The reader itself: defense imports `from . import lin_solve` and
    `from .errors import ...`, squeeze `from .attack import ...`."""
    assert _package_imports("defense") == {"lin_solve", "errors"}
    assert {"attack", "defense", "dc_model"} <= _package_imports("squeeze")


def _tolist_lines(source):
    """The lines of `source` that call `.tolist()` on anything."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "tolist")


def test_the_tolist_reader_skips_prose():
    source = ('"""x.tolist() in a docstring"""\n'
              "a = x.tolist()\n# y.tolist()\nb = f(x).T.tolist()\n")
    assert _tolist_lines(source) == [2, 4]


@pytest.mark.parametrize("module", ["attack", "defense", "squeeze"])
def test_reports_keep_their_arrays_until_json(module):
    """The attack, the defense and the squeeze hand their arrays to the
    reports as they are: JSON turns them into lists once, at the
    boundary (`dc_model.json_default`)."""
    assert _tolist_lines((SRC / f"{module}.py").read_text()) == []


def _numpy_names(source):
    """Every dotted numpy name the source imports, or reaches as an
    attribute chain or a constant getattr on a name bound to numpy."""
    tree, bound, found = ast.parse(source), {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    found.add(alias.name)
                    bound[alias.asname or "numpy"] = \
                        alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and not node.level \
                and (node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                found.add(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        parts = []
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and len(node.args) >= 2 \
                and isinstance(node.args[1], ast.Constant):
            parts, node = [str(node.args[1].value)], node.args[0]
        elif not isinstance(node, ast.Attribute):
            continue
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in bound:
            found.add(".".join([bound[node.id]] + parts[::-1]))
    return found


def _private(name):
    return any(part == "core" or part.startswith("_")
               and not (part.startswith("__") and part.endswith("__"))
               for part in name.split(".")[1:])


def test_the_numpy_reader_finds_every_private_form():
    source = ("import numpy as np\nimport numpy.core as npc\n"
              "from numpy.linalg import _umath_linalg\n"
              "from numpy import _core as c\n"
              "x = np._core.multiarray.dot\ny = getattr(np.linalg, '_x')\n"
              "z = np.linalg.norm(np.__version__)\n")
    found = _numpy_names(source)
    assert {name for name in found if _private(name)} == {
        "numpy.core", "numpy.linalg._umath_linalg", "numpy._core",
        "numpy._core.multiarray", "numpy._core.multiarray.dot",
        "numpy.linalg._x"}
    assert {"numpy.linalg.norm", "numpy.__version__"} <= found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.stem)
def test_no_module_reaches_a_private_numpy_name(path):
    assert not [name for name in _numpy_names(path.read_text())
                if _private(name)]


def test_a_squeeze_imports_no_scipy():
    """The runtime is numpy alone, and scipy only a test oracle: importing
    scipy.linalg lifts the peak RSS of this squeeze from about 38 to about
    60 MB (numpy alone takes about 27 MB, with scipy.linalg about 55)."""
    case = SRC.parents[1] / "cases" / "pglib_opf_case5_pjm.m"
    code = ("import sys\n"
            "from dcattack.case_ingest import load_case\n"
            "from dcattack.squeeze import squeeze_run\n"
            f"assert squeeze_run(load_case({str(case)!r})).matched\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def _dead_locals(source):
    """(function, name) for each name a function binds (an assignment or
    loop target, a with or except alias) and that neither it nor a function
    nested in it reads; names starting with "_" and names declared global
    or nonlocal are exempt."""
    dead = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound, read = set(), set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                (read if isinstance(node.ctx, ast.Load) else bound).add(node.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.add(node.name)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        dead |= {(fn.name, name) for name in bound - read
                 if not name.startswith("_")}
    return dead


def test_the_dead_local_reader_finds_every_form():
    source = ("def f(xs):\n"
              "    total = n = 0\n"
              "    for tag, sl in xs:\n"
              "        n += 1\n"
              "        with open(tag) as fh, open(tag) as _fh:\n"
              "            pass\n"
              "    try:\n"
              "        pass\n"
              "    except ValueError as exc:\n"
              "        pass\n"
              "    def g():\n"
              "        nonlocal total\n"
              "        total = 1\n"
              "    return g, total\n")
    assert _dead_locals(source) == {("f", name)
                                    for name in ("n", "sl", "fh", "exc")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.stem)
def test_no_function_binds_a_local_it_never_reads(path):
    assert _dead_locals(path.read_text()) == set()


# the position of the start basis among each LP entry point's arguments
_BASIS_AT = {"lp_solve": 1, "check_feasible": 2}


def _lp_calls(source):
    """(line, name, basis given) for each call of an LP entry point, by bare
    name or as an attribute: the basis counts as given when it is passed,
    by position or as `basis=`, and is not the constant None."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "attr", None) or getattr(func, "id", None)
        if name not in _BASIS_AT:
            continue
        at = _BASIS_AT[name]
        given = node.args[at] if len(node.args) > at else next(
            (k.value for k in node.keywords if k.arg == "basis"), None)
        calls.append((node.lineno, name, given is not None and not (
            isinstance(given, ast.Constant) and given.value is None)))
    return calls


def test_the_lp_call_reader_finds_every_form():
    source = ("lp_solve(p)\nlin_solve.lp_solve(p, b)\nlp_solve(p, basis=b)\n"
              "lp_solve(p, None)\nlp_solve(p, basis=None, deadline=d)\n"
              "check_feasible(r, h)\nlin_solve.check_feasible(r, h, b)\n"
              "check_feasible(r, h, basis=None)\nother(p)\n")
    assert _lp_calls(source) == [
        (1, "lp_solve", False), (2, "lp_solve", True), (3, "lp_solve", True),
        (4, "lp_solve", False), (5, "lp_solve", False),
        (6, "check_feasible", False), (7, "check_feasible", True),
        (8, "check_feasible", False)]


def test_every_lp_call_passes_a_start_basis():
    """The simplex runs phase 2 only, from its caller's feasible basis, so
    every call of `lp_solve` and `check_feasible` in src/ hands one over."""
    calls = {path.stem: _lp_calls(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name for found in calls.values() for _line, name, _given in found} \
        == set(_BASIS_AT)
    assert {stem: [(line, name) for line, name, given in found if not given]
            for stem, found in calls.items()} == {stem: [] for stem in calls}


def _callers(source, name):
    """The innermost function (None at module level) around each call of
    `name`, by bare name or as an attribute, in `source`."""
    found = set()

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "attr", None),
                    getattr(child.func, "id", None)):
                found.add(fn)
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)

    visit(ast.parse(source), None)
    return found


def test_the_caller_reader_names_the_innermost_function():
    source = ("def f():\n    def g():\n        return k.lp_solve(p, b)\n"
              "    return lp_solve(p, b)\n"
              "def h():\n    return solve(p)\nlp_solve(p, b)\n")
    assert _callers(source, "lp_solve") == {"f", "g", None}


def _all_callers(name):
    """(module, innermost function) around each call of `name` in src/."""
    return {(path.stem, fn) for path in sorted(SRC.glob("*.py"))
            for fn in _callers(path.read_text(), name)}


def test_the_simplex_serves_two_lp_forms():
    """Two LP forms, each built in one place: P, the Farkas polytope
    (`FeasibilityMatrices.polytope`), and Q, the feasibility probe's
    (`check_feasible`).  `lp_solve` runs the attack's steps and the
    max-margin LP over P, and the probe over Q.  No other LP, such as a
    cost-minimizing dispatch, is posed."""
    assert _all_callers("LpProblem") == {("dc_model", "polytope"),
                                         ("lin_solve", "check_feasible")}
    assert _all_callers("lp_solve") == {("attack", "_p_lp"),
                                        ("dc_model", "max_margin"),
                                        ("lin_solve", "check_feasible")}


def test_q_is_a_fallback_only():
    """The probe over Q has one caller in src/, the max-margin LP's
    fallback, when the LP over P has no optimum or there is no movable
    unit."""
    assert _all_callers("check_feasible") == {("dc_model", "max_margin")}


def test_certification_solves_no_lp():
    """`certify_infeasible` decides by the closed-form residual rule: it
    calls neither LP entry point, directly or through a nested function."""
    tree = ast.parse((SRC / "attack.py").read_text())
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "certify_infeasible")
    called = {getattr(node.func, "attr", None) or getattr(node.func, "id", None)
              for node in ast.walk(fn) if isinstance(node, ast.Call)}
    assert "unit_rows" in called
    assert not called & {"lp_solve", "check_feasible"}


# public names that nothing in src/, bench/*.py or README.md refers to, and
# why each stays
_UNCALLED = {
    "defense.simplex_policy_fit",   # acceptance criterion 5 runs it
    "case_ingest.build_case",       # the constructor of the test networks
    "case_ingest.case_to_json",     # writes the JSON that load_case reads
}


def test_every_public_name_has_a_caller():
    """A public module-level function or class of the package counts as
    referred to when another part of src/ names it in code (a name, an
    attribute or an import; docstrings do not count), or bench/*.py or
    README.md mentions it.  The ones that are not are exactly the
    allow-list: a new one is dead code, or needs its reason written
    there."""
    used, public = set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
        public |= {(path.stem, node.name) for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")}
    root = SRC.parents[1]
    outside = "\n".join(path.read_text() for path in
                        [*sorted((root / "bench").glob("*.py")),
                         root / "README.md"])
    uncalled = {f"{module}.{name}" for module, name in public
                if name not in used
                and not re.search(rf"\b{name}\b", outside)}
    assert uncalled == _UNCALLED
