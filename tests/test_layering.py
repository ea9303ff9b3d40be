"""The package's layering, read from the import statements of its modules:
the LP kernel depends on nothing but the errors, and the model on nothing
but the kernel and the errors, so row geometry stays with the model.  The
attack and the defense each stand on the model alone, and only the squeeze
and the CLI compose them."""

import ast
import os
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
