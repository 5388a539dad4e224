"""Checks on the library as a whole.

The self-checks raise typed errors and survive `python -O`: under `-O` the
synthesis re-verification still runs once per distinct label of an FKT
call, with `_scaled_propto` forced to fail both FKT routes raise
`SynthesisError`, and so does `fkt_eval` when the matcher behind the
Pfaffian's sign finds no perfect matching, or when the closed form that
splits a chain-family vertex in two fails; the front door refuses a #P-hard
label with `NoPolynomialRoute`.  The library and its tests have
no unused imports, and every console script that `pyproject.toml` declares
resolves to a callable.  The library imports nothing outside the standard
library, and every function the benchmark's traced run wraps exists where
the tracer looks it up."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sixvertex import membership
from sixvertex.membership import WitnessError, is_product
from sixvertex.signature import Table
from sixvertex.scalar import ONE, ZERO

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_no_assert_statements_in_library():
    offenders = []
    for path in sorted((SRC / "sixvertex").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _absolute_imports(tree):
    """(line, top-level module) of each absolute import in the tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_library_imports_stdlib_only():
    """Every absolute import in the library is a standard-library module,
    which keeps `dependencies = []` in pyproject.toml true."""
    offenders = []
    for path in sorted((SRC / "sixvertex").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.name}:{line} {module}"
            for line, module in _absolute_imports(tree)
            if module not in sys.stdlib_module_names
        ]
    assert offenders == []


def test_absolute_import_scan():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from networkx.algorithms import planarity\n"
        "from .scalar import ONE\n"
    )
    assert _absolute_imports(tree) == [
        (1, "__future__"), (2, "os"), (2, "numpy"), (3, "networkx")
    ]


def _unused_imports(tree):
    """(line, name) of each import that no name in the module reads; the
    names listed in `__all__` count as read."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _unused_imports_in(directory):
    offenders = []
    for path in sorted(directory.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{line} {name}" for line, name in _unused_imports(tree)]
    return offenders


def test_no_unused_imports_in_library():
    assert _unused_imports_in(SRC / "sixvertex") == []


def test_no_unused_imports_in_tests():
    assert _unused_imports_in(ROOT / "tests") == []


def test_unused_import_scan():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Optional, Sequence\n"
        "from .a import A, B as C\n"
        "__all__ = ['A']\n"
        "def f(x) -> Optional[int]:\n"
        "    return os.path.join(x)\n"
    )
    assert _unused_imports(tree) == [(3, "Sequence"), (4, "C")]


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def _missing_targets(targets):
    """The targets whose owner has no attribute of that name in its own
    namespace, which is where the benchmark's tracer looks them up."""
    return [f"{t.owner.__name__}.{t.attr}" for t in targets if t.attr not in vars(t.owner)]


def test_benchmark_trace_targets_exist(monkeypatch):
    """Every function perfbench/layers.py wraps for `run.py --trace 1`
    still exists where it is looked up; tier-1 does not collect
    perfbench/, so a rename would otherwise break the traced run only."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    targets = layers.QUERY_TARGETS + layers.SETUP_TARGETS
    assert len(targets) > 20
    assert _missing_targets(targets) == []


def test_missing_target_scan(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Target

    assert _missing_targets([Target(membership, "no_such_test", "x")]) == [
        "sixvertex.membership.no_such_test"
    ]


def test_product_witness_check_raises(monkeypatch):
    monkeypatch.setattr(membership, "_product_matches", lambda *args: False)
    with pytest.raises(WitnessError):
        is_product(Table((ONE, ZERO, ZERO, ONE)))


OPTIMIZED_CHECKS = """
import sixvertex
from sixvertex import loopspace, matchgate, membership
from sixvertex.instance import grid_patch, uniform_instance
from sixvertex.membership import WitnessError
from sixvertex.signature import SixVertexSignature, Table
from sixvertex.scalar import ONE, ZERO

raised = []
real = membership._product_matches
membership._product_matches = lambda *args: False
try:
    membership.is_product(Table((ONE, ZERO, ZERO, ONE)))
except WitnessError:
    raised.append("witness")
membership._product_matches = real

f = SixVertexSignature.from_values(2, 3, 0, 5, 7, 0)
inst = uniform_instance(grid_patch(2, 2), f)
loopspace._profile_binary = lambda *args: Table((ONE, ONE, ONE, ZERO))
try:
    loopspace.evaluate(inst, profile_base=f)
except loopspace.LoopSpaceError:
    raised.append("profile")

real_propto = matchgate._scaled_propto
matchgate._scaled_propto = lambda *args: None
for name, evaluate, label in [
    ("fkt", matchgate.fkt_eval, SixVertexSignature.from_values(1, 1, 2, 1, 1, 1)),
    ("fkt_hat", matchgate.fkt_eval_hat, SixVertexSignature.from_values(0, 1, 2, 0, 1, 2)),
]:
    try:
        evaluate(uniform_instance(grid_patch(2, 2), label))
    except matchgate.SynthesisError:
        raised.append(name)
matchgate._scaled_propto = real_propto

real_matching = matchgate.perfect_matching
matchgate.perfect_matching = lambda *args: None
try:
    matchgate.fkt_eval(uniform_instance(grid_patch(2, 2), SixVertexSignature.from_values(1, 1, 2, 1, 1, 1)))
except matchgate.SynthesisError:
    raised.append("sign")
matchgate.perfect_matching = real_matching

wrong = SixVertexSignature.from_values(1, 1, 1, 1, 1, 2)
matchgate.compose_n = lambda *args: wrong
try:
    matchgate.fkt_eval(uniform_instance(grid_patch(2, 2), SixVertexSignature.from_values(1, 1, 0, 1, -1, 0)))
except matchgate.SynthesisError:
    raised.append("chain")

try:
    sixvertex.evaluate(uniform_instance(grid_patch(2, 2), SixVertexSignature.from_values(1, 2, 3, 4, 5, 7)))
except sixvertex.NoPolynomialRoute:
    raised.append("hard")
print(",".join(raised))
"""


def test_checks_survive_optimized_mode():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "witness,profile,fkt,fkt_hat,sign,chain,hard"
