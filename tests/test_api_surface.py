"""Every exported name resolves, so no deleted function is still exported,
and every library name the benchmark reads still exists."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import ftteleop as ft
from ftteleop import (
    cli,
    closed_loop_sim,
    controllers,
    homogeneity_audit,
    robot_dynamics,
    scalar_ops,
    scenario,
)

MODULES = (cli, closed_loop_sim, controllers, homogeneity_audit, robot_dynamics, scalar_ops,
           scenario)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_names_come_from_module_exports():
    exported = {}
    for module in MODULES:
        for name in module.__all__:
            exported.setdefault(name, getattr(module, name))
    public = {name: value for name, value in vars(ft).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public
    for name, value in public.items():
        assert name in exported, f"ftteleop.{name} is in no module's __all__"
        assert exported[name] is value


def _bench_reads():
    """(file, module, name) for each ``alias.name`` read in bench/*.py, where
    an import binds ``alias`` to ftteleop or one of its modules."""
    reads = []
    for path in sorted((Path(__file__).parent.parent / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "ftteleop":   # 'import ftteleop.x' binds ftteleop
                        aliases[a.asname or "ftteleop"] = a.name if a.asname else "ftteleop"
            elif isinstance(node, ast.ImportFrom) and node.module == "ftteleop":
                for a in node.names:
                    if isinstance(getattr(ft, a.name, None), types.ModuleType):
                        aliases[a.asname or a.name] = f"ftteleop.{a.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id in aliases):
                reads.append((path.name, aliases[node.value.id], node.attr))
    return reads


def test_bench_reads_resolve():
    reads = _bench_reads()
    assert reads
    missing = [(file, f"{module}.{name}") for file, module, name in reads
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
