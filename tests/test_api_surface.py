"""Every exported name resolves, so no deleted function is still exported,
every library name the benchmark reads still exists, the engine builds no
joint-space inertia matrix, and only the homogeneity audit loads scipy."""

import ast
import contextlib
import importlib
import json
import os
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
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
    """(file, module, path) for each ``alias.name`` or ``alias.name.attr`` read
    in bench/*.py, where an import binds ``alias`` to ftteleop or one of its
    modules; the path is the names after the alias, dot-joined."""
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
            names, base = [], node
            while isinstance(base, ast.Attribute) and isinstance(base.ctx, ast.Load):
                names.insert(0, base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in aliases and 1 <= len(names) <= 2:
                reads.append((path.name, aliases[base.id], ".".join(names)))
    return reads


def _resolves(module: str, path: str) -> bool:
    """Whether the first name of the path exists in the module and, when it is
    a class, the second name exists on that class."""
    head, _, attr = path.partition(".")
    module = importlib.import_module(module)
    if not hasattr(module, head):
        return False
    value = getattr(module, head)
    return not (attr and isinstance(value, type)) or hasattr(value, attr)


def test_bench_reads_resolve():
    reads = _bench_reads()
    assert reads
    assert any("." in path for _, _, path in reads)   # Class.attr reads are parsed too
    missing = [(file, f"{module}.{path}") for file, module, path in reads
               if not _resolves(module, path)]
    assert missing == []


def test_engine_and_full_field_build_no_joint_space_inertia():
    # the engine and the audit's full field solve in link coordinates; only
    # mass_matrix, the bounds and the frozen core build M
    scenarios = [replace(ft.read_bundled_scenario(name), horizon=0.01)
                 for name in ("c1_sim", "c2_sim", "c3_sim", "c4_sim")]
    scenarios.append(replace(scenarios[3], integrator="rk4", label="c4_rk4"))
    s = scenarios[1]
    field = ft.full_field(s.config, s.params_l, s.params_r, s.q0_l)
    points = ft.sphere_points(6 * s.params_l.n, 16)
    with contextlib.ExitStack() as stack:
        counted = [stack.enter_context(mock.patch.object(module, name,
                                                         wraps=getattr(module, name)))
                   for module in MODULES for name in ("inertia_kernel", "mass_matrix")
                   if hasattr(module, name)]
        traces = ft.run_batch(scenarios)
        values = field(points)
    assert counted and all(c.call_count == 0 for c in counted)
    assert all(t.samples == 11 for t in traces) and np.isfinite(values).all()


_IMPORT_CONTRACT = """
import json, sys
import numpy as np
import ftteleop
import ftteleop.cli
out, path = sys.argv[1:]
codes = [ftteleop.cli.run_command(argv) for argv in (
    ["validate", "c1_sim"], ["simulate", path, "--out", out], ["compare", path, "--out", out])]
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
np.save(out + "/points.npy", ftteleop.sphere_points(4, 8, 0))
print(json.dumps({"codes": codes, "scipy": before, "stats": "scipy.stats" in sys.modules}))
"""


def test_only_the_audit_loads_scipy(tmp_path):
    # a fresh interpreter: importing the package and the CLI, validate,
    # simulate and compare load no scipy module; the first sphere sample does
    path = tmp_path / "short.cfg"
    path.write_text(ft.dump_scenario(replace(ft.read_bundled_scenario("c1_sim"),
                                             horizon=0.01)))
    src = str(Path(ft.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _IMPORT_CONTRACT, str(tmp_path), str(path)],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0, 0], "scipy": [], "stats": True}
    assert np.array_equal(np.load(tmp_path / "points.npy"), ft.sphere_points(4, 8, 0))
