"""Every exported name resolves, so no deleted function is still exported."""

import types

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
