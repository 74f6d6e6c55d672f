"""The benchmark tracer (bench/tracer.py) installs on the current package.

The tracer wraps module globals and class methods of fsotraj by name, so
deleting or renaming one of them breaks ``bench/run.py --trace 1``. The
test suite does not collect bench/, hence this check from here: enter and
leave the tracer without solving anything, and compare every namespace it
may touch before, during and after.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from fsotraj import optimizer
from fsotraj.convex import solver

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("fsotraj_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    """Every fsotraj module and every class defined in one, by name."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "fsotraj" or name.startswith("fsotraj."):
            out[name] = module
            for attr, value in vars(module).items():
                if isinstance(value, type) and value.__module__ == name:
                    out[f"{name}.{attr}"] = value
    return out


def snapshot():
    return {name: dict(vars(owner)) for name, owner in namespaces().items()}


def changed(before, after):
    """(namespace, attribute) pairs bound to another object, added or removed."""
    diff = set()
    for name in before.keys() | after.keys():
        old, new = before.get(name, {}), after.get(name, {})
        diff |= {(name, attr) for attr in old.keys() | new.keys() if old.get(attr) is not new.get(attr)}
    return diff


def test_tracer_patches_and_restores_its_targets(tracer_module):
    before = snapshot()
    hoyt, mc, spla, solve = optimizer.hoyt_params, optimizer.mc_ergodic_capacity, solver.spla, optimizer.solve
    with tracer_module.Tracer().installed(tracer_module.SolveCensus()):
        inside = changed(before, snapshot())
        assert optimizer.hoyt_params is not hoyt
        assert optimizer.mc_ergodic_capacity is not mc
        assert solver.spla is not spla
        assert optimizer.solve is not solve
    assert ("fsotraj.subproblem.Subproblem", "__init__") in inside
    assert ("fsotraj.convex.program.Objective", "value") in inside
    assert changed(before, snapshot()) == set()
