"""The traced benchmark mode (perfbench/) wraps graybox functions by name.

Installing its wrappers fails if a refactor drops or renames one of those
names, and uninstalling must leave every module as it was.
"""

import importlib.util
from pathlib import Path

from graybox import adf, cli, climb, fda, graphs, marginals, replicate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = {
    "adf": adf,
    "graphs": graphs,
    "fda": fda,
    "climb": climb,
    "marginals": marginals,
    "replicate": replicate,
    "cli": cli,
}
OWNERS = {**MODULES, "AdfInstance": adf.AdfInstance}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    return {name: dict(vars(owner)) for name, owner in OWNERS.items()}


def _changed(before):
    return [
        (name, attr)
        for name, owner in OWNERS.items()
        for attr, value in vars(owner).items()
        if before[name].get(attr) is not value
    ]


def test_install_then_uninstall_restores_every_attribute():
    tracing, layers = _load("tracing"), _load("layers")
    before = _snapshot()
    tracer = tracing.Tracer()
    layers.install(tracer, MODULES)
    try:
        wrapped = _changed(before)
        assert ("climb", "init_state") in wrapped
        assert ("replicate", "junction_tree") in wrapped
        # the climb hook reads eval_count from the state init_state returns
        climb.hill_climb(adf.paper_example(), [0] * 10)
        assert tracer.counts[(-1, "climb.table_lookups")] > 0
    finally:
        tracer.uninstall()
    assert _changed(before) == []
    assert {name: set(vars(owner)) for name, owner in OWNERS.items()} == {
        name: set(attrs) for name, attrs in before.items()
    }
