"""The benchmark's span tracer must find every function it traces.

``perfbench/spans.py`` patches functions by name and raises AttributeError
on a name that no longer resolves; these tests load it read-only so that a
renamed or deleted target fails here, not only in the benchmark's smoke run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import thermaltda.cli  # noqa: F401  (the tracer patches the CLI's names too)

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _bindings():
    """Every name bound in a thermaltda module or on a class those modules hold."""
    owners = [m for n, m in sys.modules.items() if n == "thermaltda" or n.startswith("thermaltda.")]
    owners += [v for m in list(owners) for v in vars(m).values() if isinstance(v, type)]
    return {(id(o), name): value for o in owners for name, value in list(vars(o).items())}


def test_every_target_resolves(spans):
    for _, module_name, attr, _, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)


def test_uninstall_restores_every_patch(spans):
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = {key for key, value in _bindings().items() if before.get(key) is not value}
        assert len(patched) >= len(spans.TARGETS)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
