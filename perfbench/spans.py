"""In-memory span tracer installed around thermaltda's public functions.

The tracer lives entirely in the benchmark: it replaces each traced
function under every name its callers look it up by (for example
``thermaltda.cli.beta_threshold``, ``thermaltda.experiments.beta_threshold``
and ``thermaltda.thermal.beta_threshold`` are all the same function), and
puts the originals back on ``uninstall``.  Timed functions record a span
(name, start, end, parent, query id); counted functions only bump a
counter, because they are called tens of thousands of times per query.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

import thermaltda  # noqa: F401  (loads every submodule the targets name)

# Derived counters, fed by hooks on the traced calls.
M3_SUM = "homology.spectrum.m3_sum"
H_EIGH = "discriminant.h_eigh_calls"
D_BYTES = "discriminant.d_matrix_bytes"
HERMITICITY = "discriminant.hermiticity_defect_max"
RECORDS = "experiments.records"
REJECTED = "experiments.rejected"
DERIVED = (M3_SUM, H_EIGH, D_BYTES, HERMITICITY, RECORDS, REJECTED)


def _spectrum_hook(tracer, args, kwargs, result):
    tracer.add(M3_SUM, result.dim ** 3)


def _h_eigh_hook(tracer, args, kwargs, result):
    tracer.add(H_EIGH, 1)


def _discriminant_hook(tracer, args, kwargs, result):
    tracer.add(H_EIGH, 1)
    dim = result.hamiltonian.shape[0]
    tracer.maximum(D_BYTES, dim ** 4 * 16)
    tracer.maximum(HERMITICITY, result.hermiticity_defect)


def _scaling_hook(tracer, args, kwargs, result):
    tracer.add(RECORDS, len(result.records))
    tracer.add(REJECTED, sum(result.rejected.values()))


# (metric prefix, module, attribute, timed, hook).  A "Class.method" attribute
# is patched on the class; everything else on every thermaltda module that
# holds the same function object.
TARGETS = [
    ("complexes.random_complex", "thermaltda.complexes", "random_complex", True, None),
    ("complexes.build_clique_complex", "thermaltda.complexes", "build_clique_complex", True, None),
    ("complexes.load", "thermaltda.complexes", "SimplicialComplex.load", True, None),
    ("complexes.simplices", "thermaltda.complexes", "SimplicialComplex.simplices", False, None),
    ("homology.boundary_matrix", "thermaltda.homology", "boundary_matrix", True, None),
    ("homology.combinatorial_laplacian", "thermaltda.homology", "combinatorial_laplacian", True, None),
    ("homology.spectrum", "thermaltda.homology", "spectrum", True, _spectrum_hook),
    ("homology.betti_exact_rank", "thermaltda.homology", "betti_exact_rank", True, None),
    ("thermal.beta_threshold", "thermaltda.thermal", "beta_threshold", True, None),
    ("thermal.cooling_rate", "thermaltda.thermal", "cooling_rate", False, None),
    ("thermal.betti_thermal", "thermaltda.thermal", "betti_thermal", True, None),
    ("swaptest.betti_swap", "thermaltda.swaptest", "betti_swap", True, None),
    ("swaptest.purification_state", "thermaltda.swaptest", "purification_state", True, None),
    ("swaptest.swap_test_probabilities", "thermaltda.swaptest", "swap_test_probabilities", False, None),
    ("swaptest.overlap_probabilities", "thermaltda.swaptest", "overlap_probabilities", False, None),
    ("discriminant.annealing_path", "thermaltda.discriminant", "annealing_path", True, None),
    ("discriminant.build_discriminant", "thermaltda.discriminant", "build_discriminant", True, _discriminant_hook),
    ("discriminant.top_eigenvector", "thermaltda.discriminant", "top_eigenvector", True, None),
    ("discriminant.pad_hamiltonian", "thermaltda.discriminant", "pad_hamiltonian", False, _h_eigh_hook),
    ("discriminant.bohr_coverage", "thermaltda.discriminant", "bohr_coverage", False, _h_eigh_hook),
    ("discriminant.canonical_purification_vector", "thermaltda.discriminant",
     "canonical_purification_vector", False, _h_eigh_hook),
    ("experiments.scaling_experiment", "thermaltda.experiments", "scaling_experiment", True, _scaling_hook),
    ("experiments.fit_power_law", "thermaltda.experiments", "fit_power_law", True, None),
]

ROOT_SPAN = "cli"


@dataclass
class Span:
    name: str
    start: float
    end: float | None  # None while open
    parent: int | None  # index into Tracer.spans
    query: int


class Tracer:
    """Spans and counters of the queries run while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.query = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def add(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), None, parent, self.query))
        slot = len(self.spans) - 1
        self._stack.append(slot)
        return slot

    def close(self, slot: int) -> None:
        self.spans[slot].end = time.perf_counter()
        self._stack.pop()

    # -- installation ----------------------------------------------------
    def _wrap(self, prefix, func, timed, hook):
        calls = prefix + ".calls"
        tracer = self

        if timed:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                tracer.add(calls, 1)
                slot = tracer.open(prefix)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer.close(slot)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                tracer.add(calls, 1)
                result = func(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "thermaltda" or n.startswith("thermaltda.")) and m is not None]
        for prefix, module_name, attr, timed, hook in TARGETS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(sys.modules[module_name], cls_name)
                raw = owner.__dict__[meth]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(prefix, raw.__func__, timed, hook))
                else:
                    replacement = self._wrap(prefix, raw, timed, hook)
                self._patches.append((owner, meth, raw))
                setattr(owner, meth, replacement)
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(prefix, original, timed, hook)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child_time)]

