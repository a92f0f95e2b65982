"""Outside-in spans around srlab's public entry points.

srlab's modules import each other's functions by name (``from .linalg
import rank``), so wrapping ``srlab.linalg.rank`` alone would miss nearly
every call. ``Tracer.install`` therefore rebinds every module-level name
in ``srlab`` and its submodules that refers to a wrapped function, and
patches methods on their classes; ``Tracer.restore`` puts every original
back. ``Tracer.bindings_problems`` is the self-test of both steps.

Each span adds its duration to its parent, so a span's self time is its
duration minus the time covered by the spans it caused. Only aggregates
are kept: calls, self time, and work counts computed from shapes.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute, span name); "Class.method" patches a class attribute.
TARGETS = (
    ("srlab.linalg", "rank", "linalg.rank"),
    ("srlab.linalg", "rref", "linalg.rref"),
    ("srlab.linalg", "kernel_basis", "linalg.kernel_basis"),
    ("srlab.linalg", "matmul", "linalg.matmul"),
    ("srlab.linalg", "PrimeField.__init__", "linalg.field"),
    ("srlab.complexes", "relative_from_json", "complexes.build"),
    ("srlab.complexes", "builtin_complex", "complexes.build"),
    ("srlab.complexes", "relative_cohomology_dims", "complexes.cohomology"),
    ("srlab.complexes", "coboundary_matrices", "complexes.cohomology"),
    ("srlab.facering", "GradedQuotientPresentation.__init__", "facering.quotient"),
    ("srlab.facering", "sample_lsop", "facering.lsop.sample"),
    ("srlab.facering", "lsop_certificate", "facering.lsop.certificate"),
    ("srlab.koszul", "KoszulComplex.differential", "koszul.differential"),
    ("srlab.koszul", "depth", "koszul.depth"),
    ("srlab.koszul", "is_algebraically_cm", "koszul.is_cm"),
    ("srlab.partition", "PartitionComplexSpec.differential", "partition.differential"),
    ("srlab.partition", "ReducedPartitionComplex.differential", "partition.differential"),
    ("srlab.partition", "DoubleComplexSlice.tot_differential", "partition.differential"),
    ("srlab.partition", "partition_homology_dims", "partition.homology"),
    ("srlab.partition", "total_complex_homology", "partition.homology"),
    ("srlab.duality", "build_B", "duality.build_B"),
    ("srlab.duality", "poincare_duality_report", "duality.pd_report"),
    ("srlab.verdicts", "reisner_report", "verdicts.report"),
    ("srlab.verdicts", "dehn_sommerville_check", "verdicts.report"),
    ("srlab.verdicts", "lefschetz_report", "verdicts.report"),
    ("srlab.verdicts", "partition_of_unity_report", "verdicts.report"),
    ("srlab.verdicts", "schenzel_report", "verdicts.report"),
    ("srlab.verdicts", "kuhnel_report", "verdicts.report"),
    ("srlab.cli", "run", "cli.run"),
)


class Span:
    __slots__ = ("calls", "self_s", "cells", "max_cells", "work", "accepted")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.cells = 0
        self.max_cells = 0
        self.work = 0
        self.accepted = 0

    def add_shape(self, rows: int, cols: int) -> None:
        cells = rows * cols
        self.cells += cells
        self.max_cells = max(self.max_cells, cells)
        self.work += cells * min(rows, cols)


def _matrix_in(span: Span, args, result) -> None:
    shape = getattr(args[0], "shape", None)
    if shape is not None and len(shape) == 2:
        span.add_shape(int(shape[0]), int(shape[1]))


def _matrix_out(span: Span, args, result) -> None:
    span.add_shape(int(result.shape[0]), int(result.shape[1]))


def _accepted(span: Span, args, result) -> None:
    span.accepted += bool(result)


SHAPES = {
    "linalg.rank": _matrix_in,
    "linalg.rref": _matrix_in,
    "koszul.differential": _matrix_out,
    "partition.differential": _matrix_out,
    "facering.lsop.certificate": _accepted,
}


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        # id(original) -> (original, wrapper); ids, since module values may be unhashable
        self._wrapped: dict[int, tuple[object, object]] = {}

    def _wrap(self, name: str, fn):
        span = self.spans.setdefault(name, Span())
        shape = SHAPES.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                span.calls += 1
                span.self_s += dur - frame[0]
            if shape is not None:
                shape(span, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @staticmethod
    def _modules() -> list:
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "srlab" or n.startswith("srlab."))]

    def install(self) -> None:
        for modname, attr, name in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                wrapper = self._wrap(name, fn)
                self._patched.append((cls, meth, fn))
                setattr(cls, meth, wrapper)
            else:
                fn = getattr(owner, attr)
                wrapper = self._wrap(name, fn)
            self._wrapped[id(fn)] = (fn, wrapper)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if self._is_original(value):
                    self._patched.append((mod, key, value))
                    setattr(mod, key, self._wrapped[id(value)][1])

    def exclude(self, seconds: float) -> None:
        """Take time spent outside srlab out of the innermost open span."""
        if self._stack:
            self._stack[-1][0] += seconds

    def _is_original(self, value) -> bool:
        entry = self._wrapped.get(id(value))
        return entry is not None and entry[0] is value

    def restore(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    def bindings_problems(self, installed: bool) -> list[str]:
        """Self-test: while installed no binding of an original is left; after, no wrapper is."""
        wrappers = {id(w) for _, w in self._wrapped.values()}
        bad = []
        for mod in self._modules():
            for key, value in vars(mod).items():
                if installed and self._is_original(value):
                    bad.append(f"{mod.__name__}.{key} still unwrapped")
                if not installed and id(value) in wrappers:
                    bad.append(f"{mod.__name__}.{key} still wrapped")
        for modname, attr, _ in TARGETS:
            if "." not in attr:
                continue
            cls_name, meth = attr.split(".")
            value = vars(getattr(sys.modules[modname], cls_name))[meth]
            if (id(value) in wrappers) != installed:
                bad.append(f"{modname}.{attr} {'not ' if installed else ''}wrapped")
        return bad
