"""The benchmark's tracer must find and undo every binding it wraps.

`perfbench/tracing.py` wraps srlab entry points by name; a renamed or
removed target would otherwise show up only in a traced benchmark run.
"""

import pathlib
import sys

import srlab.cli  # noqa: F401  the tracer wraps srlab.cli.run

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_binds_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.bindings_problems(installed=True) == []
    finally:
        tracer.restore()
    assert tracer.bindings_problems(installed=False) == []


def test_tracer_measures_sparse_total_complex_differentials(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    from srlab import (PrimeField, builtin_complex, depth, expected_lsop_length, sample_lsop,
                       total_complex_homology)

    field = PrimeField(2147483647)
    psi = builtin_complex("boundary_simplex_2")
    theta = sample_lsop(psi, expected_lsop_length(psi), 0, field)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        table = total_complex_homology(psi, theta, field)
        dep = depth(psi, theta, field)
    finally:
        tracer.restore()
    assert sorted(k for k, v in table.items() if v) == [(1, 2), (2, 1), (3, 0)]
    assert dep == 2
    assert tracer.spans["partition.differential"].cells > 0
    assert tracer.spans["koszul.differential"].calls > 0
    assert tracer.spans["koszul.differential"].cells > 0
    assert tracer.spans["linalg.rank"].cells > 0
