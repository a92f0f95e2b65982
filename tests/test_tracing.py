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
