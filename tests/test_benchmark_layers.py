"""The benchmark's tracer must find every layer function it wraps.

``perfbench/tracing.py`` names the layers by module and attribute; a rename
in ``src/`` would otherwise only show as a failed traced benchmark run.
"""

import sys
from pathlib import Path

import dpsynth.cli  # noqa: F401  (imports every module the tracer looks in)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    tracer = tracing.Tracer()  # raises on a layer it cannot find
    assert {attr for _, attr, _, _ in tracer._sites} == {layer[3] for layer in tracing.LAYERS}
