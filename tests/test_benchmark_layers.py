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


def test_every_workload_runs_its_first_op_cleanly(monkeypatch, tmp_path):
    """Each benchmark workload, built at a fixed seed, runs its first op once
    and passes its own checks, so an API change that breaks the harness fails
    here too."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class()
        workdir = tmp_path / name
        workdir.mkdir()
        workload.setup(5, workdir)
        outcome = workload.check(workload.ops()[0]())
        assert outcome.problems == [], name
