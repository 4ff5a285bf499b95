"""In-memory spans around the public functions of dpsynth's layers.

The benchmark records spans from outside the package: it replaces each
layer function listed in ``LAYERS`` by a wrapper, in every dpsynth module
that holds a reference to it, for the duration of one traced op. Nothing in
``src/`` knows about tracing.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import wraps


def _evaluate_all(tracer, args, result):
    queries, data = args[0], args[1]
    tracer.add("core.evaluate_all.cells", len(data) * len(queries))


def _from_text(tracer, args, result):
    tracer.add("core.from_text.bytes", len(args[1]))


def _to_text(tracer, args, result):
    tracer.add("core.to_text.bytes", len(result))


def _sample(tracer, args, result):
    tracer.add("distributions.sample.draws", len(result))


def _laplace(tracer, args, result):
    tracer.add("mechanism.laplace_vector.draws", result.size)


def _build_lp(tracer, args, result):
    tracer.add("optimize.support_points", result.values.shape[1])


def _solve(tracer, args, result):
    nf, support = args[0].values.shape
    tracer.add("optimize.pivots", result.iterations)
    tracer.add("optimize.active_points", int((result.density.weights > 0).sum()))
    tracer.add("optimize.solved_points", support)
    # Size of the dense simplex tableau, computed from the problem shape.
    tableau_mb = (2 * nf + 2) * (support + 2 * nf + 2) * 8 / 1e6
    tracer.peak("optimize.tableau_mb", tableau_mb)


def _bootstrap(tracer, args, result):
    tracer.add("synth.bootstrap.records", len(result))


def _trials(name):
    def count(tracer, args, result):
        tracer.add(f"{name}.trials", result.trials)
    return count


# (span name, module, class or None, attribute, counter or None)
LAYERS = [
    ("cli.main", "cli", None, "main", None),
    ("queries.parse_query_spec", "queries", None, "parse_query_spec", None),
    ("core.from_text", "core", "Dataset", "from_text", _from_text),
    ("core.to_text", "core", "Dataset", "to_text", _to_text),
    ("core.evaluate_all", "core", None, "evaluate_all", _evaluate_all),
    ("distributions.sample", "distributions", "ProductDistribution", "sample", _sample),
    ("distributions.sample", "distributions", "ExplicitDistribution", "sample", _sample),
    ("distributions.exact_statistics", "distributions", None, "exact_statistics", None),
    ("mechanism.laplace_vector", "mechanism", None, "laplace_vector", _laplace),
    ("optimize.build_lp", "optimize", None, "build_lp", _build_lp),
    ("optimize.solve_min_max", "optimize", None, "solve_min_max", _solve),
    ("synth.bootstrap", "synth", None, "bootstrap", _bootstrap),
    ("synth.generate", "synth", None, "generate", None),
] + [
    (f"audit.{fn}", "audit", None, fn, _trials(f"audit.{fn}"))
    for fn in (
        "boolean_experiment",
        "deviation_check_empirical",
        "reweighted_deviation_check",
        "privacy_audit",
    )
]


class Tracer:
    """Spans and counters of the traced ops of one benchmark run.

    A span is ``[id, parent id, name, start, end, op id]``; the op id is the
    id of the op's root span, so the spans of one op share it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self._sites = self._find_sites()

    def add(self, key: str, value) -> None:
        self.counts[key] += value

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, value), value)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        op_id = self.spans[self._stack[0]][5] if self._stack else len(self.spans)
        sid = len(self.spans)
        self.spans.append([sid, parent, name, time.perf_counter(), None, op_id])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        @wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counter is not None:
                counter(self, args, result)
            return result
        return traced

    def _find_sites(self):
        """Every (owner, attribute, original, replacement) the wrappers need."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "dpsynth"]
        sites = []
        for name, mod_name, cls_name, attr, counter in LAYERS:
            owner_mod = sys.modules[f"dpsynth.{mod_name}"]
            if cls_name is not None:
                cls = getattr(owner_mod, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(name, original.__func__, counter))
                else:
                    replacement = self._wrap(name, original, counter)
                sites.append((cls, attr, original, replacement))
                continue
            original = getattr(owner_mod, attr)
            replacement = self._wrap(name, original, counter)
            # Modules bind each other's functions at import time, so every
            # module holding the function gets the wrapper.
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    sites.append((mod, attr, original, replacement))
        return sites

    def op(self, name: str, fn):
        """Run one op under a root span with every layer wrapped."""
        for owner, attr, _, replacement in self._sites:
            setattr(owner, attr, replacement)
        sid = self._open(name)
        try:
            return fn()
        finally:
            self._close(sid)
            for owner, attr, original, _ in self._sites:
                setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy time and self time, in seconds.

        Busy time is the union of the name's spans, so a span nested in
        another of the same name is not counted twice. Self time is a span's
        duration minus the time its child spans cover.
        """
        child_time = defaultdict(float)
        for sid, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, parent, name, start, end, _ in self.spans:
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[sid]
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][2] != name:
                ancestor = self.spans[ancestor][1]
            if ancestor is None:
                row["busy_s"] += end - start
        return out
