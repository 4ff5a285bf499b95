"""The benchmark's workloads: their inputs, their ops and the checks on each op.

Each workload has a fixed op list, run in order as one pass. Ops call into
dpsynth through module attributes (``synth.generate``, ``cli.main``,
``audit.*``) so that the tracer's wrappers are seen. The correctness checks
use oracles of the benchmark's own (integer marginal counts, a byte-level
parser) rather than the package's code, so checking adds no spans and shares
no bug with the code under test.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dpsynth import audit, cli, core, distributions, queries, synth

DELTA = 0.2
GAMMA = 0.1
# Accuracy bound on one release, the corollary's 8 * delta.
ERROR_BOUND = 8 * DELTA
# Root of the fixed seed lists: the noise, reduced-domain and bootstrap seeds,
# and fit-d2's data.
PIPELINE_SEED_ROOT = 1748


@dataclass
class Outcome:
    """What the checks found on one op's output."""

    problems: list[str] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)
    errors: list[float] = field(default_factory=list)
    # Must repeat exactly whenever the same op runs again.
    digest: str = ""


def pipeline_seeds(count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(PIPELINE_SEED_ROOT).generate_state(count)]


def monotone_stats(rows: np.ndarray, d: int) -> np.ndarray:
    """All monotone marginals of order <= d (d <= 2) from exact integer counts."""
    x = rows.astype(np.int64)
    n = len(x)
    parts = [np.ones(1), x.sum(axis=0) / n]
    if d == 2:
        gram = x.T @ x
        parts.append(gram[np.triu_indices(x.shape[1], k=1)] / n)
    return np.concatenate(parts)


def boolean_file_bytes(rows: np.ndarray) -> bytes:
    """The dataset text format for 0/1 rows: arity line, then one row a line."""
    n, p = rows.shape
    cells = np.full((n, 2 * p), ord(","), dtype=np.uint8)
    cells[:, 0::2] = rows + ord("0")
    cells[:, -1] = ord("\n")
    return (",".join(["2"] * p) + "\n").encode() + cells.tobytes()


def parse_boolean_file(raw: bytes, p: int) -> np.ndarray | None:
    """Rows of a 0/1 dataset file, or None unless it is exactly that format."""
    header, _, body = raw.partition(b"\n")
    if header != ",".join(["2"] * p).encode() or len(body) % (2 * p):
        return None
    cells = np.frombuffer(body, dtype=np.uint8).reshape(-1, 2 * p)
    if (cells[:, 1:-1:2] != ord(",")).any() or (cells[:, -1] != ord("\n")).any():
        return None
    digits = cells[:, 0::2] - np.uint8(ord("0"))
    return None if (digits > 1).any() else digits


@dataclass(frozen=True)
class _Report:
    """The report fields the checks read, parsed from the CLI's report file."""

    lp_status: str | None
    lp_objective: float


def check_release(outcome, report, synth_rows, data_stats, d, k, p) -> None:
    """The checks every release gets: optimal fit, k rows in schema, error bound."""
    if report.lp_status != "optimal":
        outcome.problems.append(f"lp_status = {report.lp_status}")
    outcome.objectives.append(report.lp_objective)
    if synth_rows is None or synth_rows.shape != (k, p) or not np.isin(synth_rows, (0, 1)).all():
        outcome.problems.append("synthetic data is not k rows within the schema")
        return
    error = float(np.max(np.abs(monotone_stats(synth_rows, d) - data_stats)))
    outcome.errors.append(error)
    if error > ERROR_BOUND:
        outcome.problems.append(f"synth_error {error:.4f} > {ERROR_BOUND}")


class FitD2:
    """Library ``generate`` calls dominated by the min-max LP solve.

    The instances are fixed and ``--seed`` is not used: a small change in the
    data or the noise moves the simplex path by hundreds of pivots (with the
    noise seed fixed, one instance took 2.2 s to 5.6 s across three data
    seeds), so instances drawn per seed would make runs differ by far more
    than any bound, and the solver counters could not repeat between runs.
    """

    name = "fit-d2"
    P, D, N, K, M = 16, 2, 1000, 1000, 8000
    INSTANCES = 4

    def setup(self, seed: int, workdir: Path) -> None:
        schema = (2,) * self.P
        seeds = np.random.SeedSequence(PIPELINE_SEED_ROOT + 1).generate_state(self.INSTANCES)
        rows = [np.random.default_rng(int(s)).integers(0, 2, (self.N, self.P)) for s in seeds]
        self.data = [core.Dataset(schema, r) for r in rows]
        self.data_stats = [monotone_stats(r, self.D) for r in rows]
        self.family = queries.marginal_family(self.P, self.D, "monotone")
        self.sampling = distributions.ProductDistribution.uniform(schema)
        self.configs = [
            synth.PipelineConfig(
                delta_target=DELTA, gamma=GAMMA, synthetic_size=self.K,
                reduced_size=self.M, seed=s,
            )
            for s in pipeline_seeds(self.INSTANCES)
        ]

    def ops(self):
        return [lambda i=i: self._op(i) for i in range(self.INSTANCES)]

    def _op(self, i):
        return i, synth.generate(self.data[i], self.family, self.sampling, self.configs[i])

    def check(self, raw) -> Outcome:
        i, result = raw
        outcome = Outcome()
        check_release(outcome, result.report, result.synthetic.rows,
                      self.data_stats[i], self.D, self.K, self.P)
        outcome.digest = hashlib.sha256(
            result.report.to_text().encode() + result.synthetic.rows.tobytes()
        ).hexdigest()
        return outcome


class ReleaseWide:
    """The CLI user's path: ``dpsynth generate`` on a 200k-row data file.

    Text parsing and writing plus the statistics dominate; the LP has only
    |F| = 33 rows and needs a few dozen pivots.
    """

    name = "release-wide"
    P, N, K = 32, 200_000, 200_000
    # m = |F| / (gamma * delta^2), the paper's reduced-domain size for |F| = 33.
    M = 8250
    SPEC = "marginals monotone d=1"
    RELEASES = 2

    def setup(self, seed: int, workdir: Path) -> None:
        rows = np.random.default_rng(seed).integers(0, 2, (self.N, self.P), dtype=np.uint8)
        self.data_stats = monotone_stats(rows, 1)
        self.data_path = workdir / "data.csv"
        self.data_path.write_bytes(boolean_file_bytes(rows))
        self.out_path = workdir / "synthetic.csv"
        self.report_path = workdir / "report.txt"
        self.seeds = pipeline_seeds(self.RELEASES)

    def ops(self):
        return [lambda s=s: self._op(s) for s in self.seeds]

    def _op(self, seed):
        return cli.main([
            "generate", "--data", str(self.data_path), "--queries", self.SPEC,
            "--mu", "uniform", "--delta", str(DELTA), "--gamma", str(GAMMA),
            "--k", str(self.K), "--m", str(self.M), "--seed", str(seed),
            "--out", str(self.out_path), "--report", str(self.report_path),
        ])

    def check(self, exit_code) -> Outcome:
        outcome = Outcome()
        if exit_code != 0:
            outcome.problems.append(f"exit code {exit_code}")
            return outcome
        report_text = self.report_path.read_text()
        fields = dict(line.split(" = ", 1) for line in report_text.splitlines())
        report = _Report(fields.get("lp_status"), float(fields.get("lp_objective", "nan")))
        raw = self.out_path.read_bytes()
        check_release(outcome, report, parse_boolean_file(raw, self.P),
                      self.data_stats, 1, self.K, self.P)
        outcome.digest = hashlib.sha256(report_text.encode() + raw).hexdigest()
        return outcome


class AuditSuite:
    """One op is one pass over the four audits, each at a test-suite size.

    Many small ``evaluate_all``, ``sample`` and ``generate`` calls, where
    per-call overhead dominates, and 2e6 Laplace draws.
    """

    name = "audit-suite"
    # The corollary experiment at acceptance criterion 1's size and seed; its
    # seed also fixes the noise of its 20 fits.
    BOOLEAN = dict(p=16, d=1, n=150, k=150, m=4250, delta=DELTA, gamma=GAMMA,
                   trials=20, seed=20240)
    DEVIATION_P, DEVIATION_TRIALS = 24, 100
    REWEIGHTED_M, REWEIGHTED_TRIALS = 625, 500
    PRIVACY_TRIALS, PRIVACY_BINS, PRIVACY_SIGMA = 1_000_000, 40, 0.1

    def setup(self, seed: int, workdir: Path) -> None:
        self.population = distributions.ProductDistribution.uniform((2,) * self.DEVIATION_P)
        self.deviation_family = queries.marginal_family(self.DEVIATION_P, 2, "monotone")
        # The sample size at which the deviation bound starts to hold.
        self.deviation_n = math.ceil(math.log(len(self.deviation_family) / GAMMA) / DELTA**2)
        self.two_point = distributions.ExplicitDistribution(
            core.Dataset((2,), [[0], [1]]), [0.75, 0.25]
        )
        self.coin = distributions.ProductDistribution.uniform((2,))
        self.pair_family = core.QueryFamily(
            [core.TestFunction.constant_one(), core.TestFunction.assignment((0,), (0,))]
        )
        self.d1 = core.Dataset((2,), [[0]] * 10)
        self.d2 = core.Dataset((2,), [[0]] * 10 + [[1]])
        self.single = core.QueryFamily([core.TestFunction.monotone((0,))])
        self.rng_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(3)]

    def ops(self):
        return [self._op]

    def _op(self):
        reports = []
        original = audit.generate

        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            reports.append(result.report)
            return result

        audit.generate = recording
        try:
            boolean = audit.boolean_experiment(**self.BOOLEAN)
        finally:
            audit.generate = original
        deviation = audit.deviation_check_empirical(
            self.population, self.deviation_family, self.deviation_n, DELTA, GAMMA,
            self.DEVIATION_TRIALS, self.rng_seeds[0],
        )
        reweighted = audit.reweighted_deviation_check(
            self.two_point, self.coin, self.pair_family, self.REWEIGHTED_M, DELTA, GAMMA,
            self.REWEIGHTED_TRIALS, self.rng_seeds[1],
        )
        privacy = audit.privacy_audit(
            self.single, self.PRIVACY_SIGMA, self.d1, self.d2, self.PRIVACY_TRIALS,
            self.PRIVACY_BINS, self.rng_seeds[2],
        )
        return reports, (boolean, deviation, reweighted, privacy)

    def check(self, raw) -> Outcome:
        reports, results = raw
        outcome = Outcome()
        for report in reports:
            if report.lp_status != "optimal":
                outcome.problems.append(f"lp_status = {report.lp_status}")
            outcome.objectives.append(report.lp_objective)
        if len(reports) != self.BOOLEAN["trials"]:
            outcome.problems.append(f"{len(reports)} fits in the corollary experiment")
        outcome.errors.extend(results[0].errors)
        for result in results:
            if not result.passed:
                outcome.problems.append(f"{type(result).__name__} did not pass")
        outcome.digest = hashlib.sha256(
            "".join(r.report_text() for r in results).encode()
        ).hexdigest()
        return outcome


WORKLOADS = {w.name: w for w in (FitD2, ReleaseWide, AuditSuite)}
