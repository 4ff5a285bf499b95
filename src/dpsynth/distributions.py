"""Finite distributions over categorical domains and their condition numbers.

The condition number kappa(p || q) = sum_x p(x)^2 / q(x) measures how well a
sampling distribution q covers a population p; it is 1 exactly when p = q and
it multiplies across independent coordinates.
"""

from __future__ import annotations

import math
from itertools import product as iter_product
from typing import Sequence

import numpy as np

from .core import (
    Dataset,
    QueryFamily,
    _check_masses,
    _domain_size,
    _encode_rows,
    _first_occurrences,
    _row_dtype,
)

# Cap for enumerating a full product domain into an explicit distribution.
ENUMERATION_CAP = 1 << 20


def _inverse_cdf_sample(masses: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """count indices drawn i.i.d. with probabilities ``masses``, one uniform each."""
    cdf = np.cumsum(masses)
    idx = np.searchsorted(cdf, rng.random(count), side="right")
    # Masses sum to 1 only within rounding, so a uniform can land above the
    # CDF's last value; it must not hand out a trailing zero-mass index.
    return np.minimum(idx, np.flatnonzero(masses > 0)[-1])


class ProductDistribution:
    """Independent per-coordinate categorical distribution."""

    def __init__(self, coordinate_probabilities: Sequence) -> None:
        vectors = []
        for i, vec in enumerate(coordinate_probabilities):
            v = np.array(vec, dtype=float, copy=True).reshape(-1)
            if len(v) < 1:
                raise ValueError(f"coordinate {i + 1}: empty probability vector")
            vectors.append(_check_masses(v, f"coordinate {i + 1}: probabilities", "1e-12"))
        if not vectors:
            raise ValueError("need at least one coordinate")
        self._vectors = tuple(vectors)

    @classmethod
    def uniform(cls, schema: Sequence[int]) -> "ProductDistribution":
        return cls([np.full(int(a), 1.0 / int(a)) for a in schema])

    @property
    def coordinate_probabilities(self) -> tuple[np.ndarray, ...]:
        return self._vectors

    @property
    def schema(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self._vectors)

    def mass_many(self, rows: np.ndarray) -> np.ndarray:
        out = np.ones(rows.shape[0])
        for c, v in enumerate(self._vectors):
            out *= v[rows[:, c]]
        return out

    def sample(self, count: int, rng) -> Dataset:
        if count < 1:
            raise ValueError("sample count must be >= 1")
        rng = np.random.default_rng(rng)
        schema = self.schema
        rows = np.empty((count, len(schema)), dtype=_row_dtype(schema))
        # Each column's draws index its own probability vector, so lie below its arity.
        for c, v in enumerate(self._vectors):
            rows[:, c] = _inverse_cdf_sample(v, count, rng)
        return Dataset._adopt(schema, rows)

    def to_explicit(self) -> "ExplicitDistribution":
        """Enumerate the full domain (small domains only)."""
        schema = self.schema
        if _domain_size(schema) > ENUMERATION_CAP:
            raise ValueError("domain too large to enumerate")
        rows = np.array(list(iter_product(*(range(a) for a in schema))), dtype=np.int64)
        return ExplicitDistribution(Dataset(schema, rows), self.mass_many(rows))


class ExplicitDistribution:
    """Distribution given by an explicit list of distinct points and masses."""

    def __init__(self, points: Dataset, masses) -> None:
        m = np.array(masses, dtype=float, copy=True).reshape(-1)
        if len(m) != len(points):
            raise ValueError("need exactly one mass per point")
        if len(points) == 0:
            raise ValueError("need at least one point")
        _check_masses(m, "masses", "1e-12")
        if len(_first_occurrences(points.rows)) != len(points):
            raise ValueError("points must be distinct")
        self._points = points
        self._masses = m
        # Sorted mixed-radix codes for vectorized mass lookup.
        codes = _encode_rows(points.rows, points.schema)
        order = np.argsort(codes)
        self._codes_sorted = codes[order]
        self._masses_sorted = m[order]

    @property
    def points(self) -> Dataset:
        return self._points

    @property
    def masses(self) -> np.ndarray:
        return self._masses

    @property
    def schema(self) -> tuple[int, ...]:
        return self._points.schema

    def mass_many(self, rows: np.ndarray) -> np.ndarray:
        codes = _encode_rows(rows, self.schema)
        pos = np.searchsorted(self._codes_sorted, codes)
        pos_clipped = np.minimum(pos, len(self._codes_sorted) - 1)
        hit = self._codes_sorted[pos_clipped] == codes
        return np.where(hit, self._masses_sorted[pos_clipped], 0.0)

    def sample(self, count: int, rng) -> Dataset:
        if count < 1:
            raise ValueError("sample count must be >= 1")
        rng = np.random.default_rng(rng)
        idx = _inverse_cdf_sample(self._masses, count, rng)
        return Dataset._adopt(self.schema, self._points.rows[idx])


def _explicit_for(dist, reason: str) -> ExplicitDistribution:
    if isinstance(dist, ExplicitDistribution):
        return dist
    if isinstance(dist, ProductDistribution):
        return dist.to_explicit()
    raise TypeError(f"unsupported distribution type for {reason}: {type(dist)!r}")


def renyi_condition_number_exact(population, sampling) -> float:
    """Exact kappa(population || sampling) over a finite domain.

    Raises ValueError("nu not dominated by mu") when the population puts mass
    where the sampling distribution has none.
    """
    if isinstance(population, ProductDistribution) and isinstance(sampling, ProductDistribution):
        if population.schema != sampling.schema:
            raise ValueError("distributions must share a schema")
        # Multiply per-coordinate factors in log space.
        log_total = 0.0
        for pv, qv in zip(
            population.coordinate_probabilities, sampling.coordinate_probabilities
        ):
            if ((qv == 0) & (pv > 0)).any():
                raise ValueError("nu not dominated by mu")
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(pv > 0, pv * pv / qv, 0.0)
            log_total += math.log(math.fsum(terms))
        return math.exp(log_total)
    pop = _explicit_for(population, "exact condition number")
    if pop.schema != sampling.schema:
        raise ValueError("distributions must share a schema")
    rows = pop.points.rows
    p_mass = pop.masses
    q_mass = sampling.mass_many(rows)
    live = p_mass > 0
    if (q_mass[live] == 0).any():
        raise ValueError("nu not dominated by mu")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(live, p_mass * p_mass / np.where(live, q_mass, 1.0), 0.0)
    return float(math.fsum(terms))


def renyi_condition_number_mc(population, sampling, samples: int, rng) -> float:
    """Monte Carlo estimate of kappa: average density ratio under the population."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if population.schema != sampling.schema:
        raise ValueError("distributions must share a schema")
    rng = np.random.default_rng(rng)
    draws = population.sample(samples, rng)
    p_mass = population.mass_many(draws.rows)
    q_mass = sampling.mass_many(draws.rows)
    if (q_mass == 0).any():
        raise ValueError("nu not dominated by mu")
    return math.fsum(p_mass / q_mass) / samples


def kappa_uniform(masses, domain_size: int) -> float:
    """kappa against the uniform distribution: |Omega| * sum of squared masses."""
    if domain_size < 1:
        raise ValueError("domain size must be >= 1")
    if isinstance(masses, ExplicitDistribution):
        masses = masses.masses
    m = _check_masses(np.array(masses, dtype=float), "masses")
    if len(m) > domain_size:
        raise ValueError("more mass points than domain elements")
    return domain_size * math.fsum(m * m)


def exact_statistics(dist, queries: QueryFamily) -> np.ndarray:
    """Exact expectation of every family function under the distribution."""
    if not isinstance(dist, (ExplicitDistribution, ProductDistribution)):
        raise TypeError(f"unsupported distribution type: {type(dist)!r}")
    queries.check_schema(dist.schema)
    if isinstance(dist, ExplicitDistribution):
        return queries.weighted_sums(dist.points.rows, dist.masses)
    return queries.product_expectations(dist.coordinate_probabilities)


def parse_distribution_spec(text: str):
    """Parse a distribution spec.

    Formats:
      * ``product`` followed by one probability vector per line.
      * ``explicit <arities>`` followed by ``point;mass`` lines.
      * ``uniform <arities>`` on a single line.
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    body = [(i + 1, ln) for i, ln in enumerate(lines) if ln]
    if not body:
        raise ValueError("empty distribution spec")
    first_no, header = body[0]
    tokens = header.split()
    kind = tokens[0]
    if kind == "product":
        if len(tokens) != 1:
            raise ValueError(f"line {first_no}: 'product' takes no arguments")
        vectors = []
        for lineno, ln in body[1:]:
            try:
                vectors.append([float(t) for t in ln.split(",")])
            except ValueError:
                raise ValueError(f"line {lineno}: expected comma-separated probabilities") from None
        if not vectors:
            raise ValueError("product spec needs at least one coordinate line")
        try:
            return ProductDistribution(vectors)
        except ValueError as exc:
            raise ValueError(f"invalid product distribution: {exc}") from None
    if kind not in ("uniform", "explicit"):
        raise ValueError(f"line {first_no}: unknown distribution kind {kind!r}")
    if len(tokens) != 2:
        raise ValueError(f"line {first_no}: expected '{kind} <arities>'")
    try:
        schema = [int(t) for t in tokens[1].split(",")]
    except ValueError:
        raise ValueError(f"line {first_no}: arities must be comma-separated integers") from None
    if kind == "uniform":
        if len(body) > 1:
            raise ValueError(f"line {body[1][0]}: 'uniform' takes no further lines")
        return ProductDistribution.uniform(schema)
    rows, masses = [], []
    for lineno, ln in body[1:]:
        if ";" not in ln:
            raise ValueError(f"line {lineno}: expected 'point;mass'")
        point_part, mass_part = ln.split(";", 1)
        try:
            rows.append([int(t) for t in point_part.split(",")])
            masses.append(float(mass_part))
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'i,j,...;mass'") from None
    if not rows:
        raise ValueError("explicit spec needs at least one point line")
    try:
        return ExplicitDistribution(Dataset(schema, rows), masses)
    except ValueError as exc:
        raise ValueError(f"invalid explicit distribution: {exc}") from None
