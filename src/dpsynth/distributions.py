"""Finite distributions over categorical domains and their condition numbers.

The condition number kappa(p || q) = sum_x p(x)^2 / q(x) measures how well a
sampling distribution q covers a population p; it is 1 exactly when p = q and
it multiplies across independent coordinates.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import (
    _STATS_BLOCK,
    Dataset,
    QueryFamily,
    _check_schema,
    _check_width,
    _edge_counter,
    _on_line,
    _row_dtype,
    _row_groups,
    _scan_line,
    _spec_lines,
    _spec_words,
)


def _check_masses(masses: np.ndarray, name: str, whole: bool = True) -> np.ndarray:
    """``masses``, made read-only. Raises ValueError, naming the vector ``name``,
    unless its entries are nonnegative and finite and, when ``whole``, sum to 1
    within 1e-12."""
    if not (np.isfinite(masses) & (masses >= 0)).all():
        raise ValueError(f"{name} must be nonnegative and finite")
    if whole and abs(math.fsum(masses[masses > 0].tolist()) - 1.0) > 1e-12:  # adding 0.0 is exact
        raise ValueError(f"{name} must sum to 1 within 1e-12")
    masses.setflags(write=False)
    return masses


def _inverse_cdf_sample(masses: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Indices drawn with probabilities ``masses``, one per uniform in ``u``, in its shape."""
    held = np.flatnonzero(masses > 0)  # the CDF rises only there, and adding 0.0 is exact
    idx = _edge_counter(np.cumsum(masses[held]))(u)
    # Masses sum to 1 only within rounding, so a uniform can land above the
    # CDF's last value; "clip" keeps it on the last positive mass. It also lets
    # np.take write into ``out`` in place: under "raise" numpy buffers ``out``,
    # 8 bytes a draw, which the sampler's memory bound does not leave room for.
    return np.take(held, idx, mode="clip", out=idx)


class ProductDistribution:
    """Independent per-coordinate categorical distribution."""

    def __init__(self, coordinate_probabilities: Sequence) -> None:
        vectors = []
        for i, vec in enumerate(coordinate_probabilities):
            v = np.array(vec, dtype=float, copy=True).reshape(-1)
            if len(v) < 1:
                raise ValueError(f"coordinate {i + 1}: empty probability vector")
            vectors.append(_check_masses(v, f"coordinate {i + 1}: probabilities"))
        if not vectors:
            raise ValueError("need at least one coordinate")
        self._vectors = tuple(vectors)

    @classmethod
    def uniform(cls, schema: Sequence[int]) -> "ProductDistribution":
        return cls([np.full(a, 1.0 / a) for a in _check_schema(schema)])

    @property
    def coordinate_probabilities(self) -> tuple[np.ndarray, ...]:
        return self._vectors

    @property
    def schema(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self._vectors)

    def mass_many(self, rows: np.ndarray) -> np.ndarray:
        """The mass of each row: 0 when a cell lies outside its coordinate's range."""
        _check_width(rows, len(self._vectors))
        out = np.ones(rows.shape[0])
        for v, cells in zip(self._vectors, rows.T):
            inside = (cells >= 0) & (cells < len(v))
            out *= np.where(inside, v[np.where(inside, cells, 0)], 0.0)
        return out

    def _draw(self, trials: int, count: int, rng) -> np.ndarray:
        """(trials, count, p) rows, as ``trials`` successive ``sample(count)`` draw them."""
        if count < 1:
            raise ValueError("sample count must be >= 1")
        rng, p = np.random.default_rng(rng), len(self._vectors)
        rows = np.empty((trials, count, p), dtype=_row_dtype(self.schema))
        # The stream is trials * p runs of count uniforms, a trial's coordinate by
        # coordinate; a chunk of about _STATS_BLOCK of them bounds the floats held.
        step = max(1, _STATS_BLOCK // count)
        for start in range(0, trials * p, step):
            u = rng.random((min(step, trials * p - start), count))
            for i in range(min(p, len(u))):
                # Run start + i is coordinate c of trial t; every p-th run after it is c's.
                t, c = divmod(start + i, p)
                runs = u[i::p]
                # Column c's draws lie below its arity.
                rows[t : t + len(runs), :, c] = _inverse_cdf_sample(self._vectors[c], runs)
        return rows

    def sample(self, count: int, rng) -> Dataset:
        return Dataset._adopt(self.schema, self._draw(1, count, rng)[0])


class ExplicitDistribution:
    """Distribution given by an explicit list of distinct points and their weights (masses)."""

    def __init__(self, points: Dataset, weights) -> None:
        w = np.array(weights, dtype=float, copy=True).reshape(-1)
        if len(w) != len(points):
            raise ValueError("need exactly one mass per point")
        if len(points) == 0:
            raise ValueError("need at least one point")
        _check_masses(w, "masses")
        if not _row_groups(points.rows)[1].all():
            raise ValueError("points must be distinct")
        self._points = points
        self._weights = w

    @property
    def points(self) -> Dataset:
        return self._points

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def schema(self) -> tuple[int, ...]:
        return self._points.schema

    def mass_many(self, rows: np.ndarray) -> np.ndarray:
        """The mass of each row: its point's mass, or 0 when no point equals it."""
        _check_width(rows, len(self.schema))
        points = len(self._points)
        # Group the points and the rows together; the points are distinct, so
        # a group holds at most one of them, and its rows take that point's mass.
        order, first = _row_groups(np.concatenate([self._points.rows, rows]))
        group = np.cumsum(first) - 1
        is_point = order < points
        group_mass = np.zeros(group[-1] + 1)
        group_mass[group[is_point]] = self._weights[order[is_point]]
        out = np.empty(rows.shape[0])
        out[order[~is_point] - points] = group_mass[group[~is_point]]
        return out

    def _draw(self, trials: int, count: int, rng) -> np.ndarray:
        """(trials, count, p) rows, as ``trials`` successive ``sample(count)`` draw them."""
        if count < 1:
            raise ValueError("sample count must be >= 1")
        u = np.random.default_rng(rng).random((trials, count))
        return self._points.rows[_inverse_cdf_sample(self._weights, u)]

    def sample(self, count: int, rng) -> Dataset:
        return Dataset._adopt(self.schema, self._draw(1, count, rng)[0])


def renyi_condition_number_exact(population, sampling) -> float:
    """Exact kappa(population || sampling), summed over the support one of them lists.

    Raises ValueError("nu not dominated by mu") when the population puts mass
    where the sampling distribution has none.
    """
    product = isinstance(population, ProductDistribution)
    if not (product or isinstance(population, ExplicitDistribution)):
        raise TypeError(f"unsupported distribution type: {type(population)!r}")
    if product and not isinstance(sampling, (ProductDistribution, ExplicitDistribution)):
        raise TypeError(f"unsupported distribution type: {type(sampling)!r}")
    if population.schema != sampling.schema:
        raise ValueError("distributions must share a schema")
    if product and isinstance(sampling, ProductDistribution):
        # Multiply per-coordinate factors in log space.
        log_total = 0.0
        for pv, qv in zip(population.coordinate_probabilities, sampling.coordinate_probabilities):
            live = pv > 0
            if (qv[live] == 0).any():
                raise ValueError("nu not dominated by mu")
            log_total += math.log(math.fsum(pv[live] * pv[live] / qv[live]))
        return math.exp(log_total)
    if product:
        # Support membership per coordinate: the float product can underflow to 0 inside it.
        rows, q = sampling.points.rows, sampling.weights
        p = population.mass_many(rows)
        live = np.ones(len(rows), dtype=bool)
        for v, cells in zip(population.coordinate_probabilities, rows.T):
            live &= v[cells] > 0
        support = math.prod(np.count_nonzero(v) for v in population.coordinate_probabilities)
    else:
        p, q = population.weights, sampling.mass_many(population.points.rows)
        live = p > 0
        support = np.count_nonzero(live)
    # Points are distinct: the count is the support's size when all of it has positive weight.
    if np.count_nonzero(q[live] > 0) != support:
        raise ValueError("nu not dominated by mu")
    return math.fsum(p[live] * p[live] / q[live])


def renyi_condition_number_mc(population, sampling, samples: int, rng) -> float:
    """Monte Carlo estimate of kappa: average density ratio under the population."""
    if population.schema != sampling.schema:
        raise ValueError("distributions must share a schema")
    draws = population.sample(samples, rng)
    p_mass = population.mass_many(draws.rows)
    q_mass = sampling.mass_many(draws.rows)
    if (q_mass == 0).any():
        raise ValueError("nu not dominated by mu")
    return math.fsum(p_mass / q_mass) / samples


def exact_statistics(dist, queries: QueryFamily) -> np.ndarray:
    """Exact expectation of every family function under the distribution."""
    if not isinstance(dist, (ExplicitDistribution, ProductDistribution)):
        raise TypeError(f"unsupported distribution type: {type(dist)!r}")
    queries.check_schema(dist.schema)
    if isinstance(dist, ExplicitDistribution):
        return queries.weighted_sums(dist.points.rows, dist.weights)
    return queries.product_expectations(dist.coordinate_probabilities)


def _spec_header(line: str) -> tuple[str, tuple[int, ...] | None]:
    kind, *args = _spec_words(line)
    if kind == "product":
        if args:
            raise ValueError("'product' takes no arguments")
        return kind, None
    if kind not in ("uniform", "explicit"):
        raise ValueError(f"unknown distribution kind {kind!r}")
    if len(args) != 1:
        raise ValueError(f"expected '{kind} <arities>'")
    return kind, _check_schema(_scan_line(args[0], "arities must be comma-separated integers"))


def _real(token: str) -> float:
    """``float(token)`` for an ASCII token without digit-group underscores; else ValueError."""
    if not token.isascii() or "_" in token:
        raise ValueError(token)
    return float(token)


def _probability_line(line: str) -> np.ndarray:
    try:
        vector = np.array([_real(t) for t in line.split(",")])
    except ValueError:
        raise ValueError("expected comma-separated probabilities") from None
    return _check_masses(vector, "probabilities")


def _point_line(line: str, schema: tuple[int, ...]) -> tuple[np.ndarray, float]:
    try:
        point_part, mass_part = line.split(";", 1)
        mass = _real(mass_part)
    except ValueError:
        raise ValueError("expected 'point;mass'") from None
    point = _scan_line(point_part, "point must be comma-separated integers")
    Dataset(schema, [point])  # the dataset's range check, on this line alone
    _check_masses(np.array([mass]), "masses", whole=False)
    return point, mass


def parse_distribution_spec(text: str):
    """Parse a distribution spec.

    Formats:
      * ``product`` followed by one probability vector per line.
      * ``explicit <arities>`` followed by ``point;mass`` lines.
      * ``uniform <arities>`` on a single line.

    Each line's errors name it; the whole-list rules (masses sum to 1, distinct points) come last.
    """
    lines = _spec_lines(text)
    if not lines:
        raise ValueError("empty distribution spec")
    (first, header), *body = lines
    kind, schema = _on_line(first, _spec_header, header)
    if kind == "uniform":
        if body:
            raise ValueError(f"line {body[0][0]}: 'uniform' takes no further lines")
        return ProductDistribution.uniform(schema)
    if kind == "product":
        if not body:
            raise ValueError("product spec needs at least one coordinate line")
        return ProductDistribution([_on_line(n, _probability_line, line) for n, line in body])
    if not body:
        raise ValueError("explicit spec needs at least one point line")
    rows, masses = zip(*(_on_line(n, _point_line, line, schema) for n, line in body))
    try:
        return ExplicitDistribution(Dataset(schema, rows), masses)
    except ValueError as exc:
        raise ValueError(f"invalid explicit distribution: {exc}") from None
