"""Marginal query families over Boolean schemas and a small text format for them."""

from __future__ import annotations

from itertools import combinations, product
from typing import Sequence

from .core import QueryFamily, TestFunction


def marginal_family(p: int, d: int, kind: str = "monotone") -> QueryFamily:
    """All marginals of order at most d on p Boolean coordinates.

    ``monotone`` marginals are products of coordinate subsets (the empty
    subset gives the constant-one function). ``assignment`` marginals are
    indicators of every value assignment on every nonempty subset of size at
    most d, plus the constant-one function. Functions are ordered by subset
    size, then lexicographically by subset, then by assigned values.
    """
    if p < 1:
        raise ValueError("dimension p must be >= 1")
    if d < 0 or d > p:
        raise ValueError("marginal order d must satisfy 0 <= d <= p")
    funcs = [TestFunction.constant_one()]
    if kind == "monotone":
        for size in range(1, d + 1):
            for coords in combinations(range(p), size):
                funcs.append(TestFunction.monotone(coords))
    elif kind == "assignment":
        for size in range(1, d + 1):
            for coords in combinations(range(p), size):
                for values in product((0, 1), repeat=size):
                    funcs.append(TestFunction.assignment(coords, values))
    else:
        raise ValueError("kind must be 'monotone' or 'assignment'")
    return QueryFamily(funcs)


def _parse_kv(token: str, key: str, lineno: int) -> list[int]:
    prefix = key + "="
    if not token.startswith(prefix):
        raise ValueError(f"line {lineno}: expected {key}=<...>, got {token!r}")
    body = token[len(prefix):]
    try:
        return [int(t) for t in body.split(",")]
    except ValueError:
        raise ValueError(f"line {lineno}: {key} must be comma-separated integers") from None


def parse_query_spec(text: str, schema: Sequence[int]) -> QueryFamily:
    """Parse a query-spec listing into a family.

    Directives (one per line, ``#`` starts a comment):
      * ``marginals <monotone|assignment> d=<int>`` expands to the full
        marginal family on the schema (Boolean schemas only).
      * ``indicator S=<i,j,...> values=<v,...>`` adds one assignment
        indicator; coordinates are 1-based.

    The constant-one function is prepended when the listing does not already
    produce it.
    """
    schema = tuple(int(a) for a in schema)
    p = len(schema)
    funcs: list[TestFunction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive = tokens[0]
        if directive == "marginals":
            if len(tokens) != 3:
                raise ValueError(f"line {lineno}: expected 'marginals <kind> d=<int>'")
            kind = tokens[1]
            if kind not in ("monotone", "assignment"):
                raise ValueError(f"line {lineno}: kind must be 'monotone' or 'assignment'")
            (d,) = _parse_kv(tokens[2], "d", lineno)
            if any(a != 2 for a in schema):
                raise ValueError(f"line {lineno}: marginals need a Boolean schema")
            try:
                family = marginal_family(p, d, kind)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            have_constant = any(f.is_constant_one for f in funcs)
            for f in family:
                if f.is_constant_one and have_constant:
                    continue
                funcs.append(f)
        elif directive == "indicator":
            if len(tokens) != 3:
                raise ValueError(f"line {lineno}: expected 'indicator S=<...> values=<...>'")
            coords = _parse_kv(tokens[1], "S", lineno)
            values = _parse_kv(tokens[2], "values", lineno)
            if len(coords) != len(values):
                raise ValueError(f"line {lineno}: S and values must have equal length")
            if any(c < 1 or c > p for c in coords):
                raise ValueError(f"line {lineno}: coordinates must lie in 1..{p}")
            if len(set(coords)) != len(coords):
                raise ValueError(f"line {lineno}: coordinates must be distinct")
            zero_based = [c - 1 for c in coords]
            for c, v in zip(zero_based, values):
                if v < 0 or v >= schema[c]:
                    raise ValueError(
                        f"line {lineno}: value {v} out of range for coordinate {c + 1}"
                    )
            funcs.append(TestFunction.assignment(zero_based, values))
        else:
            raise ValueError(f"line {lineno}: unknown directive {directive!r}")
    if not any(f.is_constant_one for f in funcs):
        funcs.insert(0, TestFunction.constant_one())
    return QueryFamily(funcs)
