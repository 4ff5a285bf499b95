"""Marginal query families over Boolean schemas and a small text format for them."""

from __future__ import annotations

from itertools import combinations, product
from typing import Sequence

from .core import (
    QueryFamily, TestFunction, _check_schema, _on_line, _scan_line, _spec_lines, _spec_words,
)


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
    if kind not in ("monotone", "assignment"):
        raise ValueError("kind must be 'monotone' or 'assignment'")
    funcs = [TestFunction.constant_one()]
    for size in range(1, d + 1):
        for coords in combinations(range(p), size):
            if kind == "monotone":
                funcs.append(TestFunction.monotone(coords))
            else:
                funcs += (TestFunction.assignment(coords, v) for v in product((0, 1), repeat=size))
    return QueryFamily(funcs)


def _parse_kv(token: str, key: str) -> Sequence[int]:
    prefix = key + "="
    if not token.startswith(prefix):
        raise ValueError(f"expected {key}=<...>, got {token!r}")
    return _scan_line(token[len(prefix):], f"{key} must be comma-separated integers")


def _directive(tokens: list[str], schema: tuple[int, ...]) -> Sequence[TestFunction]:
    """The functions one spec line adds. The library objects check every rule
    but two that are the spec's own: 1-based coordinates and Boolean marginals."""
    directive, args = tokens[0], tokens[1:]
    if directive == "marginals":
        d = _parse_kv(args[1], "d") if len(args) == 2 else ()
        if len(d) != 1:
            raise ValueError("expected 'marginals <kind> d=<int>'")
        if any(a != 2 for a in schema):
            raise ValueError("marginals need a Boolean schema")
        return marginal_family(len(schema), d[0], args[0])
    if directive == "indicator":
        if len(args) != 2:
            raise ValueError("expected 'indicator S=<...> values=<...>'")
        coords, values = _parse_kv(args[0], "S"), _parse_kv(args[1], "values")
        if any(c < 1 or c > len(schema) for c in coords):
            raise ValueError(f"coordinates must lie in 1..{len(schema)}")
        function = TestFunction.assignment([c - 1 for c in coords], values)
        QueryFamily([function]).check_schema(schema)
        return [function]
    raise ValueError(f"unknown directive {directive!r}")


def parse_query_spec(text: str, schema: Sequence[int]) -> QueryFamily:
    """Parse a query-spec listing into a family.

    Directives (one per line, ``#`` starts a comment):
      * ``marginals <monotone|assignment> d=<int>`` expands to the full
        marginal family on the schema (Boolean schemas only).
      * ``indicator S=<i,j,...> values=<v,...>`` adds one assignment
        indicator; coordinates are 1-based.

    The constant-one function is kept once, and prepended when the listing
    does not produce it.
    """
    schema = _check_schema(schema)
    funcs: list[TestFunction] = []
    for lineno, line in _spec_lines(text):
        for f in _on_line(lineno, _directive, _spec_words(line), schema):
            if not (f.is_constant_one and any(g.is_constant_one for g in funcs)):
                funcs.append(f)
    if not any(f.is_constant_one for f in funcs):
        funcs.insert(0, TestFunction.constant_one())
    return QueryFamily(funcs)
