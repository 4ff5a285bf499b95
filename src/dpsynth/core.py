"""Core domain types: categorical datasets, conjunction queries, linear statistics."""

from __future__ import annotations

import math
import mmap
import operator
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# The statistics kernel walks the rows in blocks of about this many cells of
# its literal and mask matrices, so temporaries scale with the block.
_STATS_BLOCK = 1 << 18


class Dataset:
    """Ordered sequence of records over a fixed per-coordinate arity schema.

    Duplicates are legal and row order is preserved. Rows are held as a
    read-only (n, p) array of the narrowest dtype that holds the schema:
    uint8, uint16 or uint32 when the largest arity is at most 2^8, 2^16 or
    2^32, int64 above that.
    """

    def __init__(self, schema: Sequence[int], rows) -> None:
        self._schema = _check_schema(schema)
        given = np.asarray(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # casting NaN or a complex number warns
            try:
                arr = None if given.dtype.kind in "SU" else given.astype(np.int64, copy=False)
            except OverflowError:  # an integer past int64, so past every arity
                raise ValueError("row values must lie within the schema arities") from None
            except (TypeError, ValueError):  # None, or another object the cast refuses
                arr = None
        # The cast must give back the input: it would truncate a fraction, drop
        # an imaginary part, make NaN a number or parse text (use from_text).
        if arr is None or not (given.dtype.kind in "biu" or (arr == given).all()):
            raise ValueError("row values must be whole numbers")
        if arr.size == 0:
            arr = arr.reshape(0, len(self._schema))
        _check_width(arr, len(self._schema))
        if arr.size and (arr.min() < 0 or (arr >= np.asarray(self._schema)).any()):
            raise ValueError("row values must lie within the schema arities")
        self._rows = arr.astype(_row_dtype(self._schema))
        self._rows.setflags(write=False)

    @classmethod
    def _adopt(cls, schema: tuple[int, ...], rows: np.ndarray) -> "Dataset":
        """A dataset that takes over rows made for it, without a copy or a range
        scan: the caller guarantees a checked schema, rows of its row dtype and
        every value below its arity."""
        rows.setflags(write=False)
        dataset = cls.__new__(cls)
        dataset._schema, dataset._rows = schema, rows
        return dataset

    @property
    def schema(self) -> tuple[int, ...]:
        return self._schema

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    def __len__(self) -> int:
        return self._rows.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._schema == other._schema and np.array_equal(self._rows, other.rows)

    def __repr__(self) -> str:
        return f"Dataset(schema={self._schema}, n={len(self)})"

    def to_text(self) -> bytes:
        """Serialize: arity line, then one comma-separated row per record."""
        return b"".join(self._text_blocks())

    def _text_blocks(self) -> Iterator[bytes | np.ndarray]:
        """The bytes of ``to_text`` in pieces, each rendered when it is asked
        for: the arity line, then the lines of one block of rows at a time."""
        yield (",".join(str(a) for a in self._schema) + "\n").encode()
        step = max(1, _TEXT_BLOCK // len(self._schema))
        for start in range(0, len(self), step):
            yield _render_block(self._rows[start : start + step])

    @classmethod
    def from_text(cls, text: bytes | bytearray | mmap.mmap) -> "Dataset":
        r"""Parse the bytes written by ``to_text``.

        Takes bytes, a bytearray or a read-only ``mmap`` of a file; a str
        raises TypeError. The rows are copied out, so the dataset holds no
        reference to ``text``. Cells are ASCII decimal integers separated by
        ``,``; rows end in ``\n`` or ``\r\n``; spaces and tabs around a cell
        and trailing blank lines are ignored. Any other byte raises ValueError
        naming its line.
        """
        if not isinstance(text, (bytes, bytearray, mmap.mmap)):
            raise TypeError(f"from_text needs bytes, not {type(text).__name__}")
        end = _body_end(text)
        head_end = text.find(b"\n", 0, end)
        if head_end < 0:
            head_end = end
        arities = _scan_line(text[:head_end], "line 1: expected comma-separated arities")
        try:
            schema = _check_schema(arities)
        except ValueError as exc:
            raise ValueError(f"invalid dataset: line 1: {exc}") from None
        # A line takes at least 2p bytes (the header's newline standing in for the
        # stripped last one), exactly 2p in a one-digit file: room for every line.
        p = len(schema)
        rows = np.empty(((end - head_end) // (2 * p), p), dtype=_row_dtype(schema))
        start, n, view = head_end + 1, 0, memoryview(text)
        while start < end:
            # Blocks of whole lines: stop just past the first newline after the
            # nominal block size, or at the end of the text. Each is a view of the
            # text but the last, which gets back its stripped "\n".
            stop = text.find(b"\n", start + _TEXT_BLOCK, end) + 1 or end
            buf = view[start:stop] if stop < end else text[start:end] + b"\n"
            block = _parse_block(buf, arities, n + 2)
            rows[n : n + len(block)] = block
            n, start = n + len(block), stop
            del block  # so one block's rows and temporaries are live at a time
        rows.resize((n, p), refcheck=False)  # drops the rows that longer lines left over
        return cls._adopt(schema, rows)  # the blocks checked every value against its arity


def _check_schema(schema: Sequence[int]) -> tuple[int, ...]:
    schema = tuple(operator.index(a) for a in schema)
    if len(schema) == 0:
        raise ValueError("schema must have at least one coordinate")
    if any(a < 1 for a in schema):
        raise ValueError("coordinate arities must be >= 1")
    if any(a >= 10**_MAX_DIGITS for a in schema):  # so that a file's arity line can hold them
        raise ValueError(f"coordinate arities must be below 10**{_MAX_DIGITS}")
    return schema


def _check_width(rows: np.ndarray, p: int) -> None:
    if rows.ndim != 2 or rows.shape[1] != p:
        raise ValueError(f"rows must have shape (n, {p})")


def _row_dtype(schema: tuple[int, ...]) -> np.dtype:
    """The narrowest unsigned dtype whose values cover every arity's indices,
    or int64 (which keeps arithmetic with int64 free of mixed-sign promotion)
    when no 32-bit one does."""
    top = max(schema)
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max + 1:
            return np.dtype(dtype)
    return np.dtype(np.int64)


# Text codec. The body is parsed in blocks of whole lines of about this many
# bytes and rendered in blocks of about this many cells, so temporaries
# scale with the block, not the file.
_TEXT_BLOCK = 1 << 20
# Longer cells might not fit an int64; no enumerable category needs them.
_MAX_DIGITS = 18

# Byte classes of the grammar; the two separators come first.
_COMMA, _NEWLINE, _DIGIT, _BLANK, _CR, _OTHER = range(6)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[ord(",")] = _COMMA
_BYTE_CLASS[ord("\n")] = _NEWLINE
_BYTE_CLASS[ord("0") : ord("9") + 1] = _DIGIT
_BYTE_CLASS[[ord(" "), ord("\t")]] = _BLANK
_BYTE_CLASS[ord("\r")] = _CR


def _body_end(text: bytes) -> int:
    r"""``len(text.rstrip(b" \t\r\n"))``, stripping growing tail slices
    instead of copying the whole text."""
    end, step = len(text), 64
    while True:
        cut = max(0, end - step)
        kept = len(text[cut:end].rstrip(b" \t\r\n"))
        if kept or not cut:
            return cut + kept
        end, step = cut, 2 * step


def _scan_block(buf: bytes, p: int) -> np.ndarray | None:
    r"""(lines, p) values of whole lines that each end in ``\n``; None if malformed.

    Well formed means: allowed bytes only, CR only before LF, p cells per
    line, and one run of at most _MAX_DIGITS digits inside each cell (so
    blanks only around it). Each condition is local to a line.
    """
    b = np.frombuffer(buf, dtype=np.uint8)
    kind = _BYTE_CLASS.take(b)
    digit = kind == _DIGIT
    seps = np.flatnonzero(kind <= _NEWLINE)  # each cell ends at one separator
    line_ends = np.flatnonzero(b[seps] == ord("\n"))  # in units of cells
    last = np.flatnonzero(digit[:-1] & ~digit[1:])  # last digit of each run
    cr = np.flatnonzero(kind == _CR)
    if not (
        not (kind == _OTHER).any()
        and (b[cr + 1] == ord("\n")).all()
        and len(seps) == p * len(line_ends)
        and np.array_equal(line_ends, np.arange(p - 1, len(seps), p))
        and len(last) == len(seps)
        and (last < seps).all()
        and (last[1:] > seps[:-1]).all()
    ):
        return None
    values = (b[last] - ord("0")).astype(np.int64)
    # Add digit k places left of each run's last digit while any run is that
    # long. A negative index wraps to the block's final "\n", which ends a run.
    more = np.ones(len(last), dtype=bool)
    for k in range(1, _MAX_DIGITS + 1):
        more &= digit[last - k]
        if not more.any():
            break
        if k == _MAX_DIGITS:
            return None
        # Widen before scaling: uint8 times an int64 scalar stays uint8 under
        # NumPy 1.x value-based casting and would wrap at 10**2.
        digits = b[last - k].astype(np.int64) - ord("0")
        values += np.where(more, digits, 0) * 10**k
    return values.reshape(-1, p)


def _grid_pattern(p: int) -> np.ndarray:
    """A line of p zero cells as little-endian 16-bit (digit, separator) pairs."""
    return np.frombuffer(b"0," * (p - 1) + b"0\n", dtype="<u2")


def _read_grid(buf: bytes, p: int) -> np.ndarray | None:
    r"""(lines, p) uint8 values of a block whose every line is p one-digit
    cells separated by ``,`` and ended by ``\n``; None for any other block.

    Read as 16-bit pairs less the pattern's, with wrap-around, a cell is at most
    9 exactly when its first byte is a digit and its second the pattern's
    separator. Every other block is left to _scan_block.
    """
    if len(buf) % (2 * p):
        return None
    cells = np.frombuffer(buf, dtype="<u2").reshape(-1, p) - _grid_pattern(p)
    if (cells > 9).any():
        return None
    return cells.astype(np.uint8)


def _parse_block(buf: bytes, arities: np.ndarray, first_line: int) -> np.ndarray:
    r"""(lines, p) rows of whole lines that each end in ``\n``.

    Raises ValueError naming the first bad line, counted from ``first_line``.
    """
    p = len(arities)
    rows = _read_grid(buf, p)
    if rows is None:
        rows = _scan_block(buf, p)
    if rows is None:
        # Bisect for the first malformed line: a prefix of whole lines is
        # malformed exactly when one of its lines is.
        starts = [0, *(np.flatnonzero(np.frombuffer(buf, dtype=np.uint8) == ord("\n")) + 1)]
        lo, hi = 0, len(starts) - 2
        while lo < hi:
            mid = (lo + hi) // 2
            if _scan_block(buf[: starts[mid + 1]], p) is None:
                hi = mid
            else:
                lo = mid + 1
        _parse_block(buf[: starts[lo]], arities, first_line)  # earlier range errors first
        line = bytes(buf[starts[lo] : starts[lo + 1]])  # buf may be a view
        cells = line.count(b",") + 1
        if cells != p and _scan_block(line, cells) is not None:
            raise ValueError(
                f"line {first_line + lo}: expected {p} comma-separated category "
                f"indices, found {cells}"
            )
        raise ValueError(f"line {first_line + lo}: expected comma-separated category indices")
    # In the rows' dtype, whose maximum exceeds a grid's digits and the scanner's values.
    bad = np.flatnonzero(rows >= np.minimum(arities, np.iinfo(rows.dtype).max).astype(rows.dtype))
    if len(bad):
        r, c = divmod(int(bad[0]), p)
        raise ValueError(
            f"invalid dataset: line {first_line + r}, coordinate {c + 1}: "
            f"value {rows[r, c]} is not below its arity {arities[c]}"
        )
    return rows


def _scan_line(line: str | bytes, error: str) -> np.ndarray:
    """The cells of one line, newline excluded, in the dataset's grammar; else ValueError(error)."""
    if isinstance(line, str):
        line = line.encode("ascii", "replace")  # so a non-ASCII character fails as "?"
    values = _scan_block(line + b"\n", line.count(b",") + 1)
    if values is None:
        raise ValueError(error)
    return values[0]


def _spec_lines(text: str) -> list[tuple[int, str]]:
    r"""(number, line) of each nonblank spec line, its ``#`` comment cut, spaces and tabs
    trimmed. Lines end in ``\n`` or ``\r\n``, as dataset lines do."""
    lines = (raw.removesuffix("\r").split("#", 1)[0].strip(" \t") for raw in text.split("\n"))
    return [(n, line) for n, line in enumerate(lines, start=1) if line]


def _spec_words(line: str) -> list[str]:
    """The words of a spec line, split on runs of spaces and tabs only."""
    return [word for word in line.replace("\t", " ").split(" ") if word]


def _on_line(lineno: int, parse, *args):
    """``parse(*args)``, naming line ``lineno`` in any ValueError it raises."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def _render_block(rows: np.ndarray) -> np.ndarray:
    r"""The bytes, as an array, of lines of decimal cells, comma separated, each ended by ``\n``."""
    cells = rows.ravel()
    digits = len(str(int(cells.max())))
    if digits == 1:  # the pairs _read_grid reads
        pairs = np.add(rows, _grid_pattern(rows.shape[1]), dtype=np.uint16, casting="unsafe")
        return pairs.astype("<u2", copy=False)
    # One row per cell: its digits right-aligned, then its separator. Zero
    # bytes pad short cells on the left and are dropped at the end.
    text = np.zeros((len(cells), digits + 1), dtype=np.uint8)
    text[:, digits] = ord(",")
    text[rows.shape[1] - 1 :: rows.shape[1], digits] = ord("\n")
    text[:, digits - 1] = cells % 10 + ord("0")
    rest = cells // 10
    for col in range(digits - 2, -1, -1):
        text[:, col] = np.where(rest > 0, rest % 10 + ord("0"), 0)
        rest //= 10
    flat = text.ravel()
    return flat[flat != 0]


def _row_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows' stable lexicographic order, and along it whether each row
    starts a new group of equal rows."""
    order = np.lexsort(rows.T)  # stable, so equal rows stay in index order
    ranked = rows[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return order, first


def _edge_counter(inner: np.ndarray):
    """x -> np.searchsorted(inner, x, side="right") for sorted finite edges, by an exact lookup:
    a uniform grid of 4*len(inner) buckets over the edges gives x a bucket g, start[g] edges lie
    in lower buckets (the grid map is monotone) and one comparison per edge in g adds the rest.
    Edges crowded into few buckets, or no finite grid, get the binary search, which costs less;
    fewer than 4 edges, a comparison of x with each. x must not be NaN."""
    def search(x: np.ndarray) -> np.ndarray:
        return np.searchsorted(inner, x, side="right")
    if len(inner) < 4:
        def compare(x: np.ndarray) -> np.ndarray:
            out = np.zeros(x.shape, np.intp)
            for edge in inner:
                out += x >= edge  # in place, into the one intp array
            return out
        return compare
    lo, hi, size = float(inner[0]), float(inner[-1]), 4 * len(inner)
    scale = size / (hi - lo) if 0.0 < hi - lo < math.inf else math.inf
    if math.isfinite(scale):  # else the edges are equal, or their spread is subnormal or overflows
        def bucket(x: np.ndarray) -> np.ndarray:  # clipped first: no infinity reaches the cast
            return np.minimum(((np.clip(x, lo, hi) - lo) * scale).astype(np.intp), size - 1)
        where = bucket(inner)
        rank = np.arange(len(inner)) - np.searchsorted(where, where)  # place in its bucket
        rows = int(rank.max()) + 1  # a pass each, against log2(len(inner)) search steps
        if 2 * rows <= math.log2(len(inner)) and (rows + 1) * size <= _STATS_BLOCK:
            start = np.searchsorted(where, np.arange(size))
            table = np.full((rows, size), np.nan)  # row r: each bucket's r-th edge, NaN if none
            table[rank, where] = inner
            def lookup(x: np.ndarray) -> np.ndarray:
                g = bucket(x)
                return start[g] + sum(x >= row[g] for row in table)
            return lookup
    return search


@dataclass(frozen=True, slots=True, repr=False)
class TestFunction:
    """A conjunction query: the indicator that each coordinate in ``coords``
    takes its ``assigned`` value.

    The kind names how it was built, for labels and schema checks:
      * ``constant``: the all-ones function, over no coordinates.
      * ``monotone``: product of the 0/1 coordinates in ``coords`` (Boolean
        coordinates only), so each is assigned 1.
      * ``assignment``: indicator of fixed ``assigned`` values.

    Immutable and compared by value: construction checks the (coordinate, value)
    pairs, sorts them by coordinate and makes a function over none the constant.
    """

    kind: str
    coords: tuple[int, ...] = ()
    assigned: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.coords) != len(self.assigned):
            raise ValueError("need one assigned value per coordinate")
        pairs = sorted(zip(map(operator.index, self.coords), map(operator.index, self.assigned)))
        coords, assigned = tuple(c for c, _ in pairs), tuple(v for _, v in pairs)
        if any(c < 0 for c in coords):
            raise ValueError("coordinate indices must be nonnegative")
        if len(set(coords)) != len(coords):
            raise ValueError("coordinate indices must be distinct")
        if any(v < 0 for v in assigned):
            raise ValueError("assigned values must be nonnegative")
        if not coords:
            object.__setattr__(self, "kind", "constant")
        elif not (self.kind == "assignment" or (self.kind == "monotone" and set(assigned) == {1})):
            raise ValueError("kind must be assignment, or monotone with every value 1")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "assigned", assigned)

    @classmethod
    def constant_one(cls) -> "TestFunction":
        return cls("constant")

    @classmethod
    def monotone(cls, coords: Sequence[int]) -> "TestFunction":
        """Product of the selected Boolean coordinates (1 on the empty set)."""
        return cls("monotone", coords, (1,) * len(coords))

    @classmethod
    def assignment(cls, coords: Sequence[int], values: Sequence[int]) -> "TestFunction":
        """Indicator that each selected coordinate takes its assigned value."""
        return cls("assignment", coords, values)

    @property
    def is_constant_one(self) -> bool:
        return not self.coords

    def label(self) -> str:
        if not self.coords:
            return "1"
        if self.kind == "monotone":
            return "*".join(f"x{c + 1}" for c in self.coords)
        inner = ",".join(f"x{c + 1}={v}" for c, v in zip(self.coords, self.assigned))
        return f"ind({inner})"

    def __repr__(self) -> str:
        return f"TestFunction({self.label()})"


class QueryFamily:
    """Ordered family of test functions with stable positional indices.

    Compiled once: a literal list (coordinate, value) whose literal 0 is always
    true, a (|F|, D) array of literal indices padded with literal 0, and the
    coordinates of the monotone functions.
    """

    def __init__(self, functions: Iterable[TestFunction]):
        self._functions = tuple(functions)
        if not self._functions:
            raise ValueError("query family must contain at least one function")
        ids: dict[tuple[int, int], int] = {}
        terms = [
            [ids.setdefault(literal, len(ids) + 1) for literal in zip(f.coords, f.assigned)]
            for f in self._functions
        ]
        self._literals = np.array([(0, 0), *ids], dtype=np.int64).T
        self._literal_index = np.zeros((len(terms), max([1, *map(len, terms)])), dtype=np.intp)
        for row, term in zip(self._literal_index, terms):
            row[: len(term)] = term
        monotone = (f.coords for f in self._functions if f.kind == "monotone")
        self._monotone = list(set().union(*monotone))

    def __len__(self) -> int:
        return len(self._functions)

    def __getitem__(self, i: int) -> TestFunction:
        return self._functions[i]

    def __iter__(self) -> Iterator[TestFunction]:
        return iter(self._functions)

    def __repr__(self) -> str:
        return f"QueryFamily(size={len(self)})"

    def check_schema(self, schema: Sequence[int]) -> None:
        """Raise ValueError unless every function conforms to the schema."""
        arity = np.asarray(schema)
        coord, value = self._literals[:, 1:]
        if coord.size and coord.max() >= len(arity):
            raise ValueError("schema mismatch: coordinate index out of range")
        if (arity[self._monotone] != 2).any():
            raise ValueError("monotone marginals need Boolean coordinates")
        bad = np.flatnonzero(value >= arity[coord])
        if len(bad):
            c, v = coord[bad[0]], value[bad[0]]
            raise ValueError(f"schema mismatch: value {v} out of range for coordinate {c + 1}")

    def _masks(self, rows: np.ndarray) -> Iterator[np.ndarray]:
        """The statistics kernel: for each block of rows in turn, whether
        each conjunction holds on each row of the block."""
        coord, value = self._literals
        # In their own narrowest dtype the values compare exactly against any
        # row dtype, and byte by byte against uint8 rows.
        value = value.astype(np.min_scalar_type(value.max()))[:, None]
        index = self._literal_index
        step = max(1, _STATS_BLOCK // (len(coord) + len(index)))
        for start in range(0, rows.shape[0], step):
            literals = rows[start : start + step].T[coord] == value
            literals[0] = True
            mask = literals[index[:, 0]]
            for column in index.T[1:]:
                mask &= literals[column]
            yield mask

    def values_matrix(self, rows: np.ndarray) -> np.ndarray:
        """(|F|, n) Boolean table: whether each conjunction holds on each row."""
        table = np.empty((len(self), rows.shape[0]), bool)
        end = 0
        for mask in self._masks(rows):
            end += mask.shape[1]
            table[:, end - mask.shape[1] : end] = mask
        return table

    def _counts(self, rows: np.ndarray) -> np.ndarray:
        """How many rows each conjunction holds on, summed one kernel block at a time."""
        counts = np.zeros(len(self), dtype=np.intp)
        for mask in self._masks(rows):
            # int32 sums of a block are exact, and faster than intp's.
            counts += mask.sum(axis=1, dtype=np.int32)
        return counts

    def weighted_sums(self, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """For every function, the compensated sum of the weights of the rows it
        holds on."""
        return self._held_sums(self.values_matrix(rows), np.asarray(weights, dtype=float))

    @staticmethod
    def _held_sums(held: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """For each row of a (|F|, n) Boolean table, the compensated sum of the n
        weights where it holds; fsum reads a list faster than an array, to the same sum."""
        return np.array([math.fsum(weights[h].tolist()) for h in held])

    def product_expectations(self, vectors: Sequence[np.ndarray]) -> np.ndarray:
        """Expectation of every function when coordinate c is drawn from
        ``vectors[c]``: the product of its literals' probabilities in coordinate
        order."""
        coord, value = self._literals
        probs = np.array([1.0, *(vectors[c][v] for c, v in zip(coord[1:], value[1:]))])
        out = np.ones(len(self))
        for column in self._literal_index.T:
            out *= probs[column]
        return out


def evaluate_all(queries: QueryFamily, data: Dataset) -> np.ndarray:
    """Exact statistics of a dataset under every function in the family."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    queries.check_schema(data.schema)
    return queries._counts(data.rows) / len(data)


def accuracy_error(queries: QueryFamily, x: Dataset, y: Dataset) -> float:
    """Worst absolute disagreement between two datasets' statistics."""
    if x.schema != y.schema:
        raise ValueError("datasets must share a schema")
    return float(np.max(np.abs(evaluate_all(queries, x) - evaluate_all(queries, y))))
