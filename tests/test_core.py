import dataclasses
import math
import mmap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsynth import (
    Dataset,
    ExplicitDistribution,
    ProductDistribution,
    QueryFamily,
    TestFunction,
    accuracy_error,
    bootstrap,
    build_lp,
    evaluate_all,
)
import dpsynth
import schema_oracle
from dpsynth import audit, core
from dpsynth.core import (
    _TEXT_BLOCK,
    _read_grid,
    _scan_block,
)


def reference_to_text(data):
    """The per-cell rendering that the block codec replaced, kept as its oracle."""
    lines = [",".join(str(a) for a in data.schema)]
    lines.extend(",".join(str(v) for v in row) for row in data.rows)
    return ("\n".join(lines) + "\n").encode()


@st.composite
def datasets(draw):
    schema = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=8))
    n = draw(st.integers(0, 50))
    rows = [[draw(st.integers(0, a - 1)) for a in schema] for _ in range(n)]
    return Dataset(schema, rows)


@st.composite
def one_digit_datasets(draw):
    """Datasets whose cells are all one digit, which the codec reads and writes as a grid."""
    schema = draw(st.lists(st.integers(1, 10), min_size=1, max_size=40))
    n = draw(st.integers(0, 50))
    rows = [[draw(st.integers(0, a - 1)) for a in schema] for _ in range(n)]
    return Dataset(schema, rows)


@st.composite
def schemas_and_families(draw):
    """A schema and a family of constant, monotone and assignment functions
    whose coordinates and values may fall outside it."""
    schema = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    coords = st.lists(st.integers(0, len(schema)), min_size=1, max_size=3, unique=True)
    functions = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["constant", "monotone", "assignment"]))
        if kind == "constant":
            functions.append(TestFunction.constant_one())
        elif kind == "monotone":
            functions.append(TestFunction.monotone(draw(coords)))
        else:
            cs = draw(coords)
            values = draw(st.lists(st.integers(0, 4), min_size=len(cs), max_size=len(cs)))
            functions.append(TestFunction.assignment(cs, values))
    return tuple(schema), functions


@st.composite
def mutated_grids(draw):
    """Lines of p one-digit cells with one byte overwritten, deleted or
    doubled; the rows when the edit keeps the block a grid, else None."""
    p = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, 9), min_size=p, max_size=p)
    cells = draw(st.lists(row, min_size=1, max_size=8))
    buf = bytearray("".join(",".join(map(str, row)) + "\n" for row in cells).encode())
    at = draw(st.integers(0, len(buf) - 1))
    edits = [b",", b"\n", b"\r", b" ", b"\t", b"x", "digit", "delete", "double"]
    edit = draw(st.sampled_from(edits))
    if edit == "digit":
        kept = chr(buf[at]).isdigit()
        buf[at : at + 1] = str(draw(st.integers(0, 9))).encode()
        if kept:
            cells[at // (2 * p)][at % (2 * p) // 2] = int(chr(buf[at]))
            return bytes(buf), p, cells
    elif edit == "delete":
        del buf[at]
    elif edit == "double":
        buf.insert(at, buf[at])
    else:
        buf[at : at + 1] = edit
    return bytes(buf), p, None


class TestDataset:
    def test_basic_construction(self, small_dataset):
        assert small_dataset.schema == (2, 2, 2)
        assert len(small_dataset) == 5
        assert small_dataset.rows.tolist() == [
            [0, 0, 0], [1, 0, 1], [1, 1, 0], [0, 1, 1], [1, 1, 1]
        ]

    def test_empty_rows_allowed(self):
        data = Dataset((3, 2), [])
        assert len(data) == 0
        assert data.rows.shape == (0, 2)

    def test_schema_validation(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            Dataset((), [])
        with pytest.raises(ValueError, match="arities must be >= 1"):
            Dataset((2, 0), [])

    @pytest.mark.parametrize("schema", [(2.9, 3), (2.0, 3), (2, np.float64(3))])
    def test_arities_that_are_not_integers_rejected(self, schema):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            Dataset(schema, [[1, 2]])

    def test_integer_arities_of_any_integer_type_accepted(self):
        data = Dataset((np.int64(2), np.uint8(3), True), [[1, 2, 0]])
        assert data.schema == (2, 3, 1)
        assert all(type(a) is int for a in data.schema)

    def test_row_validation(self):
        with pytest.raises(ValueError, match="shape"):
            Dataset((2, 2), [[0, 1, 0]])
        with pytest.raises(ValueError, match="within the schema"):
            Dataset((2, 2), [[0, 2]])
        with pytest.raises(ValueError, match="within the schema"):
            Dataset((2, 2), [[-1, 0]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "cell",
        [0.7, 2.9, -0.5, math.nan, math.inf, Fraction(5, 2), Fraction(1, 2), 1 + 2j, "2", "x",
         None],
    )
    def test_cells_that_are_not_whole_numbers_rejected(self, cell):
        with pytest.raises(ValueError, match="whole numbers"):
            Dataset((3,), [[cell]])
        with pytest.raises(ValueError, match="whole numbers"):
            Dataset((3, 3), np.array([[1.0, cell]]))

    def test_integer_dtypes_and_integral_floats_accepted(self):
        for rows in ([[2, 0]], [[2.0, 0.0]], np.array([[2, 0]], dtype=np.uint8),
                     np.array([[2.0, -0.0]], dtype=np.float32), [[True, False]]):
            assert Dataset((3, 2), rows).rows.tolist() == [[int(rows[0][0]), 0]]

    def test_whole_cells_of_other_dtypes_accepted(self):
        for rows in ([[Fraction(2), Fraction(0)]], np.array([[2 + 0j, 0]]),
                     np.array([[2, 0]], dtype=object)):
            assert Dataset((3, 2), rows).rows.tolist() == [[2, 0]]

    def test_rows_are_read_only(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.rows[0, 0] = 1

    def test_rows_copy_input(self):
        src = np.array([[0, 1]], dtype=np.int64)
        data = Dataset((2, 2), src)
        src[0, 0] = 1
        assert data.rows[0, 0] == 0

    def test_equality(self, small_dataset):
        same = Dataset((2, 2, 2), small_dataset.rows)
        assert small_dataset == same
        assert small_dataset != Dataset((2, 2, 2), [[0, 0, 0]])
        assert small_dataset != Dataset((2, 2, 3), small_dataset.rows)
        assert (small_dataset == 5) is False


class TestDatasetText:
    def test_round_trip(self, small_dataset):
        again = Dataset.from_text(small_dataset.to_text())
        assert again == small_dataset

    def test_rendering(self):
        data = Dataset((2, 3), [[0, 2], [1, 0]])
        assert data.to_text() == b"2,3\n0,2\n1,0\n"

    def test_empty_dataset_round_trip(self):
        data = Dataset((4, 2), [])
        assert Dataset.from_text(data.to_text()) == data

    def test_header_errors(self):
        with pytest.raises(ValueError, match="line 1: expected comma-separated arities"):
            Dataset.from_text(b"")
        with pytest.raises(ValueError, match="line 1: expected comma-separated arities"):
            Dataset.from_text(b"two,2\n")
        with pytest.raises(
            ValueError, match="^invalid dataset: line 1: coordinate arities must be >= 1$"
        ):
            Dataset.from_text(b"2,0\n0,0\n")

    def test_text_must_be_bytes(self):
        with pytest.raises(TypeError, match="^from_text needs bytes, not str$"):
            Dataset.from_text("2\n1\n")
        assert Dataset.from_text(bytearray(b"2\n1\n")) == Dataset((2,), [[1]])

    def test_mapped_file_parses_as_its_bytes(self, tmp_path):
        rows = np.random.default_rng(2).integers(0, 1000, size=(120_000, 3))
        path = tmp_path / "data.txt"
        path.write_bytes(Dataset((1000,) * 3, rows).to_text())  # 1.3 MB, two parse blocks
        with open(path, "rb") as f:
            text = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        data = Dataset.from_text(text)
        text.close()  # raises BufferError while a view of the map is alive
        assert data == Dataset.from_text(path.read_bytes())
        assert data.rows.tolist() == rows.tolist()

    def test_row_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 3: expected comma-separated"):
            Dataset.from_text(b"2,2\n0,0\n0,x\n")

    def test_trailing_blank_lines_accepted(self):
        assert Dataset.from_text(b"2,2\n0,1\n\n") == Dataset((2, 2), [[0, 1]])
        # more than the first 64-byte tail slice of blanks, so the slice doubles
        assert Dataset.from_text(b"2,2\n0,1\n" + b" \r\n" * 50) == Dataset((2, 2), [[0, 1]])

    def test_inner_blank_line_rejected(self):
        with pytest.raises(ValueError, match="line 2: expected comma-separated"):
            Dataset.from_text(b"2,2\n\n0,1\n")

    def test_out_of_range_rows_rejected(self):
        with pytest.raises(ValueError, match="invalid dataset"):
            Dataset.from_text(b"2,2\n0,5\n")

    def test_out_of_range_error_names_line_and_coordinate(self):
        with pytest.raises(
            ValueError,
            match="^invalid dataset: line 3, coordinate 2: value 5 is not below its arity 2$",
        ):
            Dataset.from_text(b"2,2\n0,1\n0,5\n1,1\n")

    def test_ragged_row_error_names_line(self):
        with pytest.raises(
            ValueError, match="^line 3: expected 2 comma-separated category indices, found 1$"
        ):
            Dataset.from_text(b"2,2\n0,1\n0\n")
        with pytest.raises(ValueError, match="^line 2: expected 2 .*, found 3$"):
            Dataset.from_text(b"2,2\n0,1,1\n")

    def test_first_bad_line_wins(self):
        with pytest.raises(ValueError, match="invalid dataset: line 2,"):
            Dataset.from_text(b"2,2\n0,5\n0,x\n")
        with pytest.raises(ValueError, match="^line 3: expected comma-separated"):
            Dataset.from_text(b"2,2\n0,1\n0,x\n0,5\n")

    @pytest.mark.parametrize(
        "row",
        ["0,+1", "0,1_0", "0,\u0661", "0,1 1", "0,", "0, ", "0,0x1", "0,1.0", "0,-0", "0,-1",
         "0,\xa01", "0,1\u3000", "0,\x1f1", "0,0\r1", "0\r,1", "0 1,", ",1 1", "0," + "1" * 19],
    )
    def test_cells_outside_the_grammar_rejected(self, row):
        with pytest.raises(ValueError, match="^line 3: expected comma-separated category"):
            Dataset.from_text(f"2,20\n0,1\n{row}\n1,1\n".encode())

    @pytest.mark.parametrize(
        "brk", ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_lf_and_crlf_end_rows(self, brk):
        with pytest.raises(ValueError, match="^line 2: expected comma-separated category"):
            Dataset.from_text(f"2,2\n0,1{brk}1,0\n".encode())

    def test_arities_must_fit_the_cell_grammar(self):
        widest = Dataset((10**18 - 1,), [[10**18 - 2], [0]])
        assert Dataset.from_text(widest.to_text()) == widest
        for arity in (10**18, 10**18 + 1, 2**63):
            with pytest.raises(ValueError, match=r"^coordinate arities must be below 10\*\*18$"):
                Dataset((arity,), [[0]])

    def test_long_cells_parse_exactly(self):
        data = Dataset.from_text(b"999999999999999999,1000\n300,999\n123456789012345678,0\n")
        assert data.schema == (999999999999999999, 1000)
        assert data.rows.tolist() == [[300, 999], [123456789012345678, 0]]
        assert data.rows.dtype == np.int64 and not data.rows.flags.writeable

    def test_crlf_and_padding_parse_to_the_same_rows(self):
        plain = Dataset.from_text(b"3,2\n0,1\n2,0\n1,1\n")
        assert Dataset.from_text(b"3,2\r\n0,1\r\n2,0\r\n1,1\r\n\r\n") == plain
        assert Dataset.from_text(b" 3 ,\t2\n0 , 1\n\t2,0 \n 1\t,1\t\n \n") == plain
        assert Dataset.from_text(b"3,2\r\n 0 ,1 \r\n2,\t0\r\n1 , 1\r\n") == plain

    @settings(max_examples=300, deadline=None)
    @given(data=datasets() | one_digit_datasets())
    def test_codec_matches_reference_rendering(self, data):
        text = data.to_text()
        assert text == reference_to_text(data)
        assert Dataset.from_text(text) == data

    def test_errors_name_lines_past_block_boundaries(self):
        rng = np.random.default_rng(5)
        # Three-digit cells go through the cell scanner; single-digit ones
        # through the strided reader, which also leaves "9" to the range check.
        for arity, n, too_big in [
            (1000, 3 * _TEXT_BLOCK // 14, b"1000"),
            (9, 3 * _TEXT_BLOCK // 7, b"9"),
        ]:
            rows = rng.integers(0, arity, size=(n, 4))
            text = Dataset((arity,) * 4, rows).to_text()
            body = text.index(b"\n") + 1
            assert len(text) - body > 3 * _TEXT_BLOCK
            assert Dataset.from_text(text) == Dataset((arity,) * 4, rows)
            block_start = body
            for _ in range(3):
                # The line holding the nominal boundary ends the block; the
                # next line starts the following one.
                boundary = block_start + _TEXT_BLOCK
                line_start = text.rindex(b"\n", 0, boundary) + 1
                block_start = text.index(b"\n", boundary) + 1
                for start in (line_start, block_start):
                    lineno = text.count(b"\n", 0, start) + 1
                    end = text.index(b"\n", start)
                    for bad, message in [
                        (b"1,2,x,4", f"^line {lineno}: expected comma-separated"),
                        (b"1,2,3", f"^line {lineno}: expected 4 .*, found 3$"),
                        (b"1,2,3," + too_big, f"^invalid dataset: line {lineno}, coordinate 4:"),
                    ]:
                        with pytest.raises(ValueError, match=message):
                            Dataset.from_text(text[:start] + bad + text[end:])

    @pytest.mark.parametrize("row", [b"1,/", b"1,:", b"1+0", b"1-0", b"1,0\t0,1", b"1,0\v0,1"])
    def test_bytes_beside_a_grids_digits_and_separators_are_not_cells(self, row):
        # Each row keeps the grid's width but has a byte one away from the digit
        # or separator expected in its place.
        body = b"0,1\n" + row + b"\n"
        assert _read_grid(body, 2) is None
        with pytest.raises(ValueError, match="^line 3: expected comma-separated category"):
            Dataset.from_text(b"20,20\n" + body)

    def test_out_of_range_digits_deep_in_a_one_digit_file(self):
        schema = (2, 10, 3, 1, 7)
        rows = np.random.default_rng(8).integers(0, schema, size=(3 * _TEXT_BLOCK // 10, 5))
        lines = Dataset(schema, rows).to_text().splitlines(keepends=True)
        assert sum(map(len, lines[1:])) > 2 * _TEXT_BLOCK
        # Line numbers count from 1, so line k is lines[k - 1].
        for lineno, coord, bad in [(len(lines) // 2, 3, 3), (len(lines) - 1, 4, 1), (len(lines), 5, 9)]:
            cells = lines[lineno - 1].rstrip(b"\n").split(b",")
            cells[coord - 1] = str(bad).encode()
            text = b"".join([*lines[: lineno - 1], b",".join(cells) + b"\n", *lines[lineno:]])
            message = (
                f"^invalid dataset: line {lineno}, coordinate {coord}: "
                f"value {bad} is not below its arity {schema[coord - 1]}$"
            )
            with pytest.raises(ValueError, match=message):
                Dataset.from_text(text)

    @settings(max_examples=400, deadline=None)
    @given(block=mutated_grids())
    def test_strided_reader_never_disagrees_with_the_scanner(self, block):
        buf, p, rows = block
        grid = _read_grid(buf, p)
        if rows is not None:
            assert grid is not None and grid.tolist() == rows
        if grid is not None:
            scanned = _scan_block(buf, p)
            assert scanned is not None and grid.shape == scanned.shape
            assert (grid.astype(np.int64) == scanned).all()

    @pytest.mark.parametrize("late", [b"2,13,0\n", b"1,0,1\r\n"])
    def test_one_digit_block_then_a_scanned_block(self, late, monkeypatch):
        rows = np.random.default_rng(6).integers(0, 2, size=(_TEXT_BLOCK // 3, 3))
        lines = Dataset((3, 20, 2), rows).to_text().splitlines(keepends=True)
        lines[-100] = late  # inside the second block
        text = b"".join(lines)
        fast = Dataset.from_text(text)
        monkeypatch.setattr(core, "_read_grid", lambda buf, p: None)
        assert fast == Dataset.from_text(text)
        assert fast.rows[-100].tolist() == [int(v) for v in late.split(b",")]


# The row dtype of a Dataset whose largest arity is the key: the narrowest
# unsigned dtype that holds every index below it, int64 past 32 bits.
ROW_DTYPES = {
    1: np.uint8,
    2**8: np.uint8,
    2**8 + 1: np.uint16,
    2**16: np.uint16,
    2**16 + 1: np.uint32,
    2**32: np.uint32,
    2**32 + 1: np.int64,
}


class TestRowDtype:
    @pytest.mark.parametrize("arity", ROW_DTYPES)
    def test_narrowest_dtype_that_holds_the_schema(self, arity):
        data = Dataset((2, arity), [[1, arity - 1], [0, 0]])
        assert data.rows.dtype == ROW_DTYPES[arity]
        assert data.rows.tolist() == [[1, arity - 1], [0, 0]]
        assert not data.rows.flags.writeable
        assert Dataset((arity,), []).rows.dtype == ROW_DTYPES[arity]

    @pytest.mark.parametrize("arity", ROW_DTYPES)
    def test_text_round_trip_keeps_values_and_dtype(self, arity):
        data = Dataset((arity, 3), [[arity - 1, 2], [0, 1]])
        again = Dataset.from_text(data.to_text())
        assert again == data
        assert again.rows.dtype == data.rows.dtype
        assert again.rows.tolist() == data.rows.tolist()

    @pytest.mark.parametrize("arity", ROW_DTYPES)
    def test_cells_that_would_wrap_are_rejected_before_narrowing(self, arity):
        # -1 wraps to the dtype's maximum and the arity itself (the first
        # value out of range) to 0, unless the check runs on the wide values.
        # Past int64, the cast itself overflows.
        for bad in (-1, arity, 2**70, -(2**70)):
            with pytest.raises(ValueError, match="^row values must lie within the schema arities$"):
                Dataset((2, arity), [[0, 0], [1, bad]])
        message = f"^invalid dataset: line 3, coordinate 2: value {arity} is not below its arity"
        with pytest.raises(ValueError, match=message):
            Dataset.from_text(f"2,{arity}\n0,0\n1,{arity}\n".encode())

    def test_adopted_rows_are_narrow_and_read_only(self):
        schema = (2, 3, 300)
        rng = np.random.default_rng(4)
        sampling = ProductDistribution.uniform(schema)
        sampled = sampling.sample(50, rng)
        points = Dataset(schema, np.unique(sampled.rows, axis=0))
        explicit = ExplicitDistribution(points, np.full(len(points), 1.0 / len(points)))
        family = QueryFamily([TestFunction.assignment((2,), (299,))])
        support = build_lp(family, sampled, [0.5]).support
        adopted = [
            Dataset.from_text(sampled.to_text()),
            sampled,
            explicit.sample(40, rng),
            support,
            bootstrap(ExplicitDistribution(support, np.full(len(support), 1 / len(support))), 30, rng),
        ]
        for data in adopted:
            assert data.rows.dtype == np.uint16
            assert not data.rows.flags.writeable
            with pytest.raises(ValueError):
                data.rows[0, 0] = 1


def values(f, rows):
    """One function's values on an (n, p) row array."""
    return QueryFamily([f]).values_matrix(rows)[0]


class TestTestFunction:
    def test_constant_one(self, small_dataset):
        f = TestFunction.constant_one()
        assert f.is_constant_one
        assert f.label() == "1"
        assert np.array_equal(values(f, small_dataset.rows), np.ones(5))

    def test_monotone_is_product_of_coordinates(self, small_dataset):
        f = TestFunction.monotone((1, 2))
        rows = small_dataset.rows
        expected = rows[:, 1] * rows[:, 2]
        assert np.array_equal(values(f, rows), expected.astype(float))
        assert f.label() == "x2*x3"

    def test_monotone_sorts_coordinates(self):
        assert TestFunction.monotone((2, 0)) == TestFunction.monotone((0, 2))

    def test_monotone_empty_set_is_constant(self):
        f = TestFunction.monotone(())
        assert f.is_constant_one
        assert f.label() == "1"

    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            TestFunction.monotone((1, 1))

    def test_assignment_indicator(self, small_dataset):
        f = TestFunction.assignment((0, 2), (1, 0))
        vals = values(f, small_dataset.rows)
        # matches only the row (1, 1, 0)
        assert list(vals) == [0.0, 0.0, 1.0, 0.0, 0.0]
        assert f.label() == "ind(x1=1,x3=0)"

    def test_assignment_pairs_stay_aligned_after_sorting(self):
        a = TestFunction.assignment((2, 0), (1, 0))
        b = TestFunction.assignment((0, 2), (0, 1))
        assert a == b
        assert a.assigned == (0, 1)

    def test_assignment_validation(self):
        with pytest.raises(ValueError, match="one assigned value per"):
            TestFunction.assignment((0, 1), (1,))
        with pytest.raises(ValueError, match="nonnegative"):
            TestFunction.assignment((0,), (-1,))

    def test_check_schema_monotone_needs_boolean(self):
        family = QueryFamily([TestFunction.monotone((1,))])
        with pytest.raises(ValueError, match="Boolean coordinates"):
            family.check_schema((2, 3))
        family.check_schema((2, 2))

    def test_check_schema_coordinate_range(self):
        family = QueryFamily([TestFunction.monotone((5,))])
        with pytest.raises(ValueError, match="coordinate index out of range"):
            family.check_schema((2, 2))

    def test_check_schema_assignment_value_range(self):
        family = QueryFamily([TestFunction.assignment((1,), (3,))])
        with pytest.raises(ValueError, match="out of range for coordinate 2"):
            family.check_schema((2, 3))
        family.check_schema((2, 4))

    def test_equality_and_hash(self):
        funcs = {
            TestFunction.monotone((0,)),
            TestFunction.monotone((0,)),
            TestFunction.assignment((0,), (1,)),
        }
        assert len(funcs) == 2
        assert TestFunction.monotone((0,)) != TestFunction.assignment((0,), (1,))

    @pytest.mark.parametrize("field", ["kind", "coords", "assigned"])
    def test_fields_cannot_be_assigned(self, field):
        f = TestFunction.assignment((0,), (1,))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, field, getattr(f, field))
        assert f == TestFunction.assignment((0,), (1,))

    @pytest.mark.parametrize(
        "kind, coords, assigned, message",
        [
            ("assignment", (0, 1), (1,), "one assigned value per coordinate"),
            ("monotone", (0,), (0,), "monotone with every value 1"),
            ("bogus", (0,), (1,), "kind must be assignment"),
            ("constant", (0,), (1,), "kind must be assignment"),
            ("assignment", (-1,), (0,), "coordinate indices must be nonnegative"),
        ],
    )
    def test_malformed_construction_raises(self, kind, coords, assigned, message):
        with pytest.raises(ValueError, match=message):
            TestFunction(kind, coords, assigned)

    def test_functions_over_no_coordinates_are_the_constant(self):
        forms = [
            TestFunction.monotone(()), TestFunction.assignment((), ()), TestFunction.constant_one()
        ]
        assert all(f == forms[-1] and hash(f) == hash(forms[-1]) for f in forms)

    def test_constructor_sorts_pairs(self):
        f = TestFunction("assignment", (2, 0), (1, 0))
        assert f == TestFunction.assignment((0, 2), (0, 1))
        assert (f.coords, f.assigned) == ((0, 2), (0, 1))

    @pytest.mark.parametrize("coords, assigned", [((0.7, 2.2), (1.9, 0)), ((0, 2), (1.0, 0))])
    def test_arguments_that_are_not_integers_rejected(self, coords, assigned):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            TestFunction.assignment(coords, assigned)

    def test_numpy_arguments(self):
        f = TestFunction.assignment(np.array([2, 0]), np.array([1, 0], dtype=np.uint8))
        assert f == TestFunction.assignment((0, 2), (0, 1))
        assert all(type(v) is int for v in f.coords + f.assigned)
        assert TestFunction.monotone(np.array([1, 0])) == TestFunction.monotone((0, 1))


def test_every_public_value_type_is_frozen():
    results = [
        audit.DeviationCheckResult,
        audit.ReweightedCheckResult,
        audit.PrivacyAuditResult,
        audit.BooleanExperimentResult,
    ]
    public = [getattr(dpsynth, name) for name in dpsynth.__all__] + results
    classes = [c for c in public if isinstance(c, type) and dataclasses.is_dataclass(c)]
    assert TestFunction in classes and all(c in classes for c in results)
    assert [c.__name__ for c in classes if not c.__dataclass_params__.frozen] == []


class TestQueryFamily:
    def test_requires_functions(self):
        with pytest.raises(ValueError, match="at least one function"):
            QueryFamily([])

    def test_indexing_and_iteration(self, small_family):
        assert len(small_family) == 3
        assert small_family[0].is_constant_one
        assert [f.label() for f in small_family] == ["1", "x1", "x2*x3"]

    def test_values_matrix_shape(self, small_family, small_dataset):
        mat = small_family.values_matrix(small_dataset.rows)
        assert mat.shape == (3, 5)
        assert np.array_equal(mat[0], np.ones(5))

    def test_values_matrix_is_a_boolean_table(self, small_family, small_dataset):
        assert small_family.values_matrix(small_dataset.rows).dtype == bool
        empty = small_family.values_matrix(small_dataset.rows[:0])
        assert empty.dtype == bool
        assert empty.shape == (3, 0)

    def test_check_schema_delegates(self, small_family):
        with pytest.raises(ValueError, match="Boolean coordinates"):
            small_family.check_schema((2, 3, 2))

    @settings(max_examples=400, deadline=None)
    @given(case=schemas_and_families())
    def test_check_schema_matches_the_per_function_oracle(self, case):
        schema, functions = case
        try:
            schema_oracle.check_schema(functions, schema)
            expected = None
        except ValueError as exc:
            expected = str(exc)
        try:
            QueryFamily(functions).check_schema(schema)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert (got is None) == (expected is None)
        failing = 0
        for f in functions:
            try:
                schema_oracle.check_schema([f], schema)
            except ValueError:
                failing += 1
        if failing <= 1:
            assert got == expected

    def test_check_schema_names_failures_in_family_order(self):
        # Each check runs over the whole family before the next one, so when
        # several functions fail the message can name another failure than
        # the per-function oracle, which stops at the first failing function.
        functions = [
            TestFunction.assignment((0,), (2,)),
            TestFunction.monotone((1,)),
            TestFunction.assignment((1, 2), (0, 3)),
            TestFunction.assignment((0, 2), (1, 5)),
        ]
        family = QueryFamily(functions)
        for schema, message, oracle_message in [
            ((3, 3), "coordinate index out of range", "monotone marginals need Boolean"),
            ((2, 3, 3), "monotone marginals need Boolean", "value 2 out of range for coordinate 1"),
            ((2, 2, 3), "value 2 out of range for coordinate 1", None),
            ((3, 2, 3), "value 3 out of range for coordinate 3", None),
        ]:
            with pytest.raises(ValueError, match=message):
                family.check_schema(schema)
            with pytest.raises(ValueError, match=oracle_message or message):
                schema_oracle.check_schema(functions, schema)
        family.check_schema((3, 2, 6))


class TestStatistics:
    # Hand-enumerated over the five fixture rows:
    #   (0,0,0) (1,0,1) (1,1,0) (0,1,1) (1,1,1)
    def test_evaluate_statistic(self, small_dataset):
        def statistic(f):
            return evaluate_all(QueryFamily([f]), small_dataset)[0]

        assert statistic(TestFunction.constant_one()) == 1.0
        assert statistic(TestFunction.monotone((0,))) == 0.6
        assert statistic(TestFunction.monotone((1, 2))) == 0.4
        assert statistic(TestFunction.assignment((0, 2), (1, 0))) == 0.2

    def test_evaluate_all_matches_singles(self, small_family, small_dataset):
        stats = evaluate_all(small_family, small_dataset)
        assert list(stats) == [1.0, 0.6, 0.4]

    def test_empty_dataset_rejected(self, small_family):
        empty = Dataset((2, 2, 2), [])
        with pytest.raises(ValueError, match="empty dataset"):
            evaluate_all(small_family, empty)

    def test_schema_checked_before_evaluation(self, small_family):
        data = Dataset((2, 3, 2), [[0, 2, 1]])
        with pytest.raises(ValueError, match="Boolean coordinates"):
            evaluate_all(small_family, data)

    def test_weighted_statistics(self):
        support = Dataset((2, 2), [[0, 0], [0, 1], [1, 0], [1, 1]])
        density = ExplicitDistribution(support, [0.1, 0.2, 0.3, 0.4])
        family = QueryFamily(
            [
                TestFunction.constant_one(),
                TestFunction.monotone((0,)),
                TestFunction.monotone((0, 1)),
                TestFunction.assignment((1,), (0,)),
            ]
        )
        stats = family.weighted_sums(density.points.rows, density.weights)
        assert np.allclose(stats, [1.0, 0.7, 0.4, 0.4], atol=1e-15)

    def test_compensated_sum_is_exact_on_long_runs(self):
        # Weight 1/3 on each of 2^18 rows: with compensated summation the sum
        # comes back exactly, as it is a power-of-two multiple of the weight.
        n = 2 ** 18
        family = QueryFamily([TestFunction.constant_one()])
        rows = np.zeros((n, 1), dtype=np.uint8)
        assert family.weighted_sums(rows, np.full(n, 1.0 / 3.0))[0] == n * (1.0 / 3.0)

    def test_accuracy_error(self):
        family = QueryFamily([TestFunction.constant_one(), TestFunction.monotone((0,))])
        x = Dataset((2,), [[0], [1], [1], [1]])
        y = Dataset((2,), [[1], [1], [0], [0]])
        assert accuracy_error(family, x, y) == 0.25
        assert accuracy_error(family, x, x) == 0.0

    def test_accuracy_error_schema_mismatch(self):
        family = QueryFamily([TestFunction.constant_one()])
        x = Dataset((2,), [[0]])
        y = Dataset((3,), [[0]])
        with pytest.raises(ValueError, match="share a schema"):
            accuracy_error(family, x, y)
