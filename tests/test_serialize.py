"""CSV contract of serialize: exact writer bytes, and what the matrix reader accepts."""

import csv
import io

import numpy as np
import pytest

from normgauge import InputError, SchemaError
from normgauge.serialize import format_cell, read_matrix_csv, write_csv, write_matrix_csv

pytestmark = pytest.mark.filterwarnings("error")


def reference_bytes(header, rows):
    """What csv.writer writes for the format_cell text of each cell."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([format_cell(v) for v in row])
    return buf.getvalue().encode("utf-8")


def write_text(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


class TestWriter:
    def test_matrix_bytes_match_csv_writer(self, tmp_path):
        rng = np.random.default_rng(0)
        values = np.concatenate(
            [
                rng.normal(size=(6, 4)) * 10.0 ** rng.integers(-300, 300, size=(6, 4)),
                [[-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]],
                [[np.nan, np.inf, -np.inf, 0.1]],
            ]
        )
        ids = ["s1", "a,b", 'q"uote', "line\nbreak", "cr\rid", "", "plain", " sp "]
        columns = ["r0", "r,1", 'r"2', "r3"]
        path = tmp_path / "m.csv"
        write_matrix_csv(path, ids, columns, values)
        expected = reference_bytes(
            ["id", *columns], ([sid, *row] for sid, row in zip(ids, values.tolist()))
        )
        assert path.read_bytes() == expected

    def test_nan_and_none_are_empty_cells(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, ["x"], ["a", "b", "c"], np.array([[np.nan, 1.5, np.nan]]))
        assert path.read_text(encoding="utf-8") == "id,a,b,c\nx,,1.5,\n"
        write_csv(path, ["a", "b"], [[None, float("nan")], [np.float32("nan"), 2]])
        assert path.read_text(encoding="utf-8") == "a,b\n,\n,2\n"

    def test_mixed_cells_match_csv_writer(self, tmp_path):
        rows = [
            ["g", 3, np.int64(-4), True, np.bool_(False), None],
            [np.float64(0.1), np.float32(0.1), 1e16, -0.0, "x,y", 'say "hi"'],
            ["", "", "", "", "", ""],
            [1, 2.5, "multi\nline", "tab\tcell", "é", "\r"],
        ]
        path = tmp_path / "t.csv"
        header = ["a", "b", "c", "d", "e", "f"]
        write_csv(path, header, rows)
        assert path.read_bytes() == reference_bytes(header, rows)

    def test_single_cell_rows_match_csv_writer(self, tmp_path):
        rows = [[""], [None], ["x"], [1.0], ['"'], []]
        path = tmp_path / "t.csv"
        write_csv(path, ["only"], rows)
        assert path.read_bytes() == reference_bytes(["only"], rows)

    def test_random_doubles_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2**63, size=(40, 25), dtype=np.uint64)
        bits[::2] |= np.uint64(2**63)
        values = bits.view(np.float64)
        values[~np.isfinite(values)] = 0.25
        values[0, :3] = [-0.0, 5e-324, 1.7976931348623157e308]
        ids = [f"s{i}" for i in range(39)] + ['x,"y"']
        columns = [f"r{j}" for j in range(25)]
        path = tmp_path / "m.csv"
        write_matrix_csv(path, ids, columns, values)
        got_ids, got_columns, got = read_matrix_csv(path)
        assert got_ids == ids and got_columns == columns
        assert got.dtype == np.float64 and got.shape == values.shape
        assert got.tobytes() == values.tobytes()

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="does not match"):
            write_matrix_csv(tmp_path / "m.csv", ["a"], ["r0", "r1"], np.zeros((1, 3)))


class TestReaderAccepts:
    def test_blank_lines_skipped(self, tmp_path):
        path = write_text(tmp_path / "m.csv", "id,a,b\n\nx,1,2\n\n\ny,3,4\n\n")
        ids, columns, values = read_matrix_csv(path)
        assert ids == ["x", "y"] and columns == ["a", "b"]
        np.testing.assert_array_equal(values, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize(
        "text", ["id,a,b\r\nx,1,2\r\ny,3,4\r\n", "id,a,b\r\nx,1,2\r\n\r\ny,3,4"]
    )
    def test_crlf_line_ends(self, tmp_path, text):
        ids, columns, values = read_matrix_csv(write_text(tmp_path / "m.csv", text))
        assert ids == ["x", "y"] and columns == ["a", "b"]
        np.testing.assert_array_equal(values, [[1, 2], [3, 4]])

    def test_cr_line_ends(self, tmp_path):
        path = write_text(tmp_path / "cr.csv", "id,a\rx,1.5\ry,2\r")
        ids, columns, values = read_matrix_csv(path)
        assert ids == ["x", "y"] and columns == ["a"]
        np.testing.assert_array_equal(values, [[1.5], [2.0]])

    def test_quoted_cells(self, tmp_path):
        path = write_text(
            tmp_path / "m.csv",
            'id,"a,1",b\n"x,y",1,"2.5"\n"say ""hi""",3,4\n"multi\nline",5,6\n',
        )
        ids, columns, values = read_matrix_csv(path)
        assert ids == ["x,y", 'say "hi"', "multi\nline"]
        assert columns == ["a,1", "b"]
        np.testing.assert_array_equal(values, [[1, 2.5], [3, 4], [5, 6]])

    @pytest.mark.parametrize(
        "cell",
        ["1_0", " 1.5 ", "\t-2e-3", "+.5", "5.", "nan", "-inf", "Infinity",
         "\xa07", "１２", "1e-400", "0.1000000000000000055511151231257827"],
    )
    def test_cells_parse_as_float_does(self, tmp_path, cell):
        path = write_text(tmp_path / "m.csv", f"id,a,b\nx,{cell},1\ny,2,{cell}\n")
        values = read_matrix_csv(path)[2]
        expected = np.array([[float(cell), 1.0], [2.0, float(cell)]])
        assert values.tobytes() == expected.tobytes()

    def test_zero_data_rows(self, tmp_path):
        for text in ("id,a,b\n", "id,a,b", "id,a,b\n\n\n"):
            ids, columns, values = read_matrix_csv(write_text(tmp_path / "m.csv", text))
            assert ids == [] and columns == ["a", "b"]
            assert values.shape == (0, 2) and values.dtype == np.float64

    def test_zero_columns(self, tmp_path):
        ids, columns, values = read_matrix_csv(write_text(tmp_path / "m.csv", "id\nx\ny\n"))
        assert ids == ["x", "y"] and columns == []
        assert values.shape == (2, 0)

    def test_single_row_and_single_column(self, tmp_path):
        values = read_matrix_csv(write_text(tmp_path / "a.csv", "id,a,b,c\nx,1,2,3\n"))[2]
        assert values.shape == (1, 3)
        values = read_matrix_csv(write_text(tmp_path / "b.csv", "id,a\nx,1\ny,2\n"))[2]
        assert values.shape == (2, 1)


class TestReaderRejects:
    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(InputError) as exc:
            read_matrix_csv(path)
        assert str(exc.value) == f"file not found: {path}"

    @pytest.mark.parametrize("text", ["", "\n", "ID,a\nx,1\n", "a,id\nx,1\n", "\nid,a\n"])
    def test_header_must_start_with_id(self, tmp_path, text):
        path = write_text(tmp_path / "m.csv", text)
        with pytest.raises(SchemaError) as exc:
            read_matrix_csv(path)
        assert str(exc.value) == f"{path}: expected header starting with 'id'"

    def test_duplicate_columns(self, tmp_path):
        path = write_text(tmp_path / "m.csv", "id,a,b,a\nx,1,2,3\n")
        with pytest.raises(SchemaError) as exc:
            read_matrix_csv(path)
        assert str(exc.value) == f"{path}: duplicate column names in header"

    @pytest.mark.parametrize(
        "body, line_no, got",
        [
            ("x,1,2\ny,1\n", 3, 2),
            ("x,1,2\ny,1,2,3\n", 3, 4),
            ("x,1,2\n\ny\n", 4, 1),
            ("x,1,2\ny,1,2,\n", 3, 4),
            ("x 1 2\n", 2, 1),
        ],
    )
    def test_ragged_row(self, tmp_path, body, line_no, got):
        path = write_text(tmp_path / "m.csv", "id,a,b\n" + body)
        with pytest.raises(SchemaError) as exc:
            read_matrix_csv(path)
        assert str(exc.value) == f"{path} row {line_no}: expected 3 cells, got {got}"

    @pytest.mark.parametrize(
        "body, line_no, column, cell",
        [
            ("x,1,2\ny,1,abc\n", 3, "b", "abc"),
            ("x,,2\n", 2, "a", ""),
            ("x,1,2\n\n\ny, ,2\n", 5, "a", " "),
            ("x,1,0x10\n", 2, "b", "0x10"),
            ("x,1__0,2\n", 2, "a", "1__0"),
            ("x,1,2\x1c\n", 2, "b", "2\x1c"),
            ('x,"1,5",2\n', 2, "a", "1,5"),
            ("x,1,2\r\ny,1,nan?\r\n", 3, "b", "nan?"),
        ],
    )
    def test_non_numeric_cell_names_row_and_column(self, tmp_path, body, line_no, column, cell):
        path = write_text(tmp_path / "m.csv", "id,a,b\n" + body)
        with pytest.raises(InputError) as exc:
            read_matrix_csv(path)
        assert str(exc.value) == (
            f"{path} row {line_no}, column '{column}': cannot parse '{cell}' as a number"
        )

    def test_first_error_in_file_order_wins(self, tmp_path):
        path = write_text(tmp_path / "a.csv", "id,a,b\nx,1,bad\ny,1\n")
        with pytest.raises(InputError, match="row 2, column 'b'"):
            read_matrix_csv(path)
        path = write_text(tmp_path / "b.csv", "id,a,b\nx,1\ny,1,bad\n")
        with pytest.raises(SchemaError, match="row 2: expected 3 cells, got 2"):
            read_matrix_csv(path)
