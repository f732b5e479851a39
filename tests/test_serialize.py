"""Contract of serialize: exact CSV writer bytes, what the matrix reader accepts,
and what dump_json refuses."""

import csv
import hashlib
import io
import json
import os
import threading

import numpy as np
import pytest

from normgauge import InputError, SchemaError, serialize
from normgauge.serialize import (
    _chunk_ranges,
    _forked_iter,
    _one_blas_thread,
    _openblas_threads,
    _read_csv_rows,
    _sidecar_path,
    dump_json,
    format_cell,
    load_json,
    read_matrix_csv,
    write_csv,
    write_matrix_csv,
    write_matrix_csvs,
)

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


def drop_sidecar(path):
    """Delete the sidecar that write_matrix_csvs wrote beside path, so that a
    read of path runs the parser."""
    _sidecar_path(path).unlink()
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
        # csv.writer of Python 3.11 leaves a lone CR bare; it is quoted here
        expected = expected.replace(b"\ncr\rid,", b'\n"cr\rid",')
        assert path.read_bytes() == expected
        # no columns: each row is its id alone, and the empty id is written ""
        write_matrix_csv(path, ids, [], np.empty((len(ids), 0)))
        expected = reference_bytes(["id"], ([sid] for sid in ids))
        assert b'\n""\n' in expected
        assert path.read_bytes() == expected.replace(b"\ncr\rid\n", b'\n"cr\rid"\n')

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
        expected = reference_bytes(header, rows).replace(
            ",é,\r\n".encode(), ',é,"\r"\n'.encode()
        )
        assert path.read_bytes() == expected

    def test_lone_cr_in_id_round_trips(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, ["cr\rid", "x"], ["a"], np.array([[1.5], [2.0]]))
        assert path.read_bytes() == b'id,a\n"cr\rid",1.5\nx,2.0\n'
        ids, columns, values = read_matrix_csv(drop_sidecar(path))
        assert ids == ["cr\rid", "x"] and columns == ["a"]
        np.testing.assert_array_equal(values, [[1.5], [2.0]])

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
        got_ids, got_columns, got = read_matrix_csv(drop_sidecar(path))
        assert got_ids == ids and got_columns == columns
        assert got.dtype == np.float64 and got.shape == values.shape
        assert got.tobytes() == values.tobytes()

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="does not match"):
            write_matrix_csv(tmp_path / "m.csv", ["a"], ["r0", "r1"], np.zeros((1, 3)))


def matrix_files(directory):
    """Three matrices with NaN, -0.0, inf and 1e-300 cells and an id holding a comma."""
    rng = np.random.default_rng(5)
    ids = ["s1", "a,b", "s3"]
    columns = ["r0", "r1", "r2", "r3"]
    files = []
    for k, name in enumerate(("z.csv", "e.csv", "m.csv")):
        values = rng.normal(size=(3, 4))
        values[k] = [np.nan, -0.0, np.inf, 1e-300]
        files.append((directory / name, ids, columns, values))
    return files


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestDumpJson:
    @pytest.mark.parametrize(
        "obj, error",
        [
            ({"x": float("nan")}, ValueError),
            ([1.0, float("inf")], ValueError),
            ({"x": np.array([0.5, -np.inf])}, ValueError),
            ({"x": np.float32("nan")}, ValueError),
            ({"x": {1, 2}}, TypeError),
            ({"x": object()}, TypeError),
        ],
    )
    def test_rejects_non_finite_and_unknown_values(self, tmp_path, obj, error):
        with pytest.raises(error):
            dump_json(obj, tmp_path / "x.json")


class TestLoadJson:
    def test_not_utf8(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_bytes(b'{\n  "a": "caf\xe9"\n}\n')
        with pytest.raises(InputError) as exc:
            load_json(path)
        assert str(exc.value) == f"{path} line 2: byte 0xe9 is not UTF-8 text"


class TestWriteMatrixCsvs:
    def test_bytes_match_sequential_writes(self, tmp_path, forks):
        pids, forked = forks
        files = matrix_files(tmp_path)
        write_matrix_csvs(files)
        # one row chunk per usable CPU: the second of the fixture's two CPUs
        # formats the later half of all files' rows
        assert len(pids) == (1 if forked else 0)
        assert_no_child_left()
        reference = tmp_path / "reference.csv"
        for path, ids, columns, values in files:
            write_matrix_csv(reference, ids, columns, values)
            assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize(
        "broken",
        [
            lambda path, ids, columns, values: (
                path.parent / "missing" / path.name, ids, columns, values
            ),
            lambda path, ids, columns, values: (path, ids, columns[:-1], values),
        ],
        ids=["missing-directory", "shape-mismatch"],
    )
    def test_failing_child_raises_the_sequential_error(self, tmp_path, forks, broken):
        files = matrix_files(tmp_path)
        files[1] = broken(*files[1])
        with pytest.raises(Exception) as sequential:
            write_matrix_csv(*files[1])
        with pytest.raises(Exception) as got:
            write_matrix_csvs(files)
        assert type(got.value) is type(sequential.value)
        assert str(got.value) == str(sequential.value)
        assert files[0][0].is_file()
        assert_no_child_left()

    def test_caller_error_leaves_no_child(self, tmp_path, forks):
        pids, _ = forks
        files = matrix_files(tmp_path)
        files[0] = (tmp_path / "missing" / "z.csv", *files[0][1:])
        with pytest.raises(FileNotFoundError):
            write_matrix_csvs(files)
        # the first file is opened before any row is formatted
        assert pids == []
        assert_no_child_left()

    @pytest.mark.parametrize("forks", ["forked"], indirect=True)
    def test_no_fork_while_another_thread_runs(self, tmp_path, forks):
        pids, _ = forks
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            write_matrix_csvs(matrix_files(tmp_path))
        finally:
            release.set()
            thread.join()
        assert pids == []


def openblas():
    """The get and set functions of OpenBLAS's thread count; skips without it."""
    blas = _openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS loaded")
    return blas


two_cpus = pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="needs two usable CPUs",
)


class TestForkedMap:
    def test_results_in_order_past_the_pipe_buffer(self, forks):
        pids, forked = forks
        # each result pickles to about 2.4 MB, far beyond a pipe's buffer
        got = list(_forked_iter(lambda k: np.full(300_000, k / 3.0), [0, 1, 2]))
        assert len(pids) == (2 if forked else 0)
        assert_no_child_left()
        for k, values in enumerate(got):
            assert values.tobytes() == np.full(300_000, k / 3.0).tobytes()

    def test_result_that_fails_to_pickle_runs_again_in_process(self, forks):
        pids, forked = forks
        # the array reaches the pipe before the lambda fails to pickle, so
        # the caller reads a truncated result before the child exits non-zero
        got = list(_forked_iter(lambda k: [np.full(300_000, k / 3.0), lambda: k], [0, 1]))
        assert len(pids) == (1 if forked else 0)
        assert_no_child_left()
        for k, (values, fn) in enumerate(got):
            assert values.tobytes() == np.full(300_000, k / 3.0).tobytes() and fn() == k

    def test_one_blas_thread_reaches_forked_parts(self, forks):
        pids, forked = forks
        get, set_ = openblas()
        before = get()
        set_(2)
        try:
            # each part, the caller's included, reports its BLAS thread count
            got = list(_forked_iter(lambda _: get(), [0, 1]))
            # forked parts run on one thread; in-process ones at the caller's
            assert got == ([1, 1] if forked else [2, 2])
            assert get() == 2
        finally:
            set_(before)
        assert len(pids) == (1 if forked else 0)

    @two_cpus
    def test_pinned_parts_each_hold_a_cpu_of_their_own(self):
        get, set_ = openblas()
        usable = os.sched_getaffinity(0)
        first, second = sorted(usable)[:2]
        product = np.arange(64.0 * 64).reshape(64, 64)

        def part(_):
            """The product's checksum, the BLAS thread count and the CPUs the
            part may run on, the caller's part included."""
            return float((product @ product).sum()), get(), os.sched_getaffinity(0)

        total = float((product @ product).sum())
        before = get()
        set_(2)
        try:
            got = list(_forked_iter(part, [0, 1]))
        finally:
            set_(before)
        assert got == [(total, 1, {first}), (total, 1, {second})]
        assert os.sched_getaffinity(0) == usable
        assert_no_child_left()

    @two_cpus
    def test_no_part_is_pinned_without_openblas(self, monkeypatch):
        usable = os.sched_getaffinity(0)
        monkeypatch.setattr(serialize, "_openblas_threads", lambda: None)
        with _one_blas_thread() as one_thread:
            assert one_thread is False
        assert list(_forked_iter(lambda _: os.sched_getaffinity(0), [0, 1])) == [usable, usable]
        assert_no_child_left()

    @two_cpus
    @pytest.mark.parametrize("end", ["full", "closed", "raising"])
    def test_caller_gets_its_cpus_and_blas_threads_back(self, end):
        get, set_ = openblas()
        usable = os.sched_getaffinity(0)
        first = min(usable)

        def part(k):
            """The CPUs and BLAS thread count of the part; the caller's part
            raises in a raising iteration."""
            if end == "raising" and k == 0:
                raise ZeroDivisionError("the caller's part")
            return os.sched_getaffinity(0), get()

        before = get()
        set_(2)
        try:
            parts = serialize._forked_iter(part, [0, 1])
            if end == "raising":
                with pytest.raises(ZeroDivisionError, match="the caller's part"):
                    next(parts)
            elif end == "closed":
                assert next(parts) == ({first}, 1)
                parts.close()
            else:
                assert len(list(parts)) == 2
            assert os.sched_getaffinity(0) == usable
            assert get() == 2
        finally:
            set_(before)
        assert_no_child_left()

    @pytest.mark.parametrize("forks", ["forked"], indirect=True)
    def test_a_forked_child_never_forks(self, forks):
        pids, _ = forks
        # each part maps two parts of its own and reports the forks it has seen
        got = list(
            _forked_iter(lambda k: (list(_forked_iter(lambda j: j, [0, 1])), len(pids)), [0, 1])
        )
        assert got == [([0, 1], 2), ([0, 1], 0)]
        assert len(pids) == 2
        assert_no_child_left()


def matrix_rows(ids, values, nan=float("nan")):
    return ([sid, *(nan if v != v else v for v in row)] for sid, row in zip(ids, values.tolist()))


class TestRowChunks:
    """Matrix files are formatted and parsed in one contiguous row chunk per
    usable CPU; the cut changes no byte written, no value read and no error
    raised, and no call forks more than CPUs - 1 children."""

    @pytest.mark.parametrize("n", range(8))
    def test_chunk_ranges_cover_rows_in_order(self, usable_cpus, n):
        _, cpus = usable_cpus
        chunks = _chunk_ranges(n)
        assert len(chunks) == min(cpus, n)
        assert all(len(chunk) > 0 for chunk in chunks)
        assert [i for chunk in chunks for i in chunk] == list(range(n))

    @pytest.mark.parametrize("comma_id", [True, False], ids=["comma-id", "plain-ids"])
    def test_matrix_files_bytes_and_values(self, tmp_path, usable_cpus, comma_id):
        pids, cpus = usable_cpus
        files = matrix_files(tmp_path)
        if not comma_id:
            files = [(path, ["s1", "a b", "s3"], *rest) for path, _, *rest in files]
        write_matrix_csvs(files)
        assert len(pids) == cpus - 1
        for path, ids, columns, values in files:
            assert path.read_bytes() == reference_bytes(["id", *columns], matrix_rows(ids, values))
            # NaN is written as an empty cell, which the reader rejects; as
            # `nan` text it reads back
            readable = tmp_path / "readable.csv"
            readable.write_bytes(
                reference_bytes(["id", *columns], matrix_rows(ids, values, nan="nan"))
            )
            forked = len(pids)
            got_ids, got_columns, got = read_matrix_csv(readable)
            assert len(pids) - forked <= cpus - 1
            assert got_ids == ids and got_columns == columns
            assert got.dtype == np.float64 and got.tobytes() == values.tobytes()
        assert_no_child_left()

    @pytest.mark.parametrize("n_rows", [0, 1, 2])
    def test_fewer_rows_than_cpus(self, tmp_path, usable_cpus, n_rows):
        pids, cpus = usable_cpus
        rng = np.random.default_rng(n_rows)
        columns = ["r0", "r1"]
        files = [
            (tmp_path / f"{name}.csv", [f"{name}{i}" for i in range(rows)], columns,
             rng.normal(size=(rows, 2)))
            for name, rows in (("a", 0), ("b", n_rows), ("c", 0))
        ]
        write_matrix_csvs(files)
        assert len(pids) == max(min(cpus, n_rows) - 1, 0)
        for path, ids, _, values in files:
            assert path.read_bytes() == reference_bytes(["id", *columns], matrix_rows(ids, values))
            forked = len(pids)
            got_ids, got_columns, got = read_matrix_csv(drop_sidecar(path))
            assert len(pids) - forked <= cpus - 1
            assert got_ids == ids and got_columns == columns
            assert got.shape == values.shape and got.tobytes() == values.tobytes()
        assert_no_child_left()

    def test_crlf_and_blank_lines_at_cuts(self, tmp_path, usable_cpus):
        pids, cpus = usable_cpus
        lines = ["x,1.5,-0.0", *[""] * 100, "y,2,1e-300", "", "z,-inf,3"]
        path = write_text(tmp_path / "m.csv", "id,a,b\r\n" + "\r\n".join(lines) + "\r\n")
        # the rows are cut by count, one to a chunk at three CPUs, and the
        # blank lines between them belong to no chunk
        ids, columns, values = read_matrix_csv(path)
        assert len(pids) == cpus - 1
        assert_no_child_left()
        serial = _read_csv_rows(path)
        assert ids == serial[0] == ["x", "y", "z"] and columns == serial[1] == ["a", "b"]
        assert values.tobytes() == serial[2].tobytes()
        expected = np.array([[1.5, -0.0], [2.0, 1e-300], [-np.inf, 3.0]])
        assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "last_row, error",
        [("s3,9,9", InputError), ("s39,1,2,3", SchemaError), ("s39,1,bad", InputError)],
        ids=["repeated-id", "ragged-row", "bad-cell"],
    )
    def test_error_in_a_later_chunk_is_the_serial_error(
        self, tmp_path, usable_cpus, last_row, error
    ):
        pids, cpus = usable_cpus
        rows = [f"s{i},{i},{i / 7}" for i in range(39)]
        rows.insert(20, "")  # a blank line counts in the row numbers
        path = write_text(tmp_path / "m.csv", "id,a,b\n" + "\n".join([*rows, last_row]) + "\n")
        with pytest.raises(error) as serial:
            _read_csv_rows(path)
        with pytest.raises(error) as got:
            read_matrix_csv(path)
        assert str(got.value) == str(serial.value)
        assert len(pids) <= cpus - 1
        assert_no_child_left()

    @pytest.mark.parametrize("where", [0, -1], ids=["caller-chunk", "last-chunk"])
    def test_chunk_error_is_the_sequential_error(self, tmp_path, usable_cpus, where):
        pids, cpus = usable_cpus

        class Unprintable:
            def __str__(self):
                raise RuntimeError("no text for this id")

        ids = ["s0", "s1", "s2"]
        ids[where] = Unprintable()
        with pytest.raises(RuntimeError, match="^no text for this id$"):
            write_matrix_csv(tmp_path / "m.csv", ids, ["a"], np.zeros((3, 1)))
        assert len(pids) == cpus - 1
        assert_no_child_left()


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

    # the quoted id sends the file to the csv.reader path
    @pytest.mark.parametrize("sid", ["x", '"x,1"'], ids=["loadtxt", "csv-reader"])
    def test_not_utf8(self, tmp_path, sid):
        path = tmp_path / "m.csv"
        path.write_bytes(f"id,a\n{sid},1\n".encode() + b"y\xe9,2\n")
        with pytest.raises(InputError) as exc:
            read_matrix_csv(path)
        assert str(exc.value) == f"{path} line 3: byte 0xe9 is not UTF-8 text"

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

    @pytest.mark.parametrize(
        "body", ["x,1\ny,2\nz,3\ny,4\nx,5\n", 'x,1\ny,"2"\nz,3\ny,4\nx,5\n']
    )
    def test_repeated_id_named(self, tmp_path, body):
        path = write_text(tmp_path / "m.csv", "id,a\n" + body)
        with pytest.raises(InputError) as exc:
            read_matrix_csv(path)
        assert str(exc.value) == f"{path}: duplicate id 'y'"

    def test_first_error_in_file_order_wins(self, tmp_path):
        path = write_text(tmp_path / "a.csv", "id,a,b\nx,1,bad\ny,1\n")
        with pytest.raises(InputError, match="row 2, column 'b'"):
            read_matrix_csv(path)
        path = write_text(tmp_path / "b.csv", "id,a,b\nx,1\ny,1,bad\n")
        with pytest.raises(SchemaError, match="row 2: expected 3 cells, got 2"):
            read_matrix_csv(path)


class TestChosenRows:
    """read_matrix_csv(path, rows) parses only the rows that rows(ids) picks:
    every row's id and cell count is still read, and a chosen row fails as a
    full read fails."""

    columns = ["r0", "r1", "r2"]

    def matrix(self, path, quoted, n=23):
        """A matrix file of n rows over a wide range of magnitudes, without its
        sidecar; with quoted, row 5's id holds a comma, which sends the file to
        csv.reader."""
        rng = np.random.default_rng(n)
        ids = [f"s{i:02d}" for i in range(n)]
        if quoted:
            ids[5] = "a,b"
        values = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
        values[1] = [-0.0, np.inf, 1e-300]
        write_matrix_csv(path, ids, self.columns, values)
        return drop_sidecar(path), ids, values

    @pytest.mark.parametrize("quoted", [False, True], ids=["loadtxt", "csv-reader"])
    @pytest.mark.parametrize(
        "pick", [[], [0], [22, 3, 5, 17], list(range(23)), list(range(23))[::-1]]
    )
    def test_chosen_rows_are_the_full_read_subset(self, tmp_path, forks, quoted, pick):
        pids, forked = forks
        path, ids, values = self.matrix(tmp_path / "m.csv", quoted)
        seen = []

        def rows(all_ids):
            seen.append(list(all_ids))
            return pick

        written = len(pids)
        got_ids, got_columns, got = read_matrix_csv(path, rows)
        # only the loadtxt path forks, and only for two or more chosen rows
        assert len(pids) - written == (forked and not quoted and len(pick) > 1)
        full_ids, full_columns, full = read_matrix_csv(path)
        assert seen == [full_ids] == [ids]
        assert got_ids == [ids[k] for k in pick] and got_columns == full_columns == self.columns
        assert got.dtype == np.float64 and got.shape == (len(pick), 3)
        assert got.tobytes() == full[pick].tobytes() == values[pick].tobytes()
        assert_no_child_left()

    @pytest.mark.parametrize("pick", [[], [1], [2, 0]])
    def test_blank_lines_and_crlf(self, tmp_path, forks, pick):
        path = write_text(
            tmp_path / "m.csv", "id,a,b\r\n\r\nx,1.5,-0.0\r\n\r\n\r\ny,2,1e-300\r\nz,-inf,3\r\n\r\n"
        )
        ids, columns, values = read_matrix_csv(path, lambda all_ids: pick)
        expected = np.array([[1.5, -0.0], [2.0, 1e-300], [-np.inf, 3.0]])
        assert ids == [["x", "y", "z"][k] for k in pick] and columns == ["a", "b"]
        assert values.shape == (len(pick), 2) and values.tobytes() == expected[pick].tobytes()
        assert_no_child_left()

    @pytest.mark.parametrize("quoted", [False, True], ids=["loadtxt", "csv-reader"])
    @pytest.mark.parametrize("cell", ["abc", "", "0x10"])
    def test_bad_cell_in_a_chosen_row_fails_as_a_full_read(self, tmp_path, forks, quoted, cell):
        path, ids, _ = self.matrix(tmp_path / "m.csv", quoted, n=12)
        lines = path.read_text(encoding="utf-8").split("\n")
        # a blank line counts in the record numbers
        lines.insert(3, "")
        cells = lines[9].split(",")
        lines[9] = ",".join([*cells[:2], cell, *cells[3:]])
        write_text(path, "\n".join(lines))
        with pytest.raises(InputError) as full:
            read_matrix_csv(path)
        with pytest.raises(InputError) as chosen:
            read_matrix_csv(path, lambda all_ids: [0, 7, 2])
        assert str(chosen.value) == str(full.value) == (
            f"{path} row 10, column 'r1': cannot parse '{cell}' as a number"
        )
        assert_no_child_left()

    @pytest.mark.parametrize("quoted", [False, True], ids=["loadtxt", "csv-reader"])
    @pytest.mark.parametrize("cell", ["abc", "", "0x10", "nan", "-inf"])
    def test_bad_cell_in_an_unchosen_row_is_not_parsed(self, tmp_path, forks, quoted, cell):
        path, ids, values = self.matrix(tmp_path / "m.csv", quoted, n=12)
        lines = path.read_text(encoding="utf-8").split("\n")
        cells = lines[7].split(",")  # the row of ids[6]
        lines[7] = ",".join([*cells[:2], cell, *cells[3:]])
        write_text(path, "\n".join(lines))
        pick = [k for k in range(12) if k != 6]
        got_ids, _, got = read_matrix_csv(path, lambda all_ids: pick)
        assert got_ids == [ids[k] for k in pick]
        assert got.tobytes() == values[pick].tobytes()
        assert_no_child_left()

    @pytest.mark.parametrize("quoted", [False, True], ids=["loadtxt", "csv-reader"])
    @pytest.mark.parametrize("ragged, got", [("s06,1", 2), ("s06,1,2,3,4", 5), ("s06", 1)])
    def test_ragged_row_anywhere_fails(self, tmp_path, forks, quoted, ragged, got):
        path, _, _ = self.matrix(tmp_path / "m.csv", quoted, n=12)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[7] = ragged
        write_text(path, "\n".join(lines))
        for rows in (None, lambda all_ids: [0, 1], lambda all_ids: []):
            with pytest.raises(SchemaError) as exc:
                read_matrix_csv(path, rows)
            assert str(exc.value) == f"{path} row 8: expected 4 cells, got {got}"
        # a bad cell before it fails only the reads that use its row
        lines[3] = lines[3].rsplit(",", 1)[0] + ",abc"
        write_text(path, "\n".join(lines))
        for rows in (lambda all_ids: [0, 1], lambda all_ids: []):
            with pytest.raises(SchemaError, match="row 8: expected 4 cells"):
                read_matrix_csv(path, rows)
        for rows in (None, lambda all_ids: [2]):
            with pytest.raises(InputError, match="row 4, column 'r2': cannot parse 'abc'"):
                read_matrix_csv(path, rows)
        assert_no_child_left()

    @pytest.mark.parametrize("quoted", [False, True], ids=["loadtxt", "csv-reader"])
    def test_repeated_id_fails_before_rows_are_chosen(self, tmp_path, quoted):
        path, ids, _ = self.matrix(tmp_path / "m.csv", quoted, n=12)
        text = path.read_text(encoding="utf-8")
        write_text(path, text + text.split("\n")[4] + "\n")
        calls = []
        with pytest.raises(InputError) as exc:
            read_matrix_csv(path, calls.append)
        assert str(exc.value) == f"{path}: duplicate id '{ids[3]}'"
        assert calls == []


def read_outcome(path, rows=None):
    """What read_matrix_csv(path, rows) gives: its ids, columns, value bits,
    shape and dtype, or the type and message of its error."""
    try:
        ids, columns, values = read_matrix_csv(path, rows)
    except Exception as exc:  # noqa: BLE001  (the error is the outcome)
        return type(exc), str(exc)
    return ids, columns, values.tobytes(), values.shape, values.dtype


def edit_cell(path):
    """Set the first value of row s3 of a matrix file to 7.25."""
    lines = path.read_text(encoding="utf-8").split("\n")
    k = next(i for i, line in enumerate(lines) if line.startswith("s3,"))
    lines[k] = "s3,7.25," + lines[k].split(",", 2)[2]
    write_text(path, "\n".join(lines))


def every_other_reversed(ids):
    return list(range(len(ids)))[::-2]


def sidecar_cases():
    """(ids, columns, values) by case name: matrices that read back as
    written, then four that do not, their names starting `nan-` or
    `repeated-`."""
    rng = np.random.default_rng(7)
    plain = [f"s{i}" for i in range(6)]
    values = rng.normal(size=(6, 3))
    edges = values.copy()
    edges[0] = [-0.0, np.inf, -np.inf]
    edges[1] = [5e-324, -2.5e-310, np.finfo(float).tiny / 3]
    with_nan = values.copy()
    with_nan[2, 1] = np.nan
    columns = ["r0", "r,1", "r2"]
    return {
        "quoted-ids": (
            ["a,b", 'q"uote', "cr\rid", "line\nbreak", "crlf\r\nid", "plain"], columns, values
        ),
        "plain-ids": (plain, ["r0", "r1", "r2"], values),
        "edge-values": (plain, ["r0", "r1", "r2"], edges),
        "one-row": (["only"], columns, values[:1]),
        "no-rows": ([], columns, values[:0]),
        "nan-cell": (plain, columns, with_nan),
        "repeated-id": (["s0", "s1", "s0", "s3", "s4", "s5"], columns, values),
        "repeated-id-text": ([1, "1", "s2", "s3", "s4", "s5"], columns, values),
        "repeated-column": (plain, ["r0", "r1", "r0"], values),
    }


SIDECAR_CASES = sidecar_cases()


class TestSidecar:
    """write_matrix_csvs writes `<file>.cache` beside each matrix CSV that
    reads back as written, and read_matrix_csv takes the matrix from it only
    while it records the digest of the CSV's bytes: a read with the sidecar
    gives what the same read gives without it, error included."""

    @pytest.mark.parametrize("case", list(SIDECAR_CASES))
    def test_read_with_sidecar_is_the_parsed_read(self, tmp_path, monkeypatch, forks, case):
        ids, columns, values = SIDECAR_CASES[case]
        clean = not case.startswith(("nan-", "repeated-"))
        path = tmp_path / "m.csv"
        sidecar = _sidecar_path(path)
        # a sidecar of an earlier, clean matrix at the same path
        write_matrix_csv(path, ["x"], ["a"], np.array([[1.0]]))
        assert sidecar.is_file()
        write_matrix_csv(path, ids, columns, values)
        assert sidecar.is_file() == clean
        used = self.spy(monkeypatch)
        cached = [read_outcome(path), read_outcome(path, every_other_reversed)]
        assert used == [clean, clean]
        if clean:
            sidecar.unlink()
        parsed = [read_outcome(path), read_outcome(path, every_other_reversed)]
        assert cached == parsed
        if clean:
            texts = [format_cell(sid) for sid in ids]
            assert parsed[0][:3] == (texts, columns, values.tobytes())
            assert parsed[1][0] == [texts[k] for k in every_other_reversed(ids)]
        else:
            assert issubclass(parsed[0][0], Exception)
        assert_no_child_left()

    @pytest.mark.parametrize("rows", [None, every_other_reversed], ids=["all-rows", "chosen"])
    def test_values_are_writable_and_c_contiguous(self, tmp_path, rows):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, ["a", "b", "c"], ["r0", "r1"], np.arange(6.0).reshape(3, 2))
        for _ in range(2):  # from the sidecar, then parsed
            values = read_matrix_csv(path, rows)[2]
            assert values.dtype == np.float64
            assert values.flags.writeable and values.flags.c_contiguous
            values[0, 0] = -1.0
            _sidecar_path(path).unlink(missing_ok=True)

    @staticmethod
    def spy(monkeypatch):
        """The results of read_matrix_csv's sidecar lookups: True where the
        sidecar was used."""
        used = []
        real = serialize._read_sidecar

        def lookup(path, data):
            found = real(path, data)
            used.append(found is not None)
            return found

        monkeypatch.setattr(serialize, "_read_sidecar", lookup)
        return used

    def spoiled(self, tmp_path, spoil):
        """A clean matrix file and its sidecar, with spoil(csv, sidecar)
        applied to them; returns the CSV path."""
        rng = np.random.default_rng(3)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, [f"s{i}" for i in range(8)], ["r0", "r1"], rng.normal(size=(8, 2)))
        spoil(path, _sidecar_path(path))
        return path

    def test_sidecar_is_used_when_it_matches(self, tmp_path, monkeypatch):
        used = self.spy(monkeypatch)
        path = self.spoiled(tmp_path, lambda csv_path, sidecar: None)
        read_matrix_csv(path)
        read_matrix_csv(path, every_other_reversed)
        assert used == [True, True]

    @pytest.mark.parametrize(
        "spoil",
        [
            # the CSV edited in one cell
            lambda csv_path, sidecar: edit_cell(csv_path),
            # the CSV's rows reordered
            lambda csv_path, sidecar: csv_path.write_text(
                "\n".join([(lines := csv_path.read_text().splitlines())[0], *lines[:0:-1]]) + "\n"
            ),
            # a sidecar one value short
            lambda csv_path, sidecar: sidecar.write_bytes(sidecar.read_bytes()[:-8]),
            # a sidecar with a byte past its payload
            lambda csv_path, sidecar: sidecar.write_bytes(sidecar.read_bytes() + b"\0"),
            # a sidecar that stops inside its JSON line
            lambda csv_path, sidecar: sidecar.write_bytes(sidecar.read_bytes()[:60]),
            # a sidecar of another format version
            lambda csv_path, sidecar: sidecar.write_bytes(
                sidecar.read_bytes().replace(b" 1\n", b" 2\n", 1)
            ),
            # a foreign file in the sidecar's place
            lambda csv_path, sidecar: sidecar.write_bytes(b"\x89PNG\r\n\x1a\n" * 100),
            # an empty sidecar
            lambda csv_path, sidecar: sidecar.write_bytes(b""),
            # a directory in the sidecar's place
            lambda csv_path, sidecar: (sidecar.unlink(), sidecar.mkdir()),
        ],
        ids=["edited-cell", "reordered-rows", "truncated-payload", "long-payload",
             "truncated-json", "other-version", "foreign-file", "empty", "directory"],
    )
    def test_any_mismatch_takes_the_parse_path(self, tmp_path, monkeypatch, spoil):
        path = self.spoiled(tmp_path, spoil)
        used = self.spy(monkeypatch)
        got = [read_outcome(path), read_outcome(path, every_other_reversed)]
        assert used == [False, False]
        # the parser's own result: the sidecar moved aside, none left to look up
        aside = tmp_path / "aside"
        _sidecar_path(path).rename(aside)
        assert [read_outcome(path), read_outcome(path, every_other_reversed)] == got
        assert used == [False] * 4

    def test_edited_csv_reads_its_new_value(self, tmp_path):
        path = self.spoiled(tmp_path, lambda csv_path, sidecar: edit_cell(csv_path))
        assert read_matrix_csv(path)[2][3, 0] == 7.25

    def test_no_digest_without_a_sidecar(self, tmp_path, monkeypatch):
        path = write_text(tmp_path / "m.csv", "id,a,b\nx,1,2\ny,3,4\n")
        calls = []
        real = hashlib.sha256

        def sha256(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(hashlib, "sha256", sha256)
        read_matrix_csv(path)
        read_matrix_csv(path, lambda all_ids: [1])
        assert calls == []

    def test_sidecar_bytes(self, tmp_path, forks):
        files = matrix_files(tmp_path)
        # no NaN, so that each reads back and has a sidecar
        files = [(path, ids, columns, np.nan_to_num(values, nan=0.5))
                 for path, ids, columns, values in files]
        write_matrix_csvs(files)
        for path, ids, columns, values in files:
            blob = _sidecar_path(path).read_bytes()
            magic, meta, payload = blob.split(b"\n", 2)
            assert magic + b"\n" == serialize._SIDECAR_MAGIC
            assert json.loads(meta) == {
                "columns": columns,
                "csv_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                "ids": ids,
            }
            assert meta == json.dumps(json.loads(meta), sort_keys=True).encode("ascii")
            assert payload == values.astype("<f8").tobytes()
            # the same matrix written again gives the same bytes
            again = tmp_path / "again.csv"
            write_matrix_csv(again, ids, columns, values)
            assert _sidecar_path(again).read_bytes() == blob
        assert_no_child_left()

    def test_failed_write_leaves_no_sidecar(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, ["a", "b"], ["r0"], np.zeros((2, 1)))

        class Unprintable:
            def __str__(self):
                raise RuntimeError("no text for this id")

        with pytest.raises(RuntimeError):
            write_matrix_csv(path, ["a", Unprintable()], ["r0"], np.zeros((2, 1)))
        assert not _sidecar_path(path).exists()
