"""Deterministic JSON and CSV writers, and the id-keyed matrix CSV reader.

Model bundles must survive a save/load round trip bit-for-bit, so every float,
in JSON and in CSV alike, is written as repr() writes it: the shortest text
that reads back to the same IEEE-754 double. Nothing here writes timestamps or
other run-dependent noise.

CSV contract. Written files are what `csv.writer` (lineterminator "\n")
writes for the `format_cell` text of each cell: a missing value or NaN is an
empty cell, and only a cell containing a comma, a double quote, a CR or an LF
is quoted. The one difference is a cell that holds a CR but no LF: Python
3.11's csv.writer leaves it bare, so its file would not read back, and here it
is quoted like any other line break. `read_matrix_csv` accepts what
`csv.reader` splits and what `float()` parses: blank lines are skipped, CRLF
and quoted cells are allowed, and `1_0` or ` 1.5 ` parse as float() parses
them. Rows are formatted and parsed a whole row or file at a time, not cell by
cell.

write_matrix_csvs writes several matrices with the same bytes. On Linux with
two or more usable CPUs it writes them at the same time, one per forked
child besides the first, which the caller writes; elsewhere it writes them
in-process one after the other. The fork helper behind it, _forked_map, also
splits the region fits of blr across the usable CPUs. No option selects
either way, and neither changes a byte of output.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import pickle
import signal
import sys
import threading
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import InputError, SchemaError


def _plain(obj: Any) -> Any:
    """json.dumps' fallback: a numpy array or scalar as its Python value."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dump_json(obj: Any, path: str | Path) -> None:
    """Write obj as indented JSON; floats are repr text, NaN and inf raise ValueError."""
    text = json.dumps(obj, indent=2, allow_nan=False, default=_plain)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_json(path: str | Path) -> Any:
    path = Path(path)
    if not path.exists():
        raise InputError(f"file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None


def format_cell(value: Any) -> str:
    """Canonical CSV cell text: repr for floats, empty string for missing."""
    if type(value) is float:
        return repr(value) if value == value else ""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return "" if math.isnan(v) else repr(v)
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write a header and rows of format_cell text, quoting as csv.writer does.

    A cell holding a comma, a quote, a CR or an LF is quoted, its quotes
    doubled, and a row of one empty cell is written `""` so that it does not
    read back as a blank line. Rows without such cells are joined directly.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for row in itertools.chain([header], rows):
            cells = [format_cell(v) for v in row]
            line = ",".join(cells)
            if line.count(",") != len(cells) - 1 or any(c in line for c in '"\r\n'):
                line = ",".join(map(_quoted, cells))
            elif cells == [""]:
                line = '""'
            fh.write(line + "\n")


def _quoted(cell: str) -> str:
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_matrix_csv(
    path: str | Path,
    ids: Sequence[str],
    columns: Sequence[str],
    values: np.ndarray,
) -> None:
    """Write an id-keyed numeric matrix: header `id,<col>,...`, one row per id."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(ids), len(columns)):
        raise ValueError(
            f"matrix shape {values.shape} does not match "
            f"{len(ids)} ids x {len(columns)} columns"
        )
    write_csv(
        path, ["id", *columns], ([sid, *row] for sid, row in zip(ids, values.tolist()))
    )


def write_matrix_csvs(
    files: Sequence[tuple[str | Path, Sequence[str], Sequence[str], np.ndarray]],
) -> None:
    """Write each (path, ids, columns, values) as write_matrix_csv writes it.

    The files are written through _forked_map: where it forks, every file
    after the first is written by a forked child while this process writes
    the first, so the files are formatted at the same time. A file whose
    child fails is written again in this process, which raises that write's
    own error. Either way the bytes are those of write_matrix_csv.
    """
    _forked_map(lambda file: write_matrix_csv(*file), files)


def _fork_slots() -> int:
    """How many forked parts may run at once: the usable CPUs on Linux while
    no other Python thread runs, else 1."""
    # forking with other threads running can deadlock the child on a lock
    # one of them held
    if not sys.platform.startswith("linux") or threading.active_count() != 1:
        return 1
    return len(os.sched_getaffinity(0))


def _forked_map(fn: Callable[[Any], Any], parts: Sequence) -> list:
    """[fn(part) for part in parts], the parts after the first in forked children.

    With two or more parts and _fork_slots() of at least 2, each part after
    the first runs in a forked child that pickles fn's result into a pipe and
    always ends in os._exit, while this process runs the first part. Each
    pipe is read to its end before its child is reaped, since a result can
    exceed the pipe's buffer. A part whose child fails runs again in this
    process, so its error is raised as an in-process call raises it. No
    child outlives the call, whether it returns or raises. Otherwise every
    part runs in this process, one after another.
    """
    if len(parts) < 2 or _fork_slots() < 2:
        return [fn(part) for part in parts]
    children: list[tuple[int, Any, Any]] = []  # pid, read end of its pipe, part
    try:
        for part in parts[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                # the child never returns into the caller's stack: whatever
                # happens, it ends here without running exit handlers
                code = 1
                try:
                    os.close(read_fd)
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(fn(part), pipe, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb"), part))
        results = [fn(parts[0])]
        while children:
            pid, pipe, part = children[0]
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            if os.waitstatus_to_exitcode(status) == 0:
                results.append(pickle.loads(payload))
            else:
                results.append(fn(part))
    except BaseException:
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        for pid, pipe, _ in children:
            pipe.close()
            os.waitpid(pid, 0)
        raise
    return results


# characters that send a file to the csv.reader path: a quote changes how
# cells split, and np.loadtxt strips \x1c-\x1f as whitespace where float()
# rejects them
_CSV_READER_ONLY = ('"', "\x1c", "\x1d", "\x1e", "\x1f")


def _matrix_columns(path: Path, header: list[str]) -> list[str]:
    if not header or header[0] != "id":
        raise SchemaError(f"{path}: expected header starting with 'id'")
    columns = header[1:]
    if len(set(columns)) != len(columns):
        raise SchemaError(f"{path}: duplicate column names in header")
    return columns


def _unique_ids(path: Path, ids: list[str]) -> list[str]:
    """ids, or InputError naming the first id that a later row repeats."""
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for sid in ids:
            if sid in seen:
                raise InputError(f"{path}: duplicate id '{sid}'")
            seen.add(sid)
    return ids


def read_matrix_csv(path: str | Path) -> tuple[list[str], list[str], np.ndarray]:
    """Read an id-keyed numeric matrix; returns (ids, columns, values).

    A repeated id raises InputError naming it.

    Without quotes the file splits on line breaks and each row's id at its
    first comma, and np.loadtxt parses all cells in one pass; it accepts a
    subset of what float() accepts and returns the same doubles. Any other
    file, or one np.loadtxt rejects, is read by csv.reader and parsed with
    float() semantics in one array conversion, which raises the first bad
    row or cell in file order.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    if any(c in text for c in _CSV_READER_ONLY):
        return _read_csv_rows(path)
    # each stage of the split is dropped once the next exists: a matrix file
    # can be tens of MB, and its text would otherwise stay alive three times
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    del text
    columns = _matrix_columns(path, lines[0].split(","))
    split = [line.partition(",") for line in lines[1:] if line]
    del lines
    ids = [sid for sid, _, _ in split]
    tails = [tail for _, _, tail in split]
    if columns and tails and "" not in tails:
        try:
            values = np.loadtxt(tails, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            values = None
        if values is not None and values.shape == (len(ids), len(columns)):
            return _unique_ids(path, ids), columns, values
    return _read_csv_rows(path)


def _read_csv_rows(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        columns = _matrix_columns(path, header)
        rows = [(line_no, row) for line_no, row in enumerate(reader, start=2) if row]
    try:
        if any(len(row) != len(header) for _, row in rows):
            raise ValueError("ragged row")
        values = np.array([row[1:] for _, row in rows], dtype=float)
    except ValueError:
        _raise_first_bad_row(path, columns, rows)
        raise
    ids = _unique_ids(path, [row[0] for _, row in rows])
    return ids, columns, values.reshape(len(rows), len(columns))


def _raise_first_bad_row(path: Path, columns: list[str], rows) -> None:
    """Raise the error of the first ragged row or unparsable cell, in file order."""
    for line_no, row in rows:
        if len(row) != len(columns) + 1:
            raise SchemaError(
                f"{path} row {line_no}: expected {len(columns) + 1} cells, got {len(row)}"
            )
        for col_name, cell in zip(columns, row[1:]):
            try:
                float(cell)
            except ValueError:
                raise InputError(
                    f"{path} row {line_no}, column '{col_name}': "
                    f"cannot parse '{cell}' as a number"
                ) from None
