"""Deterministic JSON and CSV writers, and the id-keyed matrix CSV reader.

Model bundles must survive a save/load round trip bit-for-bit, so every float
is written with enough decimal digits to reconstruct the exact IEEE-754 double:
JSON values use 17 significant digits, CSV cells use repr() (shortest exact
form). Nothing here writes timestamps or other run-dependent noise.

CSV contract. Written files are exactly what `csv.writer` (lineterminator
"\n") writes for the `format_cell` text of each cell: a missing value or NaN
is an empty cell, and only a cell containing a comma, a double quote or a line
break is quoted. The one exception is csv.writer's own: on Python 3.11 it
leaves a cell that holds a CR but no LF unquoted, so such an id or name is
written bare and the file does not read back. `read_matrix_csv` accepts what
`csv.reader` splits and what `float()` parses: blank lines are skipped, CRLF
and quoted cells are allowed, and `1_0` or ` 1.5 ` parse as float() parses
them. Rows are formatted and parsed a whole row or file at a time, not cell by
cell.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import InputError, SchemaError


def format_float17(x: float) -> str:
    """Decimal text with 17 significant digits; parses back to the same double."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite value cannot be serialized: {x!r}")
    return format(float(x), ".16e")


def _render(obj: Any, indent: int, level: int) -> str:
    # stdlib json hardcodes float.__repr__ in both encoders, so floats are
    # rendered here to guarantee the 17-significant-digit contract
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float17(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        pad = " " * (indent * (level + 1))
        inner = (",\n" + pad).join(_render(v, indent, level + 1) for v in obj)
        return "[\n" + pad + inner + "\n" + " " * (indent * level) + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = " " * (indent * (level + 1))
        items = (",\n" + pad).join(
            f"{json.dumps(str(k))}: {_render(v, indent, level + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + pad + items + "\n" + " " * (indent * level) + "}"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dump_json(obj: Any, path: str | Path, indent: int = 2) -> None:
    """Write obj as JSON with floats at 17 significant digits."""
    Path(path).write_text(_render(obj, indent, 0) + "\n", encoding="utf-8")


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
    """Write a header and rows; bytes equal csv.writer over format_cell text.

    csv.writer changes a row only when a cell holds a comma, a quote or a
    line break, or when the row is one empty cell; every other row is joined
    directly, which costs far less than csv.writer's per-cell quoting scan.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in itertools.chain([header], rows):
            cells = [format_cell(v) for v in row]
            line = ",".join(cells)
            if (
                line
                and line.count(",") == len(cells) - 1
                and not any(c in line for c in '"\r\n')
            ):
                fh.write(line + "\n")
            else:
                writer.writerow(cells)


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


def read_matrix_csv(path: str | Path) -> tuple[list[str], list[str], np.ndarray]:
    """Read an id-keyed numeric matrix; returns (ids, columns, values).

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
            return ids, columns, values
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
    return [row[0] for _, row in rows], columns, values.reshape(len(rows), len(columns))


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
