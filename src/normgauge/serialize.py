"""Deterministic CSV writers, the id-keyed matrix CSV reader, and the
forked chunks they and the fits run in.

The JSON and file helpers (dump_json, load_json, read_bytes, read_text,
decode_text) live in _textio, which imports no numpy so that `report` need
not load it; they are re-exported here.

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
them. Rows are formatted a whole row and parsed a whole chunk of rows at a
time, not cell by cell. A reader may choose the rows it parses (the rows
argument): every row's id and cell count is still read, so a repeated id or
a short or long row anywhere still fails, but a cell of a row not chosen is
never parsed.

Sidecars. So that a matrix this package wrote is parsed only once,
write_matrix_csvs writes `<file>.cache` beside each matrix CSV that reads
back as it was given (ids and column names unique as text, no NaN) and
deletes any old one beside any other. It holds the SHA-256 of the CSV's bytes,
hashed as they are written, the ids and columns as text, and the values as
raw little-endian float64. read_matrix_csv takes a file's matrix from its
sidecar only where the sidecar is whole and records the digest of the bytes
it has just read; an edited, reordered or rewritten CSV, or a sidecar that is
truncated or foreign, is parsed as below with the same result and the same
errors. A CSV with no sidecar costs no digest (unless read inside
_textio.recorded_digests, whose digest the sidecar check then reuses), and
deleting a sidecar is always safe.

Matrix files are formatted and parsed in one contiguous chunk of rows per
usable CPU (_chunk_ranges). On Linux with two or more usable CPUs, every
chunk after the first runs in a forked child (_forked_iter) while the caller
runs the first; elsewhere, or while another Python thread runs, the one chunk
runs in-process. write_matrix_csvs cuts the rows of all its files as one
sequence and writes each file's header and then the chunks' text in order.
read_matrix_csv finds every row by offsets into the text, cuts the rows it
parses, parses each chunk with np.loadtxt, and reads the whole file serially
if any chunk fails. The same helpers split the region fits of blr and the
(fold, class) binary fits of classify. Every forked iteration runs one way:
OpenBLAS runs on one thread while it lasts, and each part is held to a
usable CPU of its own, but only where OpenBLAS is found and runs on one
thread (_forked_iter). No option selects either way, a forked child never
forks again, and the cut changes no byte written, no value read and no error
raised.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import ctypes
import functools
import hashlib
import itertools
import json
import math
import os
import pickle
import signal
import sys
import threading
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from ._textio import (  # noqa: F401  (serialize's API)
    decode_text,
    dump_json,
    load_json,
    read_bytes,
    read_text,
    sha256_of,
)
from .errors import InputError, SchemaError


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
    """Write a header and rows of format_cell text, quoting as csv.writer does."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for row in itertools.chain([header], rows):
            fh.write(_csv_line([format_cell(v) for v in row]))


def _csv_line(cells: list[str]) -> str:
    """One CSV line of cell texts, newline included, quoted as csv.writer quotes.

    A cell holding a comma, a quote, a CR or an LF is quoted, its quotes
    doubled, and a row of one empty cell is written `""` so that it does not
    read back as a blank line. Rows without such cells are joined directly.
    """
    line = ",".join(cells)
    if line.count(",") != len(cells) - 1 or any(c in line for c in '"\r\n'):
        line = ",".join(map(_quoted, cells))
    elif cells == [""]:
        line = '""'
    return line + "\n"


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
    """Write an id-keyed numeric matrix: header `id,<col>,...`, one row per id.

    This is write_matrix_csvs of one file.
    """
    write_matrix_csvs([(path, ids, columns, values)])


def write_matrix_csvs(
    files: Sequence[tuple[str | Path, Sequence[str], Sequence[str], np.ndarray]],
) -> list[str]:
    """Write each (path, ids, columns, values) as an id-keyed numeric matrix;
    return the SHA-256 hex digest of each file's bytes, in order.

    Each file holds write_csv's bytes for its header `id,<col>,...` and one
    row per id. The rows of all files are one sequence, cut into one
    contiguous chunk per usable CPU (_chunk_ranges). Each chunk formats its
    rows to text, every chunk after the first in a forked child
    (_forked_iter), and this process writes each file's header and then the
    chunks' text in order, each chunk as it arrives. Once a file is written,
    its sidecar follows (_write_sidecar); any older sidecar is deleted as the
    file is opened. Where a file's values do not match its ids and columns,
    the files before it are written and then its ValueError is raised, as
    writing the files one by one would.
    """
    matrices: list[tuple[str | Path, Sequence[str], Sequence[str], np.ndarray]] = []
    error = None  # a bad file's error, raised once the files before it are written
    for path, ids, columns, values in files:
        try:
            values = np.asarray(values, dtype=float)
            if values.shape != (len(ids), len(columns)):
                raise ValueError(
                    f"matrix shape {values.shape} does not match "
                    f"{len(ids)} ids x {len(columns)} columns"
                )
        except (TypeError, ValueError) as exc:
            error = exc
            break
        matrices.append((path, ids, columns, values))
    starts = list(itertools.accumulate((len(ids) for _, ids, _, _ in matrices), initial=0))

    def format_rows(chunk: range) -> list[tuple[int, bytearray]]:
        """(row count, text) of each file's share of the chunk, in file order."""
        texts = []
        for (_, ids, columns, values), start, stop in zip(matrices, starts, starts[1:]):
            lo, hi = max(chunk.start, start) - start, min(chunk.stop, stop) - start
            if lo < hi:
                # row by row, so that only the text itself grows with the chunk.
                # repr is format_cell's text of every float but NaN, whose
                # "nan" is emptied, and no number is ever quoted
                nan = bool(np.isnan(values[lo:hi]).any())
                text = bytearray()
                for sid, row in zip(ids[lo:hi], values[lo:hi]):
                    line = _quoted(format_cell(sid))
                    if columns:
                        cells = ",".join(map(repr, row.tolist()))
                        line += "," + (cells.replace("nan", "") if nan else cells)
                    elif not line:  # a lone empty id, written "" so it is not a blank line
                        line = '""'
                    text += (line + "\n").encode("utf-8")
                texts.append((hi - lo, text))
        return texts

    digests = []
    chunks = _forked_iter(format_rows, _chunk_ranges(starts[-1]))
    with contextlib.closing(chunks):
        pending: collections.deque[tuple[int, bytearray]] = collections.deque()
        for path, ids, columns, values in matrices:
            sidecar = _sidecar_path(path)
            digest = hashlib.sha256()
            with open(path, "wb") as fh:
                # a sidecar of the file's old bytes goes before any new byte lands
                sidecar.unlink(missing_ok=True)
                header = _csv_line([format_cell(v) for v in ["id", *columns]]).encode("utf-8")
                fh.write(header)
                digest.update(header)
                unwritten = len(ids)
                while unwritten:
                    if not pending:
                        pending.extend(next(chunks))
                    rows, text = pending.popleft()
                    fh.write(text)
                    digest.update(text)
                    unwritten -= rows
                    del text  # written: not held while the next chunk arrives
            digests.append(digest.hexdigest())
            _write_sidecar(sidecar, digests[-1], ids, columns, values)
    if error is not None:
        raise error
    return digests


# the first bytes of a sidecar: a format change takes a new number, so that an
# older sidecar is never read as a newer one
_SIDECAR_MAGIC = b"normgauge matrix sidecar 1\n"


def _sidecar_path(path: str | Path) -> Path:
    """The sidecar of a matrix CSV: `<file>.cache` beside it."""
    path = Path(path)
    return path.with_name(path.name + ".cache")


def _write_sidecar(
    path: Path, csv_sha256: str, ids: Sequence[str], columns: Sequence[str], values: np.ndarray
) -> None:
    """Write the sidecar of a matrix CSV whose bytes have the SHA-256 digest
    csv_sha256, if the CSV reads back as (ids, columns, values): its ids and
    its column names are unique as text, and no value is NaN, which is written
    as an empty cell.

    The sidecar is the magic line, one line of JSON with sorted keys (the
    digest and the format_cell text of the ids and columns), and the values
    as little-endian float64 in row-major order, so the same matrix always
    gives the same bytes.
    """
    ids = [format_cell(sid) for sid in ids]
    columns = [format_cell(col) for col in columns]
    if len(set(ids)) < len(ids) or len(set(columns)) < len(columns) or np.isnan(values).any():
        return
    meta = json.dumps({"columns": columns, "csv_sha256": csv_sha256, "ids": ids}, sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(_SIDECAR_MAGIC + meta.encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(values, dtype="<f8").data)


def _read_sidecar(path: Path, data: bytes) -> tuple[list[str], list[str], np.ndarray] | None:
    """The (ids, columns, values) that the sidecar of the matrix CSV at path
    holds, if it opens, starts with the magic line, records the SHA-256 of
    data, the CSV's bytes, and holds exactly the payload its ids and columns
    call for; else None. Where no sidecar opens, no digest is taken. The
    values are writable and C-contiguous."""
    try:
        fh = open(_sidecar_path(path), "rb")
    except OSError:
        return None
    with fh:
        if fh.read(len(_SIDECAR_MAGIC)) != _SIDECAR_MAGIC:
            return None
        try:
            meta = json.loads(fh.readline())
            ids, columns, recorded = meta["ids"], meta["columns"], meta["csv_sha256"]
        except (ValueError, TypeError, KeyError):
            return None
        if (
            recorded != sha256_of(path, data)
            or type(ids) is not list
            or type(columns) is not list
            or not all(type(text) is str for text in itertools.chain(ids, columns))
        ):
            return None
        size = 8 * len(ids) * len(columns)
        if os.fstat(fh.fileno()).st_size - fh.tell() != size:
            return None
        payload = bytearray(size)
        if fh.readinto(payload) != size:
            return None
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64, copy=False)
    return ids, columns, values.reshape(len(ids), len(columns))


# set in a forked child, so that it never forks again
_in_forked_child = False


def _fork_slots() -> int:
    """How many forked parts may run at once: the usable CPUs on Linux while
    no other Python thread runs, else 1. A forked child never forks again."""
    # forking with other threads running can deadlock the child on a lock
    # one of them held
    if _in_forked_child or not sys.platform.startswith("linux") or threading.active_count() != 1:
        return 1
    return len(os.sched_getaffinity(0))


@functools.cache
def _openblas_threads() -> tuple[Any, Any] | None:
    """The get and set functions of the thread count of the OpenBLAS loaded in
    this process, or None where none is found (another BLAS, or no Linux
    /proc/self/maps).

    Looked up once per process: numpy, imported above, has loaded its BLAS
    by the first call, and the lookup reads /proc/self/maps and opens the
    library, up to a few milliseconds that every forked iteration would
    otherwise pay.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            # a line that names a file ends in its path, the sixth field
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # the names of the reference build, its 64-bit-integer build, and the
        # scipy-openblas build that numpy's wheels bundle
        for name in ("openblas_{}_num_threads", "openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads"):
            try:
                get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[bool]:
    """Run the body with OpenBLAS, where _openblas_threads finds it, on one
    thread; yield whether it runs on one thread, False where none is found.

    For forked parts (_forked_iter): they run side by side, one per usable
    CPU, and if each also spread its matrix products over every CPU, the
    threads of one product, which wait for each other, would compete for the
    CPUs with those of the other parts. Forked classifier fits ran up to ten
    times slower so. The products that run under it split their outputs, not
    their sums, across BLAS threads, so the thread count changes no result.
    """
    blas = _openblas_threads()
    if blas is None:
        yield False
        return
    get, set_ = blas
    threads = get()
    set_(1)
    try:
        yield get() == 1
    finally:
        set_(threads)


def _chunk_ranges(n: int) -> list[range]:
    """range(n) cut into min(_fork_slots(), n) contiguous, non-empty ranges,
    sized as np.array_split sizes them; none for n = 0."""
    k = min(_fork_slots(), n)
    if k < 1:
        return []
    size, extra = divmod(n, k)
    bounds = [i * size + min(i, extra) for i in range(k + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _set_cpus(cpus: set[int]) -> None:
    """Hold this thread to the given CPUs, where the system lets it."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cpus)


def _forked_iter(fn: Callable[[Any], Any], parts: Sequence) -> Iterator:
    """Yield fn(part) for each part in order, the parts after the first
    computed in forked children.

    With two or more parts and _fork_slots() of at least 2, each part after
    the first runs in a forked child that pickles fn's result into a pipe and
    always ends in os._exit, while this process runs the first part. A
    result is unpickled straight from its pipe, and each pipe is read to its
    end before its child is reaped, since a result can exceed the pipe's
    buffer. A pipe is read only when its result is asked for, so the caller
    can write one result away before the next is read. A part whose child
    exits non-zero runs again in this process, so its error is raised as an
    in-process call raises it. No child outlives the iteration, whether it
    ends, raises or is closed. Otherwise every part runs in this process, one
    after another, at the BLAS thread count and on the CPUs it found.

    Every forked iteration runs one way, whatever its parts compute. For the
    whole iteration, OpenBLAS runs on one thread (_one_blas_thread), and the
    children inherit that. Where it does, each part is also held to a usable
    CPU of its own, this process's on the first and child k's on the k-th:
    left to itself, the scheduler at times keeps a new child on its parent's
    CPU for the whole of a part of a few tenths of a second while another CPU
    idles, and both run at half speed. Where no OpenBLAS is found, no part is
    pinned, since a BLAS that starts threads of its own would crowd them onto
    the one CPU of its part. This process gets back its CPUs and its BLAS
    thread count as the iteration ends, raises or is closed.
    """
    global _in_forked_child
    if len(parts) < 2 or _fork_slots() < 2:
        for part in parts:
            yield fn(part)
        return
    usable = os.sched_getaffinity(0)
    children: list[tuple[int, Any, Any]] = []  # pid, read end of its pipe, part
    with _one_blas_thread() as one_thread:
        cpus = sorted(usable) if one_thread and len(parts) <= len(usable) else []
        try:
            if cpus:
                _set_cpus({cpus[0]})
            for k, part in enumerate(parts[1:], 1):
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
                        _in_forked_child = True
                        os.close(read_fd)
                        if cpus:
                            _set_cpus({cpus[k]})
                        with open(write_fd, "wb") as pipe:
                            pickle.dump(fn(part), pipe, pickle.HIGHEST_PROTOCOL)
                        code = 0
                    finally:
                        os._exit(code)
                os.close(write_fd)
                children.append((pid, open(read_fd, "rb"), part))
            yield fn(parts[0])
            while children:
                pid, pipe, part = children[0]
                with pipe:
                    try:
                        result = pickle.load(pipe)
                    except (EOFError, pickle.UnpicklingError):  # the child ended early
                        result = None
                    pipe.read()
                status = os.waitpid(pid, 0)[1]
                children.pop(0)
                if os.waitstatus_to_exitcode(status) != 0:
                    result = fn(part)
                yield result
                del result  # the caller's now: not held while the next pipe is read
        finally:
            for pid, _, _ in children:
                os.kill(pid, signal.SIGKILL)
            for pid, pipe, _ in children:
                pipe.close()
                os.waitpid(pid, 0)
            if cpus:
                _set_cpus(usable)


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


def read_matrix_csv(
    path: str | Path, rows: Callable[[list[str]], Sequence[int]] | None = None
) -> tuple[list[str], list[str], np.ndarray]:
    """Read an id-keyed numeric matrix; returns (ids, columns, values).

    A repeated id raises InputError naming it, and so does a missing file,
    one that cannot be read, or one that is not UTF-8 (see read_text).

    rows, where given, chooses the rows to parse: it is called once with
    every row's id in file order, after the ids are known to be unique, and
    returns the indices of the rows wanted. The ids and values returned are
    those rows' in that order. Every row's id and cell count is still read,
    so a short or long row anywhere raises, but a cell of a row not chosen is
    never parsed. Without rows, every row is parsed, in file order.

    Where the file's sidecar (written by write_matrix_csvs) records the
    SHA-256 of the bytes just read, the ids, columns and values are taken
    from it and nothing is parsed: those bytes parse to exactly them. Any
    other file is parsed as follows.

    Without quotes the file splits on line breaks, each row's id ends at its
    first comma, and each row must hold as many commas as the header has
    columns; the scan keeps offsets into the text, not copies of its lines.
    The chosen rows are cut into one chunk per usable CPU, and np.loadtxt
    parses each, every chunk after the first in a forked child (_forked_iter);
    it accepts a subset of what float() accepts and returns the same doubles.
    Any other file, or one with a ragged row or a chunk np.loadtxt rejects,
    is read whole by csv.reader and its chosen rows parsed with float()
    semantics in one array conversion, which raises the first ragged row, or
    bad cell of a chosen row, in file order.
    """
    path = Path(path)
    data = read_bytes(path)
    cached = _read_sidecar(path, data)
    if cached is not None:
        ids, columns, values = cached
        chosen = _chosen_rows(path, ids, rows)
        if rows is not None:
            values = values[chosen]
        return _chosen_ids(path, ids, chosen, rows), columns, values
    text = decode_text(path, data)
    del data
    chosen = None
    if not any(c in text for c in _CSV_READER_ONLY):
        header, _, body = text.replace("\r\n", "\n").replace("\r", "\n").partition("\n")
        del text
        columns = _matrix_columns(path, header.split(","))
        lines = _scan_lines(body, len(columns)) if columns else None
        if lines is not None:
            ids = [body[start:comma] for start, comma, _ in lines]
            chosen = _chosen_rows(path, ids, rows)
            parts = list(_forked_iter(
                lambda part: _parse_rows(body, [lines[k] for k in part]),
                [chosen[r.start:r.stop] for r in _chunk_ranges(len(chosen))],
            ))
            if all(part is not None for part in parts):
                values = np.concatenate(parts) if parts else np.empty((0, len(columns)))
                return _chosen_ids(path, ids, chosen, rows), columns, values
    return _read_csv_rows(path, rows, chosen)


def _scan_lines(text: str, n_commas: int) -> list[tuple[int, int, int]] | None:
    """The (start, first comma, stop) offsets of each non-blank line of text,
    or None where a line does not hold n_commas commas."""
    lines = []
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start)
        if stop < 0:
            stop = end
        if stop > start:
            if text.count(",", start, stop) != n_commas:
                return None
            lines.append((start, text.find(",", start, stop), stop))
        start = stop + 1
    return lines


def _chosen_rows(
    path: Path, ids: list[str], rows: Callable[[list[str]], Sequence[int]] | None
) -> Sequence[int]:
    """The indices of the rows to parse: every row, or rows(ids) once the ids
    are known to be unique."""
    return range(len(ids)) if rows is None else list(rows(_unique_ids(path, ids)))


def _chosen_ids(
    path: Path, ids: list[str], chosen: Sequence[int], rows: Callable | None
) -> list[str]:
    """The ids of the parsed rows; a full read checks its ids only now, after
    its cells, as it always has."""
    return _unique_ids(path, ids) if rows is None else [ids[k] for k in chosen]


def _parse_rows(text: str, lines: list[tuple[int, int, int]]) -> np.ndarray | None:
    """The values of the given (start, first comma, stop) lines of text, each
    holding the header's comma count, or None where np.loadtxt does not read
    every cell as a number."""
    tails = [text[comma + 1:stop] for _, comma, stop in lines]
    if "" in tails:
        return None
    try:
        return np.loadtxt(tails, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None


def _read_csv_rows(
    path: Path,
    rows: Callable[[list[str]], Sequence[int]] | None = None,
    chosen: Sequence[int] | None = None,
) -> tuple[list[str], list[str], np.ndarray]:
    """read_matrix_csv by csv.reader; chosen, where the caller has already
    called rows, holds the indices it returned."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        columns = _matrix_columns(path, header)
        records = [(line_no, row) for line_no, row in enumerate(reader, start=2) if row]
    ids = [row[0] for _, row in records]
    if chosen is None:
        chosen = _chosen_rows(path, ids, rows)
    try:
        if any(len(row) != len(header) for _, row in records):
            raise ValueError("ragged row")
        values = np.array([records[k][1][1:] for k in chosen], dtype=float)
    except ValueError:
        _raise_first_bad_row(path, columns, records, set(chosen))
        raise
    ids = _chosen_ids(path, ids, chosen, rows)
    return ids, columns, values.reshape(len(chosen), len(columns))


def _raise_first_bad_row(path: Path, columns: list[str], records, used: set[int]) -> None:
    """Raise the error of the first ragged row, or unparsable cell of a used
    row, in file order."""
    for k, (line_no, row) in enumerate(records):
        if len(row) != len(columns) + 1:
            raise SchemaError(
                f"{path} row {line_no}: expected {len(columns) + 1} cells, got {len(row)}"
            )
        if k not in used:
            continue
        for col_name, cell in zip(columns, row[1:]):
            try:
                float(cell)
            except ValueError:
                raise InputError(
                    f"{path} row {line_no}, column '{col_name}': "
                    f"cannot parse '{cell}' as a number"
                ) from None
