"""Deterministic CSV writers, the id-keyed matrix CSV reader, and the
forked chunks they and the fits run in.

The JSON and file helpers (dump_json, load_json, read_bytes, read_text,
decode_text) live in _textio, which imports no numpy so that `report` need
not load it; they are re-exported here.

Model bundles must survive a save/load round trip bit-for-bit, so every float,
in JSON and in CSV alike, is written as repr() writes it: the shortest text
that reads back to the same IEEE-754 double. Nothing here writes timestamps or
other run-dependent noise.

Float text. The cells of a matrix CSV (write_matrix_csv) and of classify's
ROC points are formatted by _float_rows, a block of cells at a time, and its
bytes are exactly `",".join(map(repr, row))` with NaN emptied. A cell that
repr writes in fixed notation (1e-4 <= |x| < 1e16) takes an exact vectorized
path: its shortest round-trip digits are found in integer and double
arithmetic whose every step is exact (_shortest_digits), and laid out with
the sign, the '.' and any zero padding as repr lays them out. A cell outside
that range, or one the exact path cannot decide, is repr's own text
(_repr_cells). The bytes are the same either way; only the time differs.

CSV contract. Written files are what `csv.writer` (lineterminator "\n")
writes for the `format_cell` text of each cell: a missing value or NaN is an
empty cell, and only a cell containing a comma, a double quote, a CR or an LF
is quoted. The one difference is a cell that holds a CR but no LF: Python
3.11's csv.writer leaves it bare, so its file would not read back, and here it
is quoted like any other line break. `read_matrix_csv` accepts what
`csv.reader` splits and what `float()` parses: blank lines are skipped, CRLF
and quoted cells are allowed, and `1_0` or ` 1.5 ` parse as float() parses
them. Rows are formatted a block of rows and parsed a whole chunk of rows at a
time, not cell by cell. A reader may choose the rows it parses (the rows
argument): every row's id and cell count is still read, so a repeated id or
a short or long row anywhere still fails, but a cell of a row not chosen is
never parsed.

Sidecars. So that a matrix this package wrote is parsed only once,
write_matrix_csv writes `<file>.cache` beside each matrix CSV that reads
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
runs in-process. write_matrix_csv writes one file: its header and then
each chunk's text in order, as it arrives. read_matrix_csv finds every row
by offsets into the text, cuts the rows it parses, parses each chunk with
np.loadtxt, and reads the whole file serially if any chunk fails. The same
helpers split the region fits of blr and the (fold, class) binary fits of
classify. Every forked iteration runs one way: OpenBLAS runs on one thread
while it lasts, and each part is held to a usable CPU of its own, but only
where OpenBLAS is found and runs on one thread (_forked_iter). No option
selects either way, a forked child never forks again, and the cut changes no
byte written, no value read and no error raised.
"""

from __future__ import annotations

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
) -> str:
    """Write an id-keyed numeric matrix: header `id,<col>,...`, one row per id;
    return the SHA-256 hex digest of the file's bytes.

    The file holds write_csv's bytes for that header and rows. Where values
    do not match the ids and columns, ValueError is raised before anything is
    written. The rows are cut into one contiguous chunk per usable CPU
    (_chunk_ranges), each chunk formats its rows to text, every chunk after
    the first in a forked child (_forked_iter). A chunk's cells are made by
    _float_rows a block at a time (see Float text above): each is repr's
    text of its value, NaN empty, the same bytes as a repr of each cell
    gives. This process writes the header and then each chunk's text as it
    arrives, hashing the bytes as it writes them. Any older sidecar is
    deleted as the file is opened, and the new one (_write_sidecar) follows
    the last row.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(ids), len(columns)):
        raise ValueError(
            f"matrix shape {values.shape} does not match "
            f"{len(ids)} ids x {len(columns)} columns"
        )

    def format_rows(chunk: range) -> bytearray:
        # _float_rows writes format_cell's text of every float, and no number
        # is ever quoted
        sids = [_quoted(format_cell(sid)) for sid in ids[chunk.start:chunk.stop]]
        if columns:
            prefixes = [(sid + ",").encode("utf-8") for sid in sids]
            return _float_rows(values[chunk.start:chunk.stop], prefixes)
        # a lone empty id is written "" so that it is not a blank line
        return bytearray("".join((sid or '""') + "\n" for sid in sids).encode("utf-8"))

    sidecar = _sidecar_path(path)
    digest = hashlib.sha256()
    chunks = _forked_iter(format_rows, _chunk_ranges(len(ids)))
    with contextlib.closing(chunks), open(path, "wb") as fh:
        # a sidecar of the file's old bytes goes before any new byte lands
        sidecar.unlink(missing_ok=True)
        header = _csv_line([format_cell(v) for v in ["id", *columns]]).encode("utf-8")
        fh.write(header)
        digest.update(header)
        for text in chunks:
            fh.write(text)
            digest.update(text)
            del text  # written: not held while the next chunk arrives
    _write_sidecar(sidecar, digest.hexdigest(), ids, columns, values)
    return digest.hexdigest()


# cells formatted at a time by _float_rows: its temporaries stay a few MB
_BLOCK_CELLS = 1 << 14
# 10**q for q = 0..22, each an exact double, and its Veltkamp split into two
# halves of at most 26 significant bits (Dekker 1971)
_POW10 = 10.0 ** np.arange(23)
_SPLITTER = 2.0**27 + 1
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_INT_POW10 = 10 ** np.arange(18, dtype=np.int64)
_DIGIT_RANKS = np.arange(1, 18, dtype=np.uint8)
_LAYOUTS = 40


def _float_rows(values: np.ndarray, prefixes: Iterable[bytes]) -> bytearray:
    """The UTF-8 bytes of `prefix + ",".join(map(repr, row)) + "\\n"` for each
    row of the 2-D float array values (with at least one column) and its
    prefix, a NaN cell written empty.

    The rows are formatted _BLOCK_CELLS cells at a time (a row at least), by
    _float_cells."""
    values = np.asarray(values, dtype=np.float64)
    rows, cols = values.shape
    step = max(1, _BLOCK_CELLS // cols)
    prefixes = iter(prefixes)
    text = bytearray()
    for start in range(0, rows, step):
        cells = _float_cells(np.ravel(values[start:start + step]))
        for k, prefix in zip(range(0, len(cells), cols), prefixes):
            text += prefix
            text += b",".join(cells[k:k + cols])
            text += b"\n"
    return text


def _repr_cells(values: np.ndarray) -> list[bytes]:
    """repr's text of each value, as bytes: _float_cells' fallback."""
    return [repr(v).encode("ascii") for v in values.tolist()]


def _float_cells(x: np.ndarray) -> list[bytes]:
    """repr's text of each value of the 1-D float64 array x, as bytes, and
    b"" for NaN.

    A finite x with 1e-4 <= |x| < 1e16, where repr writes fixed notation, and
    whose significand is not a power of two, where the gap to the double
    below is half the gap above, takes the exact vectorized path of
    _shortest_digits. The digits are then laid out as repr lays them out:
    the sign, the digits with the '.' after the units digit, zeros between
    the '.' and the first digit of a number under 1, the integer part padded
    with zeros, and ".0" where no digit follows the '.'. Every other value,
    and every cell that _shortest_digits cannot decide, is repr's own text
    (_repr_cells).
    """
    bits = x.view(np.int64)
    mag = np.abs(x)
    fast = (mag >= 1e-4) & (mag < 1e16) & ((bits & (1 << 52) - 1) != 0)
    slow = np.flatnonzero(~fast & ~np.isnan(x))
    fast = np.flatnonzero(fast)
    digits, exp10, count, exact = _shortest_digits(mag[fast], bits[fast])
    # the cells by layout, one of 20 exponents (-4..15) times 2 signs, and
    # the undecided ones last
    layout = ((exp10 + 4) * 2 + (bits[fast] < 0)).astype(np.uint8)
    layout[~exact] = _LAYOUTS
    order = np.argsort(layout, kind="stable")
    bounds = np.searchsorted(layout[order], np.arange(_LAYOUTS + 1)).tolist()
    # the characters of the digits, a row per cell in sorted order: the
    # padding zeros count as written up to the units digit and one digit
    # after the '.', and the characters past those written are NUL
    chars = _digit_chars(digits[order])
    written = np.where(exp10 >= 0, np.maximum(count, exp10 + 2), count)[order].astype(np.uint8)
    np.multiply(chars, _DIGIT_RANKS[:, None] <= written, out=chars, casting="unsafe")
    chars = chars.T
    # the text of each cell, NUL-padded, laid out a (exp10, sign) group at a
    # time: the cells of a group are a slice of the sorted order
    text = np.zeros((bounds[_LAYOUTS], 24), dtype=np.uint8)
    for group in range(_LAYOUTS):
        rows = slice(bounds[group], bounds[group + 1])
        if rows.start == rows.stop:
            continue
        e, sign = divmod(group, 2)
        e -= 4
        if sign:
            text[rows, 0] = ord("-")
        if e >= 0:
            text[rows, sign:sign + e + 1] = chars[rows, :e + 1]
            text[rows, sign + e + 1] = ord(".")
            text[rows, sign + e + 2:sign + 18] = chars[rows, e + 1:]
        else:
            text[rows, sign:sign - e + 1] = ord("0")
            text[rows, sign + 1] = ord(".")
            text[rows, sign - e + 1:sign - e + 18] = chars[rows]
    cells = np.zeros(len(x), dtype="S24")
    cells[fast[order[:bounds[_LAYOUTS]]]] = text.view("S24").ravel()
    cells = cells.tolist()  # numpy drops each cell's trailing NULs
    slow = np.concatenate([slow, fast[order[bounds[_LAYOUTS]:]]])
    for k, cell in zip(slow.tolist(), _repr_cells(x[slow])):
        cells[k] = cell
    return cells


def _digit_chars(digits: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each int64 in [10**16, 10**17), as ASCII in a
    (17, n) uint8 array, the leading digit in row 0.

    The digits below the leading one are split into two 8-digit halves,
    each into 4-digit quads and each quad into 2-digit pairs, in the
    narrowest unsigned type that holds each part."""
    chars = np.empty((17, len(digits)), dtype=np.uint8)
    head = digits // 10**16
    chars[0] = head
    tail = digits - head * 10**16
    upper = tail // 10**8
    for j, half in ((1, upper), (9, tail - upper * 10**8)):
        half = half.astype(np.uint32)
        quads = half // 10000
        for i, quad in ((j, quads), (j + 4, half - quads * 10000)):
            quad = quad.astype(np.uint16)
            pairs = quad // 100
            for row, pair in ((i, pairs), (i + 2, quad - pairs * 100)):
                tens = pair * 103 >> 10  # pair // 10, exact below 179
                chars[row] = tens
                chars[row + 1] = pair - tens * 10
    chars += ord("0")
    return chars


def _shortest_digits(
    mag: np.ndarray, bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """repr's digits of each double x of bits, with mag = |x| in [1e-4, 1e16)
    and a significand that is not a power of two: (digits, exp10, count,
    exact), where x is digits * 10**(exp10 - 16) written to count significant
    digits (digits is an int64 of 17 digits, padded with zeros), for each x
    where exact holds.

    repr writes the fewest digits that read back to x, and of those the
    nearest to x (Steele & White 1990; Adams 2018). Here V = mag * 10**q, q
    = 16 - exp10 in [1, 20], is formed exactly as hi + lo by Dekker's
    two-product (10**q is an exact double), with N = floor(V) in [10**16,
    10**17). The n-digit candidate is C, the integer nearest V / 10**k, k = 17
    - n. It reads back to x where |C * 10**k - V| < h, half x's ulp times
    10**q, and at equality only where x's significand is even (round half to
    even). Both sides are exact doubles: h is 5**q times a power of two, and
    where the gap is under 32, it is a multiple of 2**(E + q) >= 2**-46, x =
    m * 2**E, so it needs at most 51 bits. 17 digits always read back (h >
    0.55), and where n digits do, n + 1 do too, so count is the least n that
    does. exact is False where that is not decided here: N out of range, a
    tie between two nearest candidates, or a carry of the digits to 10**n.
    """
    exp10 = np.floor(np.log10(mag))
    q = np.clip(16 - exp10, 0, 22).astype(np.intp)
    hi = mag * _POW10[q]
    off = np.flatnonzero((hi < 1e16) | (hi >= 1e17))  # log10 rounded across a power of ten
    if off.size:
        q[off] += hi[off] < 1e16
        q[off] -= hi[off] >= 1e17
        hi = mag * _POW10[q]
    # Dekker's two-product: mag * 10**q == hi + lo exactly
    split = mag * _SPLITTER
    mag_hi = split - (split - mag)
    mag_lo = mag - mag_hi
    pow_hi, pow_lo = _POW10_HI[q], _POW10_LO[q]
    lo = ((mag_hi * pow_hi - hi) + mag_hi * pow_lo + mag_lo * pow_hi) + mag_lo * pow_lo
    floor_lo = np.floor(lo)
    int_lo = floor_lo.astype(np.int64)
    whole = hi.astype(np.int64) + int_lo  # N; V - N = lo - floor_lo, in [0, 1)
    fraction = (lo != floor_lo).astype(np.int64)
    # half an ulp of x is 2**(biased exponent - 1076), a normal double here
    half_ulp = _POW10[q] * ((bits >> 52 & 0x7FF) - 53 << 52).view(np.float64)
    even = (bits & 1) == 0
    exact = (whole >= 10**16) & (whole < 10**17)
    # 17 digits: the integer nearest V; V - N == 0.5 is a tie
    digits = whole + (lo > floor_lo + 0.5)
    exact &= lo != floor_lo + 0.5
    dropped = np.zeros(len(mag), dtype=np.intp)  # k = 17 - count
    active = np.arange(len(mag))
    for k in range(1, 17):
        step = 10**k
        base, low, ulp, frac = whole[active], lo[active], half_ulp[active], fraction[active]
        quotient = base // step
        # twice the remainder of N, plus one where V is not an integer
        twice = (base - quotient * step) * 2 + frac
        candidate = quotient + (twice > step)
        # |C * 10**k - V|, as |(C * 10**k - N + floor(lo)) - lo|
        gap = np.abs((candidate * step - base + int_lo[active]).astype(np.float64) - low)
        reads_back = (gap < ulp) | ((gap == ulp) & even[active])
        if k == 1:
            # V = N ends in 5: two nearest candidates
            tie = twice == step
            exact[active[tie & reads_back]] = False
            reads_back &= ~tie
        passed = np.flatnonzero(reads_back)
        active = active[passed]
        if not active.size:
            break
        digits[active] = candidate[passed]
        dropped[active] = k
    digits *= _INT_POW10[dropped]
    exact &= digits < 10**17
    return digits, 16 - q, 17 - dropped, exact


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

    Where the file's sidecar (written by write_matrix_csv) records the
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
