"""UTF-8 text and JSON files, without numpy.

Every command reads or writes some JSON (a --config file, run_config.json), and
`report` reads nothing else but JSON and small CSVs, so these helpers import
only the standard library. serialize re-exports them beside its CSV code.

Inside recorded_digests(), read_bytes records the SHA-256 of every file it
reads, so that a command can name the exact bytes its result came from (see
`evaluate`'s group_fit.json) without every reader passing them up.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
from pathlib import Path
from typing import Any, Iterator

from .errors import InputError

# the files of a model bundle (blr.save_bundle), named here so that a command
# can hash a bundle without importing blr
MODEL_FILE = "model.json"
REGIONS_FILE = "regions.json"

# the record of the innermost recorded_digests() of this context, if any
_recording: contextvars.ContextVar[dict[Path, str] | None] = contextvars.ContextVar(
    "_recording", default=None
)


def _plain(obj: Any) -> Any:
    """json.dumps' fallback: a numpy array or scalar as its Python value."""
    # reached only for objects json cannot write, so numpy is loaded already
    # wherever the object is a numpy one
    import numpy as np

    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dump_json(obj: Any, path: str | Path) -> None:
    """Write obj as indented JSON; floats are repr text, NaN and inf raise ValueError."""
    text = json.dumps(obj, indent=2, allow_nan=False, default=_plain)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_bytes(path: Path) -> bytes:
    """The bytes of a file; a missing file, or one that cannot be read (a
    directory, say), raises InputError naming it."""
    if not path.exists():
        raise InputError(f"file not found: {path}")
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    digests = _recording.get()
    if digests is not None:
        import hashlib  # here, so that a command that records none never loads it

        digests[path] = hashlib.sha256(data).hexdigest()
    return data


@contextlib.contextmanager
def recorded_digests() -> Iterator[dict[Path, str]]:
    """Yield a dict that, until the body ends, takes the SHA-256 hex digest of
    the bytes of each file read_bytes reads, under the path it was given; a
    file read twice keeps the digest of its last read.

    The record is held in a context variable, so it sees only the reads of
    this thread and ends with the body, however it ends.
    """
    digests: dict[Path, str] = {}
    token = _recording.set(digests)
    try:
        yield digests
    finally:
        _recording.reset(token)


def sha256_of(path: Path, data: bytes) -> str:
    """The SHA-256 hex digest of data, the bytes read_bytes has just read
    from path: inside recorded_digests() the one it recorded, not taken twice."""
    digests = _recording.get()
    if digests is not None and path in digests:
        return digests[path]
    import hashlib

    return hashlib.sha256(data).hexdigest()


def read_text(path: Path) -> str:
    """The UTF-8 text of a file, line ends as they are.

    A file that read_bytes cannot read, or one that is not UTF-8, raises
    InputError naming it; for the latter see decode_text.
    """
    return decode_text(path, read_bytes(path))


def decode_text(path: Path, data: bytes) -> str:
    """data, the bytes of the file at path, as UTF-8 text.

    Bytes that are not UTF-8 raise InputError naming the file, with the line
    and value of the first byte that does not decode.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(
            f"{path} line {line}: byte 0x{data[exc.start]:02x} is not UTF-8 text"
        ) from None


def load_json(path: str | Path) -> Any:
    path = Path(path)
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None
