"""The file layer: one reader and one writer for every text file, and for
every JSON-lines file, one format for every trained model.

Text inputs are UTF-8 with one record per line, and every error names
``path:line``; a JSON-lines line is one JSON object with the fields of its
``Records`` kind. Tensor files (``fid.ckpt``, ``intent.bin``) hold an 8-byte
magic, the little-endian int64 length of a sorted-key JSON header that lists
each tensor's name and shape, then the tensors in name order as
little-endian float64, every value finite.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from .errors import CitegenError, ConfigError, DataError

T = TypeVar("T")


def numbered_lines(path: str | Path, error: type[CitegenError] = DataError
                   ) -> Iterator[tuple[int, str]]:
    """(line number, line) for each non-blank line of the UTF-8 file ``path``,
    the line without its ending. As in a text-mode read, ``\\n``, ``\\r\\n``
    and ``\\r`` each end a line. Raises ``error`` naming ``path:line`` for
    bytes that are not UTF-8."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        lineno = head.count(b"\n") + 1
        raise error(f"{path}:{lineno}: not valid UTF-8 ({exc.reason})") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, line in enumerate(text.split("\n"), 1):
        if line and not line.isspace():
            yield lineno, line


def read_settings(path: str | Path, error: type[CitegenError] = DataError
                  ) -> dict[str, tuple[str, str]]:
    """``key = value`` lines, where a line starting with ``#`` is a comment, as
    {key: (value, "path:line")}, with ``-`` in keys read as ``_``. Raises
    ``error`` naming ``path:line`` for a line without ``=``, and both lines
    for a key set twice."""
    settings: dict[str, tuple[str, str]] = {}
    for lineno, line in numbered_lines(path, error):
        line = line.strip()
        if line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise error(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip().replace("-", "_")
        if key in settings:
            raise error(f"{path}:{lineno}: {key!r} was already set at {settings[key][1]}")
        settings[key] = (value.strip(), f"{path}:{lineno}")
    return settings


def read_lines(path: str | Path, parse: Callable[[int, str], T],
               error: type[CitegenError] = DataError) -> list[T]:
    """``parse(line number, line)`` for each line ``numbered_lines`` yields,
    so that a loader can name an earlier line too. A ValueError,
    KeyError, TypeError or AttributeError that ``parse`` raises becomes
    ``error`` naming ``path:line``; loaders raise ValueError for their own
    checks."""
    out: list[T] = []
    lineno = 0
    try:
        for lineno, line in numbered_lines(path, error):
            out.append(parse(lineno, line))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        if isinstance(exc, json.JSONDecodeError):
            what = f"malformed JSON: {exc.msg}"
        elif isinstance(exc, KeyError):
            what = f"missing key {exc}"
        else:
            what = str(exc)
        raise error(f"{path}:{lineno}: {what}") from None
    return out


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each of ``lines`` to the UTF-8 file ``path``, one per line."""
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")


class Records(NamedTuple):
    """A kind of JSON-lines file. ``fields`` maps each field, in write order,
    to its rule: a type, a tuple of the values the field may take (with None,
    it may be absent), or a one-item list of such a tuple for each item of a
    list. No two records share a value of the field ``key``, unless None."""

    fields: Mapping[str, object]
    key: str | None = None


def _check(rule: object) -> Callable[[object], bool]:
    """Whether a value meets ``rule``; builtin methods where they serve, as
    they cost less per record than a Python call."""
    if isinstance(rule, list):
        return lambda value: isinstance(value, list) and all(map(rule[0].__contains__, value))
    return rule.__instancecheck__ if isinstance(rule, type) else rule.__contains__


def _rule_text(rule: object) -> str:
    if isinstance(rule, list):
        return f"a list whose items are each {_rule_text(rule[0])}"
    return (f"a {rule.__name__}" if isinstance(rule, type)
            else "one of " + ", ".join(json.dumps(v) for v in rule))


def read_records(path: str | Path, kind: Records, make: Callable[..., T]) -> list[T]:
    """``make(*values)`` for each record of the JSON-lines file ``path``, the
    values in ``kind.fields`` order, None for an absent field. As in
    ``read_lines``, an error, and a record that breaks ``kind``, raises
    DataError naming ``path:line``, and a repeated key names both lines."""
    line_of: dict = {}  # key value → the line that gave it
    checks = [(name, _check(rule)) for name, rule in kind.fields.items()]

    def parse(lineno: int, line: str) -> T:
        rec = json.loads(line)
        if not isinstance(rec, dict):
            raise TypeError(f"expected a JSON object, got {type(rec).__name__}")
        values = [rec.get(name) for name in kind.fields]
        for (name, check), value in zip(checks, values):
            if not check(value):
                if name not in rec:
                    raise KeyError(name)
                raise ValueError(f"{name} must be {_rule_text(kind.fields[name])}, "
                                 f"got {json.dumps(value)}")
        if kind.key is not None:
            key = rec[kind.key]
            if key in line_of:
                raise ValueError(f"{kind.key} {key!r} repeats the record at {path}:{line_of[key]}")
            line_of[key] = lineno
        return make(*values)

    return read_lines(path, parse)


def write_records(path: str | Path, kind: Records, rows: Iterable[Sequence]) -> None:
    """Write each of ``rows``, its values in ``kind.fields`` order, as one
    JSON object per line."""
    write_lines(path, (json.dumps(dict(zip(kind.fields, row))) for row in rows))


def write_tensors(path: str | Path, magic: bytes, header: Mapping,
                  tensors: Mapping[str, np.ndarray]) -> None:
    """Write ``tensors`` under ``magic``; ``header`` gains the ``tensors``
    list of names and shapes."""
    names = sorted(tensors)
    full = {**header, "tensors": [{"name": n, "shape": list(tensors[n].shape)} for n in names]}
    blob = json.dumps(full, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<q", len(blob)))
        f.write(blob)
        for n in names:
            f.write(np.ascontiguousarray(tensors[n], dtype="<f8").tobytes())


def read_tensors(path: str | Path, magic: bytes,
                 parse_header: Callable[[dict, dict], tuple[T, Mapping[str, tuple]]]
                 ) -> tuple[T, dict[str, np.ndarray]]:
    """``(value, tensors)`` of a file that ``write_tensors`` wrote under
    ``magic``, where ``parse_header(header, listed shapes)`` returns ``value``
    and the shapes the file must hold; an error it raises marks the header
    malformed. Raises DataError naming the path for a wrong magic, a
    malformed header, other tensor names or shapes, a wrong byte length, or
    a value that is not finite (no trained model holds one)."""
    data = Path(path).read_bytes()
    if data[: len(magic)] != magic:
        raise DataError(f"{path} is not a {magic.decode('ascii')} file")
    hstart = len(magic) + 8
    if len(data) < hstart:
        raise DataError(f"{path}: truncated header")
    (hlen,) = struct.unpack_from("<q", data, len(magic))
    if not 0 <= hlen <= len(data) - hstart:
        raise DataError(f"{path}: header length {hlen} exceeds the file's {len(data)} bytes")
    try:
        header = json.loads(data[hstart : hstart + hlen].decode("utf-8"))
        specs = [(spec["name"], tuple(spec["shape"])) for spec in header["tensors"]]
        value, expected = parse_header(header, dict(specs))
    except (ValueError, LookupError, TypeError, ArithmeticError, ConfigError) as exc:
        raise DataError(f"{path}: malformed header: {exc}") from exc
    want = sorted(expected.items())
    if specs != want:
        raise DataError(f"{path}: tensor names or shapes differ from those its header requires")
    offset = hstart + hlen
    size = offset + 8 * sum(math.prod(shape) for _, shape in want)
    if len(data) != size:
        raise DataError(f"{path} has {len(data)} bytes, its header describes {size}")
    tensors: dict[str, np.ndarray] = {}
    for name, shape in want:
        n_items = math.prod(shape)
        tensors[name] = np.frombuffer(data, dtype="<f8", count=n_items,
                                      offset=offset).reshape(shape).copy()
        offset += 8 * n_items
        if not np.isfinite(tensors[name]).all():
            raise DataError(f"{path}: {name} holds a non-finite value")
    return value, tensors
