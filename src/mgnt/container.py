"""Self-describing binary container for named numeric arrays.

File layout:

    bytes 0..7    magic ``MGNTARR1``
    bytes 8..11   header length ``H`` (little-endian unsigned 32-bit)
    bytes 12..    JSON header, exactly ``H`` bytes, UTF-8
    rest          raw little-endian array payloads, packed in offset order

The JSON header is an object ``{"arrays": [...], "meta": {...}}`` where each
entry of ``arrays`` is ``{"name", "dtype", "shape", "byte_offset"}``.  Dtypes
are ``"f64"`` or ``"i64"``; ``byte_offset`` is relative to the end of the
header so the header can be serialized before the payload section exists.
Writing the result of a read reproduces the original file byte for byte.
A write goes to a temporary file in the target's directory that then
replaces the target, so an interrupted write leaves the old file intact.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import Any, Mapping

import numpy as np

from .errors import SchemaFormatError

MAGIC = b"MGNTARR1"

_DTYPE_TAGS = {"f64": np.dtype("<f8"), "i64": np.dtype("<i8")}


def _coerce(name: str, arr: np.ndarray) -> tuple[str, np.ndarray]:
    arr = np.asarray(arr)
    if arr.dtype.kind == "f":
        return "f64", np.ascontiguousarray(arr, dtype="<f8")
    if arr.dtype.kind in "iub":
        return "i64", np.ascontiguousarray(arr, dtype="<i8")
    raise SchemaFormatError(f"array {name!r} has unsupported dtype {arr.dtype}")


def write_arrays(path: str, arrays: Mapping[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named arrays (in mapping order) plus an optional JSON meta block."""
    entries = []
    payloads = []
    offset = 0
    seen: set[str] = set()
    for name, arr in arrays.items():
        if name in seen:
            raise SchemaFormatError(f"duplicate array name {name!r}")
        seen.add(name)
        tag, data = _coerce(name, arr)
        entries.append(
            {"name": name, "dtype": tag, "shape": list(data.shape), "byte_offset": offset}
        )
        raw = data.tobytes()
        payloads.append(raw)
        offset += len(raw)
    header = {"arrays": entries, "meta": meta if meta is not None else {}}
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", len(header_bytes)))
            f.write(header_bytes)
            for raw in payloads:
                f.write(raw)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _entry_fields(path: str, entry: Any) -> tuple[str, np.dtype, tuple[int, ...], int]:
    """(name, dtype, shape, byte_offset) of one header entry, or SchemaFormatError."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise SchemaFormatError(f"{path}: array entry without a string name: {entry!r}")
    name = entry["name"]
    tag = entry.get("dtype")
    if not isinstance(tag, str) or tag not in _DTYPE_TAGS:
        raise SchemaFormatError(f"{path}: unknown dtype tag {tag!r} for {name!r}")
    shape = entry.get("shape")
    if not isinstance(shape, list) or not all(_is_count(s) for s in shape):
        raise SchemaFormatError(f"{path}: shape {shape!r} of {name!r} is not a list "
                                "of non-negative ints")
    start = entry.get("byte_offset")
    if not _is_count(start):
        raise SchemaFormatError(f"{path}: byte_offset {start!r} of {name!r} is not a "
                                "non-negative int")
    return name, _DTYPE_TAGS[tag], tuple(shape), start


def read_arrays(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container file; returns (arrays in file order, meta dict)."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != MAGIC:
        raise SchemaFormatError(f"{path}: bad magic {blob[:8]!r}")
    if len(blob) < 12:
        raise SchemaFormatError(f"{path}: truncated header")
    (header_len,) = struct.unpack("<I", blob[8:12])
    header_end = 12 + header_len
    if len(blob) < header_end:
        raise SchemaFormatError(f"{path}: header shorter than declared length")
    try:
        header = json.loads(blob[12:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaFormatError(f"{path}: invalid JSON header: {exc}") from exc
    if (not isinstance(header, dict) or not isinstance(header.get("arrays", []), list)
            or not isinstance(header.get("meta", {}), dict)):
        raise SchemaFormatError(f"{path}: header is not an object with an arrays list "
                                "and a meta object")
    payload = blob[header_end:]
    arrays: dict[str, np.ndarray] = {}
    expected_end = 0
    for entry in header.get("arrays", []):
        name, dt, shape, start = _entry_fields(path, entry)
        if name in arrays:
            raise SchemaFormatError(f"{path}: duplicate array name {name!r}")
        end = start + math.prod(shape) * dt.itemsize
        if end > len(payload):
            raise SchemaFormatError(f"{path}: payload truncated for array {name!r}")
        arrays[name] = np.frombuffer(payload[start:end], dtype=dt).reshape(shape).copy()
        expected_end = max(expected_end, end)
    if expected_end != len(payload):
        raise SchemaFormatError(
            f"{path}: {len(payload) - expected_end} trailing payload bytes"
        )
    meta = header.get("meta", {})
    return arrays, meta

