"""Binary tensor container: the weights file format, also used for raw images.

Layout: an 8-byte little-endian header length, a UTF-8 JSON header mapping each
tensor name to {"shape", "offset", "length"} (offsets relative to the blob that
follows), then the blob of raw little-endian float32 data, row-major.

A reserved "__meta__" header key can carry an arbitrary JSON object (the model
config for weights files). Writing is canonical — sorted names, contiguous
offsets, compact JSON — so save(load(path)) reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Any

import numpy as np

from .errors import FormatError

META_KEY = "__meta__"
_LEN_FMT = "<Q"


def save_tensors(
    path: str | Path,
    tensors: dict[str, np.ndarray],
    meta: dict[str, Any] | None = None,
) -> None:
    """Write named float32 tensors (and optional meta object) to path."""
    header: dict[str, Any] = {}
    if meta is not None:
        header[META_KEY] = meta
    blobs: list[bytes] = []
    offset = 0
    for name in sorted(tensors):
        if name == META_KEY:
            raise FormatError(f"tensor name {META_KEY!r} is reserved")
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        raw = arr.tobytes()
        header[name] = {"shape": list(arr.shape), "offset": offset, "length": len(raw)}
        blobs.append(raw)
        offset += len(raw)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack(_LEN_FMT, len(header_bytes)))
        fh.write(header_bytes)
        for raw in blobs:
            fh.write(raw)


def load_tensors(path: str | Path) -> tuple[dict[str, np.ndarray], dict[str, Any] | None]:
    """Read a container back as ({name: float32 array}, meta-or-None)."""
    data = Path(path).read_bytes()
    if len(data) < 8:
        raise FormatError(f"{path}: too short for a header length")
    (header_len,) = struct.unpack_from(_LEN_FMT, data)
    if 8 + header_len > len(data):
        raise FormatError(f"{path}: header length {header_len} exceeds file size")
    try:
        header = json.loads(data[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad header JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not an object")

    meta = header.pop(META_KEY, None)
    blob = data[8 + header_len :]
    entries = []
    for name, entry in header.items():
        try:
            shape = tuple(int(s) for s in entry["shape"])
            offset = int(entry["offset"])
            length = int(entry["length"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed entry for tensor {name!r}") from exc
        # a zero extent is a valid empty tensor, as save_tensors writes it
        if any(s < 0 for s in shape):
            raise FormatError(f"{path}: tensor {name!r} has negative dims {shape}")
        expected = int(np.prod(shape, dtype=np.int64)) * 4 if shape else 4
        if length != expected:
            raise FormatError(
                f"{path}: tensor {name!r} length {length} does not match shape {shape}"
            )
        if offset < 0 or offset + length > len(blob):
            raise FormatError(f"{path}: tensor {name!r} is truncated or out of range")
        entries.append((name, shape, offset, length))

    entries.sort(key=lambda e: e[2])
    for (name_a, _, off_a, len_a), (name_b, _, off_b, _) in zip(entries, entries[1:]):
        if off_a + len_a > off_b:
            raise FormatError(f"{path}: tensors {name_a!r} and {name_b!r} overlap")

    out = {}
    for name, shape, offset, length in entries:
        arr = np.frombuffer(blob, dtype="<f4", count=length // 4, offset=offset)
        # astype copies out of the read-only buffer and keeps 0-d shapes intact
        out[name] = arr.reshape(shape).astype(np.float32)
    return out, meta
