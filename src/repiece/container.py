"""Binary tensor container: the weights file format.

Layout: an 8-byte little-endian header length, a UTF-8 JSON header mapping each
tensor name to {"shape", "offset", "length"} (offsets relative to the blob that
follows), then the blob of raw little-endian float32 data, row-major.

A reserved "__meta__" header key can carry an arbitrary JSON object (the model
config for weights files). Writing is canonical — sorted names, contiguous
offsets, compact JSON padded with spaces so that the blob starts on a 64-byte
boundary in the file — so save(load(path)) reproduces the file byte for byte.
A save writes a temporary file beside the target and renames it over the
target, so it never rewrites a file that a load has mapped.

Loading a file of up to 32 MiB reads it once, with readinto, into one uint8
buffer placed so that the blob starts on a 64-byte boundary. A larger file is
mapped private and copy-on-write instead, which saves that copy. Either way
every loaded tensor is a writable float32 view into one buffer that lives as
long as any of its tensors, and a write into it never reaches the file; a
tensor that an unpadded file left off a 4-byte boundary is copied, so every
loaded tensor is aligned. Another program that truncates or rewrites a mapped
file in place while it is loaded can make the process die with SIGBUS or see
the new bytes.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
import stat
import struct
from pathlib import Path
from typing import Any

import numpy as np

from .errors import FormatError

META_KEY = "__meta__"
_LEN_FMT = "<Q"
# byte alignment of the blob in the file and in the loader's buffer: one cache line
_ALIGN = 64
# files larger than this are mapped, not read. glibc serves no larger block from its
# heap, so such a read buffer is a fresh mapping and mapping the file costs no more
# memory; a smaller buffer can come from a heap that stays resident, and mapped pages
# count on top of it (mapping 7.5 MB weights raised a CLI run's peak RSS 3.5% to 11%)
_MAP_ABOVE = 32 * 2**20


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
        arr = np.asarray(tensors[name], dtype="<f4")  # keeps a 0-d shape, unlike ascontiguousarray
        raw = arr.tobytes()
        header[name] = {"shape": list(arr.shape), "offset": offset, "length": len(raw)}
        blobs.append(raw)
        offset += len(raw)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header_bytes += b" " * (-(8 + len(header_bytes)) % _ALIGN)  # JSON ignores trailing spaces
    # a temporary file renamed over the target: a load that mapped the old file keeps its bytes
    target = os.path.realpath(path)  # through a symlink, replace its target
    tmp = f"{target}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # as open() makes a file
    try:
        with open(fd, "wb") as fh:
            with contextlib.suppress(FileNotFoundError):  # open(path, "wb") keeps a file's mode
                os.fchmod(fd, stat.S_IMODE(os.stat(target).st_mode))
            fh.write(struct.pack(_LEN_FMT, len(header_bytes)))
            fh.write(header_bytes)
            for raw in blobs:
                fh.write(raw)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def load_tensors(path: str | Path) -> tuple[dict[str, np.ndarray], dict[str, Any] | None]:
    """Read a container back as ({name: float32 array}, meta-or-None).

    The arrays are writable views into one aligned buffer holding the file: a
    private copy-on-write mapping for a file larger than 32 MiB, else a read.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 8:
            raise FormatError(f"{path}: too short for a header length")
        (header_len,) = struct.unpack(_LEN_FMT, fh.read(8))
        if 8 + header_len > size:
            raise FormatError(f"{path}: header length {header_len} exceeds file size")
        if size > _MAP_ABOVE:
            # no MAP_POPULATE: on a private writable mapping it copies every page
            try:
                mapping = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_COPY)
            except ValueError as exc:  # mmap refuses a length past the end of the file
                raise FormatError(f"{path}: file shrank while being read") from exc
            data = np.frombuffer(mapping, dtype=np.uint8)
        else:
            # pad the front so that the blob, 8 + header_len bytes in, is 64-byte aligned
            raw = np.empty(size + _ALIGN, dtype=np.uint8)
            start = -(raw.ctypes.data + 8 + header_len) % _ALIGN
            data = raw[start : start + size]
            fh.seek(0)
            if fh.readinto(data) != size:
                raise FormatError(f"{path}: file shrank while being read")
    try:
        header = json.loads(data[8 : 8 + header_len].tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: bad header JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not an object")

    meta = header.pop(META_KEY, None)
    blob_start = 8 + header_len
    blob_len = size - blob_start
    entries = []
    for name, entry in header.items():
        try:
            shape = tuple(int(s) for s in entry["shape"])
            offset = int(entry["offset"])
            length = int(entry["length"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: malformed entry for tensor {name!r}") from exc
        # a zero extent is a valid empty tensor, as save_tensors writes it
        if any(s < 0 for s in shape):
            raise FormatError(f"{path}: tensor {name!r} has negative dims {shape}")
        expected = math.prod(shape) * 4  # exact for any dims; 4 for a 0-d scalar
        if length != expected:
            raise FormatError(
                f"{path}: tensor {name!r} length {length} does not match shape {shape}"
            )
        if offset < 0 or offset + length > blob_len:
            raise FormatError(f"{path}: tensor {name!r} is truncated or out of range")
        entries.append((name, shape, offset, length))

    entries.sort(key=lambda e: e[2])
    for (name_a, _, off_a, len_a), (name_b, _, off_b, _) in zip(entries, entries[1:]):
        if off_a + len_a > off_b:
            raise FormatError(f"{path}: tensors {name_a!r} and {name_b!r} overlap")

    out = {}
    for name, shape, offset, length in entries:
        arr = np.frombuffer(data, dtype="<f4", count=length // 4, offset=blob_start + offset)
        # a view on a little-endian host; copied only to swap byte order, or to
        # align a tensor that an unpadded file left off a 4-byte boundary
        out[name] = np.require(arr.reshape(shape), np.float32, "A")
    return out, meta
