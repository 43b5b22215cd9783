import json
import mmap
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repiece import container
from repiece.errors import FormatError


def _sample_tensors(rng):
    return {
        "b.matrix": rng.standard_normal((3, 4)).astype(np.float32),
        "a.vector": rng.standard_normal(7).astype(np.float32),
        "scalarish": rng.standard_normal((1,)).astype(np.float32),
    }


def test_round_trip_bit_exact(tmp_path, rng):
    tensors = _sample_tensors(rng)
    path = tmp_path / "t.bin"
    container.save_tensors(path, tensors, meta={"kind": "test", "n": 3})
    loaded, meta = container.load_tensors(path)
    assert meta == {"kind": "test", "n": 3}
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        assert loaded[name].dtype == np.float32
        assert np.array_equal(loaded[name], arr)


def test_save_is_canonical(tmp_path, rng):
    tensors = _sample_tensors(rng)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    container.save_tensors(p1, tensors)
    container.save_tensors(p2, dict(reversed(list(tensors.items()))))  # different dict order
    assert p1.read_bytes() == p2.read_bytes()

    loaded, _ = container.load_tensors(p1)
    p3 = tmp_path / "c.bin"
    container.save_tensors(p3, loaded)
    assert p3.read_bytes() == p1.read_bytes()


def test_empty_tensor_round_trips(tmp_path):
    path = tmp_path / "t.bin"
    container.save_tensors(path, {"e": np.zeros((0, 3), np.float32)})
    loaded, _ = container.load_tensors(path)
    assert loaded["e"].shape == (0, 3)


def test_meta_none_round_trips(tmp_path, rng):
    path = tmp_path / "t.bin"
    container.save_tensors(path, _sample_tensors(rng))
    _, meta = container.load_tensors(path)
    assert meta is None


def test_reserved_name_rejected(tmp_path):
    with pytest.raises(FormatError):
        container.save_tensors(tmp_path / "t.bin", {container.META_KEY: np.zeros(1, np.float32)})


def test_truncated_file(tmp_path):
    (tmp_path / "t.bin").write_bytes(b"\x01\x02")
    with pytest.raises(FormatError):
        container.load_tensors(tmp_path / "t.bin")


def test_header_length_past_eof(tmp_path):
    (tmp_path / "t.bin").write_bytes(struct.pack("<Q", 10_000) + b"{}")
    with pytest.raises(FormatError):
        container.load_tensors(tmp_path / "t.bin")


def test_bad_header_json(tmp_path):
    for payload in (b"not json!!", b"[1, 2]"):  # the header must be a JSON object
        (tmp_path / "t.bin").write_bytes(struct.pack("<Q", len(payload)) + payload)
        with pytest.raises(FormatError):
            container.load_tensors(tmp_path / "t.bin")


def _write_raw(path, header: dict, blob: bytes) -> None:
    header_bytes = json.dumps(header).encode()
    path.write_bytes(struct.pack("<Q", len(header_bytes)) + header_bytes + blob)


def test_length_shape_mismatch_names_tensor(tmp_path):
    _write_raw(
        tmp_path / "t.bin",
        {"w": {"shape": [3], "offset": 0, "length": 8}},
        b"\x00" * 8,
    )
    with pytest.raises(FormatError, match="'w'"):
        container.load_tensors(tmp_path / "t.bin")


def test_negative_dims_rejected(tmp_path):
    # the product of the dims, 4, matches the length; the dims are still invalid
    _write_raw(
        tmp_path / "t.bin",
        {"w": {"shape": [-1, -4], "offset": 0, "length": 16}},
        b"\x00" * 16,
    )
    with pytest.raises(FormatError, match="negative dims"):
        container.load_tensors(tmp_path / "t.bin")


def test_tensor_data_out_of_range(tmp_path):
    _write_raw(
        tmp_path / "t.bin",
        {"w": {"shape": [4], "offset": 0, "length": 16}},
        b"\x00" * 8,  # blob shorter than claimed tensor
    )
    with pytest.raises(FormatError, match="truncated"):
        container.load_tensors(tmp_path / "t.bin")


def test_overlapping_tensors_detected(tmp_path):
    _write_raw(
        tmp_path / "t.bin",
        {
            "a": {"shape": [2], "offset": 0, "length": 8},
            "b": {"shape": [2], "offset": 4, "length": 8},
        },
        b"\x00" * 12,
    )
    with pytest.raises(FormatError, match="overlap"):
        container.load_tensors(tmp_path / "t.bin")


def test_scalar_shape_allowed(tmp_path):
    _write_raw(
        tmp_path / "t.bin",
        {"s": {"shape": [], "offset": 0, "length": 4}},
        np.float32(2.5).tobytes(),
    )
    loaded, _ = container.load_tensors(tmp_path / "t.bin")
    assert loaded["s"].shape == () and loaded["s"] == np.float32(2.5)


_MIXED = {
    "a.matrix": np.arange(12, dtype=np.float32).reshape(3, 4) - 5.5,
    "b.scalar": np.array(2.5, dtype=np.float32),
    "c.empty": np.zeros((0, 3), np.float32),
    "d.vector": np.linspace(-1.0, 1.0, 7, dtype=np.float32),
}


# each extra byte of meta moves the blob start one byte further into the file
@pytest.mark.parametrize("pad", [0, 1, 2, 3, 5, 17, 40, 63])
def test_loaded_tensors_are_aligned_views_of_one_read(tmp_path, pad):
    path = tmp_path / "t.bin"
    container.save_tensors(path, _MIXED, meta={"pad": "x" * pad})
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw)
    header = json.loads(raw[8 : 8 + header_len])
    loaded, meta = container.load_tensors(path)
    assert meta == {"pad": "x" * pad}
    for name, arr in _MIXED.items():
        assert loaded[name].dtype == np.float32 and loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()
        assert loaded[name].flags.aligned
    # every non-empty tensor sits at its header offset past one common blob start
    blob_starts = {
        loaded[name].ctypes.data - header[name]["offset"] for name, arr in _MIXED.items() if arr.size
    }
    assert len(blob_starts) == 1
    assert blob_starts.pop() % 64 == 0
    bases = [t.base for t in loaded.values()]
    assert bases[0] is not None and all(b is bases[0] for b in bases)


# ---------------------------------------------------------------- load paths, padding and saves


def _load(path, mapped: bool):
    """Load path on the mapped path (size rule at 0) or on the read path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(container, "_MAP_ABOVE", 0 if mapped else 2**62)
        return container.load_tensors(path)


def _mapping(arr):
    """The object whose memory a loaded tensor views: an mmap, or the read buffer."""
    base = arr.base
    return base.base.obj if isinstance(base.base, memoryview) else base


def _write_unpadded(path, tensors: dict, meta) -> int:
    """Write tensors in the layout of files saved before the header padding."""
    header = {container.META_KEY: meta}
    blobs, offset = [], 0
    for name in sorted(tensors):
        raw = np.asarray(tensors[name], "<f4").tobytes()
        header[name] = {"shape": list(np.shape(tensors[name])), "offset": offset, "length": len(raw)}
        blobs.append(raw)
        offset += len(raw)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(struct.pack("<Q", len(header_bytes)) + header_bytes + b"".join(blobs))
    return 8 + len(header_bytes)


@pytest.mark.parametrize("mapped", [False, True], ids=["read", "map"])
@pytest.mark.parametrize("shift", [0, 1, 2, 3])
def test_unpadded_files_load_aligned_on_both_paths(tmp_path, mapped, shift):
    path = tmp_path / "old.bin"
    # each byte of meta moves the blob one byte further into the file; the last write stays
    pad = next(n for n in range(4) if _write_unpadded(path, _MIXED, "x" * n) % 4 == shift)
    loaded, meta = _load(path, mapped)
    assert meta == "x" * pad
    for name, arr in _MIXED.items():
        assert loaded[name].dtype == np.float32 and loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()
        assert loaded[name].flags.aligned and loaded[name].flags.writeable


def test_padded_header_parses_as_the_unpadded_one(tmp_path):
    new, old = tmp_path / "new.bin", tmp_path / "old.bin"
    container.save_tensors(new, _MIXED, meta={"depth": 1})
    blob_start = _write_unpadded(old, _MIXED, {"depth": 1})
    raw_new, raw_old = new.read_bytes(), old.read_bytes()
    (len_new,) = struct.unpack_from("<Q", raw_new)
    header_new, header_old = raw_new[8 : 8 + len_new], raw_old[8:blob_start]
    assert (8 + len_new) % 64 == 0 and len_new - len(header_old) < 64
    assert header_new == header_old + b" " * (len_new - len(header_old))
    assert json.loads(header_new) == json.loads(header_old)  # what a loader before the padding reads
    assert raw_new[8 + len_new :] == raw_old[blob_start:]


def test_size_rule_picks_the_load_path(tmp_path, monkeypatch):
    path = tmp_path / "t.bin"
    container.save_tensors(path, _MIXED)
    size = path.stat().st_size
    monkeypatch.setattr(container, "_MAP_ABOVE", size)
    assert isinstance(_mapping(container.load_tensors(path)[0]["a.matrix"]), np.ndarray)
    monkeypatch.setattr(container, "_MAP_ABOVE", size - 1)
    assert isinstance(_mapping(container.load_tensors(path)[0]["a.matrix"]), mmap.mmap)


@pytest.mark.parametrize("mapped", [False, True], ids=["read", "map"])
def test_file_that_shrinks_after_its_size_is_read_is_format_error(tmp_path, monkeypatch, mapped):
    # fstat reports more bytes than the file holds, as if it shrank right after
    path = tmp_path / "t.bin"
    container.save_tensors(path, _MIXED)
    real_fstat = os.fstat

    def fstat(fd):
        st = real_fstat(fd)
        return os.stat_result((*st[:6], st.st_size + 64, *st[7:]))

    monkeypatch.setattr(os, "fstat", fstat)
    with pytest.raises(FormatError, match="file shrank while being read"):
        _load(path, mapped)


def test_mapped_tensors_are_private_views_of_one_mapping(tmp_path):
    path = tmp_path / "t.bin"
    container.save_tensors(path, _MIXED, meta={"depth": 1})
    before = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", before)
    header = json.loads(before[8 : 8 + header_len])
    loaded, _ = _load(path, mapped=True)
    assert len({id(_mapping(t)) for t in loaded.values()}) == 1
    assert isinstance(_mapping(loaded["a.matrix"]), mmap.mmap)
    assert (loaded["a.matrix"].ctypes.data - header["a.matrix"]["offset"]) % 64 == 0
    for arr in loaded.values():
        arr[...] = 7.0
    assert path.read_bytes() == before
    again, _ = _load(path, mapped=True)
    for name, arr in _MIXED.items():
        assert again[name].tobytes() == arr.tobytes()


def test_save_replaces_a_file_that_a_load_has_mapped(tmp_path):
    path = tmp_path / "t.bin"
    container.save_tensors(path, _MIXED)
    loaded, _ = _load(path, mapped=True)
    container.save_tensors(path, {name: arr + 1.0 for name, arr in _MIXED.items()})
    for name, arr in _MIXED.items():
        assert loaded[name].tobytes() == arr.tobytes()
        assert np.array_equal(container.load_tensors(path)[0][name], arr + 1.0)
    assert os.listdir(tmp_path) == ["t.bin"]


def test_save_through_a_symlink_updates_its_target(tmp_path):
    target, link = tmp_path / "real.bin", tmp_path / "link.bin"
    container.save_tensors(target, {"a": np.zeros(2, np.float32)})
    link.symlink_to(target.name)
    container.save_tensors(link, _MIXED)
    assert link.is_symlink() and link.read_bytes() == target.read_bytes()
    assert container.load_tensors(target)[0]["d.vector"].tobytes() == _MIXED["d.vector"].tobytes()
    assert sorted(os.listdir(tmp_path)) == ["link.bin", "real.bin"]


def test_save_keeps_the_mode_that_open_gives(tmp_path):
    with open(tmp_path / "by_open.bin", "wb"):
        pass
    container.save_tensors(tmp_path / "new.bin", _MIXED)
    assert (tmp_path / "new.bin").stat().st_mode == (tmp_path / "by_open.bin").stat().st_mode
    existing = tmp_path / "existing.bin"
    container.save_tensors(existing, _MIXED)
    existing.chmod(0o640)
    container.save_tensors(existing, _MIXED)
    assert existing.stat().st_mode & 0o777 == 0o640


def test_failed_save_leaves_no_temporary_file(tmp_path):
    (tmp_path / "dir.bin").mkdir()
    with pytest.raises(OSError):
        container.save_tensors(tmp_path / "dir.bin", _MIXED)  # the rename onto a directory fails
    assert os.listdir(tmp_path) == ["dir.bin"]


# ---------------------------------------------------------------- fuzzing: only FormatError escapes

_FUZZ = settings(max_examples=40, deadline=None)

_ANY_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(-(2**70), 2**70), max_size=3),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@pytest.fixture(scope="module")
def valid_container(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "valid.bin"
    tensors = {
        "a": np.arange(6, dtype=np.float32).reshape(2, 3),
        "b": np.ones(4, np.float32),
        "c": np.float32(2.5).reshape(()),
    }
    container.save_tensors(path, tensors, meta={"depth": 1})
    return path, path.read_bytes()


def _outcome(path, mapped: bool):
    try:
        tensors, meta = _load(path, mapped)
    except FormatError as exc:
        return str(exc)
    return repr(meta), [(name, arr.shape, arr.tobytes()) for name, arr in tensors.items()]


def _load_or_format_error(path, data: bytes) -> None:
    """Load data on the read path and on the mapped path: only FormatError may
    escape either, and both give the same tensors or the same error."""
    path.write_bytes(data)
    assert _outcome(path, mapped=False) == _outcome(path, mapped=True)


@_FUZZ
@given(st.data())
def test_fuzz_truncated_container(valid_container, data):
    path, raw = valid_container
    cut = data.draw(st.integers(0, len(raw) - 1))
    _load_or_format_error(path.with_name("cut.bin"), raw[:cut])


@_FUZZ
@given(st.data())
def test_fuzz_flipped_bytes_container(valid_container, data):
    path, raw = valid_container
    flips = data.draw(
        st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)), min_size=1, max_size=8)
    )
    buf = bytearray(raw)
    for pos, mask in flips:
        buf[pos] ^= mask
    _load_or_format_error(path.with_name("flip.bin"), bytes(buf))


@_FUZZ
@given(st.sampled_from(["a", "b", "c"]), st.sampled_from(["shape", "offset", "length"]), _ANY_JSON)
def test_fuzz_lying_tensor_entry(valid_container, name, key, value):
    path, raw = valid_container
    (header_len,) = struct.unpack_from("<Q", raw)
    header = json.loads(raw[8 : 8 + header_len])
    header[name][key] = value
    header_bytes = json.dumps(header).encode()
    lied = struct.pack("<Q", len(header_bytes)) + header_bytes + raw[8 + header_len :]
    _load_or_format_error(path.with_name("lie.bin"), lied)


@_FUZZ
@given(st.integers(0, 2**64 - 1))
def test_fuzz_lying_header_length(valid_container, header_len):
    path, raw = valid_container
    _load_or_format_error(path.with_name("len.bin"), struct.pack("<Q", header_len) + raw[8:])


def test_deeply_nested_header_is_format_error(tmp_path):
    payload = b"[" * 100_000
    (tmp_path / "t.bin").write_bytes(struct.pack("<Q", len(payload)) + payload)
    with pytest.raises(FormatError):
        container.load_tensors(tmp_path / "t.bin")


@pytest.mark.parametrize("shape", [[2**70], [2**40, 2**40], [1e400]])
def test_huge_dims_rejected(tmp_path, shape):
    _write_raw(tmp_path / "t.bin", {"w": {"shape": shape, "offset": 0, "length": 16}}, b"\x00" * 16)
    with pytest.raises(FormatError):
        container.load_tensors(tmp_path / "t.bin")
