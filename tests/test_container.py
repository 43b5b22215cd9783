import json
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
    payload = b"not json!!"
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


def _load_or_format_error(path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        container.load_tensors(path)
    except FormatError:
        pass


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
