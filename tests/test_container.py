import json
import struct

import numpy as np
import pytest

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
