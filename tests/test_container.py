"""Binary container format: round trips, validation, dtype handling."""

import json
import struct

import numpy as np
import pytest

from mgnt import container
from mgnt.container import MAGIC, read_arrays, write_arrays
from mgnt.errors import SchemaFormatError


def test_roundtrip_values(tmp_path):
    path = tmp_path / "a.mgnt"
    arrays = {
        "X": np.arange(12, dtype=np.float64).reshape(3, 4),
        "ids": np.array([3, 1, 2], dtype=np.int64),
        "scalar": np.array([0.25]),
    }
    write_arrays(path, arrays, meta={"kind": "test", "n": 3})
    loaded, meta = read_arrays(path)
    assert list(loaded) == ["X", "ids", "scalar"]
    assert meta == {"kind": "test", "n": 3}
    for k in arrays:
        np.testing.assert_array_equal(loaded[k], arrays[k])
    assert loaded["ids"].dtype == np.int64


def test_write_read_write_is_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.mgnt", tmp_path / "b.mgnt"
    rng = np.random.default_rng(7)
    arrays = {"w": rng.standard_normal((5, 7)), "t": rng.integers(0, 9, size=11)}
    write_arrays(p1, arrays, meta={"tag": "x", "v": 1})
    loaded, meta = read_arrays(p1)
    write_arrays(p2, loaded, meta=meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_magic_is_checked(tmp_path):
    path = tmp_path / "bad.mgnt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(SchemaFormatError, match="magic"):
        read_arrays(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.mgnt"
    write_arrays(path, {"a": np.ones(8)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(SchemaFormatError, match="truncated"):
        read_arrays(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.mgnt"
    write_arrays(path, {"a": np.ones(4)})
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(SchemaFormatError, match="trailing"):
        read_arrays(path)


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(SchemaFormatError, match="dtype"):
        write_arrays(tmp_path / "c.mgnt", {"c": np.array(["a", "b"])})


def test_duplicate_names_rejected(tmp_path):
    class Two:
        def items(self):
            return [("a", np.ones(2)), ("a", np.ones(2))]

    with pytest.raises(SchemaFormatError, match="duplicate"):
        write_arrays(tmp_path / "d.mgnt", Two())


def test_int32_and_float32_coerced(tmp_path):
    path = tmp_path / "c.mgnt"
    write_arrays(path, {"i": np.array([1, 2], dtype=np.int32),
                        "f": np.array([1.5], dtype=np.float32)})
    loaded, _ = read_arrays(path)
    assert loaded["i"].dtype == np.int64
    assert loaded["f"].dtype == np.float64


def test_magic_prefix_present(tmp_path):
    path = tmp_path / "m.mgnt"
    write_arrays(path, {"a": np.zeros(1)})
    assert path.read_bytes()[:8] == MAGIC


def _craft(path, header, payload=b""):
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw + payload)


_GOOD = {"name": "a", "dtype": "f64", "shape": [1], "byte_offset": 0}


@pytest.mark.parametrize("bad", [  # a None value leaves the key out
    {"byte_offset": -8},
    {"byte_offset": 0.0},
    {"byte_offset": "0"},
    {"byte_offset": None},
    {"name": None},
    {"name": 7},
    {"dtype": None},
    {"dtype": ["f64"]},
    {"shape": None},
    {"shape": 1},
    {"shape": [-1]},
    {"shape": [1.0]},
    {"shape": [True]},
    {"shape": ["1"]},
], ids=lambda bad: "".join(f"{k}={v!r}" for k, v in bad.items()))
def test_malformed_entry_rejected(tmp_path, bad):
    entry = {k: v for k, v in {**_GOOD, **bad}.items() if v is not None}
    path = tmp_path / "bad.mgnt"
    _craft(path, {"arrays": [entry], "meta": {}}, np.ones(1).tobytes())
    with pytest.raises(SchemaFormatError):
        read_arrays(path)


@pytest.mark.parametrize("header", [
    [],
    {"arrays": {"a": _GOOD}},
    {"arrays": ["a"]},
    {"arrays": [_GOOD, _GOOD]},
    {"arrays": [_GOOD], "meta": []},
    {"arrays": [{**_GOOD, "shape": [2**40, 2**40]}]},
], ids=["list", "arrays-dict", "entry-str", "duplicate-name", "meta-list", "huge-shape"])
def test_malformed_header_rejected(tmp_path, header):
    path = tmp_path / "bad.mgnt"
    _craft(path, header, np.ones(1).tobytes())
    with pytest.raises(SchemaFormatError):
        read_arrays(path)


@pytest.mark.parametrize("offsets, gap", [((0, 8, 64), 0), ((0, 40, 72), 8)],
                         ids=["overlap", "gap"])
def test_unpacked_offsets_rejected(tmp_path, offsets, gap):
    """Every array lies inside the payload and the last one ends at its end;
    only packing in header order catches b's edited offset."""
    arrays = [np.arange(k, k + 4, dtype="<i8") for k in (0, 10, 20)]
    entries = [{"name": name, "dtype": "i64", "shape": [4], "byte_offset": offset}
               for name, offset in zip("abc", offsets)]
    path = tmp_path / "u.mgnt"
    _craft(path, {"arrays": entries, "meta": {}},
           arrays[0].tobytes() + bytes(gap) + arrays[1].tobytes() + arrays[2].tobytes())
    with pytest.raises(SchemaFormatError, match=f"array 'b' starts at byte {offsets[1]}, not 32"):
        read_arrays(path)


def test_interrupted_write_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.mgnt"
    write_arrays(path, {"a": np.arange(4.0)}, meta={"v": 1})
    before = path.read_bytes()

    class FailingFile:
        def __init__(self, f):
            self.f, self.writes = f, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, raw):
            self.writes += 1
            if self.writes == 3:
                raise OSError("disk full")
            return self.f.write(raw)

    monkeypatch.setattr(container, "open", lambda p, mode: FailingFile(open(p, mode)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        write_arrays(path, {"a": np.zeros(1000)}, meta={"v": 2})
    monkeypatch.undo()
    assert path.read_bytes() == before
    arrays, meta = read_arrays(path)
    np.testing.assert_array_equal(arrays["a"], np.arange(4.0))
    assert meta == {"v": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.mgnt"]
