from pathlib import Path

import numpy as np
import pytest

from listrank.checkpoint import load_checkpoint, save_checkpoint, write_atomic, write_jsonl
from listrank.errors import ListrankError
from listrank.reranker import RankedEntry, RankedResult, write_run
from listrank.trainer import StageConfig


@pytest.fixture
def tensors():
    rng = np.random.default_rng(0)
    return {
        "b.matrix": rng.normal(size=(3, 4)),
        "a.vector": rng.normal(size=7),
        "c.scalar": np.array(3.5),
    }


class TestRoundTrip:
    def test_bit_exact(self, tensors, tmp_path):
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, tensors, meta={"kind": "test", "step": 12})
        loaded, meta = load_checkpoint(path)
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert loaded[name].shape == tensors[name].shape
            np.testing.assert_array_equal(loaded[name], tensors[name])
        assert meta == {"kind": "test", "step": 12}

    def test_extreme_values_survive(self, tmp_path):
        path = tmp_path / "w.ckpt"
        vals = np.array([0.0, -0.0, 1e-308, 1e308, np.pi, -np.e, 2**-52])
        save_checkpoint(path, {"v": vals})
        loaded, _ = load_checkpoint(path)
        np.testing.assert_array_equal(loaded["v"], vals)
        # sign of negative zero is preserved
        assert np.signbit(loaded["v"][1])


class TestDeterminism:
    def test_same_tensors_same_bytes(self, tensors, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, tensors, meta={"k": 1})
        save_checkpoint(p2, dict(reversed(list(tensors.items()))), meta={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()


class TestErrors:
    def test_truncated(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"\x00\x01")
        with pytest.raises(ListrankError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path, tensors):
        import json
        import struct

        path = tmp_path / "bad.ckpt"
        header = json.dumps({"magic": "nope", "tensors": []}).encode()
        path.write_bytes(struct.pack(">Q", len(header)) + header)
        with pytest.raises(ListrankError, match="magic"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path, tensors):
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, tensors)
        path.write_bytes(path.read_bytes() + bytes(64))
        with pytest.raises(ListrankError, match="64 bytes after the last tensor"):
            load_checkpoint(path)

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        import struct

        path.write_bytes(struct.pack(">Q", 4) + b"\xff\xfe{]")
        with pytest.raises(ListrankError, match="malformed"):
            load_checkpoint(path)


def _write_half_then_fail(self, data):
    """Stands in for ``Path.write_bytes`` on a full disk: half the bytes land."""
    with open(self, "wb") as fh:
        fh.write(data[: len(data) // 2])
    raise OSError("No space left on device")


WRITERS = {
    "checkpoint": lambda path, v: save_checkpoint(path, {"w": np.full(4, v)}),
    "run": lambda path, v: write_run(
        path, {"q1": RankedResult([RankedEntry("d1", v, 1, 0)], "given")}),
    "loss trace": lambda path, v: write_jsonl(path, [{"step": 0, "total": v}]),
    "stage config": lambda path, v: StageConfig(temperature=v).save(path),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_the_old_file(writer, tmp_path, monkeypatch):
    path = tmp_path / "out"
    WRITERS[writer](path, 0.5)
    old = path.read_bytes()
    monkeypatch.setattr(Path, "write_bytes", _write_half_then_fail)
    with pytest.raises(OSError, match="No space"):
        WRITERS[writer](path, 0.25)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("where", ["missing directory", "directory in the way"])
def test_failed_write_names_the_file_asked_for(where, tmp_path):
    """The error names ``path``, not the hidden temp file written beside it."""
    path = tmp_path / "nodir" / "out" if where == "missing directory" else tmp_path / "out"
    if where == "directory in the way":
        path.mkdir()
    with pytest.raises(OSError) as info:
        write_atomic(path, b"data")
    assert (info.value.filename, info.value.filename2) == (str(path), None)
    assert str(info.value).endswith(f": {str(path)!r}")
    assert not list(tmp_path.rglob("*.tmp"))
