"""Named-tensor checkpoint files.

Layout: an 8-byte big-endian header length, a UTF-8 JSON header with
optional metadata and a manifest of (name, shape, offset) entries, then
the tensors back to back in manifest order as one little-endian float64
blob, with nothing after them. Round-trips are bit-exact and
byte-deterministic: saving the same tensors twice yields identical files.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from pathlib import Path

import numpy as np

from .errors import ListrankError

_MAGIC = "listrank-ckpt-v1"


def write_atomic(path, data: bytes) -> None:
    """Write a temp file beside ``path``, then ``os.replace`` it over ``path``:
    a write that fails midway leaves the old file whole and no temp file, and
    its ``OSError`` names ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as exc:
        if exc.errno is None:
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from exc  # not the temp file's name
    finally:
        tmp.unlink(missing_ok=True)


def write_jsonl(path, records) -> None:
    """One JSON object per line, keys sorted, written through ``write_atomic``."""
    write_atomic(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
                 .encode("utf-8"))


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"{text} is not a JSON number a float can hold")
    return value


def _float_sized_int(text: str) -> int:
    value = int(text)
    if abs(value) > sys.float_info.max:  # int and float compare exactly
        raise ValueError(f"an integer of {len(text.lstrip('-'))} digits does not fit a float")
    return value


_STRICT_JSON = json.JSONDecoder(parse_constant=_refuse_constant, parse_float=_finite_float,
                                parse_int=_float_sized_int)


def parse_json(data, where: str):
    """Decode UTF-8 JSON (bytes or text) as RFC 8259 has it: ``NaN``, ``Infinity``,
    ``-Infinity``, numbers beyond float range (integers too) and strings holding a
    lone surrogate are refused. Every failure is a ``ListrankError`` reading
    "<where>: <reason>"."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        value = _STRICT_JSON.decode(text)
        # only a \u escape spells a lone surrogate; a one-character search is much faster
        if "\\" in text and "\\u" in text:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ListrankError(
            f"{where}: lone surrogate {exc.object[exc.start]!r} in a string") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, malformed or too deep JSON
        raise ListrankError(f"{where}: {exc}") from exc
    return value


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write ``{name: ndarray}`` to ``path``."""
    arrays = {}
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype=np.float64)
        # ascontiguousarray promotes 0-d arrays to 1-d; keep the true shape
        arrays[name] = np.ascontiguousarray(arr).reshape(arr.shape)
    manifest = []
    offset = 0
    for name, arr in arrays.items():
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
    header = json.dumps(
        {"magic": _MAGIC, "meta": meta or {}, "tensors": manifest},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    blobs = [arr.astype("<f8", copy=False).tobytes() for arr in arrays.values()]
    write_atomic(path, b"".join([struct.pack(">Q", len(header)), header, *blobs]))


def load_checkpoint(path):
    """Read a checkpoint, returning ``({name: ndarray}, meta)``."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 8:
        raise ListrankError(f"{path}: truncated checkpoint")
    (hlen,) = struct.unpack(">Q", raw[:8])
    if 8 + hlen > len(raw):
        raise ListrankError(f"{path}: truncated checkpoint header "
                            f"({hlen} bytes declared, {len(raw) - 8} present)")
    header = parse_json(raw[8 : 8 + hlen], f"{path}: malformed checkpoint header")
    if not isinstance(header, dict) or header.get("magic") != _MAGIC:
        raise ListrankError(f"{path}: not a checkpoint file (bad magic)")
    entries = header.get("tensors")
    # type() rather than isinstance: JSON true/false is not a size
    if not (isinstance(entries, list) and isinstance(header.get("meta", {}), dict) and all(
            isinstance(e, dict) and isinstance(e.get("name"), str)
            and isinstance(e.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in e["shape"]) for e in entries)):
        raise ListrankError(f"{path}: malformed checkpoint header (tensors or meta)")
    blob = raw[8 + hlen :]
    tensors = {}
    start = 0  # each tensor starts where the one listed before it ends
    for entry in entries:
        name, shape = entry["name"], tuple(entry["shape"])
        if name in tensors:
            raise ListrankError(f"{path}: malformed checkpoint header: tensor {name!r} "
                                "is listed twice")
        if entry.get("offset") != start:  # None when the entry has no offset
            raise ListrankError(f"{path}: malformed checkpoint header: tensor {name!r} "
                                f"at byte {entry.get('offset')!r}, expected {start}")
        count = math.prod(shape)  # exact: np.prod wraps around in int64
        if start + 8 * count > len(blob):
            raise ListrankError(f"{path}: truncated checkpoint: tensor {name!r} "
                                f"at bytes {start}..{start + 8 * count} overruns the "
                                f"{len(blob)}-byte data blob")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=start)
        try:
            tensors[name] = arr.reshape(shape).astype(np.float64)
        except ValueError as exc:  # too many dimensions, or an empty one numpy cannot size
            raise ListrankError(f"{path}: malformed checkpoint header: tensor {name!r} "
                                f"of shape {list(shape)}: {exc}") from exc
        start += 8 * count
    if start != len(blob):
        raise ListrankError(f"{path}: malformed checkpoint: {len(blob) - start} bytes "
                            "after the last tensor")
    return tensors, header.get("meta", {})

