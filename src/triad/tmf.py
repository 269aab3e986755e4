"""TMF1 tensor files and the checkpoint container format.

TMF1 block layout: 4-byte magic ``TMF1``, one dtype byte (1 = f32, 2 = f64),
one rank byte, rank little-endian u32 extents, then the row-major
little-endian payload.

A checkpoint file is a 4-byte little-endian header length, a canonical JSON
header (names, shapes, dtype, offsets, step, seed, config hash, config
snapshot), then the concatenated TMF1 blocks.  Loading and re-saving a
checkpoint reproduces identical bytes.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"TMF1"
_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODES = {np.dtype("float32"): 1, np.dtype("float64"): 2}


class TmfFormatError(ValueError):
    pass


def tensor_bytes(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _CODES:
        arr = arr.astype(np.float64)
    code = _CODES[arr.dtype]
    header = MAGIC + struct.pack("<BB", code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + arr.astype(_DTYPES[code]).tobytes()


def write_tensor(path, arr: np.ndarray) -> None:
    Path(path).write_bytes(tensor_bytes(arr))


def tensor_from_bytes(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one TMF1 block; returns (array, offset past the block)."""
    if buf[offset:offset + 4] != MAGIC:
        raise TmfFormatError("bad magic: not a TMF1 block")
    if len(buf) < offset + 6 or len(buf) < offset + 6 + 4 * buf[offset + 5]:
        raise TmfFormatError("truncated TMF1 header")
    code, rank = struct.unpack_from("<BB", buf, offset + 4)
    if code not in _DTYPES:
        raise TmfFormatError(f"unknown dtype code {code}")
    shape = struct.unpack_from(f"<{rank}I", buf, offset + 6)
    dtype = _DTYPES[code]
    start = offset + 6 + 4 * rank
    count = math.prod(shape)  # exact: np.prod would wrap in int64
    end = start + count * dtype.itemsize
    if end > len(buf):
        raise TmfFormatError("truncated TMF1 payload")
    arr = np.frombuffer(buf, dtype, count=count, offset=start).reshape(shape)
    return arr.copy(), end


def read_tensor(path) -> np.ndarray:
    try:
        arr, _ = tensor_from_bytes(Path(path).read_bytes())
    except TmfFormatError as exc:
        raise TmfFormatError(f"{path}: {exc}") from None
    return arr


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def save_checkpoint(path, arrays: dict[str, np.ndarray], step: int, seed: int,
                    config_hash: str, config: dict) -> None:
    blocks: list[bytes] = []
    offsets: dict[str, int] = {}
    pos = 0
    for name, arr in arrays.items():
        block = tensor_bytes(np.asarray(arr).astype(np.float64))
        offsets[name] = pos
        pos += len(block)
        blocks.append(block)
    header = canonical_json({
        "names": list(arrays),
        "shapes": {n: list(np.asarray(a).shape) for n, a in arrays.items()},
        "dtype": "f64",
        "offsets": offsets,
        "step": step,
        "seed": seed,
        "config_hash": config_hash,
        "config": config,
    })
    with open(path, "wb") as f:
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for block in blocks:
            f.write(block)


def load_checkpoint(path) -> dict:
    """Returns {'arrays': {...}, 'step', 'seed', 'config_hash', 'config', 'dtype'}.

    A truncated or corrupt file, or an array holding NaN or Inf, raises
    `TmfFormatError`.
    """
    buf = Path(path).read_bytes()
    if len(buf) < 4:
        raise TmfFormatError(f"{path}: truncated checkpoint file")
    (hlen,) = struct.unpack_from("<I", buf, 0)
    base = 4 + hlen
    if base > len(buf):
        raise TmfFormatError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(buf[4:base].decode())
        arrays: dict[str, np.ndarray] = {}
        for name in header["names"]:
            arr, _ = tensor_from_bytes(buf, base + header["offsets"][name])
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite values in array {name!r}")
            arrays[name] = arr
        return {
            "arrays": arrays,
            "step": header["step"],
            "seed": header["seed"],
            "config_hash": header["config_hash"],
            "config": header["config"],
            "dtype": header["dtype"],
        }
    except (ValueError, KeyError, TypeError) as exc:  # JSON, UTF-8 and TMF1 errors
        raise TmfFormatError(f"{path}: corrupt checkpoint: {exc}") from None


def write_pgm(path, values: np.ndarray) -> None:
    """8-bit PGM rendering of a map, linearly scaled to [0, 255]."""
    v = np.asarray(values, dtype=np.float64)
    lo, hi = float(v.min()), float(v.max())
    scaled = np.zeros_like(v) if hi <= lo else (v - lo) / (hi - lo) * 255.0
    img = scaled.round().astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(img.tobytes())
