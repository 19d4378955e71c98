"""Versioned binary model checkpoints with bit-exact round-trips.

Layout: magic ``MPWA``, format version (u32 LE), a length-prefixed JSON
metadata block (config, language list, word vocabulary), then named arrays,
each as name, dtype code, shape, and raw little-endian data. Model parameters
are 32-bit floats; standardizer statistics are stored as 64-bit arrays.
"""

import io
import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .features import FeatureStandardizer
from .gnn import PARAM_NAMES, TrainConfig, param_shapes

MAGIC = b"MPWA"
VERSION = 5

_DTYPES = {0: "<f4", 1: "<f8", 2: "<i4", 3: "<i8"}
_DTYPE_CODES = {np.dtype(v): k for k, v in _DTYPES.items()}


class CheckpointError(ValueError):
    pass


def _write_array(buf: io.BytesIO, name: str, arr: np.ndarray) -> None:
    data = np.ascontiguousarray(arr)
    dtype = data.dtype.newbyteorder("<")
    if dtype not in _DTYPE_CODES:
        raise CheckpointError(f"array {name!r} has unsupported dtype {arr.dtype}")
    nameb = name.encode("utf-8")
    buf.write(struct.pack("<H", len(nameb)))
    buf.write(nameb)
    buf.write(struct.pack("<BB", _DTYPE_CODES[dtype], data.ndim))
    for dim in data.shape:
        buf.write(struct.pack("<Q", dim))
    buf.write(data.astype(dtype, copy=False).tobytes())


def _read_exact(fh, count: int) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise CheckpointError("truncated checkpoint")
    return data


def _read_array(fh) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
    name = _read_exact(fh, name_len).decode("utf-8")
    code, ndim = struct.unpack("<BB", _read_exact(fh, 2))
    if code not in _DTYPES:
        raise CheckpointError(f"array {name!r}: unknown dtype code {code}")
    shape = tuple(struct.unpack("<Q", _read_exact(fh, 8))[0] for _ in range(ndim))
    dtype = np.dtype(_DTYPES[code])
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    data = np.frombuffer(_read_exact(fh, count * dtype.itemsize), dtype=dtype)
    return name, data.reshape(shape).copy()


def save_checkpoint(
    path: str | Path,
    params: dict[str, np.ndarray],
    standardizer: FeatureStandardizer,
    languages: list[str],
    word_vocab: dict[tuple[str, str], int],
    train_config: TrainConfig,
) -> None:
    meta = {
        "languages": list(languages),
        "word_vocab": [list(k) for k, _ in sorted(word_vocab.items(), key=lambda kv: kv[1])],
        "train_config": asdict(train_config),  # tuples become JSON lists
    }
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    buf.write(struct.pack("<Q", len(meta_bytes)))
    buf.write(meta_bytes)
    arrays = [(name, params[name]) for name in PARAM_NAMES]
    arrays.append(("standardizer.mean", standardizer.mean.astype("<f8")))
    arrays.append(("standardizer.std", standardizer.std.astype("<f8")))
    buf.write(struct.pack("<I", len(arrays)))
    for name, arr in arrays:
        _write_array(buf, name, arr)
    Path(path).write_bytes(buf.getvalue())


def load_checkpoint(path: str | Path):
    """Returns (params, standardizer, languages, word_vocab, train_config)."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic bytes")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != VERSION:
            raise CheckpointError(
                f"{path}: unsupported version {version} (this mpalign reads "
                f"version {VERSION}); retrain the model"
            )
        (meta_len,) = struct.unpack("<Q", _read_exact(fh, 8))
        meta = json.loads(_read_exact(fh, meta_len).decode("utf-8"))
        (n_arrays,) = struct.unpack("<I", _read_exact(fh, 4))
        arrays = dict(_read_array(fh) for _ in range(n_arrays))
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes")

    stored = meta["train_config"]
    train_config = TrainConfig(**{**stored, "ablate": tuple(stored["ablate"])})
    missing = [n for n in PARAM_NAMES if n not in arrays]
    if missing:
        raise CheckpointError(f"{path}: missing arrays {missing}")
    params = {name: arrays[name] for name in PARAM_NAMES}
    _validate_shapes(params, train_config, len(meta["languages"]), len(meta["word_vocab"]))
    standardizer = FeatureStandardizer(
        arrays["standardizer.mean"], arrays["standardizer.std"]
    )
    word_vocab = {tuple(item): i for i, item in enumerate(meta["word_vocab"])}
    return params, standardizer, list(meta["languages"]), word_vocab, train_config


def _validate_shapes(params, cfg: TrainConfig, n_languages: int, vocab_size: int) -> None:
    for name, shape in param_shapes(cfg, n_languages, vocab_size).items():
        if params[name].shape != shape:
            raise CheckpointError(
                f"dimension mismatch for {name}: stored {params[name].shape}, "
                f"config implies {shape}"
            )
