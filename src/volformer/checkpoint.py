"""VVCK model checkpoint files.

Layout (all integers little-endian):

    magic   4 bytes  b"VVCK"
    version u16      currently 1
    config  u32 length, then that many bytes of canonical JSON
            (sorted keys, compact separators) for ModelConfig
    count   u32      number of parameter arrays
    arrays, in the canonical parameter order, each:
        name length  u16
        name         UTF-8 bytes
        rank         u8, at most MAX_RANK
        extents      rank x u32, none zero
        data         row-major float32

Canonical field order plus canonical JSON make write -> read -> write
byte-identical. Arrays are stored as float32; float64 params (the
gradient-check precision) are cast on save.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct

import numpy as np

from .data import write_file
from .errors import CheckpointMismatchError, ConfigError, FormatError
from .model import ModelConfig, ModelParams

MAGIC = b"VVCK"
VERSION = 1
MAX_RANK = 32  # the most axes numpy 1.x can hold (numpy 2.x: 64)

# Keys that earlier writers stored with the one value they could hold.
# A file carrying one of them at exactly that value still loads; any
# other value is an unknown key like any other.
_LEGACY_KEYS = {"dropout": 0.0, "pooling": "global_average"}


def _config_json(config: ModelConfig) -> bytes:
    return json.dumps(dataclasses.asdict(config), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, params: ModelParams) -> None:
    """Write params (and their config) to a VVCK file, through
    data.write_file: a write that fails partway leaves any previous file
    at `path` intact and no temporary file behind."""
    named = params.named_parameters()
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<H", VERSION)
    cfg = _config_json(params.config)
    blob += struct.pack("<I", len(cfg))
    blob += cfg
    blob += struct.pack("<I", len(named))
    for name, tensor in named:
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        arr = np.ascontiguousarray(tensor.data, dtype="<f4")
        blob += struct.pack("<B", arr.ndim)
        for extent in arr.shape:
            blob += struct.pack("<I", extent)
        blob += arr.tobytes()
    write_file(path, blob)


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.path = path
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.buf):
            raise FormatError(
                f"{self.path}: truncated reading {what} at byte {self.offset}: "
                f"need {n} bytes, {len(self.buf) - self.offset} remain"
            )
        chunk = self.buf[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def u8(self, what):
        return self.take(1, what)[0]

    def u16(self, what):
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]


def read_raw_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Parse a VVCK file into its embedded config and named float32 arrays."""
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf, path)
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic at byte 0: expected {MAGIC!r}, got {magic!r}")
    version = r.u16("version")
    if version != VERSION:
        raise CheckpointMismatchError(
            f"{path}: unsupported checkpoint version {version}, expected {VERSION}"
        )
    cfg_len = r.u32("config length")
    cfg_bytes = r.take(cfg_len, "config JSON")
    try:
        fields = json.loads(cfg_bytes.decode("utf-8"))
        if isinstance(fields, dict):
            for key, old in _LEGACY_KEYS.items():
                if key in fields and type(fields[key]) is type(old) and fields[key] == old:
                    del fields[key]
        config = ModelConfig(**fields)
    except (ValueError, TypeError, RecursionError, ConfigError) as exc:
        raise FormatError(f"{path}: invalid embedded config: {exc}") from exc
    count = r.u32("array count")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = r.u16("name length")
        start = r.offset
        try:
            name = r.take(name_len, "array name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path}: array name at byte {start} is not UTF-8: {exc}") from exc
        if name in arrays:
            raise FormatError(f"{path}: duplicate array '{name}' at byte {start}")
        rank_at = r.offset
        rank = r.u8(f"rank of '{name}'")
        shape = tuple(r.u32(f"extent of '{name}'") for _ in range(rank))
        n = math.prod(shape)  # Python ints: no int64 wrap to 0
        if n == 0 or rank > MAX_RANK:
            raise FormatError(f"{path}: array '{name}' at byte {rank_at} has a zero extent "
                              f"or over {MAX_RANK} axes: shape {shape}")
        raw = r.take(4 * n, f"data of '{name}'")
        arr = np.frombuffer(raw, dtype="<f4", count=n).reshape(shape)
        arrays[name] = arr.astype(np.float32, copy=True)
    if r.offset != len(buf):
        raise FormatError(
            f"{path}: {len(buf) - r.offset} trailing bytes after byte {r.offset}"
        )
    return config, arrays


def load_checkpoint(path, expect_config: ModelConfig | None = None
                    ) -> tuple[ModelConfig, ModelParams]:
    """Load a checkpoint, optionally validating against an expected config.

    With expect_config given, every stored array must match the shape the
    expected config implies (the first offender is named), and the
    configs must agree field for field.
    """
    stored_config, arrays = read_raw_checkpoint(path)
    config = expect_config if expect_config is not None else stored_config
    params = ModelParams.from_arrays(config, arrays)
    if expect_config is not None and stored_config != expect_config:
        diffs = [
            f.name for f in dataclasses.fields(ModelConfig)
            if getattr(stored_config, f.name) != getattr(expect_config, f.name)
        ]
        raise CheckpointMismatchError(
            f"{path}: checkpoint config differs in field(s): {', '.join(diffs)}"
        )
    return config, params
