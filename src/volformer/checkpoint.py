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
        array        one array record of rank at most MAX_RANK
                     (see volformer.data and README, "File formats")

Canonical field order plus canonical JSON make write -> read -> write
byte-identical. Arrays are stored as float32; float64 params (the
gradient-check precision) are cast on save.
"""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np

from .data import _array_record, _Reader, write_file
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
    cfg = _config_json(params.config)
    blob = bytearray(MAGIC + struct.pack("<HI", VERSION, len(cfg)) + cfg)
    blob += struct.pack("<I", len(named))
    for name, tensor in named:
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += _array_record(tensor.data)
    write_file(path, blob)


def read_raw_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Parse a VVCK file into its embedded config and named float32 arrays."""
    r = _Reader(path, MAGIC)
    (version,) = r.unpack("<H", "version")
    if version != VERSION:
        raise CheckpointMismatchError(
            f"{path}: unsupported checkpoint version {version}, expected {VERSION}"
        )
    (cfg_len,) = r.unpack("<I", "config length")
    cfg_bytes = r.take(cfg_len, "config JSON")
    try:
        fields = json.loads(str(cfg_bytes, "utf-8"))
        if isinstance(fields, dict):
            for key, old in _LEGACY_KEYS.items():
                if key in fields and type(fields[key]) is type(old) and fields[key] == old:
                    del fields[key]
        config = ModelConfig(**fields)
    except (ValueError, TypeError, RecursionError, ConfigError) as exc:
        raise FormatError(f"{path}: invalid embedded config: {exc}") from exc
    (count,) = r.unpack("<I", "array count")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H", "name length")
        start = r.offset
        try:
            name = str(r.take(name_len, "array name"), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path}: array name at byte {start} is not UTF-8: {exc}") from exc
        if name in arrays:
            raise FormatError(f"{path}: duplicate array '{name}' at byte {start}")
        arrays[name] = r.array(f"'{name}'", MAX_RANK)
    r.end()
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
        diffs = stored_config.differing_fields(expect_config)
        raise CheckpointMismatchError(
            f"{path}: checkpoint config differs in field(s): {', '.join(diffs)}"
        )
    return config, params
