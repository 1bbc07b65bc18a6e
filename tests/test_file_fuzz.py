"""Byte-mutation fuzzing of the file readers.

Whatever the bytes of a VVOL, a VVCK, a manifest or a run config, reading
them either succeeds or ends in a VolformerError or an OSError (exit 1, 2
or 3 at the command line), never in another exception. Each example
mutates a valid file with one to four edits: set a byte, insert or delete
a few, or cut the file short. Half of the edits land near the offsets
where the format's headers sit, since most bytes of a VVOL or a VVCK are
float data that any value fills. The examples are derandomized, so every
run tries the same files.
"""

import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config
from volformer import data as D
from volformer.checkpoint import load_checkpoint, save_checkpoint
from volformer.cli import load_run_config
from volformer.errors import VolformerError
from volformer.model import ModelParams

CONFIG = tiny_config()
FUZZ = settings(max_examples=200, derandomize=True, deadline=None)


@st.composite
def mutated(draw, blob: bytes, hot: list[int]) -> bytes:
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            at = draw(st.sampled_from(hot)) + draw(st.integers(0, 31))
        else:
            at = draw(st.integers(0, len(out)))
        at = min(at, len(out))
        edit = draw(st.sampled_from(("set", "insert", "delete", "cut")))
        if edit == "set" and at < len(out):
            out[at] = draw(st.integers(0, 255))
        elif edit == "insert":
            out[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif edit == "delete":
            del out[at : at + draw(st.integers(1, 8))]
        elif edit == "cut":
            del out[at:]
    return bytes(out)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A directory holding a valid file of each format; the manifest lists
    six tiny volumes beside it."""
    root = tmp_path_factory.mktemp("fuzz")
    D.gen_synthetic(2, CONFIG.input_shape, seed=0, out_dir=root).save(
        root / "manifest.jsonl")
    save_checkpoint(root / "model.vvck", ModelParams.initialize(CONFIG, seed=0))
    (root / "run.json").write_text(json.dumps({
        "model": {f: getattr(CONFIG, f) for f in ("slices", "height", "width",
                                                  "patch_slices", "patch_height",
                                                  "patch_width", "embed_dim",
                                                  "num_heads", "num_layers")},
        "train": {"epochs": 3, "batch_size": 8, "learning_rate": 1e-3},
        "split": {"folds": 3, "stratify_by": "subject"},
        "synth": {"n_per_class": 10, "noise_sigma": 0.2},
        "preprocess": {"central_slices": None},
        "paths": {"manifest": "m.jsonl", "report": "r.json"},
    }))
    # each valid file reads cleanly
    assert len(D.DatasetManifest.load(root / "manifest.jsonl").load_volumes()) == 6
    assert load_checkpoint(root / "model.vvck", expect_config=CONFIG)[0] == CONFIG
    assert load_run_config(str(root / "run.json"), [], None).model == CONFIG
    return root


def survives(read, path, blob: bytes) -> None:
    """Write blob to path and read it back: success, a VolformerError and
    an OSError pass, any other exception fails the test."""
    path.write_bytes(blob)
    try:
        read(path)
    except (VolformerError, OSError):
        pass


def vvck_offsets(blob: bytes) -> list[int]:
    """Every 16th byte of a VVCK's header, then the start of each array
    record (its name length)."""
    header = 14 + struct.unpack_from("<I", blob, 6)[0]
    offsets = list(range(0, header, 16))
    at = header
    while at < len(blob):
        offsets.append(at)
        name_len = struct.unpack_from("<H", blob, at)[0]
        rank = blob[at + 2 + name_len]
        shape = struct.unpack_from(f"<{rank}I", blob, at + 3 + name_len)
        at += 3 + name_len + 4 * rank + 4 * math.prod(shape)
    return offsets


@FUZZ
@given(data=st.data())
def test_vvol_bytes(valid, data):
    blob = (valid / "c0_0000.vvol").read_bytes()
    survives(D.read_volume, valid / "case.vvol", data.draw(mutated(blob, [0, 8])))


@FUZZ
@given(data=st.data())
def test_vvck_bytes(valid, data):
    blob = (valid / "model.vvck").read_bytes()

    def read(path):
        load_checkpoint(path)
        load_checkpoint(path, expect_config=CONFIG)

    survives(read, valid / "case.vvck", data.draw(mutated(blob, vvck_offsets(blob))))


@FUZZ
@given(data=st.data())
def test_manifest_bytes(valid, data):
    blob = (valid / "manifest.jsonl").read_bytes()
    survives(lambda path: D.DatasetManifest.load(path).load_volumes(),
             valid / "case.jsonl", data.draw(mutated(blob, [0])))


@FUZZ
@given(data=st.data())
def test_run_config_bytes(valid, data):
    blob = (valid / "run.json").read_bytes()
    survives(lambda path: load_run_config(str(path), [], None),
             valid / "case.json", data.draw(mutated(blob, [0])))
