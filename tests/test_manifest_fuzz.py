"""Value fuzzing of the manifest's entry fields.

Whatever value a manifest line gives `path`, `label`, `subject_id` or
`split`, `volformer preprocess` and `volformer predict` on that manifest
end in an exit code (1, 2 or 3 for a bad value, 0 for one that happens to
be valid), never in another exception. Values are the config fuzz's raw
text (JSON of any shape, integers past Python's 4300-digit conversion
limit, deep nesting, text that is not JSON) plus JSON strings holding NUL
or lone surrogates, which a manifest line may spell as \\u escapes. The
other fields of the line name a real volume, and the examples are
derandomized, so every run tries the same values.
"""

import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import tiny_config
from test_config_fuzz import raw_values
from volformer.checkpoint import save_checkpoint
from volformer.cli import main
from volformer.model import ModelParams

FIELDS = ("path", "label", "subject_id", "split")
FUZZ = settings(max_examples=40, derandomize=True, deadline=None)
# a lone high or low surrogate fails os.fsencode; \udc80-\udcff do not
surrogates = st.sampled_from(["\ud800", "\udfff.vvol", "a\udc00b", "\udc80\udcff",
                              "\ud800\0"]).map(json.dumps)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """(directory, config path, one manifest record with every field) of a
    synthetic set at the tiny config, with a checkpoint for predict."""
    root = tmp_path_factory.mktemp("manifest_fuzz")
    config = tiny_config()
    doc = {"model": dataclasses.asdict(config), "synth": {"n_per_class": 1, "seed": 3},
           "paths": {"manifest": str(root / "synth.jsonl"), "data_dir": str(root / "data"),
                     "out_dir": str(root / "processed"),
                     "checkpoint_dir": str(root / "ckpt")}}
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["synth", "--config", str(cfg), "--quiet"]) == 0
    (root / "ckpt").mkdir()
    save_checkpoint(root / "ckpt" / "model.vvck", ModelParams.zeros(config))
    return root, cfg, json.loads((root / "synth.jsonl").read_text().splitlines()[0])


@pytest.mark.parametrize("field", FIELDS)
@FUZZ
@given(raw=raw_values | surrogates)
@example(raw='"\\ud800.vvol"')
@example(raw='"a\\u0000b"')
@example(raw="9" * 5000)
@example(raw=str(10**40))
def test_manifest_value(dataset, field, raw):
    root, cfg, record = dataset
    fields = [f"{json.dumps(key)}: {raw if key == field else json.dumps(value)}"
              for key, value in record.items()]
    manifest = root / "fuzz.jsonl"
    manifest.write_text("{" + ", ".join(fields) + "}\n", encoding="utf-8")
    common = ["--config", str(cfg), "--quiet", "--force",
              "--set", f"paths.manifest={manifest}"]
    assert main(["preprocess", *common]) in (0, 1, 2, 3)
    assert main(["predict", *common, "--out", str(root / "pred.jsonl")]) in (0, 1, 2, 3)
