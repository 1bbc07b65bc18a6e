"""End-to-end tests of the command-line pipeline."""

import hashlib
import json
import os
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from conftest import set_config_keys
import volformer
from volformer.cli import main

SRC_DIR = os.path.dirname(os.path.dirname(volformer.__file__))

TINY_MODEL = {"slices": 4, "height": 8, "width": 8, "channels": 1,
              "patch_slices": 2, "patch_height": 4, "patch_width": 4,
              "embed_dim": 8, "num_heads": 2, "num_layers": 2, "num_classes": 3}


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {
        "model": dict(TINY_MODEL),
        "train": {"epochs": 3, "batch_size": 8, "learning_rate": 1e-3, "seed": 5},
        "synth": {"n_per_class": 10, "seed": 7},
        "paths": {
            "manifest": str(tmp_path / "manifest.jsonl"),
            "data_dir": str(tmp_path / "data"),
            "out_dir": str(tmp_path / "processed"),
            "checkpoint_dir": str(tmp_path / "ckpt"),
            "report": str(tmp_path / "report.json"),
            "history": str(tmp_path / "history.jsonl"),
        },
    }
    for section, values in overrides.items():
        doc.setdefault(section, {}).update(values)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def checksum_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        out[name] = hashlib.sha256((path / name).read_bytes()).hexdigest()
    return out


@pytest.fixture
def synth_env(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["synth", "--config", str(cfg), "--quiet"]) == 0
    capsys.readouterr()
    return tmp_path, cfg


class TestSynth:
    def test_creates_volumes_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg), "--quiet"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["counts"] == {"NC": 10, "MCI": 10, "AD": 10}
        assert len(list((tmp_path / "data").glob("*.vvol"))) == 30
        assert (tmp_path / "manifest.jsonl").exists()

    def test_rerun_same_seed_identical_files(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        for sub in (a, b):
            cfg = write_config(sub)
            assert main(["synth", "--config", str(cfg), "--quiet"]) == 0
        assert checksum_dir(a / "data") == checksum_dir(b / "data")

    def test_nonempty_dir_refused_without_force(self, synth_env, capsys):
        tmp_path, cfg = synth_env
        assert main(["synth", "--config", str(cfg), "--quiet"]) == 2
        assert "force" in capsys.readouterr().err
        assert main(["synth", "--config", str(cfg), "--quiet", "--force"]) == 0


class TestPreprocess:
    def test_pipeline_shapes(self, tmp_path, capsys):
        # sources are 8x10x10; the model wants 4 central slices at 8x8
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg), "--quiet",
                     "--set", "model.slices=8", "--set", "model.height=10",
                     "--set", "model.width=10"]) == 0
        capsys.readouterr()
        assert main(["preprocess", "--config", str(cfg), "--quiet"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["processed"] == 30 and out["skipped"] == 0

        from volformer.data import DatasetManifest

        manifest = DatasetManifest.load(out["manifest"])
        vol = manifest.load_volume(manifest.entries[0])
        assert vol.shape == (4, 8, 8, 1)
        assert vol.voxels.min() >= 0.0 and vol.voxels.max() <= 1.0

    def test_empty_manifest_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        (tmp_path / "manifest.jsonl").write_text("")
        assert main(["preprocess", "--config", str(cfg), "--quiet"]) == 2
        assert "empty" in capsys.readouterr().err

    def test_short_volumes_listed_and_skipped(self, tmp_path, capsys):
        import volformer.data as D

        cfg = write_config(tmp_path)
        (tmp_path / "data").mkdir()
        rng = np.random.default_rng(0)
        entries = []
        for i, slices in enumerate([8, 2, 8]):
            vol = D.Volume(f"v{i}", i % 3,
                           rng.standard_normal((slices, 10, 10, 1)).astype(np.float32))
            D.write_volume(vol, tmp_path / "data" / f"v{i}.vvol")
            entries.append(D.ManifestEntry(path=f"data/v{i}.vvol", label=i % 3))
        D.DatasetManifest(entries=entries, base_dir=str(tmp_path)) \
            .save(tmp_path / "manifest.jsonl")
        assert main(["preprocess", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["processed"] == 2 and out["skipped"] == 1
        assert "v1.vvol" in captured.err

    def test_duplicate_output_names_exit_2_before_writing(self, tmp_path, capsys):
        import volformer.data as D

        cfg = write_config(tmp_path)
        entries = []
        for i, sub in enumerate(("a", "b")):
            (tmp_path / sub).mkdir()
            vol = D.Volume(f"x{i}", i, np.zeros((4, 8, 8, 1), np.float32))
            D.write_volume(vol, tmp_path / sub / "x.vvol")
            entries.append(D.ManifestEntry(path=f"{sub}/x.vvol", label=i))
        D.DatasetManifest(entries=entries, base_dir=str(tmp_path)) \
            .save(tmp_path / "manifest.jsonl")
        (tmp_path / "processed").mkdir()
        assert main(["preprocess", "--config", str(cfg), "--quiet"]) == 2
        assert "'a/x.vvol' and 'b/x.vvol' would both be written as 'x.vvol'" \
            in capsys.readouterr().err
        assert os.listdir(tmp_path / "processed") == []

    @pytest.mark.parametrize("expr, message", [
        pytest.param(expr, message, id=expr) for expr, message in [
            ("preprocess.central_slices=-3", "central_slices must be >= 1"),
            ("preprocess.central_slices=0", "central_slices must be >= 1"),
            ("preprocess.normalize=bogus", "normalize must be one of"),
        ]
    ])
    def test_bad_preprocess_key_exits_1_before_writing(self, synth_env, capsys,
                                                       expr, message):
        tmp_path, cfg = synth_env
        assert main(["preprocess", "--config", str(cfg), "--quiet", "--set", expr]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "processed").exists()


class TestTrainEvalPredict:
    def test_train_eval_predict_inspect(self, synth_env, capsys):
        tmp_path, cfg = synth_env

        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert os.path.exists(summary["checkpoint"])
        history = [json.loads(l) for l in
                   (tmp_path / "history.jsonl").read_text().splitlines()]
        assert len(history) == 3

        assert main(["eval", "--config", str(cfg), "--quiet"]) == 0
        text = capsys.readouterr().out
        assert "accuracy:" in text and "row-normalized" in text
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) == {"accuracy_mean", "accuracy_std", "per_class",
                               "macro", "micro", "confusion"}

        vol_path = sorted((tmp_path / "data").glob("*.vvol"))[0]
        assert main(["predict", "--config", str(cfg), "--quiet",
                     str(vol_path)]) == 0
        line = json.loads(capsys.readouterr().out.strip())
        assert len(line["probabilities"]) == 3
        assert abs(sum(line["probabilities"]) - 1.0) < 1e-6
        assert line["class_name"] in ("NC", "MCI", "AD")

        assert main(["inspect", "--config", str(cfg), "--quiet",
                     "--checkpoint", summary["checkpoint"]]) == 0
        out = capsys.readouterr().out
        assert "total trainable parameters: 2115" in out

    def test_train_refuses_overwrite(self, synth_env, capsys):
        tmp_path, cfg = synth_env
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--quiet"]) == 2

    @pytest.mark.parametrize("overrides", [
        {"embed_dim": 2_000_000_000, "num_heads": 1},
        {"slices": 40_000_000_000_000_000_000},
    ], ids=["embed_dim", "slices"])
    def test_model_too_large_to_allocate_exits_1(self, synth_env, overrides):
        """Only sizes of at least 2**62 parameters, which numpy refuses at once."""
        from volformer.model import ModelConfig, count_params

        count = count_params(ModelConfig(**dict(TINY_MODEL, **overrides)))
        assert count >= 2**62
        tmp_path, cfg = synth_env
        sets = [arg for key, value in overrides.items()
                for arg in ("--set", f"model.{key}={value}")]
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([SRC_DIR, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "volformer", "train", "--config",
                               str(cfg), "--quiet", *sets],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr
        assert f"cannot allocate a model of {count:,} parameters" in done.stderr
        assert not (tmp_path / "history.jsonl").exists()

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_model_too_large_leaves_no_checkpoint_dir(self, synth_env, capsys, command):
        """A model of at least 2**62 parameters, which numpy refuses at once,
        stops the command before it makes paths.checkpoint_dir."""
        tmp_path, cfg = synth_env
        assert main([command, "--config", str(cfg), "--quiet",
                     "--set", "model.slices=40000000000000000000"]) == 1
        assert "cannot allocate a model of" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    def test_eval_checkpoint_mismatch_exits_3(self, synth_env, capsys):
        tmp_path, cfg = synth_env
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        capsys.readouterr()
        code = main(["eval", "--config", str(cfg), "--quiet", "--force",
                     "--set", "model.embed_dim=16"])
        captured = capsys.readouterr()
        assert code == 3
        assert "embed.weight" in captured.err

    def test_checkpoint_claiming_10_to_the_12_layers_exits_3(self, tmp_path, capsys):
        """With no model section in the run config, the checkpoint's own
        config sets the arrays it must hold."""
        from volformer.checkpoint import save_checkpoint
        from volformer.model import ModelConfig, ModelParams

        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        del doc["model"]
        cfg.write_text(json.dumps(doc))
        ckpt = tmp_path / "bad.vvck"
        save_checkpoint(ckpt, ModelParams.zeros(ModelConfig(**TINY_MODEL)))
        set_config_keys(ckpt, num_layers=10**12)
        assert main(["eval", "--config", str(cfg), "--quiet",
                     "--checkpoint", str(ckpt)]) == 3
        assert "missing parameter array 'layers.2.ln1.gamma'" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, synth_env, capsys):
        tmp_path, cfg = synth_env
        assert main(["eval", "--config", str(cfg), "--quiet"]) == 2

    def test_non_utf8_array_name_exits_2(self, synth_env, capsys):
        from volformer.checkpoint import save_checkpoint
        from volformer.model import ModelConfig, ModelParams

        tmp_path, cfg = synth_env
        ckpt = tmp_path / "ckpt" / "model.vvck"
        ckpt.parent.mkdir()
        save_checkpoint(ckpt, ModelParams.zeros(ModelConfig(**TINY_MODEL)))
        blob = bytearray(ckpt.read_bytes())
        blob[blob.index(b"embed.weight")] = 0xFF
        ckpt.write_bytes(bytes(blob))
        for command in (["inspect", "--checkpoint", str(ckpt)], ["eval"], ["predict"]):
            assert main([*command, "--config", str(cfg), "--quiet"]) == 2, command
            assert "not UTF-8" in capsys.readouterr().err

    def test_extents_overflowing_int64_exit_2(self, synth_env, capsys):
        """Header extents whose int64 product wraps (to 0 for the VVOL, below
        0 for the VVCK array) end in a FormatError, not a reshape traceback."""
        from volformer.checkpoint import save_checkpoint
        from volformer.model import ModelConfig, ModelParams

        tmp_path, cfg = synth_env
        ckpt = tmp_path / "ckpt" / "model.vvck"
        ckpt.parent.mkdir()
        save_checkpoint(ckpt, ModelParams.zeros(ModelConfig(**TINY_MODEL)))
        wrap = tmp_path / "wrap.vvol"
        wrap.write_bytes(b"VVOL" + struct.pack("<HBB4I", 1, 0, 4, *[65536] * 4))
        assert main(["predict", "--config", str(cfg), "--quiet", str(wrap)]) == 2
        assert "expected 73786976294838206464" in capsys.readouterr().err

        blob = ckpt.read_bytes()
        header = 10 + struct.unpack_from("<I", blob, 6)[0]
        huge = tmp_path / "huge.vvck"
        huge.write_bytes(blob[:header] + struct.pack("<IH", 1, 12) + b"embed.weight"
                         + struct.pack("<B2I", 2, 0xFFFFFFFF, 0xFFFFFFFF))
        assert main(["inspect", "--checkpoint", str(huge), "--config", str(cfg),
                     "--quiet"]) == 2
        assert "truncated reading data of 'embed.weight'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("pooling", "cls_token"), ("dropout", 0.1)])
    def test_embedded_removed_key_exits_2(self, synth_env, capsys, key, value):
        from volformer.checkpoint import save_checkpoint
        from volformer.model import ModelConfig, ModelParams

        tmp_path, cfg = synth_env
        ckpt = tmp_path / "legacy.vvck"
        save_checkpoint(ckpt, ModelParams.zeros(ModelConfig(**TINY_MODEL)))
        set_config_keys(ckpt, **{key: value})
        assert main(["inspect", "--checkpoint", str(ckpt), "--config", str(cfg),
                     "--quiet"]) == 2
        assert key in capsys.readouterr().err

    def test_existing_outputs_refused_before_any_work(self, synth_env, capsys,
                                                      monkeypatch):
        import volformer.training as TR

        tmp_path, cfg = synth_env
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        (tmp_path / "report.json").write_text("{}")
        (tmp_path / "pred.jsonl").write_text("")

        def fail(*args, **kwargs):
            raise AssertionError("predict_probs ran before the overwrite check")

        monkeypatch.setattr(TR, "predict_probs", fail)
        assert main(["eval", "--config", str(cfg), "--quiet"]) == 2
        assert main(["predict", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "pred.jsonl")]) == 2
        assert capsys.readouterr().err.count("pass --force") == 2

    def test_non_utf8_manifest_exits_2(self, synth_env, capsys):
        tmp_path, cfg = synth_env
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"path": "a\xff.vvol", "label": 0}\n')
        for command in (["preprocess"], ["train"], ["cv"]):
            assert main([*command, "--config", str(cfg), "--quiet",
                         "--set", f"paths.manifest={bad}"]) == 2, command
            assert f"{bad}:1: invalid JSON" in capsys.readouterr().err

    def test_nul_in_a_manifest_path_exits_2_before_any_work(self, synth_env, capsys,
                                                           monkeypatch):
        from volformer.checkpoint import save_checkpoint
        from volformer.model import ModelConfig, ModelParams
        import volformer.training as TR

        tmp_path, cfg = synth_env
        (tmp_path / "ckpt").mkdir()
        save_checkpoint(tmp_path / "ckpt" / "model.vvck",
                        ModelParams.zeros(ModelConfig(**TINY_MODEL)))
        bad = tmp_path / "nul.jsonl"
        bad.write_text('{"path": "c0_0000.vvol", "label": 0}\n'
                       '{"path": "a\\u0000b.vvol", "label": 0}\n')
        monkeypatch.setattr(TR, "predict_probs", None)  # calling it would raise TypeError
        assert main(["predict", "--config", str(cfg), "--quiet",
                     "--set", f"paths.manifest={bad}"]) == 2
        assert f"{bad}:2: bad path" in capsys.readouterr().err

    def test_empty_checkpoint_dir_exits_2_before_any_work(self, synth_env, capsys):
        """train and cv refuse an empty paths.checkpoint_dir before they
        read the manifest (here one that does not exist)."""
        tmp_path, cfg = synth_env
        for command in (["train"], ["cv"]):
            assert main([*command, "--config", str(cfg), "--quiet",
                         "--set", "paths.checkpoint_dir=",
                         "--set", f"paths.manifest={tmp_path / 'missing.jsonl'}"]) == 2
            assert "paths.checkpoint_dir is empty" in capsys.readouterr().err
        assert not (tmp_path / "model.vvck").exists()

    def test_predict_on_a_nan_volume_exits_1(self, synth_env, capsys):
        from volformer import data
        from volformer.checkpoint import save_checkpoint
        from volformer.model import ModelConfig, ModelParams

        tmp_path, cfg = synth_env
        (tmp_path / "ckpt").mkdir()
        save_checkpoint(tmp_path / "ckpt" / "model.vvck",
                        ModelParams.initialize(ModelConfig(**TINY_MODEL), seed=0))
        volume = data.read_volume(sorted((tmp_path / "data").glob("*.vvol"))[0])
        volume.voxels[1, 2, 3, 0] = np.nan
        data.write_volume(volume, tmp_path / "nan.vvol")
        paths = [str(p) for p in sorted((tmp_path / "data").glob("*.vvol"))[:9]]
        assert main(["predict", "--config", str(cfg), "--quiet",
                     *paths, str(tmp_path / "nan.vvol")]) == 1
        assert "NaN or Inf" in capsys.readouterr().err
        assert main(["predict", "--config", str(cfg), "--quiet", *paths]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 9

    def test_eval_report_bytes_do_not_depend_on_the_worker_count(self, synth_env,
                                                                 capsys):
        tmp_path, cfg = synth_env
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([SRC_DIR, os.environ.get("PYTHONPATH", "")]))
        env.pop("VOLFORMER_THREADS", None)
        reports = []
        for threads in ("1", None):
            if threads:
                env["VOLFORMER_THREADS"] = threads
            else:
                env.pop("VOLFORMER_THREADS")
            done = subprocess.run(
                [sys.executable, "-m", "volformer", "eval", "--config", str(cfg),
                 "--quiet", "--force", "--split", "train"],
                env=env, capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr
            reports.append((done.stdout, (tmp_path / "report.json").read_bytes()))
        assert reports[0] == reports[1]

    def test_train_bytes_do_not_depend_on_the_worker_count(self, tmp_path, capsys):
        """Batches of 48 run as two chunks of 24, on one worker and on two."""
        cfg = write_config(tmp_path, train={"batch_size": 48}, synth={"n_per_class": 30})
        assert main(["synth", "--config", str(cfg), "--quiet"]) == 0
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([SRC_DIR, os.environ.get("PYTHONPATH", "")]))
        runs = []
        for threads in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-m", "volformer", "train", "--config", str(cfg),
                 "--quiet", "--force"],
                env=dict(env, VOLFORMER_THREADS=threads), capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr
            runs.append((done.stdout, (tmp_path / "history.jsonl").read_bytes(),
                         (tmp_path / "ckpt" / "model.vvck").read_bytes()))
        assert runs[0] == runs[1]

    def test_outputs_naming_no_file_refused_before_any_work(self, synth_env, capsys,
                                                           monkeypatch):
        """An empty output path, or one that is a directory, is refused
        with exit 2 before any work, with --force too."""
        from volformer.checkpoint import save_checkpoint
        from volformer.model import ModelConfig, ModelParams
        import volformer.training as TR

        tmp_path, cfg = synth_env
        (tmp_path / "ckpt").mkdir()
        save_checkpoint(tmp_path / "ckpt" / "model.vvck",
                        ModelParams.zeros(ModelConfig(**TINY_MODEL)))

        def fail(*args, **kwargs):
            raise AssertionError("work ran before the output path check")

        monkeypatch.setattr(TR, "predict_probs", fail)
        monkeypatch.setattr(TR, "train", fail)
        before = sorted(os.listdir(tmp_path))
        for path in ("", str(tmp_path)):
            for command in (["eval"], ["cv", "--set", "split.folds=3"]):
                assert main([*command, "--config", str(cfg), "--quiet", "--force",
                             "--set", f"paths.report={path}"]) == 2, (command, path)
            assert main(["train", "--config", str(cfg), "--quiet", "--force",
                         "--set", f"paths.history={path}"]) == 2, path
        assert capsys.readouterr().err.count("names no file") == 6
        assert sorted(os.listdir(tmp_path)) == before
        assert os.listdir(tmp_path / "ckpt") == ["model.vvck"]

    def test_predict_empty_manifest_exits_2(self, tmp_path, capsys):
        from volformer.checkpoint import save_checkpoint
        from volformer.model import ModelConfig, ModelParams

        cfg = write_config(tmp_path)
        (tmp_path / "ckpt").mkdir()
        save_checkpoint(tmp_path / "ckpt" / "model.vvck",
                        ModelParams.zeros(ModelConfig(**TINY_MODEL)))
        (tmp_path / "manifest.jsonl").write_text("")
        assert main(["predict", "--config", str(cfg), "--quiet"]) == 2
        assert "cannot predict an empty set" in capsys.readouterr().err

    def test_missing_output_directory_refused_before_any_work(self, synth_env, capsys,
                                                              monkeypatch):
        from volformer.checkpoint import save_checkpoint
        from volformer.model import ModelConfig, ModelParams
        import volformer.training as TR

        tmp_path, cfg = synth_env
        (tmp_path / "ckpt").mkdir()
        save_checkpoint(tmp_path / "ckpt" / "model.vvck",
                        ModelParams.zeros(ModelConfig(**TINY_MODEL)))

        def fail(*args, **kwargs):
            raise AssertionError("work ran before the output directory check")

        monkeypatch.setattr(TR, "predict_probs", fail)
        monkeypatch.setattr(TR, "train", fail)
        missing = tmp_path / "missing"
        report = ["--set", f"paths.report={missing / 'report.json'}"]
        assert main(["eval", "--config", str(cfg), "--quiet", *report]) == 2
        assert main(["predict", "--config", str(cfg), "--quiet",
                     "--out", str(missing / "pred.jsonl")]) == 2
        assert main(["cv", "--config", str(cfg), "--quiet", "--force", *report]) == 2
        assert capsys.readouterr().err.count("missing' of output") == 3
        assert not missing.exists()
        assert os.listdir(tmp_path / "ckpt") == ["model.vvck"]


def reshape_one_volume(tmp_path, split):
    """Tag the synth manifest with the default stratified split and rewrite
    the first volume of `split` one voxel narrower than the configured
    input; return that volume's id."""
    from volformer import data

    manifest = data.stratified_split(
        data.DatasetManifest.load(tmp_path / "manifest.jsonl"), data.SplitSpec())
    manifest.save(tmp_path / "manifest.jsonl")
    entry = manifest.subset(split)[0]
    volume = manifest.load_volume(entry)
    narrow = np.ascontiguousarray(volume.voxels[:, :, 1:, :])
    data.write_volume(data.Volume(volume.id, volume.label, narrow),
                      manifest.volume_path(entry))
    return volume.id


class TestMixedShapes:
    """One volume of another shape among the rest exits 1 naming it, where
    stacking the set used to end in a ValueError traceback."""

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_train_checks_every_volume_before_epoch_1(self, synth_env, capsys, split):
        tmp_path, cfg = synth_env
        odd = reshape_one_volume(tmp_path, split)
        assert main(["train", "--config", str(cfg), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert odd in err and "does not match configured input" in err
        assert not (tmp_path / "history.jsonl").exists()
        assert os.listdir(tmp_path / "ckpt") == []

    @pytest.mark.parametrize("command", [["eval"], ["predict"], ["cv"]])
    def test_inference_and_cv_exit_1(self, synth_env, capsys, command):
        from volformer.checkpoint import save_checkpoint
        from volformer.model import ModelConfig, ModelParams

        tmp_path, cfg = synth_env
        odd = reshape_one_volume(tmp_path, "test")
        (tmp_path / "ckpt").mkdir()
        save_checkpoint(tmp_path / "ckpt" / "model.vvck",
                        ModelParams.zeros(ModelConfig(**TINY_MODEL)))
        assert main([*command, "--config", str(cfg), "--quiet",
                     "--set", "train.epochs=1"]) == 1
        assert odd in capsys.readouterr().err
        assert not list(tmp_path.glob("report*.json"))


class TestInspectDefault:
    def test_reference_config_count(self, capsys):
        assert main(["inspect", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "total trainable parameters: 466115" in out
        assert "embed.weight" in out and "8192x32" in out


class TestCrossValidation:
    def test_ten_folds_cover_every_sample_once(self, synth_env, capsys):
        tmp_path, cfg = synth_env
        assert main(["cv", "--config", str(cfg), "--quiet",
                     "--set", "train.epochs=2"]) == 0
        capsys.readouterr()
        aggregate = json.loads((tmp_path / "report.json").read_text())
        assert int(np.sum(aggregate["confusion"])) == 30
        fold_reports = sorted(tmp_path.glob("report_rep0_fold*.json"))
        assert len(fold_reports) == 10
        totals = [int(np.sum(json.loads(p.read_text())["confusion"]))
                  for p in fold_reports]
        assert totals == [3] * 10


    def test_existing_fold_checkpoint_refused_before_training(self, synth_env, capsys):
        tmp_path, cfg = synth_env
        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        (ckpt_dir / "cv_rep0_fold3.vvck").write_bytes(b"kept")
        assert main(["cv", "--config", str(cfg), "--quiet",
                     "--set", "train.epochs=1"]) == 2
        assert "cv_rep0_fold3.vvck" in capsys.readouterr().err
        assert os.listdir(ckpt_dir) == ["cv_rep0_fold3.vvck"]
        assert (ckpt_dir / "cv_rep0_fold3.vvck").read_bytes() == b"kept"
        assert not list(tmp_path.glob("report*.json"))

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_repeats_below_one_exits_1_before_any_output(self, synth_env, capsys,
                                                         repeats):
        tmp_path, cfg = synth_env
        assert main(["cv", "--config", str(cfg), "--quiet",
                     f"--repeats={repeats}"]) == 1
        assert "--repeats must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()
        assert not list(tmp_path.glob("report*.json"))

    def test_subject_mode_reaches_the_folds(self, synth_env, capsys, monkeypatch):
        """Both the fold cut and each fold's validation carve get the
        subject mode."""
        import volformer.data as D

        tmp_path, cfg = synth_env
        calls = []
        make_folds = D.make_folds

        def folds_spy(*args, **kwargs):
            calls.append(("folds", kwargs.get("by_subject")))
            return make_folds(*args, **kwargs)

        def carve_spy(*args, **kwargs):
            calls.append(("carve", kwargs.get("by_subject")))
            raise D.DataError("stopped at the first carve")

        monkeypatch.setattr(D, "make_folds", folds_spy)
        monkeypatch.setattr(D, "carve_validation", carve_spy)
        assert main(["cv", "--config", str(cfg), "--quiet",
                     "--set", "split.stratify_by=subject"]) == 2
        assert calls == [("folds", True), ("carve", True)]


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"embed_dims": 8}}))
        assert main(["inspect", "--config", str(cfg), "--quiet"]) == 1
        assert "embed_dims" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"modle": {}}))
        assert main(["inspect", "--config", str(cfg), "--quiet"]) == 1

    def test_set_overrides_config_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["inspect", "--config", str(cfg), "--quiet",
                     "--set", "model.num_layers=0"]) == 0
        out = capsys.readouterr().out
        assert "total trainable parameters: 371" in out  # 2115 - 2*872

    @pytest.mark.parametrize("expr, kind", [
        pytest.param(expr, kind, id=expr) for expr, kind in [
            ("model.slices=32.5", "an integer"), ("model.channels=true", "an integer"),
            ("train.epochs=2.0", "an integer"), ("split.folds=false", "an integer"),
            ("synth.n_per_class=1.5", "an integer"),
            ("preprocess.central_slices=2.5", "an integer"),
            ("train.learning_rate=true", "a number"),
            ("model.layer_norm_eps=true", "a number"),
            ("paths.history=7", "a string"),
            ("train.learning_rate=NaN", "a finite number"),
            ("model.layer_norm_eps=Infinity", "a finite number"),
            ("split.val_fraction=NaN", "a finite number"),
            ("synth.noise_sigma=NaN", "a finite number"),
            ("synth.n_per_class=0", ">= 1"), ("synth.n_per_class=-2", ">= 1"),
            ("synth.noise_sigma=-1", "non-negative"),
            ("synth.seed=-1", "a non-negative integer"),
            ("split.seed=-1", "a non-negative integer"),
        ]
    ])
    def test_non_integer_int_key_exits_1(self, expr, kind, capsys):
        assert main(["inspect", "--quiet", "--set", expr]) == 1
        assert f"must be {kind}" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", ["model.pooling=global_average",
                                      "model.dropout=0.0"])
    def test_removed_model_key_is_unknown(self, expr, capsys):
        name = expr.split(".")[1].split("=")[0]
        assert main(["inspect", "--quiet", "--set", expr]) == 1
        assert f"unknown key '{name}'" in capsys.readouterr().err

    def test_invalid_flag_exits_1(self, capsys):
        assert main(["inspect", "--nope"]) == 1

    def test_bad_json_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["inspect", "--config", str(cfg), "--quiet"]) == 1

    @pytest.mark.parametrize("text", [
        pytest.param(b'{"paths": {"manifest": "a\xff.jsonl"}}', id="not-utf8"),
        pytest.param(b"[" * 100_000, id="deep-nesting"),
        pytest.param(b'{"train": {"epochs": 1' + b"0" * 5000 + b"}}", id="5000-digits"),
    ])
    def test_undecodable_config_exits_1(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text)
        assert main(["inspect", "--config", str(cfg), "--quiet"]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_thread_cap_env(self, monkeypatch):
        """The CLI defaults every BLAS pool to one thread; VOLFORMER_THREADS
        caps the chunk workers instead."""
        from volformer.cli import _one_blas_thread
        from volformer.training import worker_count

        monkeypatch.setenv("VOLFORMER_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        _one_blas_thread()
        assert os.environ["OMP_NUM_THREADS"] == "1"
        assert worker_count() == min(2, len(os.sched_getaffinity(0)))

    def test_thread_cap_set_before_numpy_loads(self):
        """In a fresh interpreter, the BLAS variables read one thread by the
        time the CLI first imports numpy, whatever VOLFORMER_THREADS says."""
        script = textwrap.dedent("""
            import os, sys
            seen = []

            class Watch:
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy" and not seen:
                        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

            sys.meta_path.insert(0, Watch())
            from volformer import cli
            code = cli.main(["inspect", "--quiet"])
            print(code, seen, file=sys.stderr)
        """)
        env = dict(os.environ, VOLFORMER_THREADS="3",
                   PYTHONPATH=os.pathsep.join([SRC_DIR, os.environ.get("PYTHONPATH", "")]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.stderr.strip().splitlines()[-1] == "0 ['1']"

    def test_tests_load_numpy_after_the_blas_default(self):
        """tests/conftest.py imports the CLI before numpy, so the suite runs
        its chunk workers with one BLAS thread each, as the command does."""
        import conftest

        assert not conftest.NUMPY_LOADED_FIRST

    def test_bad_thread_count_exits_1_from_main(self, monkeypatch, capsys):
        """A bad VOLFORMER_THREADS is a config error from main; importing
        the CLI with it set still works."""
        env = dict(os.environ, VOLFORMER_THREADS="abc",
                   PYTHONPATH=os.pathsep.join([SRC_DIR, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "volformer", "inspect", "--quiet"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert done.stderr.startswith("error: VOLFORMER_THREADS"), done.stderr
        for value in ("", "0", "-1"):
            monkeypatch.setenv("VOLFORMER_THREADS", value)
            assert main(["inspect", "--quiet"]) == 1, value
            assert "VOLFORMER_THREADS" in capsys.readouterr().err

    def test_nul_in_a_path_key_exits_1_before_any_work(self, synth_env, capsys,
                                                      monkeypatch):
        import volformer.training as TR

        tmp_path, cfg = synth_env
        monkeypatch.setattr(TR, "train", None)  # calling it would raise TypeError
        for key in ("history", "checkpoint_dir", "manifest"):
            assert main(["train", "--config", str(cfg), "--quiet", "--force",
                         "--set", f'paths.{key}="h\\u0000.jsonl"']) == 1, key
            assert f"paths.{key} holds a NUL character" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    def test_preprocess_zscore_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, preprocess={"normalize": "zscore"})
        assert main(["synth", "--config", str(cfg), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["preprocess", "--config", str(cfg), "--quiet"]) == 0
        out = json.loads(capsys.readouterr().out)

        from volformer.data import DatasetManifest

        manifest = DatasetManifest.load(out["manifest"])
        vol = manifest.load_volume(manifest.entries[0])
        assert abs(float(vol.voxels.mean())) < 1e-5

    def test_help_enumerates_config_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for key in ("model.embed_dim (default 32)",
                    "train.learning_rate (default 0.0001)",
                    "split.folds (default 10)",
                    "paths.checkpoint_dir (default 'checkpoints')"):
            assert key in out
        assert out.count("  model.") == 13
