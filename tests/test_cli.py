"""End-to-end tests of the command-line pipeline."""

import hashlib
import json
import os
import pathlib
import re
import signal
import struct
import textwrap

import numpy as np
import pytest

from conftest import run_fresh, set_config_keys
from volformer.cli import MAX_REPEATS, main

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

    def test_volume_too_large_to_allocate_exits_1(self, tmp_path):
        """A 9.31 TiB blob grid, in a child under a 1.5 GB address space,
        is a ConfigError naming the volume shape, not a traceback."""
        cfg = write_config(tmp_path)
        done = run_fresh("synth", "--config", str(cfg), "--quiet",
                         "--set", "model.slices=32", "--set", "model.height=200000",
                         "--set", "model.width=200000", "--set", "model.patch_height=2",
                         address_space_limit=1500 << 20)
        assert done.returncode == 1, done.stderr
        assert "cannot allocate a volume of shape (32, 200000, 200000, 1)" in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "manifest.jsonl").exists()
        assert not (tmp_path / "data").exists()


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

    def test_target_too_large_to_allocate_exits_1(self, synth_env):
        """Resampling to 300000 x 300000 (2.62 TiB), in a child under a
        1.5 GB address space, is a ConfigError naming the target shape, not
        a traceback."""
        tmp_path, cfg = synth_env
        done = run_fresh("preprocess", "--config", str(cfg), "--quiet",
                         "--set", "model.height=300000", "--set", "model.width=300000",
                         address_space_limit=1500 << 20)
        assert done.returncode == 1, done.stderr
        assert "cannot allocate a volume of shape (4, 300000, 300000, 1)" in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "processed").exists()

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
        done = run_fresh("train", "--config", str(cfg), "--quiet", *sets)
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
        monkeypatch.setattr(TR, "predict_probs", None)  # calling it would raise TypeError
        # a NUL and a lone surrogate are refused; \udc80-\udcff stand for
        # undecodable bytes (surrogateescape), so open() looks that file up
        for path, error in [("a\\u0000b.vvol", f"{bad}:2: bad path"),
                            ("\\ud800.vvol", f"{bad}:2: bad path"),
                            ("\\udc80\\udcff.vvol", "No such file or directory")]:
            bad.write_text('{"path": "c0_0000.vvol", "label": 0}\n'
                           f'{{"path": "{path}", "label": 0}}\n')
            for command in (["predict"], ["preprocess", "--force"]):
                assert main([*command, "--config", str(cfg), "--quiet",
                             "--set", f"paths.manifest={bad}"]) == 2, (command, path)
                assert error in capsys.readouterr().err, (command, path)

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
        """eval pinned to one CPU (one worker) and on every CPU it may use."""
        tmp_path, cfg = synth_env
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        reports = []
        for cpus in (1, None):
            done = run_fresh("eval", "--config", str(cfg), "--quiet", "--force",
                             "--split", "train", cpus=cpus, text=False)
            assert done.returncode == 0, done.stderr
            reports.append((done.stdout, (tmp_path / "report.json").read_bytes()))
        assert reports[0] == reports[1]

    def test_train_bytes_do_not_depend_on_the_worker_count(self, tmp_path, capsys):
        """Batches of 48 run as two chunks of 24, pinned to one CPU (one
        worker) and on every CPU the test may use."""
        cfg = write_config(tmp_path, train={"batch_size": 48}, synth={"n_per_class": 30})
        assert main(["synth", "--config", str(cfg), "--quiet"]) == 0
        runs = []
        for cpus in (1, None):
            done = run_fresh("train", "--config", str(cfg), "--quiet", "--force",
                             cpus=cpus, text=False)
            assert done.returncode == 0, done.stderr
            runs.append((done.stdout, (tmp_path / "history.jsonl").read_bytes(),
                         (tmp_path / "ckpt" / "model.vvck").read_bytes()))
        assert runs[0] == runs[1]

    def test_outputs_naming_no_file_refused_before_any_work(self, synth_env, capsys,
                                                           monkeypatch):
        """An empty output path, or one that names an existing file that is
        not a regular file (a directory, a FIFO), is refused with exit 2
        before any work, with --force too: a rename over a FIFO would
        replace it, not write through it."""
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
        os.mkfifo(tmp_path / "fifo")
        before = sorted(os.listdir(tmp_path))
        for path in ("", str(tmp_path), str(tmp_path / "fifo")):
            for command in (["eval"], ["cv", "--set", "split.folds=3"]):
                assert main([*command, "--config", str(cfg), "--quiet", "--force",
                             "--set", f"paths.report={path}"]) == 2, (command, path)
            assert main(["train", "--config", str(cfg), "--quiet", "--force",
                         "--set", f"paths.history={path}"]) == 2, path
            if path:  # an empty --out means stdout
                assert main(["predict", "--config", str(cfg), "--quiet", "--force",
                             "--out", path]) == 2, path
        assert capsys.readouterr().err.count("names no file") == 11
        assert sorted(os.listdir(tmp_path)) == before
        assert os.listdir(tmp_path / "ckpt") == ["model.vvck"]

    def test_inputs_naming_no_regular_file_exit_2_at_once(self, tmp_path, capsys):
        """A FIFO given as the checkpoint, a volume, the manifest or the
        config is refused with exit 2, naming it, without the wait for a
        writer that opening it for a read would begin. A SIGALRM turns such
        a wait into a failure, not a hang."""
        from volformer.checkpoint import save_checkpoint
        from volformer.model import ModelConfig, ModelParams

        cfg = write_config(tmp_path)
        checkpoint = str(tmp_path / "model.vvck")
        save_checkpoint(checkpoint, ModelParams.zeros(ModelConfig(**TINY_MODEL)))
        fifo = str(tmp_path / "fifo")
        os.mkfifo(fifo)

        def waited(signum, frame):  # not an OSError, which main would map to 2
            raise AssertionError("an input read waited on a FIFO")

        previous = signal.signal(signal.SIGALRM, waited)
        try:
            for argv in (["inspect", "--checkpoint", fifo],
                         ["predict", "--checkpoint", checkpoint, fifo],
                         ["train", "--config", str(cfg), "--set", f"paths.manifest={fifo}"],
                         ["inspect", "--config", fifo]):
                signal.alarm(10)
                assert main([*argv, "--quiet"]) == 2, argv
                signal.alarm(0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert capsys.readouterr().err.count(f"input '{fifo}' is not a regular file") == 4
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("argv", [["inspect", "--checkpoint", "/dev/zero"],
                                      ["inspect", "--config", "/dev/zero"],
                                      ["train", "--set", "paths.manifest=/dev/zero"]],
                             ids=["checkpoint", "config", "manifest"])
    def test_an_endless_device_input_exits_2(self, tmp_path, argv):
        """/dev/zero never ends: read whole, it takes all the memory there
        is. In a child under a 1.5 GB address space, so that a regression
        fails here instead of exhausting the host, it is refused with exit
        2 and its name before any read."""
        done = run_fresh(*argv, "--quiet", address_space_limit=1500 << 20, cwd=tmp_path)
        assert done.returncode == 2, done.stderr
        assert "input '/dev/zero' is not a regular file" in done.stderr
        assert "Traceback" not in done.stderr
        assert os.listdir(tmp_path) == []

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

    def test_repeats_past_the_bound_exit_1_before_any_list(self, synth_env, capsys):
        """--repeats 10**12 is refused before cv lists its repetitions, their
        folds and their paths: in a child under a 512 MB address space it
        exits 1 with the bound in its message, not a MemoryError traceback."""
        tmp_path, cfg = synth_env
        assert main(["cv", "--config", str(cfg), "--quiet",
                     f"--repeats={MAX_REPEATS + 1}"]) == 1
        assert f"<= {MAX_REPEATS}, got {MAX_REPEATS + 1}" in capsys.readouterr().err
        done = run_fresh("cv", "--config", str(cfg), "--quiet", f"--repeats={10**12}",
                         address_space_limit=512 << 20)
        assert done.returncode == 1, done.stderr
        assert f"--repeats must be >= 1 and <= {MAX_REPEATS}, got {10**12}" in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "ckpt").exists()

    def test_more_folds_than_a_class_holds_exits_2_before_the_fold_paths(self, synth_env,
                                                                         capsys):
        """make_folds refuses k = 10**12 (each class holds 10 volumes) before
        cv lists a report and a checkpoint path per fold."""
        tmp_path, cfg = synth_env
        assert main(["cv", "--config", str(cfg), "--quiet",
                     "--set", "split.folds=1000000000000"]) == 2
        assert "has 10 items, fewer than k=1000000000000" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

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


# each pipeline command and its arguments, in the order one run makes them
PIPELINE = {
    "synth": ["synth"],
    "preprocess": ["preprocess"],
    "train": ["train"],
    "eval": ["eval"],
    "predict": ["predict", "--out", "p.jsonl"],
    "cv": ["cv", "--set", "paths.report=cv.json"],
}

# Kills its own process at the n-th os.replace, n the first argument, before
# the rename happens; the other arguments go to the volformer command.
KILL_AT_REPLACE = textwrap.dedent("""
    import os, runpy, signal, sys
    n = int(sys.argv.pop(1))
    calls = 0
    replace = os.replace

    def replace_or_die(src, dst):
        global calls
        calls += 1
        if calls == n:
            os.kill(os.getpid(), signal.SIGKILL)
        replace(src, dst)

    os.replace = replace_or_die
    runpy.run_module("volformer", run_name="__main__")
""")


def file_tree(root) -> dict[str, bytes]:
    """Every file under root, by path relative to it, with its bytes."""
    return {os.path.relpath(os.path.join(top, name), root):
            pathlib.Path(top, name).read_bytes()
            for top, _, names in os.walk(root) for name in names}


def lay_out(root, tree) -> None:
    for rel, blob in tree.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(blob)


def assert_absent_or_whole(root, before, written, stray=False) -> None:
    """Every file under root is an input as it was before the command, or
    an output as an undisturbed run wrote it at some point (`written`
    holds each output's versions); with stray, a file may also be the
    writer's temporary <output>.<12 hex digits>.tmp."""
    tree = file_tree(root)
    assert set(before) <= set(tree)
    for rel, blob in tree.items():
        temp = re.fullmatch(r"(.+)\.[0-9a-f]{12}\.tmp", rel)
        if stray and temp and temp[1] in written:
            continue
        if rel in before:
            assert blob == before[rel], f"input '{rel}' changed"
        else:
            assert rel in written, f"'{rel}' is no output of an undisturbed run"
            assert blob in written[rel], f"'{rel}' is not whole"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """{command: (file tree before it, file tree after it, every version
    of each output it wrote)} of one undisturbed tiny run of the whole
    pipeline, paths relative to its directory, so the trees can be laid out
    anywhere. An output rewritten during the command (a best checkpoint, the
    history) has a version per rename, and its final bytes."""
    root = tmp_path_factory.mktemp("pipeline")
    write_config(root, split={"folds": 3}, paths={
        "manifest": "manifest.jsonl", "data_dir": "data", "out_dir": "processed",
        "checkpoint_dir": "ckpt", "report": "report.json", "history": "history.jsonl"})
    renamed = []
    replace = os.replace

    def replace_and_record(src, dst):
        replace(src, dst)
        renamed.append((os.path.relpath(os.path.realpath(dst), os.path.realpath(root)),
                        pathlib.Path(dst).read_bytes()))

    trees = {}
    cwd = os.getcwd()
    os.chdir(root)
    os.replace = replace_and_record
    try:
        for command, argv in PIPELINE.items():
            before = file_tree(root)
            renamed.clear()
            assert main([*argv, "--config", "cfg.json", "--quiet"]) == 0, command
            after = file_tree(root)
            written = {rel: [blob] for rel, blob in after.items() if rel not in before}
            for rel, blob in renamed:
                written[rel].append(blob)
            trees[command] = before, after, written
    finally:
        os.replace = replace
        os.chdir(cwd)
    return trees


class TestWholeOutputs:
    """Every output file lands whole or not at all (data.write_file)."""

    @pytest.mark.parametrize("command", list(PIPELINE))
    def test_file_size_limit_leaves_outputs_absent_or_whole(self, pipeline, tmp_path,
                                                            monkeypatch, capsys, command):
        """Under an RLIMIT_FSIZE below half the smallest output and just
        below each output's size, the command exits 2 and leaves no torn
        file. A rerun without --force succeeds with the undisturbed bytes, or
        refuses only whole outputs."""
        before, after, written = pipeline[command]
        sizes = sorted({len(after[rel]) for rel in written})
        argv = [*PIPELINE[command], "--config", "cfg.json", "--quiet"]
        for limit in sorted({sizes[0] // 2, *(size - 1 for size in sizes)}):
            root = tmp_path / str(limit)
            lay_out(root, before)
            done = run_fresh(*argv, file_size_limit=limit, cwd=root)
            assert done.returncode == 2, (limit, done.stderr)
            assert "File too large" in done.stderr and "Traceback" not in done.stderr
            assert_absent_or_whole(root, before, written)
            monkeypatch.chdir(root)
            code = main(argv)
            if code == 0:
                assert file_tree(root) == after
            else:
                assert code == 2 and "refusing" in capsys.readouterr().err, limit
                assert_absent_or_whole(root, before, written)

    @pytest.mark.parametrize("command", ["synth", "preprocess", "train", "cv"])
    def test_sigkill_at_a_rename_leaves_outputs_absent_or_whole(self, pipeline, tmp_path,
                                                                command):
        """Killed by SIGKILL at its first, second and third rename, the
        command leaves every output absent or whole; a stray file can only
        be the writer's temporary <output>.<12 hex digits>.tmp."""
        before, _, written = pipeline[command]
        for n in (1, 2, 3):
            root = tmp_path / str(n)
            lay_out(root, before)
            done = run_fresh(str(n), *PIPELINE[command], "--config", "cfg.json", "--quiet",
                             script=KILL_AT_REPLACE, cwd=root)
            assert done.returncode == -signal.SIGKILL, (n, done.stderr)
            assert_absent_or_whole(root, before, written, stray=True)

    def test_train_keeps_a_users_tmp_file(self, pipeline, tmp_path, monkeypatch):
        before, after, _ = pipeline["train"]
        lay_out(tmp_path, before)
        (tmp_path / "ckpt").mkdir()
        (tmp_path / "ckpt" / "model.vvck.tmp").write_bytes(b"the user's own")
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", "cfg.json", "--quiet", "--force"]) == 0
        assert (tmp_path / "ckpt" / "model.vvck.tmp").read_bytes() == b"the user's own"
        assert (tmp_path / "ckpt" / "model.vvck").read_bytes() == after["ckpt/model.vvck"]

    @pytest.mark.parametrize("command, output", [
        ("predict", "p.jsonl"), ("eval", "report.json"), ("train", "ckpt/model.vvck")])
    def test_symlinked_output_keeps_its_link(self, pipeline, tmp_path, monkeypatch,
                                             command, output):
        """The file the link names gets the new bytes; the link stays."""
        before, after, _ = pipeline[command]
        lay_out(tmp_path, before)
        (tmp_path / "elsewhere").mkdir()
        (tmp_path / "elsewhere" / "kept").write_bytes(b"old")
        (tmp_path / output).parent.mkdir(exist_ok=True)
        (tmp_path / output).symlink_to(tmp_path / "elsewhere" / "kept")
        monkeypatch.chdir(tmp_path)
        assert main([*PIPELINE[command], "--config", "cfg.json", "--quiet", "--force"]) == 0
        assert os.readlink(tmp_path / output) == str(tmp_path / "elsewhere" / "kept")
        assert (tmp_path / "elsewhere" / "kept").read_bytes() == after[output]

    @pytest.mark.parametrize("command", list(PIPELINE))
    def test_output_mode_is_a_plain_opens(self, pipeline, tmp_path, monkeypatch, command):
        """Under umask 027, each new output has the mode open() gives a new
        file under that umask (0640), not a private temporary file's."""
        before, _, written = pipeline[command]
        lay_out(tmp_path, before)
        monkeypatch.chdir(tmp_path)
        old = os.umask(0o027)
        try:
            assert main([*PIPELINE[command], "--config", "cfg.json", "--quiet"]) == 0
            with open("opened", "w"):
                pass
        finally:
            os.umask(old)
        expected = os.stat("opened").st_mode
        for rel in written:
            assert os.stat(rel).st_mode == expected, rel


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

    def test_pool_threads_start_on_the_first_chunk(self):
        """Pinned to one CPU, the pool has one worker. Importing the CLI
        starts no thread, and one predict_probs call starts that one."""
        done = run_fresh(cpus=1, script=textwrap.dedent(f"""
            import threading
            from volformer import cli, model, training
            print(threading.active_count(), training._WORKERS)
            import numpy as np
            from volformer.data import Volume
            config = model.ModelConfig(**{TINY_MODEL!r})
            params = model.ModelParams.initialize(config, seed=0)
            volumes = [Volume(f"v{{i}}", 0, np.zeros(config.input_shape, np.float32))
                       for i in range(24)]
            training.predict_probs(params, config, volumes, 8)
            print(sorted(t.name.split("_")[0] for t in threading.enumerate()))
        """))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["1 1", "['MainThread', 'volformer']"]

    def test_nul_in_a_path_key_exits_1_before_any_work(self, synth_env, capsys,
                                                      monkeypatch):
        import volformer.training as TR

        tmp_path, cfg = synth_env
        monkeypatch.setattr(TR, "train", None)  # calling it would raise TypeError
        # a NUL, and a lone surrogate os.fsencode cannot encode
        for value in ("h\\u0000.jsonl", "\\ud800.jsonl"):
            for key in ("history", "checkpoint_dir", "manifest"):
                assert main(["train", "--config", str(cfg), "--quiet", "--force",
                             "--set", f'paths.{key}="{value}"']) == 1, (key, value)
                assert (f"paths.{key} holds a NUL character or a surrogate"
                        in capsys.readouterr().err)
        assert not (tmp_path / "ckpt").exists()
        # in the config file too, where synth would write paths.manifest
        doc = json.loads(cfg.read_text())
        doc["paths"]["manifest"] = "\ud800.jsonl"
        cfg.write_text(json.dumps(doc))
        assert main(["synth", "--config", str(cfg), "--quiet", "--force"]) == 1
        assert "paths.manifest holds a NUL character" in capsys.readouterr().err

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
