"""Acceptance suite: one numbered criterion per test, one line printed each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
The whole suite is deterministic: every seed below is frozen.
"""

import contextlib
import hashlib
import io
import json
import time

import numpy as np
import pytest

from conftest import embed_tokens, tiny_config
from volformer import data as D
from volformer import metrics as ME
from volformer import model as M
from volformer import tensor as T
from volformer import training as TR
from volformer.checkpoint import load_checkpoint, save_checkpoint
from volformer.cli import main as cli_main
from volformer.rng import Rng, derive_seed

TINY = tiny_config()


def _report(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\n[criterion {num:02d}] {status}: {description}{suffix}", flush=True)
    assert passed, f"criterion {num:02d} failed: {description}{suffix}"


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def overfit(tmp_path_factory):
    """The criterion-4 training run: 30 train / 15 val blob volumes,
    lr 1e-3, batch 8, 300 epochs, frozen seeds."""
    tmp = tmp_path_factory.mktemp("overfit")
    train_vols = D.gen_synthetic(10, TINY.input_shape, seed=11,
                                 out_dir=tmp / "train").load_volumes()
    val_vols = D.gen_synthetic(5, TINY.input_shape, seed=22,
                               out_dir=tmp / "val").load_volumes()
    params = M.ModelParams.initialize(TINY, seed=1)
    cfg = TR.TrainConfig(learning_rate=1e-3, batch_size=8, epochs=300, seed=0)
    start = time.monotonic()
    result = TR.train(params, TINY, train_vols, val_vols, cfg)
    elapsed = time.monotonic() - start
    _, train_acc = TR.evaluate(params, TINY, train_vols)
    _, val_acc = TR.evaluate(params, TINY, val_vols)
    return dict(params=params, result=result, train_acc=train_acc,
                val_acc=val_acc, elapsed=elapsed, train_vols=train_vols)


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Two identical end-to-end cmd_train runs (criterion 10) plus an
    eval of the first checkpoint (criterion 11)."""
    outputs = []
    for label in ("a", "b"):
        tmp = tmp_path_factory.mktemp(f"run_{label}")
        doc = {
            "model": {"slices": 4, "height": 8, "width": 8, "channels": 1,
                      "patch_slices": 2, "patch_height": 4, "patch_width": 4,
                      "embed_dim": 8, "num_heads": 2, "num_layers": 2,
                      "num_classes": 3},
            "train": {"epochs": 6, "batch_size": 8, "learning_rate": 1e-3,
                      "seed": 5},
            "synth": {"n_per_class": 10, "seed": 7},
            "paths": {"manifest": str(tmp / "manifest.jsonl"),
                      "data_dir": str(tmp / "data"),
                      "checkpoint_dir": str(tmp / "ckpt"),
                      "report": str(tmp / "report.json"),
                      "history": str(tmp / "history.jsonl")},
        }
        cfg_path = tmp / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["synth", "--config", str(cfg_path), "--quiet"]) == 0
            assert cli_main(["train", "--config", str(cfg_path), "--quiet"]) == 0
        outputs.append({
            "dir": tmp,
            "config": cfg_path,
            "history": (tmp / "history.jsonl").read_bytes(),
            "checkpoint": (tmp / "ckpt" / "model.vvck").read_bytes(),
        })
    return outputs


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_parameter_count():
    start = time.monotonic()
    count = M.count_params(M.ModelConfig())
    elapsed = time.monotonic() - start
    _report(1, "reference configuration has exactly 466,115 parameters",
            count == 466_115 and elapsed < 1.0,
            f"count={count}, {elapsed * 1000:.1f} ms")


def test_criterion_02_whole_model_gradients():
    """Loss gradient of every parameter array vs central differences,
    double precision, five frozen seeds.

    Comparison is per array: ||analytic - numeric||_inf over
    max(||analytic||_inf, ||numeric||_inf, 2e-6), threshold 1e-5. The
    2e-6 floor is the resolution of float64 central differences here
    (evaluation rounding ~1e-16 divided by 2h); it only engages for the
    key-projection biases, whose true gradient is identically zero by
    softmax shift invariance. Elementwise comparison with the module's
    1e-8 floor is provably unattainable for a composite this deep; see
    the per-op oracle tests for the elementwise contract.
    """
    step = 5e-5
    start = time.monotonic()
    worst, worst_where = 0.0, ""
    for seed in range(5):
        rng = Rng(derive_seed(seed, 7))
        mapping = {}
        for name, shape in M.parameter_shapes(TINY):
            vals = rng.normal(int(np.prod(shape))).reshape(shape)
            if name.endswith(".gamma"):
                mapping[name] = 1.0 + 0.2 * vals
            elif name.endswith(("weight", ".w1", ".w2")):
                mapping[name] = 0.5 * vals
            else:
                mapping[name] = 0.2 * vals
        params = M.ModelParams.from_arrays(TINY, mapping, dtype=np.float64)
        data_rng = np.random.default_rng(seed)
        vox = data_rng.standard_normal((2,) + TINY.input_shape)
        labels = data_rng.integers(0, TINY.num_classes, size=2)

        def loss_value():
            logits = M.forward_logits(vox, params)
            return T.softmax_cross_entropy(logits, labels)

        with T.Tape() as tape:
            loss = loss_value()
        tape.backward(loss, params.tensors())

        for (name, tensor), grad in zip(params.named_parameters(), tape.grads):
            flat = tensor.data.reshape(-1)
            analytic = grad.reshape(-1)
            numeric = np.empty_like(analytic)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + step
                f_plus = float(loss_value().data)
                flat[i] = original - step
                f_minus = float(loss_value().data)
                flat[i] = original
                numeric[i] = (f_plus - f_minus) / (2.0 * step)
            scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 2e-6)
            err = float(np.abs(analytic - numeric).max() / scale)
            if err > worst:
                worst, worst_where = err, f"seed {seed} {name}"
    elapsed = time.monotonic() - start
    _report(2, "whole-model gradients match finite differences < 1e-5",
            worst < 1e-5 and elapsed < 120.0,
            f"worst {worst:.2e} at {worst_where}, {elapsed:.1f} s")


def test_criterion_03_attention_rows_are_probabilities():
    rng = np.random.default_rng(2024)
    checked = 0
    ok = True
    for round_idx in range(10):
        params = M.ModelParams.initialize(TINY, seed=100 + round_idx,
                                          weight_std=0.5)
        for _ in range(10):
            sink = []
            vol = rng.standard_normal((1,) + TINY.input_shape).astype(np.float32)
            M.forward_logits(vol, params, attn_sink=sink)
            for alpha in sink:
                checked += alpha.shape[0] * alpha.shape[1] * alpha.shape[2]
                ok &= bool((alpha >= 0).all())
                ok &= bool(np.abs(alpha.sum(axis=-1) - 1.0).max() < 1e-6)
    _report(3, "attention rows sum to 1 (1e-6) with no negative entries "
               "across 100 forward passes", ok, f"{checked} rows checked")


def test_criterion_04_overfit_smoke(overfit):
    ok = (overfit["train_acc"] == 1.0 and overfit["val_acc"] >= 0.9
          and overfit["elapsed"] < 300.0)
    _report(4, "overfit run reaches 100% train / >= 90% validation accuracy",
            ok, f"train {overfit['train_acc']:.3f}, val {overfit['val_acc']:.3f}, "
                f"{overfit['elapsed']:.1f} s")


def test_overfit_loss_trend(overfit):
    """Windowed training loss is non-increasing after epoch 20: for every
    50-epoch window the mean of the first half >= mean of the second."""
    losses = [row["train_loss"] for row in overfit["result"].history]
    ok = True
    for start in range(20, len(losses) - 49):
        window = losses[start : start + 50]
        ok &= np.mean(window[:25]) >= np.mean(window[25:]) - 1e-6
    assert ok, "training loss trend increased within a 50-epoch window"


def test_criterion_05_position_encoding_sensitivity(overfit):
    def token_logits(tokens, params):
        z = embed_tokens(tokens[None], params)
        z = M.encode(z, params)
        return M.classifier_logits(z, params).data[0]

    rng = np.random.default_rng(55)
    perm = rng.permutation(8)

    zeroed = M.ModelParams.initialize(TINY, seed=3, weight_std=0.5)
    zeroed["pos_embed"].data[:] = 0.0
    tokens = rng.standard_normal((8, TINY.token_width)).astype(np.float32)
    base_probs = T.softmax(token_logits(tokens, zeroed))
    perm_probs = T.softmax(token_logits(tokens[perm], zeroed))
    equivariant = np.abs(base_probs - perm_probs).max() < 1e-5

    trained = overfit["params"]
    sample = M.tokenize(overfit["train_vols"][0].voxels, TINY)
    delta = np.abs(token_logits(sample, trained)
                   - token_logits(sample[perm], trained)).max()
    sensitive = delta > 1e-6
    _report(5, "zeroed positions give permutation equivariance; trained "
               "positions break it", equivariant and sensitive,
            f"equivariance gap {np.abs(base_probs - perm_probs).max():.1e}, "
            f"trained logit delta {delta:.1e}")


def test_criterion_06_metric_oracle_equivalence():
    rng = np.random.default_rng(616)
    y_true = rng.integers(0, 3, size=1000)
    y_pred = rng.integers(0, 3, size=1000)
    cm = ME.confusion(y_true, y_pred, num_classes=3)
    ok = True
    correct = sum(1 for t, p in zip(y_true, y_pred) if t == p)
    ok &= ME.accuracy(cm) == correct / 1000
    for c in range(3):
        tp = int(sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c))
        fp = int(sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c))
        fn = int(sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c))
        got_tp, got_fp, got_fn, _ = cm.one_vs_rest(c)
        ok &= (tp, fp, fn) == (got_tp, got_fp, got_fn)
        ok &= ME.precision(got_tp, got_fp) == (tp / (tp + fp) if tp + fp else 0.0)
        ok &= ME.recall(got_tp, got_fn) == (tp / (tp + fn) if tp + fn else 0.0)
    _report(6, "metrics via confusion matrix equal direct-count metrics exactly",
            ok, "1000 pairs, 3 classes")


def test_criterion_07_cv_partition_property():
    ok = True
    detail = []
    for per_class, k in ((10, 10), (13, 10)):
        entries = [D.ManifestEntry(path=f"c{c}_{i}.vvol", label=c)
                   for c in range(3) for i in range(per_class)]
        manifest = D.DatasetManifest(entries=entries)
        folds = D.make_folds(manifest, k=k, seed=4)
        tested = [e.path for fold in folds for e in fold.test]
        ok &= sorted(tested) == sorted(e.path for e in entries)
        ok &= len(tested) == len(set(tested))
        for fold in folds:
            for c in range(3):
                count = sum(e.label == c for e in fold.test)
                ok &= abs(count - per_class / k) <= 1
        detail.append(f"{3 * per_class} items")
    _report(7, "10-fold harness tests each sample exactly once with balanced "
               "folds", ok, ", ".join(detail))


def test_criterion_08_central_slice_selection():
    rng = np.random.default_rng(88)
    vol = D.Volume("big", 0, rng.standard_normal((192, 4, 4, 1)).astype(np.float32))
    out = D.select_central_slices(vol, 32)
    ok = out.voxels.shape == (32, 4, 4, 1) \
        and (out.voxels == vol.voxels[80:112]).all()
    _report(8, "192-slice volume reduces to exactly slices [80, 112)", ok)


def test_criterion_09_format_round_trips(tmp_path):
    rng = np.random.default_rng(99)
    vol = D.Volume("rt", 1, rng.standard_normal((4, 8, 8, 1)).astype(np.float32))
    v1, v2 = tmp_path / "v1.vvol", tmp_path / "v2.vvol"
    D.write_volume(vol, v1)
    D.write_volume(D.read_volume(v1, label=1), v2)
    vvol_ok = v1.read_bytes() == v2.read_bytes()

    params = M.ModelParams.initialize(TINY, seed=6)
    c1, c2 = tmp_path / "c1.vvck", tmp_path / "c2.vvck"
    save_checkpoint(c1, params)
    _, loaded = load_checkpoint(c1)
    save_checkpoint(c2, loaded)
    vvck_ok = c1.read_bytes() == c2.read_bytes()
    _report(9, "VVOL and VVCK survive write -> read -> write byte-identically",
            vvol_ok and vvck_ok,
            f"vvol {len(v1.read_bytes())} B, vvck {len(c1.read_bytes())} B")


def test_criterion_10_training_determinism(cli_runs):
    a, b = cli_runs
    same_history = a["history"] == b["history"]
    same_checkpoint = a["checkpoint"] == b["checkpoint"]
    _report(10, "two cmd_train runs with one seed produce identical history "
                "and checkpoint bytes", same_history and same_checkpoint,
            f"history sha {hashlib.sha256(a['history']).hexdigest()[:12]}, "
            f"checkpoint sha {hashlib.sha256(a['checkpoint']).hexdigest()[:12]}")


def test_criterion_11_report_schema(cli_runs, capsys):
    run = cli_runs[0]
    assert cli_main(["eval", "--config", str(run["config"]), "--quiet"]) == 0
    capsys.readouterr()
    report = json.loads((run["dir"] / "report.json").read_text())
    # accuracy / precision / recall / F-score columns; the reference
    # headline accuracy would need the original restricted cohort and
    # full-scale (~1500 epoch) training, and is NOT reproduced here.
    ok = {"accuracy_mean", "accuracy_std", "per_class", "macro", "micro",
          "confusion"} == set(report)
    ok &= all({"name", "precision", "recall", "f1"} == set(row)
              for row in report["per_class"])
    ok &= {"precision", "recall", "f1"} <= set(report["macro"])
    _report(11, "eval emits ACC/Precision/Recall/F-score fields (headline "
                "numbers are explicitly not reproducible at desk scale)", ok,
            f"accuracy_mean={report['accuracy_mean']:.3f}")
