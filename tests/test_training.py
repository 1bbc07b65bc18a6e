"""Tests for loss, Adam, and the gated training loop."""

import importlib.util
import json
import math
import re
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import embed_tokens, random_params, run_fresh, split_flat, tiny_config
from gradcheck import finite_difference_check
from volformer import model as M
from volformer import tensor as T
from volformer import training as TR
from volformer.data import Volume, gen_synthetic
from volformer.errors import (ConfigError, DataError, DimensionError, NumericError,
                             UsageError)


def synthetic_sets(tmp_path, n_train=4, n_val=2):
    cfg = tiny_config()
    train = gen_synthetic(n_train, cfg.input_shape, seed=11,
                          out_dir=tmp_path / "tr").load_volumes()
    val = gen_synthetic(n_val, cfg.input_shape, seed=22,
                        out_dir=tmp_path / "va").load_volumes()
    return cfg, train, val


class TestConfig:
    @pytest.mark.parametrize("bad", [
        dict(learning_rate=0.0),
        dict(beta1=1.0),
        dict(beta2=0.0),
        dict(epsilon=0.0),
        dict(batch_size=0),
        dict(monitor="train_loss"),
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ConfigError):
            TR.TrainConfig(**bad)


class TestLoss:
    def test_fused_form_matches_probability_form(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((8, 3))
        labels = rng.integers(0, 3, size=8)
        fused = float(T.softmax_cross_entropy(T.Tensor(logits), labels).data)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(fused, -np.log(probs[np.arange(8), labels]).mean(),
                                   atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, size=5)
        err = finite_difference_check(
            lambda t: T.softmax_cross_entropy(t, labels),
            T.Tensor(rng.standard_normal((5, 3))), step=1e-5)
        assert err < 1e-6


class TestAdam:
    def _setup(self, dtype=np.float32):
        cfg = tiny_config(num_layers=1)
        params = random_params(cfg, seed=1, dtype=dtype)
        return cfg, params, TR.AdamState(params)

    def test_zero_gradient_is_noop(self):
        _, params, state = self._setup()
        before = params.flat.copy()
        TR.adam_step(params, np.zeros_like(params.flat), state, TR.TrainConfig())
        np.testing.assert_array_equal(params.flat, before)
        assert state.step_count == 1

    def test_first_step_magnitude(self):
        """With g=1 everywhere the first update is lr/(1 + eps), downhill."""
        _, params, state = self._setup(dtype=np.float64)
        before = params.flat.copy()
        cfg = TR.TrainConfig(learning_rate=1e-4, epsilon=1e-7)
        TR.adam_step(params, np.ones_like(params.flat), state, cfg)
        np.testing.assert_allclose(before - params.flat, 1e-4 * 1.0 / (1.0 + 1e-7),
                                   rtol=1e-12)

    def test_first_step_sign_symmetry(self):
        """From zero parameters, flipping the gradient flips the update."""
        cfg = tiny_config(num_layers=1)
        g = np.random.default_rng(2).standard_normal(M.count_params(cfg))
        updates = []
        for sign in (1.0, -1.0):
            params = M.ModelParams.zeros(cfg, np.float64)
            TR.adam_step(params, sign * g, TR.AdamState(params), TR.TrainConfig())
            updates.append(params.flat)
        assert (updates[0] != 0).all()
        np.testing.assert_array_equal(updates[0], -updates[1])

    def test_equals_the_per_array_loop(self):
        """Five float32 steps on random gradients give the bits of the
        update written out one parameter array at a time."""
        cfg, params, state = self._setup()
        train = TR.TrainConfig(learning_rate=1e-2)
        arrays = {name: t.data.copy() for name, t in params.named_parameters()}
        m = {name: np.zeros_like(a) for name, a in arrays.items()}
        v = {name: np.zeros_like(a) for name, a in arrays.items()}
        rng = np.random.default_rng(3)
        for step in range(1, 6):
            grad = rng.standard_normal(params.flat.size).astype(np.float32)
            TR.adam_step(params, grad, state, train)
            bc1 = 1.0 - train.beta1 ** step
            bc2 = 1.0 - train.beta2 ** step
            for name, g in split_flat(cfg, grad).items():
                m[name] *= train.beta1
                m[name] += (1.0 - train.beta1) * g
                v[name] *= train.beta2
                v[name] += (1.0 - train.beta2) * (g * g)
                m_hat = m[name] / bc1
                v_hat = v[name] / bc2
                arrays[name] -= train.learning_rate * m_hat / (np.sqrt(v_hat) + train.epsilon)
        assert state.step_count == 5
        for name, t in params.named_parameters():
            np.testing.assert_array_equal(t.data, arrays[name], err_msg=name)
            np.testing.assert_array_equal(split_flat(cfg, state.m)[name], m[name])
            np.testing.assert_array_equal(split_flat(cfg, state.v)[name], v[name])

    def nonfinite_step(self, name, bad, index, dtype=np.float32):
        """A step, then a step whose gradient (of dtype) holds `bad` at entry
        `index` of the slice of `name`: it must name that parameter and leave
        the parameters and the whole Adam state as they were."""
        cfg, params, state = self._setup()
        rng = np.random.default_rng(4)
        TR.adam_step(params, rng.standard_normal(params.flat.size).astype(np.float32),
                     state, TR.TrainConfig())
        before = [params.flat.copy(), state.m.copy(), state.v.copy()]
        grad = rng.standard_normal(params.flat.size).astype(np.float32)
        split_flat(cfg, grad)[name].flat[index] = bad
        with pytest.raises(NumericError, match=f"'{name}'"):
            TR.adam_step(params, grad.astype(dtype), state, TR.TrainConfig())
        assert state.step_count == 1
        for old, now in zip(before, (params.flat, state.m, state.v)):
            np.testing.assert_array_equal(now, old)

    def test_nonfinite_gradient_aborts_without_mutation(self):
        self.nonfinite_step("head.bias", np.nan, 0)

    @pytest.mark.parametrize("name, bad, index", [("embed.weight", np.inf, -1),
                                                  ("layers.0.attn.k_bias", -np.inf, 0),
                                                  ("head.bias", np.nan, -1)])
    def test_nonfinite_entry_names_its_parameter(self, name, bad, index):
        self.nonfinite_step(name, bad, index)

    def test_nonfinite_float16_gradient_names_its_parameter(self):
        self.nonfinite_step("embed.bias", np.inf, 0, np.float16)

    @pytest.mark.parametrize("shape", [(), (3,), (1, 1243), (1244,)],
                             ids=["scalar", "length-3", "row", "one-too-many"])
    def test_gradient_of_another_shape_rejected_before_mutation(self, shape):
        """A scalar would broadcast to every parameter, and a vector of
        another length would fail halfway through the update."""
        cfg, params, state = self._setup()
        assert params.flat.shape == (1243,)
        before = [params.flat.copy(), state.m.copy(), state.v.copy()]
        with pytest.raises(UsageError, match=re.escape(f"gradient of shape {shape};")):
            TR.adam_step(params, np.ones(shape, np.float32), state, TR.TrainConfig())
        assert state.step_count == 0
        for old, now in zip(before, (params.flat, state.m, state.v)):
            np.testing.assert_array_equal(now, old)

    def test_state_scalar_count(self):
        """The moments are two vectors in the layout of params.flat."""
        cfg, params, state = self._setup()
        for moment in (state.m, state.v):
            assert moment.shape == (M.count_params(cfg),)
            assert moment.dtype == params.flat.dtype
            assert not np.shares_memory(moment, params.flat)


class TestTrainLoop:
    def test_checkpoint_gate_strict_improvement(self, tmp_path, monkeypatch):
        """Scripted validation losses 1.0, 0.9, 0.95, 0.8 must checkpoint
        after epochs 1, 2, and 4 only."""
        script = iter([(1.0, 0.3), (0.9, 0.4), (0.95, 0.5), (0.8, 0.6)])
        monkeypatch.setattr(TR, "evaluate",
                            lambda *a, **k: next(script))
        cfg = tiny_config(num_layers=0)
        params = M.ModelParams.initialize(cfg, seed=0)
        vol = Volume("v", 0, np.zeros(cfg.input_shape, np.float32))
        result = TR.train(params, cfg, [vol], [vol],
                          TR.TrainConfig(epochs=4, batch_size=1),
                          checkpoint_path=tmp_path / "m.vvck")
        assert [r["checkpointed"] for r in result.history] == [True, True, False, True]
        assert result.best_epoch == 4
        assert result.best_value == 0.8

    def test_same_seed_bit_identical_history(self, tmp_path):
        cfg, train, val = synthetic_sets(tmp_path)
        histories = []
        for _ in range(2):
            params = M.ModelParams.initialize(cfg, seed=3)
            result = TR.train(params, cfg, train, val,
                              TR.TrainConfig(epochs=5, batch_size=4, seed=9,
                                             learning_rate=1e-3))
            histories.append(json.dumps(result.history))
        assert histories[0] == histories[1]

    def test_history_file_schema(self, tmp_path):
        cfg, train, val = synthetic_sets(tmp_path)
        params = M.ModelParams.initialize(cfg, seed=3)
        path = tmp_path / "history.jsonl"
        TR.train(params, cfg, train, val,
                 TR.TrainConfig(epochs=3, batch_size=4, seed=1),
                 history_path=path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["epoch"] for r in rows] == [1, 2, 3]
        assert all(set(r) == {"epoch", "train_loss", "val_loss", "val_acc",
                              "checkpointed"} for r in rows)

    def test_history_streams_one_row_per_finished_epoch(self, tmp_path):
        """An on_epoch that raises at epoch 2 leaves exactly the rows of
        epochs 1 and 2, byte-identical to an uninterrupted run's."""
        cfg, train, val = synthetic_sets(tmp_path)
        run = TR.TrainConfig(epochs=4, batch_size=4, seed=2, learning_rate=1e-3)
        full = tmp_path / "full.jsonl"
        TR.train(M.ModelParams.initialize(cfg, seed=3), cfg, train, val, run,
                 history_path=full)

        class Stop(Exception):
            pass

        def stop_at_2(row):
            if row["epoch"] == 2:
                raise Stop

        cut = tmp_path / "cut.jsonl"
        with pytest.raises(Stop):
            TR.train(M.ModelParams.initialize(cfg, seed=3), cfg, train, val, run,
                     history_path=cut, on_epoch=stop_at_2)
        lines = full.read_bytes().splitlines(keepends=True)
        assert len(lines) == 4
        assert cut.read_bytes() == b"".join(lines[:2])

    def test_checkpoint_reproduces_validation_metrics(self, tmp_path):
        from volformer.checkpoint import load_checkpoint

        cfg, train, val = synthetic_sets(tmp_path)
        params = M.ModelParams.initialize(cfg, seed=3)
        ckpt = tmp_path / "best.vvck"
        result = TR.train(params, cfg, train, val,
                          TR.TrainConfig(epochs=6, batch_size=4, seed=4,
                                         learning_rate=1e-3),
                          checkpoint_path=ckpt)
        best_row = result.history[result.best_epoch - 1]
        _, best_params = load_checkpoint(ckpt)
        val_loss, val_acc = TR.evaluate(best_params, cfg, val, batch_size=4)
        assert val_loss == best_row["val_loss"]
        assert val_acc == best_row["val_acc"]

    def test_empty_split_rejected(self, tmp_path):
        cfg, train, _ = synthetic_sets(tmp_path)
        params = M.ModelParams.initialize(cfg, seed=0)
        with pytest.raises(DataError):
            TR.train(params, cfg, train, [], TR.TrainConfig(epochs=1))

    def test_wrong_volume_shape_rejected(self, tmp_path):
        _, train, val = synthetic_sets(tmp_path)
        wide = tiny_config(width=12)
        params = M.ModelParams.initialize(wide, seed=0)
        with pytest.raises(DimensionError, match="does not match configured input"):
            TR.train(params, wide, train, val, TR.TrainConfig(epochs=1))

    @pytest.mark.parametrize("override", [
        dict(num_heads=4), dict(num_layers=1), dict(num_layers=3),
        dict(layer_norm_eps=1e-5)], ids=["heads", "fewer-layers", "more-layers", "eps"])
    def test_config_not_the_parameters_own_rejected(self, tmp_path, monkeypatch, override):
        """The model runs with params.config; train, evaluate and
        predict_probs refuse any other config before a chunk starts (a
        different head count or eps gave another loss, a third layer a
        KeyError)."""
        cfg, train, val = synthetic_sets(tmp_path)
        params = M.ModelParams.initialize(cfg, seed=0)
        other = tiny_config(**override)
        started = []
        for module, name in ((M, "forward_logits"), (TR, "_chunk_gradient")):
            monkeypatch.setattr(module, name, lambda *args, name=name: started.append(name))
        calls = [lambda: TR.train(params, other, train, val, TR.TrainConfig(epochs=1)),
                 lambda: TR.evaluate(params, other, val),
                 lambda: TR.predict_probs(params, other, val)]
        for call in calls:
            with pytest.raises(UsageError, match=next(iter(override))):
                call()
        assert started == []

    @pytest.mark.parametrize("batch_size", [0, -1, 2.5, True])
    def test_batch_size_not_a_positive_integer_rejected(self, tmp_path, monkeypatch,
                                                        batch_size):
        """evaluate and predict_probs refuse it before a chunk starts (0 and
        2.5 raised range()'s ValueError and TypeError, -1 np.concatenate's
        ValueError)."""
        cfg, _, val = synthetic_sets(tmp_path)
        params = M.ModelParams.initialize(cfg, seed=0)
        started = []
        monkeypatch.setattr(M, "forward_logits", lambda *args: started.append(args))
        for call in (TR.evaluate, TR.predict_probs):
            with pytest.raises(UsageError, match=f"an integer >= 1, got {batch_size!r}"):
                call(params, cfg, val, batch_size)
        assert started == []

    def test_partial_final_batch_kept(self, tmp_path):
        cfg, train, val = synthetic_sets(tmp_path, n_train=3, n_val=1)
        params = M.ModelParams.initialize(cfg, seed=0)
        seen = []
        original = TR.adam_step

        def spy(params, grad, state, cfg_):
            seen.append(state.step_count)
            return original(params, grad, state, cfg_)

        TR.adam_step, spy_token = spy, None
        try:
            TR.train(params, cfg, train, val,
                     TR.TrainConfig(epochs=1, batch_size=4, seed=0))
        finally:
            TR.adam_step = original
        # 9 volumes in batches of 4 -> 3 steps (4, 4, 1)
        assert len(seen) == 3


def reference_volumes(n=200):
    """Reference parameters, and n random volumes at the reference config
    with their stacked voxels and labels."""
    config = M.ModelConfig()
    params = M.ModelParams.initialize(config, seed=0)
    rng = np.random.default_rng(5)
    voxels = rng.random((n,) + config.input_shape, dtype=np.float32)
    labels = rng.integers(0, config.num_classes, size=n)
    volumes = [Volume(f"v{i}", int(labels[i]), voxels[i]) for i in range(n)]
    return config, params, voxels, labels, volumes


class TestMicroBatches:
    """A training batch runs as chunks of at most TR._CHUNK volumes, an
    inference batch as chunks of at most TR._INFER_CHUNK; the results must
    match one pass over each batch."""

    def test_chunks_cover_the_batch(self):
        for n in range(1, 301):
            chunks = TR._chunks(n)
            covered = [i for s in chunks for i in range(n)[s]]
            assert covered == list(range(n)), n
            sizes = [s.stop - s.start for s in chunks]
            assert len(chunks) == math.ceil(n / TR._CHUNK), n
            assert max(sizes) <= TR._CHUNK, n
            assert n == 1 or min(sizes) > 1, n
            assert all(size % 4 == 0 for size in sizes[:-1]), n

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_inference_chunks_follow_the_worker_count(self, workers):
        for n in range(1, 401):
            chunks = TR._inference_chunks(n, workers)
            covered = [i for s in chunks for i in range(n)[s]]
            assert covered == list(range(n)), n
            sizes = [s.stop - s.start for s in chunks]
            assert all(s.start % 4 == 0 for s in chunks), n
            assert max(sizes) <= TR._INFER_CHUNK, n
            assert n < 16 or min(sizes) >= 5, n
            assert n < 8 * workers or len(chunks) % workers == 0, n

    def test_inference_chunks_cut_the_reference_batches(self):
        """200 volumes at batch 128 on 2 workers: batches of 128 and 72."""
        assert [(s.start, s.stop) for s in TR._inference_chunks(128, 2)] == [
            (0, 64), (64, 128)]
        assert [(s.start, s.stop) for s in TR._inference_chunks(72, 2)] == [
            (0, 36), (36, 72)]
        assert [s.stop - s.start for s in TR._inference_chunks(300, 2)] == [76, 76, 76, 72]
        assert [s.stop - s.start for s in TR._inference_chunks(9, 2)] == [9]

    def test_inference_bit_identical_to_one_pass(self):
        """At the reference config, the logits, predict_probs and evaluate
        over one batch of n volumes equal one forward_logits pass bit for
        bit."""
        config, params, voxels, labels, volumes = reference_volumes()
        for n in (1, 3, 33, 67, 72, 97, 128, 200):
            logits = M.forward_logits(voxels[:n], params)
            [(_, chunked)] = TR._batches(volumes[:n], params, n, "predict")
            np.testing.assert_array_equal(chunked.data, logits.data, err_msg=f"n={n}")
            probs = T.softmax(logits).data
            np.testing.assert_array_equal(
                TR.predict_probs(params, config, volumes[:n], n), probs, err_msg=f"n={n}")
            loss = float(T.softmax_cross_entropy(logits, labels[:n]).data)
            acc = int((M.predict_classes(logits.data) == labels[:n]).sum()) / n
            assert TR.evaluate(params, config, volumes[:n], n) == (loss * n / n, acc), n

    @pytest.mark.parametrize("n,batch_size", [(200, 128), (200, 77), (129, 128),
                                              (257, 128)])
    def test_several_batches_bit_identical_to_batch_passes(self, pool_of, n,
                                                           batch_size):
        """n reference volumes: the logits of each batch, predict_probs and
        evaluate equal one forward_logits pass per batch bit for bit, at 1,
        2 and 3 workers. At batch 77 a batch's last volumes are the tail
        rows of its own GEMMs; at 129 and 257 the last batch is one volume,
        whose head product one pass over it makes as a GEMV. A last-bit
        change in a logit can vanish in the softmax and the loss, so the
        logits are compared too."""
        config, params, voxels, labels, volumes = reference_volumes(n)
        passes, probs, loss_sum, correct = [], [], 0.0, 0
        for start in range(0, n, batch_size):
            logits = M.forward_logits(voxels[start : start + batch_size], params)
            passes.append(logits.data)
            batch_labels = labels[start : start + batch_size]
            probs.append(T.softmax(logits).data)
            loss_sum += (float(T.softmax_cross_entropy(logits, batch_labels).data)
                         * len(batch_labels))
            correct += int((M.predict_classes(logits.data) == batch_labels).sum())
        for workers in (1, 2, 3):
            pool_of(workers)
            batches = list(TR._batches(volumes, params, batch_size, "predict"))
            assert len(batches) == len(passes)
            for (_, logits), expected in zip(batches, passes):
                np.testing.assert_array_equal(logits.data, expected,
                                              err_msg=f"workers={workers}")
            np.testing.assert_array_equal(
                TR.predict_probs(params, config, volumes, batch_size),
                np.concatenate(probs), err_msg=f"workers={workers}")
            assert (TR.evaluate(params, config, volumes, batch_size)
                    == (loss_sum / n, correct / n)), workers

    def test_gradient_matches_one_tape(self):
        """67 volumes run as chunks of 24, 24 and 19, so a weight that
        ignored the chunk sizes would show."""
        n = 67
        config = tiny_config()
        params = random_params(config, seed=6)  # float64
        rng = np.random.default_rng(7)
        voxels = rng.standard_normal((n,) + config.input_shape)
        labels = rng.integers(0, config.num_classes, size=n)
        idx = rng.permutation(n)
        with T.Tape() as tape:
            loss = T.softmax_cross_entropy(
                M.forward_logits(voxels[idx], params), labels[idx])
        tape.backward(loss, params.tensors())
        whole = np.concatenate([grad.ravel() for grad in tape.grads])

        volumes = [Volume(f"v{i}", int(labels[i]), voxels[i]) for i in idx]
        loss_sum, chunked = TR._batch_gradient(params, volumes)
        assert len(TR._chunks(n)) == 3
        assert np.linalg.norm(chunked - whole) <= 1e-12 * np.linalg.norm(whole)
        assert loss_sum / n == pytest.approx(float(loss.data), rel=1e-12)

    def test_sub_blocked_embed_gradient_equals_the_taped_one(self):
        """A chunk of 20 volumes embeds in token blocks of 8, 8 and 4; its
        embed gradients match a tape through one T.linear over the stacked
        tokens, and every other gradient is the same bits."""
        n = 20
        config = tiny_config()
        params = random_params(config, seed=22)  # float64
        rng = np.random.default_rng(13)
        voxels = rng.standard_normal((n,) + config.input_shape)
        labels = rng.integers(0, config.num_classes, size=n)
        tokens = np.stack([M.tokenize(v, config) for v in voxels])
        with T.Tape() as tape:
            z = M.encode(embed_tokens(tokens, params), params)
            loss = T.softmax_cross_entropy(M.classifier_logits(z, params), labels)
        tape.backward(loss, params.tensors())
        volumes = [Volume(f"v{i}", int(labels[i]), voxels[i]) for i in range(n)]
        chunk_loss, grad = TR._chunk_gradient(volumes, params)
        assert len(list(M._token_blocks(voxels, config, np.float64))) == 3
        assert chunk_loss == float(loss.data)
        assert grad.shape == params.flat.shape
        for (name, got), want in zip(split_flat(config, grad).items(), tape.grads):
            if name in ("embed.weight", "embed.bias", "pos_embed"):
                err = np.linalg.norm(got - want) / np.linalg.norm(want)
                assert err <= 1e-12, (name, err)
            else:
                np.testing.assert_array_equal(got, want, err_msg=name)

    def test_train_loss_is_the_batch_mean(self, tmp_path):
        """One epoch of one 67-volume batch logs the mean loss over the
        batch at the starting parameters."""
        config = tiny_config()
        train = gen_synthetic(23, config.input_shape, seed=11,
                              out_dir=tmp_path / "tr").load_volumes()[:67]
        params = M.ModelParams.initialize(config, seed=3)
        voxels = np.stack([v.voxels for v in train])
        labels = np.array([v.label for v in train])
        log_probs = np.log(T.softmax(M.forward_logits(voxels, params)).data.astype(np.float64))
        expected = -log_probs[np.arange(67), labels].mean()
        result = TR.train(params, config, train, train[:3],
                          TR.TrainConfig(epochs=1, batch_size=67, seed=1))
        assert result.history[0]["train_loss"] == pytest.approx(expected, rel=1e-6)


class TestInputPath:
    """Tokens are written volume by volume into one buffer; no stacked copy
    of the voxels is made."""

    def test_predict_probs_holds_no_copy_of_the_set(self):
        """96 reference volumes are 48 MB; a pass must peak below half that
        (stacking the set, then tokenizing it, peaked at 66 MB)."""
        import tracemalloc

        config = M.ModelConfig()
        params = M.ModelParams.initialize(config, seed=0)
        rng = np.random.default_rng(9)
        volumes = [Volume(f"v{i}", 0, rng.random(config.input_shape, dtype=np.float32))
                   for i in range(96)]
        set_bytes = sum(v.voxels.nbytes for v in volumes)
        assert set_bytes == 48 * 2**20
        tracemalloc.start()
        try:
            TR.predict_probs(params, config, volumes, 128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < set_bytes / 2, peak / 2**20

    def test_train_holds_no_token_copy_of_the_set(self, pool_of):
        """Tripling the training set must not raise train's peak by the
        tokens of the extra volumes: a token copy of the set is as large as
        the set, 64 MB more here. On one worker both sizes keep exactly one
        chunk in flight (the chunk-gradient sums add about 2 MB); on two,
        the peak depends on how the chunks' lifetimes overlap."""
        import tracemalloc

        pool_of(1)
        config = M.ModelConfig()
        rng = np.random.default_rng(10)
        volumes = [Volume(f"v{i}", i % config.num_classes,
                          rng.random(config.input_shape, dtype=np.float32))
                   for i in range(192)]

        def peak(train_set):
            params = M.ModelParams.initialize(config, seed=0)
            tracemalloc.start()
            try:
                TR.train(params, config, train_set, volumes[:4],
                         TR.TrainConfig(epochs=1, batch_size=128))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        extra = sum(v.voxels.nbytes for v in volumes[64:])
        growth = peak(volumes) - peak(volumes[:64])
        assert growth < extra / 4, growth / 2**20

    def test_mixed_shapes_name_the_volume(self, tmp_path):
        cfg, train, val = synthetic_sets(tmp_path)
        odd = Volume("odd_one", 0, np.zeros((4, 8, 7, 1), np.float32))
        params = M.ModelParams.initialize(cfg, seed=0)
        for call in (lambda: TR.evaluate(params, cfg, train + [odd]),
                     lambda: TR.predict_probs(params, cfg, [odd] + train)):
            with pytest.raises(DimensionError, match="'odd_one'"):
                call()

    def test_train_checks_validation_shapes_before_epoch_1(self, tmp_path):
        cfg, train, val = synthetic_sets(tmp_path)
        odd = Volume("odd_one", 0, np.zeros((4, 8, 7, 1), np.float32))
        params = M.ModelParams.initialize(cfg, seed=0)
        before = [t.data.copy() for t in params.tensors()]
        with pytest.raises(DimensionError, match="'odd_one'"):
            TR.train(params, cfg, train, val + [odd], TR.TrainConfig(epochs=1),
                     history_path=tmp_path / "history.jsonl")
        assert not (tmp_path / "history.jsonl").exists()
        for old, t in zip(before, params.tensors()):
            np.testing.assert_array_equal(t.data, old)


@pytest.fixture
def pool_of(monkeypatch):
    """pool_of(n) puts a fresh n-thread worker pool in place of the
    process's own for the rest of the test, and shuts it down after."""
    made = []

    def install(n):
        made.append(ThreadPoolExecutor(n))
        monkeypatch.setattr(TR, "_pool", made[-1])
        monkeypatch.setattr(TR, "_WORKERS", n)

    yield install
    for pool in made:
        pool.shutdown(wait=True, cancel_futures=True)


def worker_sets(n=67):
    config = tiny_config()
    params = M.ModelParams.initialize(config, seed=4)
    rng = np.random.default_rng(12)
    volumes = [Volume(f"v{i}", int(rng.integers(config.num_classes)),
                      rng.random(config.input_shape, dtype=np.float32)) for i in range(n)]
    return config, params, volumes


class TestWorkerPool:
    """Inference chunks run on a thread pool; results must not depend on
    the number of workers or the order in which chunks finish."""

    def run_both(self, config, params, volumes):
        return (TR.predict_probs(params, config, volumes, 40),
                TR.evaluate(params, config, volumes, 40))

    def test_bit_identical_at_one_and_two_workers(self, pool_of, monkeypatch):
        config, params, volumes = worker_sets()
        pool_of(1)
        probs1, eval1 = self.run_both(config, params, volumes)
        pool_of(2)
        real = M.forward_logits
        ids = {id(v.voxels): v.id for v in volumes}
        finished = []

        def first_chunk_last(chunk, params):
            if chunk[0] is volumes[0].voxels:
                time.sleep(0.3)
            out = real(chunk, params)
            finished.append(ids[id(chunk[0])])
            return out

        monkeypatch.setattr(M, "forward_logits", first_chunk_last)
        probs2, eval2 = self.run_both(config, params, volumes)
        # each call cuts its batches of 40 and 27 into chunks of 20, 20, 16, 11
        assert len(finished) == 8 and finished[3::4] == ["v0", "v0"]
        np.testing.assert_array_equal(probs2, probs1)
        assert eval2 == eval1

    def test_worker_error_reaches_the_caller_and_the_pool_survives(self, pool_of):
        config, params, volumes = worker_sets()
        pool_of(2)
        voxels = volumes[45].voxels.copy()
        voxels[0, 0, 0, 0] = np.nan
        bad = volumes[:45] + [Volume("nan", 0, voxels)] + volumes[46:]
        with pytest.raises(NumericError):
            TR.predict_probs(params, config, bad, 40)
        got = []
        after = threading.Thread(
            target=lambda: got.append(TR.predict_probs(params, config, volumes, 40)))
        after.start()
        after.join(timeout=60)
        assert not after.is_alive()
        np.testing.assert_array_equal(got[0], TR.predict_probs(params, config, volumes, 40))

    @pytest.mark.parametrize("chunk_fn", ["forward_logits", "_chunk_gradient"])
    def test_an_error_drops_the_chunks_not_started(self, pool_of, monkeypatch, chunk_fn):
        """Six chunks on one worker: the first raises, and the others would
        sleep. The error reaches the caller, and at most the chunk the worker
        took while the caller woke up starts after it: a task queued behind
        the six finds the rest dropped."""
        config, params, volumes = worker_sets(192)
        pool_of(1)
        started = []
        ids = {id(v.voxels): v.id for v in volumes}

        def chunk_call(chunk, params):
            # an inference chunk is the volumes' voxels, a training chunk the volumes
            started.append(ids[id(getattr(chunk[0], "voxels", chunk[0]))])
            if started[-1] == "v0":
                raise NumericError("chunk 0 failed")
            time.sleep(0.5)

        monkeypatch.setattr(M if chunk_fn == "forward_logits" else TR, chunk_fn, chunk_call)
        with pytest.raises(NumericError, match="chunk 0 failed"):
            if chunk_fn == "forward_logits":
                TR.predict_probs(params, config, volumes[:48], 8)  # 6 batches of 8
            else:
                TR._batch_gradient(params, volumes)  # 6 chunks of 32
        TR._pool.submit(lambda: None).result(timeout=30)
        assert started[0] == "v0" and len(started) <= 2, started

    def test_float64_parameters_keep_their_precision(self):
        """A chunk's token buffer takes the parameters' dtype, so float64
        volumes are not rounded to float32 on their way to the embed."""
        config = tiny_config()
        params = random_params(config, seed=21)  # float64
        voxels = np.random.default_rng(14).standard_normal((45,) + config.input_shape)
        volumes = [Volume(f"v{i}", 0, v) for i, v in enumerate(voxels)]
        np.testing.assert_allclose(TR.predict_probs(params, config, volumes, 40),
                                   T.softmax(M.forward_logits(voxels, params)).data,
                                   rtol=0, atol=1e-12)

    def test_inference_inside_an_open_tape_records_nothing(self):
        config, params, volumes = worker_sets(9)
        with T.Tape() as tape:
            TR.predict_probs(params, config, volumes)
            TR.evaluate(params, config, volumes)
        assert tape.nodes == []

    def test_concurrent_callers_get_their_own_results(self, pool_of):
        """More workers than cores and a short switch interval: callers on
        four threads share the pool, and each gets the serial result."""
        config, params, volumes = worker_sets(41)
        pool_of(1)
        expected = [TR.predict_probs(params, config, volumes[i:], 16) for i in range(4)]
        pool_of(4)
        got = [None] * 4

        def call(i):
            got[i] = TR.predict_probs(params, config, volumes[i:], 16)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for want, have in zip(expected, got):
            np.testing.assert_array_equal(have, want)


class TestTrainingWorkers:
    """Training chunks run on the worker pool; the summed gradient must not
    depend on the number of workers or the order in which chunks finish."""

    def test_bit_identical_at_one_and_two_workers(self, pool_of, monkeypatch):
        config, params, volumes = worker_sets()  # chunks of 24, 24 and 19
        pool_of(1)
        loss1, grad1 = TR._batch_gradient(params, volumes)
        pool_of(2)
        real = TR._chunk_gradient
        finished = []

        def first_chunk_last(chunk, params):
            if chunk[0] is volumes[0]:
                time.sleep(0.3)
            out = real(chunk, params)
            finished.append(chunk[0].id)
            return out

        monkeypatch.setattr(TR, "_chunk_gradient", first_chunk_last)
        loss2, grad2 = TR._batch_gradient(params, volumes)
        assert finished == ["v24", "v48", "v0"]
        assert loss2 == loss1
        np.testing.assert_array_equal(grad2, grad1)

    def test_more_workers_than_cores(self, pool_of):
        """Six chunks on four workers with a short switch interval: chunks
        that record on the same parameter tensors keep their gradients
        apart."""
        config, params, volumes = worker_sets(41)
        volumes = volumes * 4  # 164 volumes: 6 chunks of 28 or 24
        pool_of(1)
        want = TR._batch_gradient(params, volumes)
        pool_of(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = TR._batch_gradient(params, volumes)
        finally:
            sys.setswitchinterval(interval)
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])

    def test_worker_error_reaches_the_caller_and_the_pool_survives(self, pool_of):
        config, params, volumes = worker_sets()
        pool_of(2)
        voxels = volumes[45].voxels.copy()
        voxels[0, 0, 0, 0] = np.nan
        bad = volumes[:45] + [Volume("nan", 0, voxels)] + volumes[46:]
        cfg = TR.TrainConfig(epochs=1, batch_size=67)
        with pytest.raises(NumericError) as raised:
            TR.train(params, config, bad, volumes[:4], cfg)
        assert any(entry.name == "_chunk_gradient" for entry in raised.traceback)
        got = []
        after = threading.Thread(
            target=lambda: got.append(TR.train(params, config, volumes, volumes[:4], cfg)))
        after.start()
        after.join(timeout=60)
        assert not after.is_alive()
        assert math.isfinite(got[0].history[0]["train_loss"])

    def test_benchmark_tracer_keeps_the_bits(self, pool_of):
        """perfbench/tracing.py wraps every public function and Tape.backward,
        whose return value its wrapper drops: a traced _batch_gradient gives
        the untraced loss and gradient bit for bit, and the tracer sees one
        tape per chunk."""
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracing", Path(__file__).parents[1] / "perfbench" / "tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        config, params, volumes = worker_sets()  # chunks of 24, 24 and 19
        pool_of(1)
        want = TR._batch_gradient(params, volumes)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.running(1):
                got = TR._batch_gradient(params, volumes)
        finally:
            tracer.uninstall()
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])
        assert len(tracer.tape_nodes) == len(TR._chunks(len(volumes))) == 3

    def test_second_worker_costs_one_chunk(self, pool_of):
        """A 128-volume reference batch (4 chunks of 32): a second worker
        may raise the peak by one chunk in flight, its footprint (tape,
        backward arrays, token buffer) and its gradient waiting for the
        caller."""
        import tracemalloc

        config = M.ModelConfig()
        params = M.ModelParams.initialize(config, seed=0)
        rng = np.random.default_rng(15)
        volumes = [Volume(f"v{i}", i % config.num_classes,
                          rng.random(config.input_shape, dtype=np.float32))
                   for i in range(128)]

        def peak(workers, call):
            pool_of(workers)
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        chunk = peak(1, lambda: TR._pool.submit(
            TR._chunk_gradient, volumes[:32], params).result())
        gradient = params.flat.nbytes
        one, two = (peak(n, lambda: TR._batch_gradient(params, volumes))
                    for n in (1, 2))
        assert two - one <= chunk + gradient, ((two - one) / 2**20, chunk / 2**20)

    def test_chunk_tape_after_forward(self):
        """After the forward of a 32-volume reference chunk its tape holds
        at most 15 MiB (13.3 MiB; 23.4 MiB while nodes held their tensors
        and attention kept its weights, 30.4 MiB while the FFN's ReLU, the
        residual additions and their inputs were tape nodes of their own):
        the embed is one node that keeps no tokens."""
        import tracemalloc

        config = M.ModelConfig()
        params = M.ModelParams.initialize(config, seed=0)
        rng = np.random.default_rng(16)
        volumes = list(rng.random((32,) + config.input_shape, dtype=np.float32))
        tracemalloc.start()
        try:
            with T.Tape() as tape:
                logits = M.forward_logits(volumes, params)
                T.softmax_cross_entropy(logits, np.arange(32) % config.num_classes)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape.nodes) == 9 * config.num_layers + 5
        assert held <= 15 * 2**20, held / 2**20

    def test_chunk_backward_peak(self):
        """A whole 32-volume reference chunk gradient peaks at most 16 MiB
        (14.3 MiB): attention keeps its softmax row statistics, not its
        weights, and the nodes hold no tensor (23.9 MiB before). Backward
        drops each tape node once its VJP has run, so the embed's VJP,
        which runs last with its 4 MB token buffer and 1 MB weight
        gradient, finds the tape nearly empty (30.3 MiB while the tape
        kept every node until it was dropped)."""
        import tracemalloc

        config = M.ModelConfig()
        params = M.ModelParams.initialize(config, seed=0)
        rng = np.random.default_rng(16)
        volumes = [Volume(f"v{i}", i % config.num_classes,
                          rng.random(config.input_shape, dtype=np.float32))
                   for i in range(32)]
        tracemalloc.start()
        try:
            TR._chunk_gradient(volumes, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, peak / 2**20


class TestBlasThreads:
    """Importing volformer.training sets numpy's OpenBLAS to one thread for
    the whole process, so each chunk worker runs single-threaded BLAS calls
    and the workers do not contend for the cores."""

    def test_import_sets_one_blas_thread_after_numpy_loads(self):
        """numpy loads with OpenBLAS asked for two threads; importing
        volformer.training afterwards leaves its getter reading one."""
        done = run_fresh(script=textwrap.dedent("""
            import ctypes, os
            os.environ["OPENBLAS_NUM_THREADS"] = "2"
            import numpy
            blas = ctypes.CDLL(numpy.linalg._umath_linalg.__file__)
            if not hasattr(blas, "scipy_openblas_get_num_threads64_"):
                raise SystemExit("no scipy-openblas getter")
            import volformer.training
            print(blas.scipy_openblas_get_num_threads64_())
        """))
        if done.stderr.strip() == "no scipy-openblas getter":
            pytest.skip("numpy does not bundle scipy-openblas")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1"]

    def test_without_an_openblas_setter_the_import_warns_once(self):
        """A numpy built on another BLAS: the import warns once, with a
        RuntimeWarning naming the variable to set, and goes on."""
        done = run_fresh(script=textwrap.dedent("""
            import ctypes, types, warnings
            import numpy
            ctypes.CDLL = lambda path: types.SimpleNamespace()  # no OpenBLAS symbol
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                import volformer.training
                import volformer.cli
            for w in caught:
                print(w.category.__name__, w.message)
        """))
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("RuntimeWarning ") and "OMP_NUM_THREADS=1" in lines[0]
