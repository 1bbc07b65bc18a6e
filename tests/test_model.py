"""Tests for tokenization, the attention encoder, the head, and checkpoints."""

import math
import os
import struct
import time
import types
import weakref

import numpy as np
import pytest

from conftest import embed_tokens, project, random_params, set_config_keys, tiny_config
from gradcheck import add, attention_vjp_with_weights, finite_difference_check
from naive_reference import naive_forward, naive_tokens
from volformer import model as M
from volformer import tensor as T
from volformer.checkpoint import (load_checkpoint, read_raw_checkpoint,
                                  save_checkpoint)
from volformer.errors import (CheckpointMismatchError, ConfigError,
                              DimensionError, FormatError, NumericError,
                              UsageError)

REFERENCE_CONFIG = M.ModelConfig()  # reference setup is the default


class TestConfigAndGrid:
    def test_reference_token_grid(self):
        grid = M.token_grid(REFERENCE_CONFIG)
        assert (grid.t, grid.h, grid.w, grid.total) == (1, 4, 4, 16)

    def test_whole_volume_tubelet(self):
        cfg = tiny_config(patch_slices=4, patch_height=8, patch_width=8)
        assert M.token_grid(cfg) == (1, 1, 1, 1)

    def test_floor_drops_remainder_slice(self):
        cfg = tiny_config(slices=33, patch_slices=32, height=32, width=32,
                          patch_height=16, patch_width=16)
        assert M.token_grid(cfg).t == 1

    @pytest.mark.parametrize("bad", [
        dict(embed_dim=10, num_heads=4),
        dict(patch_slices=8),           # exceeds slices=4
        dict(num_classes=1),
        dict(layer_norm_eps=True),      # a bool is not a float
        dict(num_layers="2"),           # a string is not an int
        dict(layer_norm_eps=0.0),
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ConfigError):
            tiny_config(**bad)

    def test_head_dim(self):
        assert REFERENCE_CONFIG.head_dim == 2
        assert tiny_config().head_dim == 4


class TestCountParams:
    def test_reference_count(self):
        assert M.count_params(REFERENCE_CONFIG) == 466_115

    def test_reference_decomposition(self):
        """262,176 embedding + 512 positional + 16 x 12,704 blocks
        + 64 final norm + 99 head."""
        d = 32
        embedding = 8192 * d + d
        positions = 16 * d
        per_block = 4 * d + 4 * (d * d + d) + (d * 128 + 128 + 128 * d + d)
        assert embedding == 262_176
        assert positions == 512
        assert per_block == 12_704
        assert embedding + positions + 16 * per_block + 2 * d + (d * 3 + 3) == 466_115

    def test_hand_counted_minimal_config(self):
        # no layers, one 1x1x2 token, d=1, 2 classes:
        # embed 2+1, positions 1, final norm 2, head 1*2+2
        cfg = M.ModelConfig(slices=1, height=1, width=2, channels=1,
                            patch_slices=1, patch_height=1, patch_width=2,
                            embed_dim=1, num_heads=1, num_layers=0, num_classes=2)
        assert M.count_params(cfg) == 3 + 1 + 2 + 4

    def test_depth_linearity(self):
        shallow = tiny_config(num_layers=2)
        deep = tiny_config(num_layers=4)
        per_block = (M.count_params(deep) - M.count_params(shallow)) // 2
        assert M.count_params(tiny_config(num_layers=10)) \
            == M.count_params(tiny_config(num_layers=0)) + 10 * per_block

    @pytest.mark.parametrize("cfg", [REFERENCE_CONFIG, tiny_config()])
    def test_closed_form_matches_enumeration(self, cfg):
        enumerated = sum(int(np.prod(s)) for _, s in M.parameter_shapes(cfg))
        assert M.count_params(cfg) == enumerated
        assert sum(t.size for t in M.ModelParams.zeros(cfg).tensors()) == enumerated


class TestParameterLayout:
    """Every parameter tensor is a view into params.flat, back to back in
    parameter_shapes order, which is also the VVCK data order."""

    @staticmethod
    def assert_views_in_order(params, dtype):
        flat = params.flat
        assert flat.shape == (M.count_params(params.config),) and flat.dtype == dtype
        offset = 0
        for (name, shape), (got, t) in zip(M.parameter_shapes(params.config),
                                           params.named_parameters(), strict=True):
            assert got == name and t.shape == shape and t.dtype == dtype, name
            assert t.data.flags.c_contiguous and np.shares_memory(t.data, flat), name
            assert t.data.ctypes.data == flat.ctypes.data + offset * flat.itemsize, name
            offset += t.size
        assert offset == flat.size
        flat[:] = np.arange(flat.size)  # a write to flat is seen through every view
        offset = 0
        for name, t in params.named_parameters():
            np.testing.assert_array_equal(t.data.ravel(),
                                          np.arange(offset, offset + t.size), err_msg=name)
            offset += t.size

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_constructor_gives_views(self, tiny, dtype):
        arrays = {name: t.data for name, t in random_params(tiny, 3).named_parameters()}
        for params in (M.ModelParams.initialize(tiny, seed=1, dtype=dtype),
                       M.ModelParams.zeros(tiny, dtype),
                       M.ModelParams.from_arrays(tiny, arrays, dtype)):
            self.assert_views_in_order(params, dtype)

    def test_from_arrays_copies_its_inputs(self, tiny):
        arrays = {name: t.data.copy()
                  for name, t in random_params(tiny, 4).named_parameters()}
        params = M.ModelParams.from_arrays(tiny, arrays, np.float64)
        for name, t in params.named_parameters():
            np.testing.assert_array_equal(t.data, arrays[name], err_msg=name)
        kept = params.flat.copy()
        for a in arrays.values():
            a += 1.0
        np.testing.assert_array_equal(params.flat, kept)

    def test_flat_is_the_checkpoint_data_order(self, tiny, tmp_path):
        params = M.ModelParams.initialize(tiny, seed=5)
        save_checkpoint(tmp_path / "m.vvck", params)
        _, arrays = read_raw_checkpoint(tmp_path / "m.vvck")
        np.testing.assert_array_equal(
            np.concatenate([a.ravel() for a in arrays.values()]), params.flat)

    @pytest.mark.parametrize("shape", [(2115 + 7,), (100,), (2114,), (1, 2115), (2115, 1)])
    def test_flat_of_the_wrong_shape_rejected(self, tiny, shape):
        """A vector too long, too short or not 1-D is refused, naming its
        shape and the config's parameter count."""
        assert M.count_params(tiny) == 2115
        with pytest.raises(UsageError, match=rf"shape \({shape[0]},.*2115 parameters"):
            M.ModelParams(tiny, np.zeros(shape, np.float32))

    @pytest.mark.parametrize("dtype", [np.int64, np.float16, np.complex128])
    def test_flat_of_another_dtype_rejected(self, tiny, dtype):
        """Tensor would copy each view of such a vector, so a write to flat
        (Adam's, say) would never reach the parameters."""
        with pytest.raises(UsageError, match=f"dtype {np.dtype(dtype)}"):
            M.ModelParams(tiny, np.zeros(M.count_params(tiny), dtype))


class TestExtractTubelets:
    def test_enumeration_oracle(self):
        """2x2x2 volume with 1x1x2 tubelets: four tokens in t-major order."""
        cfg = M.ModelConfig(slices=2, height=2, width=2, channels=1,
                            patch_slices=1, patch_height=1, patch_width=2,
                            embed_dim=2, num_heads=1, num_layers=0, num_classes=2)
        vox = np.arange(8, dtype=np.float32).reshape(2, 2, 2, 1)
        tokens = M.tokenize(vox, cfg)
        np.testing.assert_array_equal(tokens, naive_tokens(vox, cfg))
        np.testing.assert_array_equal(tokens, [[0, 1], [2, 3], [4, 5], [6, 7]])

    def test_partition_round_trip(self, tiny):
        rng = np.random.default_rng(0)
        vox = rng.standard_normal((4, 8, 8, 1)).astype(np.float32)
        tokens = M.tokenize(vox, tiny)
        grid = M.token_grid(tiny)
        rebuilt = tokens.reshape(grid.t, grid.h, grid.w, tiny.patch_slices,
                                 tiny.patch_height, tiny.patch_width, 1)
        rebuilt = rebuilt.transpose(0, 3, 1, 4, 2, 5, 6).reshape(vox.shape)
        assert (rebuilt == vox).all()

    def test_writes_into_a_buffer(self, tiny):
        vox = np.random.default_rng(1).standard_normal((4, 8, 8, 1))
        out = np.empty((3, 8, tiny.token_width), np.float32)
        got = M.tokenize(vox, tiny, out=out[1])
        assert got.base is out
        np.testing.assert_array_equal(out[1], M.tokenize(vox, tiny).astype(np.float32))
        with pytest.raises(UsageError):
            M.tokenize(vox, tiny, out=np.empty((8, 2 * tiny.token_width))[:, ::2])

    def test_constant_volume_gives_identical_tokens(self, tiny):
        tokens = M.tokenize(np.full((4, 8, 8, 1), 2.5, np.float32), tiny)
        assert (tokens == tokens[0]).all()

    def test_remainder_crop_warns(self):
        """A width of 3 holds one 2-wide patch; the third column is cropped."""
        cfg = M.ModelConfig(slices=2, height=2, width=3, channels=1,
                            patch_slices=1, patch_height=1, patch_width=2,
                            embed_dim=2, num_heads=1, num_layers=0, num_classes=2)
        vox = np.arange(12, dtype=np.float32).reshape(2, 2, 3, 1)
        with pytest.warns(UserWarning, match="cropping"):
            tokens = M.tokenize(vox, cfg)
        np.testing.assert_array_equal(tokens, [[0, 1], [3, 4], [6, 7], [9, 10]])

    def test_undersized_volume_rejected(self, tiny):
        with pytest.raises(DimensionError, match="does not match configured input"):
            M.tokenize(np.zeros((1, 8, 8, 1), np.float32), tiny)


def minimal_embed_setup():
    cfg = M.ModelConfig(slices=1, height=1, width=2, channels=1,
                        patch_slices=1, patch_height=1, patch_width=2,
                        embed_dim=2, num_heads=1, num_layers=0, num_classes=2)
    params = random_params(cfg, seed=4)
    return cfg, params


class LeafSwap(dict):
    """params' leaf tensors by name, one of them replaced by leaf, and
    params.config: all that model.embed reads."""

    def __init__(self, params, name, leaf):
        super().__init__(params.named_parameters())
        self[name] = leaf
        self.config = params.config


class TestEmbed:
    def test_zero_tokens_zero_positions_give_bias(self, tiny):
        params = M.ModelParams.zeros(tiny, dtype=np.float64)
        params["embed.bias"].data[:] = np.arange(8)
        z = M.embed(np.zeros((1,) + tiny.input_shape), params)
        np.testing.assert_array_equal(z.data[0], np.tile(np.arange(8.0), (8, 1)))

    def test_identical_tokens_identical_rows(self, tiny):
        """A volume tiled from one tubelet holds 8 identical tokens."""
        params = random_params(tiny, seed=1)
        params["pos_embed"].data[:] = 0.0
        tubelet = np.random.default_rng(2).standard_normal((2, 4, 4, 1))
        z = M.embed(np.tile(tubelet, (2, 2, 2, 1))[None], params)
        assert (z.data == z.data[0, 0]).all()

    def test_unit_token_hand_case(self):
        cfg, params = minimal_embed_setup()
        z = M.embed(np.array([1.0, 0.0]).reshape(1, 1, 1, 2, 1), params)
        expected = params["embed.weight"].data[0] + params["embed.bias"].data \
            + params["pos_embed"].data[0]
        np.testing.assert_allclose(z.data[0, 0], expected, atol=1e-12)

    def test_width_mismatch_rejected(self, tiny):
        params = M.ModelParams.zeros(tiny)
        with pytest.raises(DimensionError, match="does not match configured input"):
            M.embed(np.zeros((1, 4, 8, 12, 1)), params)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tokens_equal_the_stacked_path(self, dtype):
        """11 volumes make token blocks of 8 and 3, in the dtype asked for."""
        config = M.ModelConfig()
        rng = np.random.default_rng(8)
        volumes = [rng.standard_normal(config.input_shape).astype(dtype) for _ in range(11)]
        # each block's tokens are overwritten by the next, so keep copies
        got = [(s, x.copy()) for s, x in M._token_blocks(volumes, config, np.float32)]
        assert [s for s, _ in got] == [slice(0, 8), slice(8, 11)]
        stacked = np.stack(volumes).astype(np.float32)
        np.testing.assert_array_equal(
            np.concatenate([x for _, x in got]),
            np.concatenate([M.tokenize(v, config) for v in stacked]))
        assert all(x.dtype == np.float32 for _, x in got)

    def test_equals_one_linear_over_the_stacked_tokens(self):
        """Reference config, float32, 20 volumes in blocks of 8, 8 and 4:
        the output and all three gradients equal one T.linear over the
        stacked tokens, bit for bit (the weight gradient is a sum of the
        blocks' GEMMs, so to float32 rounding: 7.9e-7 of its largest entry
        on one x86 host), and the op's node holds no array."""
        config = M.ModelConfig()
        rng = np.random.default_rng(30)
        params = M.ModelParams.initialize(config, seed=30, weight_std=0.2)
        params.flat += 0.1 * rng.standard_normal(params.flat.size).astype(np.float32)
        volumes = rng.random((20,) + config.input_shape, dtype=np.float32)
        c = rng.standard_normal((20, 16, config.embed_dim))
        assert [s for s, _ in M._token_blocks(volumes, config, np.float32)] == [
            slice(0, 8), slice(8, 16), slice(16, 20)]
        tokens = np.stack([M.tokenize(v, config) for v in volumes])
        results = []
        for forward in (lambda: embed_tokens(tokens, params),
                        lambda: M.embed(list(volumes), params)):
            with T.Tape() as tape:
                z = forward()
                loss = project(z, c)
            nodes = list(tape.nodes)  # backward consumes the tape
            tape.backward(loss, params.tensors()[:3])
            results.append((z.data, tape.grads, nodes))
        (want, taped, taped_nodes), (got, op, op_nodes) = results
        np.testing.assert_array_equal(got, want)
        (w_want, *rest_want), (w_got, *rest_got) = taped, op
        assert np.abs(w_got - w_want).max() <= 1e-5 * np.abs(w_want).max()
        for have, wanted in zip(rest_got, rest_want):
            np.testing.assert_array_equal(have, wanted)
        assert len(op_nodes) == len(taped_nodes)
        assert not any(isinstance(cell.cell_contents, np.ndarray)
                       for cell in op_nodes[0].vjp.__closure__)

    @pytest.mark.parametrize("name", ["embed.weight", "embed.bias", "pos_embed"])
    def test_gradient_matches_finite_differences(self, tiny, name):
        """float64, 20 volumes, so the backward pass sums the weight
        gradient over token blocks of 8, 8 and 4."""
        params = random_params(tiny, seed=31)
        rng = np.random.default_rng(31)
        volumes = rng.standard_normal((20,) + tiny.input_shape)
        c = rng.standard_normal((20, 8, tiny.embed_dim))
        assert len(list(M._token_blocks(volumes, tiny, np.float64))) == 3

        def f(leaf):
            return project(M.embed(volumes, LeafSwap(params, name, leaf)), c)

        assert finite_difference_check(f, params[name], step=1e-5) < 1e-6


class TestAttention:
    def test_single_token_passes_values_through(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((1, 4))
        sink = []
        out = T.attention(T.Tensor(rng.standard_normal((1, 4))[None]),
                          T.Tensor(rng.standard_normal((1, 4))[None]),
                          T.Tensor(v[None]), num_heads=1, sink=sink)
        np.testing.assert_allclose(out.data[0], v, atol=1e-12)
        np.testing.assert_array_equal(sink[0], [[[[1.0]]]])

    def test_zero_queries_average_values(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((5, 3))
        out = T.attention(T.Tensor(np.zeros((1, 5, 3))),
                          T.Tensor(rng.standard_normal((5, 3))[None]), T.Tensor(v[None]),
                          num_heads=1)
        np.testing.assert_allclose(out.data[0], np.tile(v.mean(axis=0), (5, 1)),
                                   atol=1e-12)

    def test_two_token_hand_case(self):
        """Scores [[0, ln3], [0, 0]] make the first weight row [0.25, 0.75]."""
        q = T.Tensor([[[1.0], [0.0]]])
        k = T.Tensor([[[0.0], [math.log(3.0)]]])
        v = T.Tensor([[[1.0], [0.0]]])
        sink = []
        out = T.attention(q, k, v, num_heads=1, sink=sink)
        np.testing.assert_allclose(sink[0][0, 0, 0], [0.25, 0.75], atol=1e-12)
        np.testing.assert_allclose(sink[0][0, 0, 1], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(out.data[0, :, 0], [0.25, 0.5], atol=1e-12)

    def test_rows_are_probability_vectors(self, tiny):
        params = random_params(tiny, seed=6)
        rng = np.random.default_rng(3)
        sink = []
        M.forward_logits(rng.standard_normal((2, 4, 8, 8, 1)), params, attn_sink=sink)
        assert len(sink) == tiny.num_layers
        for alpha in sink:
            assert (alpha >= 0).all()
            np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-6)


def split_heads(x, num_heads):
    b, n, d = x.shape
    return x.reshape(b, n, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def merge_heads(x):
    b, heads, n, head_dim = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, heads * head_dim)


class TestAttentionOp:
    """T.attention against restatements of its formula."""

    @pytest.mark.parametrize("batch, num_heads", [(1, 16), (3, 16), (32, 16), (5, 4), (4, 32)])
    def test_forward_bit_identical_to_strided_formula(self, batch, num_heads):
        """The heads as strided views, q^T as a view, the scores key
        outermost with a running max and sum over the keys in order, a
        fresh array per softmax step and a merge copy: the op must give
        the same bits."""
        rng = np.random.default_rng(batch * 100 + num_heads)
        q, k, v = (rng.standard_normal((batch, 16, 32)).astype(np.float32) for _ in "qkv")
        head_dim = 32 // num_heads
        q_s = split_heads(q, num_heads) * (1.0 / math.sqrt(head_dim))
        scores = np.moveaxis(np.matmul(split_heads(k, num_heads), np.swapaxes(q_s, -1, -2)),
                             2, 0)  # [N_k, B, heads, N_q]
        m = scores[0]
        for slab in scores[1:]:
            m = np.maximum(m, slab)
        e = np.exp(scores - m)
        total = e[0]
        for slab in e[1:]:
            total = total + slab
        alpha = np.moveaxis(e / total, 0, -1)  # [B, heads, N_q, N_k]
        expected = merge_heads(np.matmul(alpha, split_heads(v, num_heads)))
        sink = []
        out = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), num_heads, sink)
        np.testing.assert_array_equal(sink[0], alpha)
        np.testing.assert_array_equal(out.data, expected)

    @pytest.mark.parametrize("operand", ["q", "k"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_scores_rejected(self, operand, bad):
        rng = np.random.default_rng(11)
        inputs = {name: rng.standard_normal((2, 16, 32)).astype(np.float32) for name in "qkv"}
        inputs[operand][1, 3, 5] = bad
        sink = []
        with pytest.raises(NumericError, match="NaN or Inf"):
            T.attention(*(T.Tensor(inputs[name]) for name in "qkv"), 16, sink)
        assert sink == []

    def test_batch_equals_one_volume_calls(self):
        """Each volume's output and weights do not depend on the rest of
        the batch, bit for bit: the chunked forward relies on it."""
        rng = np.random.default_rng(12)
        q, k, v = (rng.standard_normal((5, 16, 32)).astype(np.float32) for _ in "qkv")
        sink = []
        out = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), 16, sink).data
        for i in range(5):
            one_sink = []
            one = T.attention(T.Tensor(q[i:i + 1]), T.Tensor(k[i:i + 1]),
                              T.Tensor(v[i:i + 1]), 16, one_sink).data
            np.testing.assert_array_equal(out[i:i + 1], one)
            np.testing.assert_array_equal(sink[0][i:i + 1], one_sink[0])

    def test_sink_holds_query_rows(self):
        rng = np.random.default_rng(13)
        q, k, v = (rng.standard_normal((3, 16, 32)).astype(np.float32) for _ in "qkv")
        sink = []
        T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), 16, sink)
        assert sink[0].shape == (3, 16, 16, 16)
        np.testing.assert_allclose(sink[0].sum(axis=-1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("head_dim", [1, 2, 4, 8])
    def test_vjp_matches_softmax_jacobian(self, head_dim):
        """In float64 the VJP equals the chain rule through the explicit
        softmax Jacobian diag(a) - a a^T of every weight row."""
        rng = np.random.default_rng(head_dim)
        num_heads = 8 // head_dim
        q, k, v, g = (rng.standard_normal((2, 5, 8)) for _ in range(4))
        leaves = [T.Tensor(x, requires_grad=True) for x in (q, k, v)]
        with T.Tape() as tape:
            loss = project(T.attention(*leaves, num_heads), g)
        tape.backward(loss, leaves)

        q_s = split_heads(q, num_heads) / math.sqrt(head_dim)
        k_h, v_h, g_h = (split_heads(x, num_heads) for x in (k, v, g))
        scores = q_s @ np.swapaxes(k_h, -1, -2)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        alpha = e / e.sum(axis=-1, keepdims=True)
        jacobian = (np.einsum("...ij,jk->...ijk", alpha, np.eye(5))
                    - np.einsum("...ij,...ik->...ijk", alpha, alpha))
        ds = np.einsum("...ijk,...ik->...ij", jacobian, g_h @ np.swapaxes(v_h, -1, -2))
        expected = [merge_heads(ds @ k_h) / math.sqrt(head_dim),
                    merge_heads(np.swapaxes(ds, -1, -2) @ q_s),
                    merge_heads(np.swapaxes(alpha, -1, -2) @ g_h)]
        for grad, want in zip(tape.grads, expected):
            assert np.linalg.norm(grad - want) <= 1e-12 * np.linalg.norm(want)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("num_heads", [16, 4])
    def test_rebuilt_weights_give_the_kept_weights_gradients(self, dtype, num_heads):
        """The VJP rebuilds the weights from q and k; its dq, dk and dv
        equal, bit for bit, the formulas applied to the weights the
        forward put in the sink."""
        rng = np.random.default_rng(num_heads)
        q, k, v, g = (rng.standard_normal((6, 16, 32)).astype(dtype) for _ in range(4))
        leaves = [T.Tensor(x, requires_grad=True) for x in (q, k, v)]
        sink = []
        with T.Tape() as tape:
            out = T.attention(*leaves, num_heads, sink)
        got = tape.nodes[0].vjp(g)
        want = attention_vjp_with_weights(q, k, v, num_heads, sink[0], out.data, g)
        for have, wanted in zip(got, want):
            assert have.dtype == dtype
            np.testing.assert_array_equal(have, wanted)

    def test_node_keeps_no_weights(self):
        """Once the caller drops the sink, the weights are freed though the
        tape lives: the node keeps only their row statistics."""
        rng = np.random.default_rng(14)
        leaves = [T.Tensor(rng.standard_normal((3, 16, 32)).astype(np.float32),
                           requires_grad=True) for _ in "qkv"]
        sink = []
        with T.Tape() as tape:
            T.attention(*leaves, 16, sink)
        weights = weakref.ref(sink[0].base)
        del sink
        assert weights() is None and len(tape.nodes) == 1


class TestMhsa:
    def test_single_head_reduces_to_attention(self):
        cfg = tiny_config(num_heads=1)
        params = random_params(cfg, seed=7)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 8))
        got = M.mhsa(T.Tensor(x[None]), params, "layers.0.").data[0]

        def w(name):
            return params["layers.0.attn." + name].data

        q = x @ w("q_weight") + w("q_bias")
        k = x @ w("k_weight") + w("k_bias")
        v = x @ w("v_weight") + w("v_bias")
        single = T.attention(T.Tensor(q[None]), T.Tensor(k[None]), T.Tensor(v[None]),
                             num_heads=1).data[0]
        expected = single @ w("out_weight") + w("out_bias")
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_permutation_equivariance(self, tiny):
        params = random_params(tiny, seed=8)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 8))
        perm = rng.permutation(8)
        base = M.mhsa(T.Tensor(x[None]), params, "layers.0.").data[0]
        permuted = M.mhsa(T.Tensor(x[perm][None]), params, "layers.0.").data[0]
        np.testing.assert_allclose(permuted, base[perm], atol=1e-10)

    def test_matches_naive_double_loop(self, tiny):
        from naive_reference import _naive_attention

        params = random_params(tiny, seed=9)
        arrays = {name: t.data for name, t in params.named_parameters()}
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 8))
        got = M.mhsa(T.Tensor(x[None]), params, "layers.0.").data[0]
        expected = _naive_attention(x, arrays, "layers.0.", tiny)
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_wrong_width_rejected(self, tiny):
        params = random_params(tiny, seed=10)
        with pytest.raises(DimensionError):
            M.mhsa(T.Tensor(np.zeros((1, 4, 5))), params, "layers.0.")


class TestFfn:
    def test_zero_parameters_give_zero(self, tiny):
        params = M.ModelParams.zeros(tiny, dtype=np.float64)
        out = M.ffn(T.Tensor(np.random.default_rng(0).standard_normal((1, 3, 8))),
                    params, "layers.0.")
        np.testing.assert_array_equal(out.data, np.zeros((1, 3, 8)))

    def test_identity_embedding_on_nonnegative_input(self, tiny):
        params = M.ModelParams.zeros(tiny, dtype=np.float64)
        params["layers.0.ffn.w1"].data[:, :8] = np.eye(8)
        params["layers.0.ffn.w2"].data[:8, :] = np.eye(8)
        x = np.abs(np.random.default_rng(1).standard_normal((1, 4, 8)))
        out = M.ffn(T.Tensor(x), params, "layers.0.")
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_matches_hand_chain(self, tiny):
        params = random_params(tiny, seed=11)

        def w(name):
            return params["layers.1.ffn." + name].data

        x = np.random.default_rng(2).standard_normal((1, 5, 8))
        expected = np.maximum(x @ w("w1") + w("b1"), 0.0) @ w("w2") + w("b2")
        np.testing.assert_allclose(M.ffn(T.Tensor(x), params, "layers.1.").data,
                                   expected, atol=1e-6)


class TestEncoderBlock:
    def test_zero_output_projections_make_identity(self, tiny):
        params = random_params(tiny, seed=12)
        for name in ("attn.out_weight", "attn.out_bias", "ffn.w2", "ffn.b2"):
            params["layers.0." + name].data[:] = 0.0
        x = np.random.default_rng(3).standard_normal((1, 8, 8))
        out = M.encoder_block(T.Tensor(x), params, "layers.0.")
        np.testing.assert_array_equal(out.data, x)

    def test_stable_at_large_magnitude(self, tiny):
        params = random_params(tiny, seed=13)
        x = 1e3 * np.random.default_rng(4).standard_normal((1, 8, 8))
        out = M.encoder_block(T.Tensor(x), params, "layers.0.")
        assert np.isfinite(out.data).all()

    def test_records_9_tape_nodes(self, tiny):
        """2 layer norms, the q/k/v projections (3), the attention op, the
        output projection with the first residual added, and the two FFN
        layers, the first with its ReLU and the second with the second
        residual added."""
        params = random_params(tiny, seed=15)
        with T.Tape() as tape:
            M.encoder_block(T.Tensor(np.zeros((1, 8, 8))), params, "layers.0.")
        assert len(tape.nodes) == 9

    def test_fused_epilogues_bit_identical_to_separate_ops(self):
        """Embed and encoder on the reference config, float32: the ReLU and
        the additions that T.linear applies in place give the output and
        every gradient of the formula with a ReLU node (np.maximum) and
        separate additions, bit for bit."""
        config, eps = REFERENCE_CONFIG, REFERENCE_CONFIG.layer_norm_eps
        rng = np.random.default_rng(20)
        params = M.ModelParams.initialize(config, seed=20, weight_std=0.2)
        params.flat += 0.1 * rng.standard_normal(params.flat.size).astype(np.float32)
        volumes = rng.random((4,) + config.input_shape, dtype=np.float32)
        c = rng.standard_normal((4, 16, config.embed_dim))

        def relu(a):
            return T._record(np.maximum(a.data, 0), (a,), lambda g: (g * (a.data > 0),))

        def separate(p):
            def dense(x, name, bias):
                return T.linear(x, p[name], p[bias])

            tokens = T.Tensor(np.stack([M.tokenize(v, config) for v in volumes]))
            z = add(dense(tokens, "embed.weight", "embed.bias"), p["pos_embed"])
            for i in range(config.num_layers):
                pre = f"layers.{i}."
                h = T.layer_norm(z, p[pre + "ln1.gamma"], p[pre + "ln1.beta"], eps)
                q, k, v = (dense(h, f"{pre}attn.{n}_weight", f"{pre}attn.{n}_bias")
                           for n in "qkv")
                heads = T.attention(q, k, v, config.num_heads)
                y = add(z, dense(heads, pre + "attn.out_weight", pre + "attn.out_bias"))
                h = T.layer_norm(y, p[pre + "ln2.gamma"], p[pre + "ln2.beta"], eps)
                hidden = relu(dense(h, pre + "ffn.w1", pre + "ffn.b1"))
                z = add(y, dense(hidden, pre + "ffn.w2", pre + "ffn.b2"))
            return z

        def fused(p):
            return M.encode(M.embed(volumes, p), p)

        results = []
        for forward in (separate, fused):
            with T.Tape() as tape:
                out = forward(params)
                loss = project(out, c)
            tape.backward(loss, params.tensors())
            results.append((out.data, tape.grads))
        (expected, expected_grads), (got, got_grads) = results
        np.testing.assert_array_equal(got, expected)
        for (name, _), want, have in zip(params.named_parameters(), expected_grads,
                                         got_grads):
            np.testing.assert_array_equal(have, want, err_msg=name)

    def test_gradient_wrt_input(self, tiny):
        params = random_params(tiny, seed=14)
        c = np.random.default_rng(5).standard_normal((1, 8, 8))
        x0 = np.random.default_rng(6).standard_normal((1, 8, 8))

        def f(t):
            return project(M.encoder_block(t, params, "layers.0."), c)

        assert finite_difference_check(f, T.Tensor(x0), step=1e-5) < 1e-6


class TestClassification:
    def test_zero_head_gives_uniform(self, tiny):
        params = random_params(tiny, seed=15)
        params["head.weight"].data[:] = 0.0
        params["head.bias"].data[:] = 0.0
        z = T.Tensor(np.random.default_rng(7).standard_normal((2, 8, 8)))
        probs = T.softmax(M.classifier_logits(z, params))
        np.testing.assert_allclose(probs.data, np.full((2, 3), 1 / 3), atol=1e-12)

    def test_identical_rows_match_single_row(self, tiny):
        params = random_params(tiny, seed=16)
        row = np.random.default_rng(8).standard_normal(8)
        stacked = T.softmax(M.classifier_logits(
            T.Tensor(np.tile(row, (1, 8, 1))), params))
        single = T.softmax(M.classifier_logits(T.Tensor(row[None, None, :]), params))
        np.testing.assert_allclose(stacked.data, single.data, atol=1e-9)

    def test_hand_logits(self, tiny):
        """Logits [0, ln 3, 0] must produce probabilities [0.2, 0.6, 0.2]."""
        params = M.ModelParams.zeros(tiny, dtype=np.float64)
        params["final_norm.gamma"].data[:] = 0.0  # pooled output becomes final beta
        params["head.bias"].data[:] = [0.0, math.log(3.0), 0.0]
        z = T.Tensor(np.random.default_rng(9).standard_normal((1, 8, 8)))
        probs = T.softmax(M.classifier_logits(z, params))
        np.testing.assert_allclose(probs.data, [[0.2, 0.6, 0.2]], atol=1e-12)

    def test_predicted_class_tie_breaks_low(self):
        preds = M.predict_classes(np.array([[0.4, 0.4, 0.2], [0.1, 0.2, 0.7]]))
        np.testing.assert_array_equal(preds, [0, 2])


class TestForward:
    def test_identical_volumes_identical_rows(self, tiny):
        params = random_params(tiny, seed=17, dtype=np.float32)
        vol = np.random.default_rng(10).standard_normal((4, 8, 8, 1)).astype(np.float32)
        probs = T.softmax(M.forward_logits(np.stack([vol, vol, vol]), params)).data
        assert (probs == probs[0]).all()

    def test_rows_sum_to_one(self, tiny):
        params = random_params(tiny, seed=18, dtype=np.float32)
        batch = np.random.default_rng(11).standard_normal((6, 4, 8, 8, 1))
        probs = T.softmax(M.forward_logits(batch.astype(np.float32), params)).data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_forward_is_pure(self, tiny):
        params = random_params(tiny, seed=19, dtype=np.float32)
        batch = np.random.default_rng(12).standard_normal((2, 4, 8, 8, 1)) \
            .astype(np.float32)
        a = T.softmax(M.forward_logits(batch, params)).data
        b = T.softmax(M.forward_logits(batch, params)).data
        assert (a == b).all()

    def test_wrong_input_shape_rejected(self, tiny):
        params = M.ModelParams.zeros(tiny)
        with pytest.raises(DimensionError):
            M.forward_logits(np.zeros((1, 5, 8, 8, 1), np.float32), params)

    def test_matches_naive_reference(self, tiny):
        params = random_params(tiny, seed=20)
        arrays = {name: t.data for name, t in params.named_parameters()}
        rng = np.random.default_rng(13)
        for _ in range(3):
            vol = rng.standard_normal((4, 8, 8, 1))
            got = T.softmax(M.forward_logits(vol[None].astype(np.float64), params)).data[0]
            expected = naive_forward(vol, arrays, tiny)
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_float32_path_matches_naive_within_1e5(self, tiny):
        params32 = random_params(tiny, seed=21, dtype=np.float32)
        arrays = {name: t.data.astype(np.float64)
                  for name, t in params32.named_parameters()}
        vol = np.random.default_rng(14).standard_normal((4, 8, 8, 1)) \
            .astype(np.float32)
        got = T.softmax(M.forward_logits(vol[None], params32)).data[0]
        expected = naive_forward(vol, arrays, tiny)
        np.testing.assert_allclose(got, expected, atol=1e-5)


def _tensors_held(node):
    """Every Tensor a tape node reaches through its slots and the cells of
    its VJP closure, looking into tuples, lists and nested closures."""
    found, seen = [], set()
    stack = [getattr(node, slot) for slot in type(node).__slots__]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, T.Tensor):
            found.append(obj)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
    return found


class TestTapeRetention:
    """A tape node holds its tensors' keys, and its VJP only the arrays,
    shapes and flags it reads: an activation no backward step reads is
    freed as the forward moves on."""

    def test_nodes_hold_no_tensor_but_parameters(self, tiny):
        params = random_params(tiny, seed=40, dtype=np.float32)
        volumes = np.random.default_rng(40).standard_normal((3, 4, 8, 8, 1)) \
            .astype(np.float32)
        with T.Tape() as tape:
            logits = M.forward_logits(volumes, params)
            T.softmax_cross_entropy(logits, [0, 1, 2])
        assert len(tape.nodes) == 9 * tiny.num_layers + 5
        parameters = {id(t) for t in params.tensors()}
        for node in tape.nodes:
            assert all(id(t) in parameters for t in _tensors_held(node)), node.vjp

    def test_block_input_dies_once_the_forward_moves_past_it(self, tiny):
        """The residual stream entering a block is read by its first layer
        norm and added after the attention, and no VJP reads it."""
        params = random_params(tiny, seed=41, dtype=np.float32)
        volumes = np.random.default_rng(41).standard_normal((3, 4, 8, 8, 1)) \
            .astype(np.float32)
        with T.Tape() as tape:
            z = M.embed(volumes, params)
            block_input = weakref.ref(z.data)
            z = M.encoder_block(z, params, "layers.0.")
            assert block_input() is None
            middle = weakref.ref(z.data)
            z = M.encoder_block(z, params, "layers.1.")
            assert middle() is None
        assert len(tape.nodes) == 1 + 9 * 2

    def test_attention_keeps_no_raw_query(self):
        """The attention node keeps the scaled heads of q, not the q
        projection itself."""
        rng = np.random.default_rng(42)
        x = T.Tensor(rng.standard_normal((2, 16, 32)).astype(np.float32), requires_grad=True)
        zero = T.Tensor(np.zeros(32, np.float32))
        with T.Tape() as tape:
            q, k, v = (T.linear(x, T.Tensor(rng.standard_normal((32, 32)).astype(np.float32)),
                                zero) for _ in "qkv")
            raw = weakref.ref(q.data)
            T.attention(q, k, v, 16)
            del q
            assert raw() is None
        assert len(tape.nodes) == 4


class TestPositionSensitivity:
    def _token_probs(self, tokens, params):
        z = embed_tokens(tokens, params)
        z = M.encode(z, params)
        return T.softmax(M.classifier_logits(z, params), axis=-1).data

    def test_zero_positions_token_permutation_equivariant(self, tiny):
        params = random_params(tiny, seed=22)
        params["pos_embed"].data[:] = 0.0
        rng = np.random.default_rng(15)
        tokens = rng.standard_normal((8, 32))
        perm = rng.permutation(8)
        base = self._token_probs(tokens[None], params)
        permuted = self._token_probs(tokens[perm][None], params)
        assert np.abs(base - permuted).max() < 1e-5

    def test_nonzero_positions_break_permutation_invariance(self, tiny):
        params = random_params(tiny, seed=23)
        rng = np.random.default_rng(16)
        tokens = rng.standard_normal((8, 32))
        perm = np.array([1, 0, 3, 2, 5, 4, 7, 6])
        base = self._token_probs(tokens[None], params)
        permuted = self._token_probs(tokens[perm][None], params)
        assert np.abs(base - permuted).max() > 1e-6


class TestCheckpointFormat:
    def test_round_trip_bit_exact(self, tiny, tmp_path):
        params = M.ModelParams.initialize(tiny, seed=5)
        first = tmp_path / "a.vvck"
        second = tmp_path / "b.vvck"
        save_checkpoint(first, params)
        cfg, loaded = load_checkpoint(first)
        assert cfg == tiny
        save_checkpoint(second, loaded)
        assert first.read_bytes() == second.read_bytes()
        for (name, a), (_, b) in zip(params.named_parameters(),
                                     loaded.named_parameters()):
            assert (a.data == b.data).all(), name

    def test_bad_magic(self, tiny, tmp_path):
        path = tmp_path / "c.vvck"
        save_checkpoint(path, M.ModelParams.zeros(tiny))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            read_raw_checkpoint(path)

    def test_unsupported_version(self, tiny, tmp_path):
        path = tmp_path / "d.vvck"
        save_checkpoint(path, M.ModelParams.zeros(tiny))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointMismatchError, match="version"):
            read_raw_checkpoint(path)

    def test_truncation_names_offset(self, tiny, tmp_path):
        path = tmp_path / "e.vvck"
        save_checkpoint(path, M.ModelParams.zeros(tiny))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(FormatError, match="byte"):
            read_raw_checkpoint(path)

    @pytest.mark.parametrize("shape, data", [
        pytest.param((1,) * 70, 4, id="rank-70"),
        pytest.param((0,) + (2**32 - 1,) * 3, 0, id="zero-extent"),
        pytest.param((2, 0), 0, id="zero-extent-small"),
    ])
    def test_arrays_numpy_cannot_hold_rejected(self, tiny, tmp_path, shape, data):
        """The record's rank byte sits at header + 18: after the array
        count (4 bytes), the name length (2) and the name (12)."""
        path = tmp_path / "f.vvck"
        save_checkpoint(path, M.ModelParams.zeros(tiny))
        blob = path.read_bytes()
        header = 10 + struct.unpack_from("<I", blob, 6)[0]
        path.write_bytes(blob[:header] + struct.pack("<IH", 1, 12) + b"embed.weight"
                         + struct.pack(f"<B{len(shape)}I", len(shape), *shape)
                         + bytes(data))
        with pytest.raises(FormatError, match=f"'embed.weight' at byte {header + 18} "
                                              "has a zero extent or over 32 axes"):
            read_raw_checkpoint(path)

    def test_config_claiming_10_to_the_12_layers_fails_at_once(self, tiny, tmp_path):
        """Loading stops at the first array the file lacks. Listing every
        name the config implies first (16 * 10**12 of them) would never
        end; at num_layers=10**6 it ran out of memory."""
        path = tmp_path / "many.vvck"
        save_checkpoint(path, M.ModelParams.zeros(tiny))
        set_config_keys(path, num_layers=10**12)
        start = time.monotonic()
        with pytest.raises(CheckpointMismatchError,
                           match=r"missing parameter array 'layers\.2\.ln1\.gamma'"):
            load_checkpoint(path)
        assert time.monotonic() - start < 5

    def test_deeply_nested_embedded_config_rejected(self, tiny, tmp_path):
        path = tmp_path / "deep.vvck"
        save_checkpoint(path, M.ModelParams.zeros(tiny))
        blob = path.read_bytes()
        end = 10 + struct.unpack_from("<I", blob, 6)[0]
        deep = b"[" * 100_000
        path.write_bytes(blob[:6] + struct.pack("<I", len(deep)) + deep + blob[end:])
        with pytest.raises(FormatError, match="invalid embedded config"):
            read_raw_checkpoint(path)

    def test_duplicate_array_name_rejected(self, tiny, tmp_path):
        """A repeated record, with the count raised to match, must not load
        with the later copy silently winning."""
        params = M.ModelParams.zeros(tiny)
        named = params.named_parameters()

        class Doubled:
            config = params.config

            def named_parameters(self):
                return named + [(name, t) for name, t in named if name == "embed.bias"]

        path = tmp_path / "dup.vvck"
        save_checkpoint(path, Doubled())
        record = struct.pack("<H", len("embed.bias")) + b"embed.bias"
        offset = path.read_bytes().rindex(record) + 2
        with pytest.raises(FormatError, match=f"duplicate array 'embed.bias' at byte {offset}"):
            read_raw_checkpoint(path)
        with pytest.raises(FormatError, match="duplicate"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, bad, kind", [
        pytest.param("num_layers", 2.0, "an integer", id="num_layers-2.0"),
        pytest.param("channels", True, "an integer", id="channels-true"),
        pytest.param("layer_norm_eps", True, "a number", id="layer_norm_eps-true"),
        pytest.param("layer_norm_eps", float("nan"), "a finite number",
                     id="layer_norm_eps-NaN"),
    ])
    def test_non_integer_embedded_config(self, tiny, tmp_path, field, bad, kind):
        path = tmp_path / "g.vvck"
        save_checkpoint(path, M.ModelParams.zeros(tiny))
        set_config_keys(path, **{field: bad})
        with pytest.raises(FormatError, match=f"{field} must be {kind}"):
            read_raw_checkpoint(path)

    def test_legacy_keys_at_old_values_load(self, tiny, tmp_path):
        """A file that still carries dropout 0.0 and pooling global_average
        loads, and saving it again drops both keys."""
        path = tmp_path / "legacy.vvck"
        save_checkpoint(path, M.ModelParams.initialize(tiny, seed=3))
        current = path.read_bytes()
        set_config_keys(path, dropout=0.0, pooling="global_average")
        assert b'"dropout":0.0' in path.read_bytes()
        cfg, loaded = load_checkpoint(path)
        assert cfg == tiny
        save_checkpoint(path, loaded)
        assert path.read_bytes() == current

    @pytest.mark.parametrize("key, value", [("pooling", "cls_token"), ("dropout", 0.1)])
    def test_legacy_keys_at_other_values_rejected(self, tiny, tmp_path, key, value):
        path = tmp_path / "h.vvck"
        save_checkpoint(path, M.ModelParams.zeros(tiny))
        set_config_keys(path, **{key: value})
        with pytest.raises(FormatError, match=key):
            read_raw_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tiny, tmp_path, monkeypatch):
        """A write torn by a full disk leaves the previous file, and removes
        its temporary file."""
        import volformer.data as D

        path = tmp_path / "best.vvck"
        save_checkpoint(path, M.ModelParams.initialize(tiny, seed=1))
        before = path.read_bytes()

        class TornFile:
            """Writes half of what it is given, then fails like a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(D, "open", lambda *a, **k: TornFile(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError):
            save_checkpoint(path, M.ModelParams.initialize(tiny, seed=2))
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["best.vvck"]

    def test_config_mismatch_names_first_array(self, tiny, tmp_path):
        path = tmp_path / "f.vvck"
        save_checkpoint(path, M.ModelParams.zeros(tiny))
        other = tiny_config(embed_dim=16, num_heads=2)
        with pytest.raises(CheckpointMismatchError, match="embed.weight"):
            load_checkpoint(path, expect_config=other)

    def test_from_arrays_missing_and_extra(self, tiny):
        params = M.ModelParams.zeros(tiny)
        arrays = {name: t.data for name, t in params.named_parameters()}
        missing = dict(arrays)
        del missing["head.bias"]
        with pytest.raises(CheckpointMismatchError, match="head.bias"):
            M.ModelParams.from_arrays(tiny, missing)
        extra = dict(arrays)
        extra["rogue"] = np.zeros(3)
        with pytest.raises(CheckpointMismatchError, match="rogue"):
            M.ModelParams.from_arrays(tiny, extra)

    def test_initialize_is_deterministic(self, tiny):
        a = M.ModelParams.initialize(tiny, seed=9)
        b = M.ModelParams.initialize(tiny, seed=9)
        for (_, ta), (_, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert (ta.data == tb.data).all()
