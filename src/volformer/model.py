"""Tubelet-tokenized transformer classifier for T x H x W x C volumes.

A volume's slice axis is treated like time: the volume is cut into
non-overlapping tubelets, each flattened and linearly embedded, learned
positional encodings are added, and a stack of pre-norm encoder blocks
(joint spatio-temporal multi-head self-attention + ReLU FFN) feeds a
softmax classification head over the mean of the final token
embeddings (global average pooling).

A volume is a [T, H, W, C] array, tokenized on its own to [N,
token_width]; a batch of volumes is a sequence of them, and token
activations are [B, N, embed_dim]. forward_logits is the one forward,
and embed the one place tokens are made: a tape op over volumes that
keeps no tokens for its backward pass. The layers read the architecture
from params.config, the config the parameters were made for. Weights are
looked up by the canonical names of parameter_shapes; encoder block i
reads the names under the prefix "layers.i.".
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import tensor as T
from .errors import (CheckpointMismatchError, ConfigError, DimensionError,
                     UsageError, require_field_types)
from .rng import Rng


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters. Defaults are the reference setup."""

    slices: int = 32
    height: int = 64
    width: int = 64
    channels: int = 1
    patch_slices: int = 32
    patch_height: int = 16
    patch_width: int = 16
    embed_dim: int = 32
    num_heads: int = 16
    num_layers: int = 16
    ffn_mult: int = 4
    layer_norm_eps: float = 1e-6
    num_classes: int = 3

    def __post_init__(self):
        require_field_types(self)
        for name in ("slices", "height", "width", "channels",
                     "patch_slices", "patch_height", "patch_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.patch_slices > self.slices or self.patch_height > self.height \
                or self.patch_width > self.width:
            raise ConfigError("patch extents cannot exceed input extents")
        if self.embed_dim < 1 or self.num_heads < 1:
            raise ConfigError("embed_dim and num_heads must be positive")
        if self.embed_dim % self.num_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.num_layers < 0:
            raise ConfigError("num_layers must be >= 0")
        if self.ffn_mult < 1:
            raise ConfigError("ffn_mult must be >= 1")
        if self.layer_norm_eps <= 0:
            raise ConfigError("layer_norm_eps must be positive")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")

    def differing_fields(self, other) -> list[str]:
        """Names of the fields whose values differ from other's, in field
        order; other may be any object (a field it lacks differs)."""
        return [f.name for f in fields(self)
                if getattr(other, f.name, None) != getattr(self, f.name)]

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads

    @property
    def token_width(self) -> int:
        return self.patch_slices * self.patch_height * self.patch_width * self.channels

    @property
    def input_shape(self) -> tuple[int, int, int, int]:
        return (self.slices, self.height, self.width, self.channels)


class TokenGrid(NamedTuple):
    t: int
    h: int
    w: int
    total: int


def token_grid(config: ModelConfig) -> TokenGrid:
    """Tokens per axis under floor division; trailing voxels are dropped."""
    t = config.slices // config.patch_slices
    h = config.height // config.patch_height
    w = config.width // config.patch_width
    if t == 0 or h == 0 or w == 0:
        raise ConfigError(f"token grid has a zero dimension: ({t}, {h}, {w})")
    return TokenGrid(t, h, w, t * h * w)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def parameter_shapes(config: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) of every learnable array, made as they are
    read, so a caller that stops early does no work for the rest.

    This order is the checkpoint file order and the order in which the
    initializer consumes random numbers.
    """
    d = config.embed_dim
    hidden = config.ffn_mult * d
    yield from [
        ("embed.weight", (config.token_width, d)),
        ("embed.bias", (d,)),
        ("pos_embed", (token_grid(config).total, d)),
    ]
    for i in range(config.num_layers):
        prefix = f"layers.{i}."
        yield from [
            (prefix + "ln1.gamma", (d,)),
            (prefix + "ln1.beta", (d,)),
            (prefix + "attn.q_weight", (d, d)),
            (prefix + "attn.q_bias", (d,)),
            (prefix + "attn.k_weight", (d, d)),
            (prefix + "attn.k_bias", (d,)),
            (prefix + "attn.v_weight", (d, d)),
            (prefix + "attn.v_bias", (d,)),
            (prefix + "attn.out_weight", (d, d)),
            (prefix + "attn.out_bias", (d,)),
            (prefix + "ln2.gamma", (d,)),
            (prefix + "ln2.beta", (d,)),
            (prefix + "ffn.w1", (d, hidden)),
            (prefix + "ffn.b1", (hidden,)),
            (prefix + "ffn.w2", (hidden, d)),
            (prefix + "ffn.b2", (d,)),
        ]
    yield from [
        ("final_norm.gamma", (d,)),
        ("final_norm.beta", (d,)),
        ("head.weight", (d, config.num_classes)),
        ("head.bias", (config.num_classes,)),
    ]


def count_params(config: ModelConfig) -> int:
    """Exact trainable-scalar count, in closed form."""
    d = config.embed_dim
    hidden = config.ffn_mult * d
    n_tokens = token_grid(config).total
    total = config.token_width * d + d            # embedding weight + bias
    total += n_tokens * d                         # positional table
    per_layer = (
        4 * d                                     # two layer norms
        + 4 * (d * d + d)                         # q, k, v, output projections
        + d * hidden + hidden + hidden * d + d    # ffn
    )
    total += config.num_layers * per_layer
    total += 2 * d                                # final layer norm
    total += d * config.num_classes + config.num_classes
    return total


class ModelParams:
    """All learnable weights as leaf tensors over one vector.

    `flat` is a 1-D float32 or float64 array holding every parameter back
    to back in parameter_shapes order, which is also the VVCK data order,
    and `params[name]` is a leaf tensor whose data is a view into it.
    Updates write in place: a tensor whose .data was rebound would leave
    flat.
    """

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        if flat.shape != (count_params(config),):
            raise UsageError(f"flat parameter vector of shape {flat.shape}; the config "
                             f"has {count_params(config)} parameters")
        if flat.dtype not in (np.float32, np.float64):
            # Tensor would copy any other dtype, cutting its views off flat
            raise UsageError(f"flat parameter vector of dtype {flat.dtype}; parameters "
                             "are float32 or float64")
        self.config = config
        self.flat = flat
        self._arrays = {}
        offset = 0
        for name, shape in parameter_shapes(config):
            size = math.prod(shape)
            view = flat[offset : offset + size].reshape(shape)
            self._arrays[name] = T.Tensor(view, requires_grad=True)
            offset += size

    def __getitem__(self, name: str) -> T.Tensor:
        return self._arrays[name]

    @classmethod
    def zeros(cls, config: ModelConfig, dtype=np.float32) -> "ModelParams":
        """All-zero parameters in a new vector; initialize fills them. A
        model too large to allocate is a ConfigError naming its size."""
        count = count_params(config)
        try:
            flat = np.zeros(count, dtype)
        except (MemoryError, ValueError) as exc:
            raise ConfigError(
                f"cannot allocate a model of {count:,} parameters: {exc}") from None
        return cls(config, flat)

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int = 0, dtype=np.float32,
                   weight_std: float = 0.02) -> "ModelParams":
        """Truncated-normal weights, zero biases/positions, unit gammas.

        The default std keeps logits bounded at init and, with the
        residual blocks, makes the untrained network close to an identity
        map. Gradient-verification code passes a larger std so gradients
        sit well above float64 roundoff.
        """
        rng = Rng(seed)
        params = cls.zeros(config, dtype)
        for name, tensor in params.named_parameters():
            if name.endswith(".gamma"):
                tensor.data[...] = 1.0
            elif name.endswith(("weight", ".w1", ".w2")):
                tensor.data[...] = rng.truncated_normal(
                    tensor.size, std=weight_std).reshape(tensor.shape)
        return params

    @classmethod
    def from_arrays(cls, config: ModelConfig, mapping: dict[str, np.ndarray],
                    dtype=np.float32) -> "ModelParams":
        """Build from named arrays, verifying names and shapes; the values
        are copied into a new vector, so no input is aliased.

        Raises CheckpointMismatchError naming the first offending array
        in canonical order. The names are checked as parameter_shapes makes
        them, so a config that claims more arrays than mapping holds fails
        at the first missing one, whatever its num_layers.
        """
        expected = []
        for name, shape in parameter_shapes(config):
            if name not in mapping:
                raise CheckpointMismatchError(f"missing parameter array '{name}'")
            got = tuple(mapping[name].shape)
            if got != shape:
                raise CheckpointMismatchError(
                    f"parameter array '{name}' has shape {got}, expected {shape}"
                )
            expected.append(name)
        known = set(expected)
        for name in mapping:
            if name not in known:
                raise CheckpointMismatchError(f"unexpected parameter array '{name}'")
        return cls(config, np.concatenate(
            [np.ravel(mapping[name]) for name in expected], dtype=dtype))

    def named_parameters(self) -> list[tuple[str, T.Tensor]]:
        return list(self._arrays.items())

    def tensors(self) -> list[T.Tensor]:
        return list(self._arrays.values())


# ---------------------------------------------------------------------------
# tokenization and forward pass
# ---------------------------------------------------------------------------


# The embed tokenizes _SUB volumes at a time into one buffer, 4 MB at the
# reference config: a 128-volume batch's tokens take 64 MB.
_SUB = 8


def _cut(n: int, k: int) -> list[slice]:
    """Cut n rows into k nearly equal slices.

    Every boundary falls on a multiple of 4: OpenBLAS's GEMM results depend
    on a row's position mod 4, so each row keeps the bits of one pass over
    all n. A slice holds at most 4 * ceil(n / 4k) rows, and the last more
    than n / k - 4.
    """
    bounds = [4 * -(-i * n // (4 * k)) for i in range(k)] + [n]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _token_blocks(volumes: Sequence[np.ndarray], config: ModelConfig, dtype):
    """(s, rows) for each slice s of the volumes cut by _cut to at most
    _SUB: the tokens of volumes[s], written volume by volume as [len * N,
    token_width] rows of one buffer in dtype, which the next slice reuses."""
    buf = np.empty((_SUB, token_grid(config).total, config.token_width), dtype)
    for s in _cut(len(volumes), -(-len(volumes) // _SUB)):
        for volume, out in zip(volumes[s], buf):
            tokenize(volume, config, out=out)
        yield s, buf[: s.stop - s.start].reshape(-1, config.token_width)


def embed(volumes: Sequence[np.ndarray], params: ModelParams) -> T.Tensor:
    """Embeddings [B, N, d] of B [T, H, W, C] volumes: their tubelet tokens
    @ embed.weight + embed.bias + pos_embed, as one tape node that keeps no
    tokens. Each token block is one GEMM whose rows start on a multiple of 4
    volumes, so z is the bits of one GEMM over the batch. The backward pass
    tokenizes the same blocks again for the weight gradient and sums over
    rows and volumes for the bias and positional ones."""
    weight, bias, pos = params["embed.weight"], params["embed.bias"], params["pos_embed"]
    d = pos.shape[1]
    z = np.empty((len(volumes),) + pos.shape, weight.dtype)
    for s, rows in _token_blocks(volumes, params.config, weight.dtype):
        out = z[s]
        np.matmul(rows, weight.data, out=out.reshape(-1, d))
        out += bias.data
        out += pos.data

    def vjp(g):
        g_rows = g.reshape(-1, d)
        dw = np.zeros_like(weight.data)
        for s, rows in _token_blocks(volumes, params.config, weight.dtype):
            dw += rows.T @ g[s].reshape(-1, d)
        return dw, np.ones(len(g_rows), g.dtype) @ g_rows, g.sum(axis=0)

    return T._record(z, (weight, bias, pos), vjp)


def mhsa(x: T.Tensor, params: ModelParams, prefix: str,
         attn_sink: Optional[list] = None, residual: Optional[T.Tensor] = None) -> T.Tensor:
    """Multi-head self-attention of the block at `prefix` over x [B, N, d]:
    per-head attention, concat, output projection, plus residual when
    given."""
    q, k, v = (T.linear(x, params[f"{prefix}attn.{name}_weight"],
                        params[f"{prefix}attn.{name}_bias"]) for name in "qkv")
    heads = T.attention(q, k, v, params.config.num_heads, attn_sink)
    return T.linear(heads, params[prefix + "attn.out_weight"],
                    params[prefix + "attn.out_bias"], addend=residual)


def ffn(x: T.Tensor, params: ModelParams, prefix: str,
        residual: Optional[T.Tensor] = None) -> T.Tensor:
    """Two dense layers of the block at `prefix` with a ReLU between,
    applied rowwise, plus residual when given."""
    hidden = T.linear(x, params[prefix + "ffn.w1"], params[prefix + "ffn.b1"], relu=True)
    return T.linear(hidden, params[prefix + "ffn.w2"], params[prefix + "ffn.b2"],
                    addend=residual)


def encoder_block(x: T.Tensor, params: ModelParams, prefix: str,
                  attn_sink: Optional[list] = None) -> T.Tensor:
    """Pre-norm residual block at `prefix`: x + attn(norm(x)), then
    y + ffn(norm(y)). Each residual is added in place by the layer that
    ends its branch, so the tape keeps no branch output apart from the sum."""
    eps = params.config.layer_norm_eps
    normed = T.layer_norm(x, params[prefix + "ln1.gamma"], params[prefix + "ln1.beta"], eps)
    y = mhsa(normed, params, prefix, attn_sink, residual=x)
    normed = T.layer_norm(y, params[prefix + "ln2.gamma"], params[prefix + "ln2.beta"], eps)
    return ffn(normed, params, prefix, residual=y)


def encode(z: T.Tensor, params: ModelParams, attn_sink: Optional[list] = None) -> T.Tensor:
    for i in range(params.config.num_layers):
        z = encoder_block(z, params, f"layers.{i}.", attn_sink)
    return z


def classifier_logits(z: T.Tensor, params: ModelParams) -> T.Tensor:
    """Final layer norm, mean over tokens, and the linear head (no
    softmax): [B, N, d] -> [B, classes]."""
    h = T.layer_norm(z, params["final_norm.gamma"], params["final_norm.beta"],
                     params.config.layer_norm_eps)
    pooled = T.reduce_mean(h, axis=1)
    return T.linear(pooled, params["head.weight"], params["head.bias"])


def tokenize(volume: np.ndarray, config: ModelConfig,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """Tubelet tokens [N, token_width] of one [T, H, W, C] volume in the
    configured input shape.

    Tokens are ordered slice-block-major, then height, then width; within
    a token the voxel order is (t, h, w, c) row-major. Together the tokens
    are a bijective rearrangement of the (cropped) volume; trailing voxels
    that do not fill a tubelet are cropped with a warning. Given a
    C-contiguous [N, token_width] array out, the tokens are written into it
    (cast to its dtype) and out is returned.
    """
    if volume.shape != config.input_shape:
        raise DimensionError(
            f"volume shape {volume.shape} does not match configured input "
            f"{config.input_shape}"
        )
    grid = token_grid(config)
    pt, ph, pw = config.patch_slices, config.patch_height, config.patch_width
    kept = (grid.t * pt, grid.h * ph, grid.w * pw)
    if kept != volume.shape[:3]:
        warnings.warn(
            f"volume extents {volume.shape[:3]} not divisible by patch extents; "
            f"cropping to {kept}",
            stacklevel=2,
        )
        volume = volume[:kept[0], :kept[1], :kept[2]]
    shape = (grid.total, config.token_width)
    if out is None:
        out = np.empty(shape, volume.dtype)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise UsageError(f"token buffer must be C-contiguous {shape}, got {out.shape}")
    # a tubelet row, patch_width x channels voxels, is contiguous in the
    # volume and in its token, so each is copied as one void element: over
    # 200 reference volumes not in cache (2-core x86 host) a volume took
    # 125 us, against 183 us copied voxel by voxel. A dtype cast or an
    # input whose rows are not contiguous is copied first.
    run = pw * config.channels
    rows = volume.reshape(grid.t, pt, grid.h, ph, grid.w, run)
    if rows.dtype != out.dtype or rows.strides[-1] != rows.itemsize:
        rows = np.ascontiguousarray(rows, out.dtype)
    row = np.dtype((np.void, run * out.itemsize))
    tubelets = out.reshape(grid.t, grid.h, grid.w, pt, ph, run)
    np.copyto(tubelets.view(row)[..., 0], rows.view(row)[..., 0].transpose(0, 2, 4, 1, 3))
    return out


def forward_logits(volumes: Sequence[np.ndarray], params: ModelParams,
                   attn_sink: Optional[list] = None) -> T.Tensor:
    """Logits [B, classes] for a sequence of B [T, H, W, C] volumes (a
    stacked [B, T, H, W, C] array is one): embed, run the encoder stack,
    pool, and project. Each volume is processed independently. This is the
    one forward: training and inference chunks run it, taped or not."""
    return classifier_logits(encode(embed(volumes, params), params, attn_sink), params)


def predict_classes(probs: np.ndarray) -> np.ndarray:
    """Argmax per row; exact ties resolve to the lowest class index."""
    return np.argmax(probs, axis=-1)
