import json
import struct
import sys

import pytest

# Importing the CLI defaults every BLAS pool to one thread before it loads
# numpy, as the volformer command does: each chunk worker makes its own BLAS
# calls, and a pool per worker at the default size oversubscribes the cores.
NUMPY_LOADED_FIRST = "numpy" in sys.modules
import volformer.cli  # noqa: E402,F401

import numpy as np  # noqa: E402

from volformer import tensor as T  # noqa: E402
from volformer.model import (ModelConfig, ModelParams, count_params,  # noqa: E402
                             parameter_shapes)
from volformer.rng import Rng  # noqa: E402


def tiny_config(**overrides) -> ModelConfig:
    """The small configuration used throughout the tests: 8 tokens of
    width 32, embed dim 8, 2 heads, 2 layers, 3 classes (2115 params)."""
    base = dict(slices=4, height=8, width=8, channels=1,
                patch_slices=2, patch_height=4, patch_width=4,
                embed_dim=8, num_heads=2, num_layers=2, num_classes=3)
    base.update(overrides)
    return ModelConfig(**base)


def random_params(config: ModelConfig, seed: int, dtype=np.float64) -> ModelParams:
    """A generic random parameter point (non-degenerate gammas/biases),
    for verification code that wants gradients well away from zero."""
    rng = Rng(seed)
    mapping = {}
    for name, shape in parameter_shapes(config):
        vals = rng.normal(int(np.prod(shape))).reshape(shape)
        if name.endswith(".gamma"):
            mapping[name] = 1.0 + 0.2 * vals
        elif name.endswith(("weight", ".w1", ".w2")):
            mapping[name] = 0.5 * vals
        else:
            mapping[name] = 0.2 * vals
    return ModelParams.from_arrays(config, mapping, dtype=dtype)


def split_flat(config: ModelConfig, vec: np.ndarray) -> dict[str, np.ndarray]:
    """Views of a vector in the layout of ModelParams.flat, one per name,
    in parameter_shapes order: the views of ModelParams(config, vec)."""
    assert vec.size == count_params(config)
    return {name: t.data for name, t in ModelParams(config, vec).named_parameters()}


def project(t: T.Tensor, c) -> T.Tensor:
    """The scalar sum(t * c) for a constant array c of t's shape, built
    from taped ops: a [1, n] x [n, 1] linear with a zero bias, reshaped
    to ()."""
    column = np.asarray(c, dtype=t.dtype).reshape(t.size, 1)
    zero = T.Tensor(np.zeros(1, t.dtype))
    return T.reshape(T.linear(T.reshape(t, (1, t.size)), T.Tensor(column), zero), ())


def set_config_keys(path, **values) -> None:
    """Rewrite the VVCK file at path with `values` merged into its
    embedded config JSON, kept canonical (sorted keys, compact)."""
    blob = path.read_bytes()
    (length,) = struct.unpack("<I", blob[6:10])
    config = json.loads(blob[10 : 10 + length])
    config.update(values)
    encoded = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(blob[:6] + struct.pack("<I", len(encoded)) + encoded
                     + blob[10 + length:])


@pytest.fixture
def tiny():
    return tiny_config()
