import json
import os
import resource
import struct
import subprocess
import sys

import numpy as np
import pytest

import volformer
from gradcheck import add, reshape
from volformer import tensor as T
from volformer.model import ModelConfig, ModelParams, count_params, parameter_shapes
from volformer.rng import Rng

SRC_DIR = os.path.dirname(os.path.dirname(volformer.__file__))


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
    return reshape(T.linear(reshape(t, (1, t.size)), T.Tensor(column), zero), ())


def embed_tokens(tokens, params: ModelParams) -> T.Tensor:
    """The embed of [B, N, token_width] tokens as one taped T.linear over
    all of them, tokens @ embed.weight + embed.bias, and a taped add of
    pos_embed, broadcast over the batch. An oracle for model.embed, which
    tokenizes volumes itself, and a way to embed tokens that no volume
    holds in that order."""
    weight = params["embed.weight"]
    tokens = T.Tensor(np.asarray(tokens, weight.dtype))
    return add(T.linear(tokens, weight, params["embed.bias"]), params["pos_embed"])


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


def run_fresh(*args, script="import runpy; runpy.run_module('volformer', run_name='__main__')",
              cpus=None, text=True, file_size_limit=None, address_space_limit=None,
              cwd=None):
    """Run `python -m volformer *args`, or another -c script, in a fresh
    interpreter that imports this checkout's volformer. With cpus, the
    script first pins itself to the first cpus CPUs it may use, before
    volformer sets up its worker pool. With file_size_limit, the child
    alone runs under that RLIMIT_FSIZE in bytes, so a write past it fails
    with EFBIG (Python ignores SIGXFSZ). With address_space_limit, the
    child alone runs under that RLIMIT_AS in bytes, so an allocation past
    it raises MemoryError instead of growing until the machine kills it."""
    if cpus is not None:
        script = ("import os\n"
                  f"os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:{cpus}])\n"
                  + script)
    limits = {resource.RLIMIT_FSIZE: file_size_limit, resource.RLIMIT_AS: address_space_limit}
    limits = {kind: limit for kind, limit in limits.items() if limit is not None}

    def set_limits():
        for kind, limit in limits.items():
            resource.setrlimit(kind, (limit, limit))

    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([SRC_DIR, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=cwd,
                          capture_output=True, text=text, timeout=120,
                          preexec_fn=set_limits if limits else None)


@pytest.fixture
def tiny():
    return tiny_config()
