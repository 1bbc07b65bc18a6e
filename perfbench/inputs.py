"""Benchmark inputs, made by the harness from the workload seed.

Voxel values, labels and checkpoint weights come from numpy's PCG64
generator seeded with the workload seed, never from volformer's own
generators (`data.gen_synthetic`, `rng.Rng`), so a change to those leaves
every workload unchanged. Only the file encoders (`data.write_volume`,
`DatasetManifest.save`, `checkpoint.save_checkpoint`) are the program's,
so the files always follow the program's current formats.

Each volume is Gaussian noise plus one Gaussian blob whose position and
amplitude depend on the class, so a few epochs of training lower the loss.
"""

from __future__ import annotations

import os

import numpy as np

from volformer import checkpoint, data, model

NOISE_SIGMA = 0.2


def _profile(extent: int, center: float, sigma: float) -> np.ndarray:
    return np.exp(-0.5 * ((np.arange(extent) - center) / sigma) ** 2)


def volume_voxels(rng: np.random.Generator, label: int, num_classes: int,
                  shape: tuple[int, int, int, int]) -> np.ndarray:
    """One T x H x W x C float32 volume of class `label`."""
    t, h, w, c = shape
    frac = 0.25 + 0.5 * label / max(num_classes - 1, 1)
    jitter = rng.uniform(-0.05, 0.05, size=3)
    blob = (0.8 + 0.4 * label / max(num_classes - 1, 1)) \
        * _profile(t, (0.5 + jitter[0]) * (t - 1), max(t / 4, 0.5))[:, None, None] \
        * _profile(h, (frac + jitter[1]) * (h - 1), max(h / 6, 0.5))[None, :, None] \
        * _profile(w, (frac + jitter[2]) * (w - 1), max(w / 6, 0.5))[None, None, :]
    noise = rng.standard_normal(shape, dtype=np.float32) * NOISE_SIGMA
    return (noise + blob[..., None]).astype(np.float32)


def write_dataset(out_dir: str, seed: int, config: model.ModelConfig,
                  splits: dict[str, int]) -> str:
    """Write `splits[tag]` volumes per split tag plus a manifest; return its path.

    Volumes are written one at a time, so generation holds one volume in
    memory. Labels are drawn uniformly, so class counts are uneven.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for tag, count in splits.items():
        for i in range(count):
            label = int(rng.integers(config.num_classes))
            name = f"{tag}_{i:04d}"
            voxels = volume_voxels(rng, label, config.num_classes, config.input_shape)
            data.write_volume(data.Volume(id=name, label=label, voxels=voxels),
                              os.path.join(out_dir, name + ".vvol"))
            entries.append(data.ManifestEntry(path=name + ".vvol", label=label,
                                              subject_id=name, split=tag))
    path = os.path.join(out_dir, "manifest.jsonl")
    data.DatasetManifest(entries=entries).save(path)
    return path


def write_checkpoint(path: str, seed: int, config: model.ModelConfig) -> None:
    """A VVCK file of seeded weights: gammas near 1, everything else near 0."""
    rng = np.random.default_rng([seed, 1])
    arrays = {}
    for name, shape in model.parameter_shapes(config):
        values = rng.standard_normal(shape) * 0.05
        arrays[name] = 1.0 + values if name.endswith(".gamma") else values
    checkpoint.save_checkpoint(path, model.ModelParams.from_arrays(config, arrays))
