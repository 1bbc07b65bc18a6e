"""Volume I/O, preprocessing, dataset splits, folds, and synthetic data.

Volumes live in VVOL files (all integers little-endian):

    magic   4 bytes  b"VVOL"
    version u16      currently 1
    dtype   u8       0 = 32-bit little-endian float
    rank    u8       always 4
    extents 4 x u32  T, H, W, C
    data    T*H*W*C  float32, row-major (C fastest)

Datasets are described by JSON-lines manifests with one record per scan:
{"path": str, "label": 0|1|2, "subject_id": str|null,
 "split": "train"|"val"|"test"|null}. Relative paths resolve against the
manifest's own directory.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (ConfigError, DataError, FormatError, NumericError,
                     require_field_types)
from .rng import Rng, derive_seed

VVOL_MAGIC = b"VVOL"
VVOL_VERSION = 1
VVOL_DTYPE_F32 = 0
SPLIT_TAGS = ("train", "val", "test")
DEFAULT_CLASS_NAMES = ("NC", "MCI", "AD")
NORMALIZE_MODES = ("minmax", "zscore")


@dataclass
class Volume:
    """One T x H x W x C scan with its identity and class label."""

    id: str
    label: int
    voxels: np.ndarray
    subject_id: Optional[str] = None

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.voxels.shape


# ---------------------------------------------------------------------------
# VVOL files
# ---------------------------------------------------------------------------


def write_volume(volume: Volume, path) -> None:
    voxels = np.ascontiguousarray(volume.voxels, dtype="<f4")
    if voxels.ndim != 4:
        raise FormatError(f"volume must be rank 4, got rank {voxels.ndim}")
    header = VVOL_MAGIC + struct.pack("<HBB", VVOL_VERSION, VVOL_DTYPE_F32, 4)
    header += struct.pack("<4I", *voxels.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(voxels.tobytes())


def read_volume(path, label: int = 0, subject_id: Optional[str] = None,
                volume_id: Optional[str] = None) -> Volume:
    """Read a VVOL file; label/subject come from the caller (the manifest)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 24:
        raise FormatError(f"{path}: header truncated at byte {len(buf)}, need 24 bytes")
    if buf[:4] != VVOL_MAGIC:
        raise FormatError(
            f"{path}: bad magic at byte 0: expected {VVOL_MAGIC!r}, got {buf[:4]!r}"
        )
    version, dtype_tag, rank = struct.unpack("<HBB", buf[4:8])
    if version != VVOL_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte 4")
    if dtype_tag != VVOL_DTYPE_F32:
        raise FormatError(f"{path}: unsupported dtype tag {dtype_tag} at byte 6")
    if rank != 4:
        raise FormatError(f"{path}: rank must be 4, got {rank} at byte 7")
    extents = struct.unpack("<4I", buf[8:24])
    if any(e == 0 for e in extents):
        raise FormatError(f"{path}: zero extent in header at byte 8: {extents}")
    expected = 4 * math.prod(extents)  # Python ints: no int64 wrap to 0
    payload = buf[24:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload at byte 24 has {len(payload)} bytes, expected {expected}"
        )
    voxels = np.frombuffer(payload, dtype="<f4").reshape(extents).astype(np.float32)
    name = volume_id if volume_id is not None else os.path.splitext(os.path.basename(path))[0]
    return Volume(id=name, label=label, voxels=voxels, subject_id=subject_id)


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------


def select_central_slices(volume: Volume, k: int = 32) -> Volume:
    """Keep the k central slices: indices [(T-k)//2, (T-k)//2 + k).

    Odd remainders floor toward the front. Voxel values within the kept
    range are untouched.
    """
    t = volume.voxels.shape[0]
    if t < k:
        raise DataError(f"volume '{volume.id}' has {t} slices, need at least {k}")
    start = (t - k) // 2
    return replace(volume, voxels=volume.voxels[start : start + k].copy())


def _axis_positions(src: int, dst: int) -> np.ndarray:
    # corner-aligned sampling; a single output samples the source center
    if dst == 1:
        return np.array([(src - 1) / 2.0])
    return np.arange(dst, dtype=np.float64) * (src - 1) / (dst - 1)


def _interp_axis(arr: np.ndarray, dst: int, axis: int) -> np.ndarray:
    src = arr.shape[axis]
    pos = _axis_positions(src, dst)
    lo = np.minimum(np.floor(pos).astype(np.int64), src - 1)
    hi = np.minimum(lo + 1, src - 1)
    frac = pos - lo
    shape = [1] * arr.ndim
    shape[axis] = dst
    f = frac.reshape(shape)
    return np.take(arr, lo, axis=axis) * (1.0 - f) + np.take(arr, hi, axis=axis) * f


def resample_slices(volume: Volume, target_h: int, target_w: int) -> Volume:
    """Per-slice bilinear resampling with corner-aligned coordinates.

    Matching source and target sizes reproduce the input bit-exactly.
    """
    if target_h < 1 or target_w < 1:
        raise ConfigError("resample targets must be positive")
    work = volume.voxels.astype(np.float64)
    work = _interp_axis(work, target_h, axis=1)
    work = _interp_axis(work, target_w, axis=2)
    return replace(volume, voxels=work.astype(np.float32))


def normalize_intensity(volume: Volume, mode: str = "minmax") -> Volume:
    """Rescale voxel intensities; constant volumes map to all zeros.

    minmax -> values in [0, 1]; zscore -> mean 0, population std 1.
    """
    if mode not in NORMALIZE_MODES:
        raise ConfigError(f"unknown normalization mode '{mode}'")
    vox = volume.voxels.astype(np.float64)
    if not np.isfinite(vox).all():
        raise NumericError(f"volume '{volume.id}' contains non-finite voxels")
    if mode == "minmax":
        lo, hi = vox.min(), vox.max()
        out = np.zeros_like(vox) if hi == lo else (vox - lo) / (hi - lo)
    else:
        mean, std = vox.mean(), vox.std()
        out = np.zeros_like(vox) if std == 0.0 else (vox - mean) / std
    return replace(volume, voxels=out.astype(np.float32))


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


@dataclass
class ManifestEntry:
    path: str
    label: int
    subject_id: Optional[str] = None
    split: Optional[str] = None


@dataclass
class DatasetManifest:
    """Ordered scan inventory with labels, subjects, and split tags."""

    entries: list[ManifestEntry] = field(default_factory=list)
    class_names: tuple[str, ...] = DEFAULT_CLASS_NAMES
    base_dir: str = ""

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def validate(self) -> None:
        seen = set()
        for entry in self.entries:
            if entry.path in seen:
                raise DataError(f"duplicate path in manifest: {entry.path}")
            seen.add(entry.path)
            if not 0 <= entry.label < self.num_classes:
                raise DataError(f"label {entry.label} out of range for {entry.path}")
            if entry.split is not None and entry.split not in SPLIT_TAGS:
                raise DataError(f"bad split tag '{entry.split}' for {entry.path}")

    def subset(self, split: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == split]

    def volume_path(self, entry: ManifestEntry) -> str:
        if os.path.isabs(entry.path):
            return entry.path
        return os.path.join(self.base_dir, entry.path)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for e in self.entries:
                fh.write(json.dumps(asdict(e)) + "\n")

    @classmethod
    def load(cls, path, class_names: Sequence[str] = DEFAULT_CLASS_NAMES
             ) -> "DatasetManifest":
        entries = []
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:  # UnicodeDecodeError is a ValueError, as are JSON errors
                    line = line.decode("utf-8").strip()
                    if not line:
                        continue
                    record = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                if not isinstance(record, dict):
                    raise FormatError(f"{path}:{lineno}: record must be an object")
                unknown = set(record) - {f.name for f in fields(ManifestEntry)}
                if unknown:
                    raise FormatError(f"{path}:{lineno}: unknown keys {sorted(unknown)}")
                for key, value in record.items():
                    if key == "label":
                        ok = type(value) is int  # bool is an int subclass
                    elif key == "path":  # open() refuses a NUL character
                        ok = isinstance(value, str) and "\0" not in value
                    else:
                        ok = isinstance(value, str) or value is None
                    if not ok:
                        raise FormatError(f"{path}:{lineno}: bad {key} {value!r}")
                try:
                    entries.append(ManifestEntry(**record))
                except TypeError as exc:
                    raise FormatError(f"{path}:{lineno}: bad record: {exc}") from exc
        manifest = cls(entries=entries, class_names=tuple(class_names),
                       base_dir=os.path.dirname(os.path.abspath(path)))
        manifest.validate()
        return manifest

    def load_volume(self, entry: ManifestEntry) -> Volume:
        return read_volume(self.volume_path(entry), label=entry.label,
                           subject_id=entry.subject_id)

    def load_volumes(self, entries: Optional[Sequence[ManifestEntry]] = None) -> list[Volume]:
        if entries is None:
            entries = self.entries
        return [self.load_volume(e) for e in entries]


# ---------------------------------------------------------------------------
# splits and folds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    """Fractions, seed, and fold plan for dataset partitioning."""

    train_fraction: float = 0.6
    val_fraction: float = 0.2
    test_fraction: float = 0.2
    seed: int = 0
    stratify_by: str = "scan"
    folds: int = 10
    repetition: int = 0

    def __post_init__(self):
        require_field_types(self)
        fractions = (self.train_fraction, self.val_fraction, self.test_fraction)
        if any(f <= 0 for f in fractions):
            raise ConfigError(f"split fractions must all be positive, got {fractions}")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {sum(fractions)}")
        if self.stratify_by not in ("scan", "subject"):
            raise ConfigError(f"stratify_by must be 'scan' or 'subject'")
        if self.folds < 2:
            raise ConfigError("fold count must be >= 2")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.repetition < 0:
            raise ConfigError("repetition index must be >= 0")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _split_counts(n: int, spec: SplitSpec) -> tuple[int, int, int]:
    # documented rounding: train rounds first, then val, remainder is test
    n_train = min(_round_half_up(spec.train_fraction * n), n)
    n_val = min(_round_half_up(spec.val_fraction * n), n - n_train)
    return n_train, n_val, n - n_train - n_val


def _stratified_fill(entries: Sequence[ManifestEntry], num_classes: int, seed: int,
                     targets: Callable[[int, int], Sequence[int]],
                     by_subject: bool = False) -> list[int]:
    """Bucket index of every entry, decided class by class.

    Classes are walked in ascending label order from one Rng(seed).
    Within a class the units are Fisher-Yates shuffled: one entry each
    in manifest order or, with by_subject, all scans of one subject in
    sorted-key order (a scan without a subject is its own unit). Each
    unit then goes to the first bucket still below its target, where
    targets(label, n) gives those targets for a class of n entries (and
    raises when n is too small); bucket len(targets) takes the rest.
    """
    by_class: list[list[int]] = [[] for _ in range(num_classes)]
    for i, entry in enumerate(entries):
        if not 0 <= entry.label < num_classes:
            raise DataError(f"label {entry.label} out of range for {entry.path}")
        by_class[entry.label].append(i)
    if by_subject:
        subject_labels: dict[str, set[int]] = {}
        for entry in entries:
            if entry.subject_id is not None:
                subject_labels.setdefault(entry.subject_id, set()).add(entry.label)
        for subject, labels in subject_labels.items():
            if len(labels) > 1:
                raise DataError(f"subject '{subject}' has scans with conflicting labels")
    rng = Rng(seed)
    buckets = [0] * len(entries)
    for label, indices in enumerate(by_class):
        goals = targets(label, len(indices))
        units: dict[object, list[int]] = {}
        for i in indices:
            key = i  # index keys sort into manifest order
            if by_subject:
                key = entries[i].subject_id
                if key is None:
                    key = f"__scan_{i}"
            units.setdefault(key, []).append(i)
        order = [units[key] for key in sorted(units)]
        rng.shuffle(order)
        placed = [0] * (len(goals) + 1)
        for unit in order:
            bucket = next((b for b, goal in enumerate(goals) if placed[b] < goal),
                          len(goals))
            placed[bucket] += len(unit)
            for i in unit:
                buckets[i] = bucket
    return buckets


def stratified_split(manifest: DatasetManifest, spec: SplitSpec) -> DatasetManifest:
    """Assign train/val/test tags class by class.

    Classes are processed in ascending label order from one seeded
    stream; within a class the entries are Fisher-Yates shuffled in
    manifest order, then the first round(train_fraction*n) go to train,
    the next round(val_fraction*n) to val, and the remainder to test.
    With stratify_by='subject' whole subjects move together and the
    counts are filled greedily to those same targets.
    """
    def targets(label, n):
        if n < 3:
            raise DataError(f"class {label} has only {n} items; need >= 3 to split")
        return _split_counts(n, spec)[:2]

    buckets = _stratified_fill(manifest.entries, manifest.num_classes, spec.seed,
                               targets, by_subject=spec.stratify_by == "subject")
    entries = [replace(e, split=SPLIT_TAGS[b]) for e, b in zip(manifest.entries, buckets)]
    return DatasetManifest(entries=entries, class_names=manifest.class_names,
                           base_dir=manifest.base_dir)


def carve_validation(entries: Sequence[ManifestEntry], val_fraction: float,
                     seed: int, num_classes: int, by_subject: bool = False
                     ) -> tuple[list[ManifestEntry], list[ManifestEntry]]:
    """Carve a stratified validation subset out of a fold's non-test part.

    Per class (ascending, one seeded stream) the entries are shuffled and
    round(val_fraction * n) of them (clamped to [1, n-1]) become
    validation. With by_subject whole subjects move together and the
    validation side is filled greedily to that same target; a class that
    would then sit on one side only is an error. Used by cross-validation,
    where the three-way fractions no longer apply inside a fold.
    """
    if not 0 < val_fraction < 1:
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")

    def targets(label, n):
        if n == 1:
            raise DataError(f"class {label} has one item; cannot carve validation")
        # an empty class has no units, so its (negative) target is never read
        return [min(max(1, _round_half_up(val_fraction * n)), n - 1)]

    buckets = _stratified_fill(entries, num_classes, seed, targets, by_subject=by_subject)
    for label in range(num_classes):
        if len({b for e, b in zip(entries, buckets) if e.label == label}) == 1:
            raise DataError(f"class {label} has too few subjects to carve validation")
    train = [e for e, b in zip(entries, buckets) if b == 1]
    val = [e for e, b in zip(entries, buckets) if b == 0]
    return train, val


class Fold(NamedTuple):
    train_val: list[ManifestEntry]
    test: list[ManifestEntry]


def make_folds(manifest: DatasetManifest, k: int = 10, seed: int = 0,
               by_subject: bool = False) -> list[Fold]:
    """Class-stratified k-fold rotation.

    Each class's entries are shuffled once, split into k contiguous
    blocks (sizes differing by at most one, larger blocks first), and
    fold i tests the union of every class's i-th block. Test subsets are
    pairwise disjoint and jointly exhaust the manifest. With by_subject
    whole subjects move together and the blocks are filled greedily to
    those same sizes, so they can miss them; a fold whose test set comes
    out empty is an error.
    """
    if k < 2:
        raise ConfigError("fold count must be >= 2")

    def targets(label, n):
        if n < k:
            raise DataError(f"class {label} has {n} items, fewer than k={k}")
        q, r = divmod(n, k)
        return [q + 1] * r + [q] * (k - r)

    buckets = _stratified_fill(manifest.entries, manifest.num_classes, seed, targets,
                               by_subject=by_subject)
    untested = set(range(k)) - set(buckets)
    if untested:
        raise DataError(f"fold {min(untested)} of {k} has an empty test set")
    return [Fold(train_val=[e for e, b in zip(manifest.entries, buckets) if b != i],
                 test=[e for e, b in zip(manifest.entries, buckets) if b == i])
            for i in range(k)]


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


def _class_gradation(class_idx: int, n_classes: int) -> float:
    return class_idx / (n_classes - 1) if n_classes > 1 else 0.5


def blob_centers(n_classes: int, extents: Sequence[int]) -> np.ndarray:
    """Per-class Gaussian blob centers, spread along the volume diagonal."""
    t, h, w = extents[0], extents[1], extents[2]
    centers = np.empty((n_classes, 3))
    for c in range(n_classes):
        frac = 0.2 + 0.6 * _class_gradation(c, n_classes)
        centers[c] = (frac * (t - 1), frac * (h - 1), frac * (w - 1))
    return centers


def synthetic_volume(class_idx: int, n_classes: int, extents: Sequence[int],
                     rng: Rng, noise_sigma: float = 0.1) -> np.ndarray:
    """One class-specific Gaussian blob plus seeded noise.

    Center, width (0.8x..1.2x), and amplitude (0.8..1.4) all vary
    deterministically with the class, so classes stay separable both by
    blob position and by token-bag statistics (the latter matters early
    in training, while positional encodings are still near zero).
    """
    t, h, w, c = extents
    g = _class_gradation(class_idx, n_classes)
    center = blob_centers(n_classes, extents)[class_idx]
    sigmas = np.maximum(np.array([t, h, w], dtype=np.float64) / 5.0, 0.5) \
        * (0.8 + 0.4 * g)
    amplitude = 0.8 + 0.6 * g
    tt, hh, ww = np.meshgrid(np.arange(t), np.arange(h), np.arange(w), indexing="ij")
    dist2 = ((tt - center[0]) / sigmas[0]) ** 2 \
        + ((hh - center[1]) / sigmas[1]) ** 2 \
        + ((ww - center[2]) / sigmas[2]) ** 2
    blob = amplitude * np.exp(-0.5 * dist2)
    vox = np.repeat(blob[..., None], c, axis=-1)
    if noise_sigma > 0:
        noise = rng.normal(t * h * w * c).reshape(t, h, w, c) * noise_sigma
        vox = vox + noise
    return vox.astype(np.float32)


def gen_synthetic(n_per_class: int, extents: Sequence[int], seed: int, out_dir,
                  noise_sigma: float = 0.1,
                  class_names: Sequence[str] = DEFAULT_CLASS_NAMES) -> DatasetManifest:
    """Write a balanced labeled VVOL dataset of blob volumes into out_dir.

    Volume (c, i) draws from its own derived stream, so the dataset is a
    pure function of (seed, shape, noise_sigma).
    """
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    n_classes = len(class_names)
    for c in range(n_classes):
        for i in range(n_per_class):
            rng = Rng(derive_seed(seed, c, i))
            vox = synthetic_volume(c, n_classes, extents, rng, noise_sigma)
            name = f"c{c}_{i:04d}"
            filename = f"{name}.vvol"
            volume = Volume(id=name, label=c, voxels=vox, subject_id=f"subj_{name}")
            write_volume(volume, os.path.join(out_dir, filename))
            entries.append(ManifestEntry(path=filename, label=c,
                                         subject_id=f"subj_{name}", split=None))
    return DatasetManifest(entries=entries, class_names=tuple(class_names),
                           base_dir=os.path.abspath(out_dir))
