"""Tests for volume I/O, preprocessing, splits, folds, and synthesis."""

import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config
from volformer import data as D
from volformer.checkpoint import read_raw_checkpoint, save_checkpoint
from volformer.errors import ConfigError, DataError, FormatError
from volformer.model import ModelParams
from volformer.rng import Rng
from volformer.tensor import Tensor


def make_volume(shape=(4, 8, 8, 1), seed=0, label=0):
    rng = np.random.default_rng(seed)
    return D.Volume(id=f"v{seed}", label=label,
                    voxels=rng.standard_normal(shape).astype(np.float32))


def make_manifest(per_class, n_classes=3):
    entries = [
        D.ManifestEntry(path=f"c{c}_{i}.vvol", label=c, subject_id=f"s{c}_{i}")
        for c in range(n_classes) for i in range(per_class)
    ]
    return D.DatasetManifest(entries=entries)


class TestVvolFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        vol = make_volume(seed=3)
        path = tmp_path / "x.vvol"
        D.write_volume(vol, path)
        back = D.read_volume(path, label=vol.label)
        assert back.voxels.shape == vol.voxels.shape
        assert (back.voxels == vol.voxels).all()
        second = tmp_path / "y.vvol"
        D.write_volume(back, second)
        assert path.read_bytes() == second.read_bytes()

    def test_header_dims_parse(self, tmp_path):
        vol = D.Volume("t", 0, np.arange(8, dtype=np.float32).reshape(2, 2, 2, 1))
        path = tmp_path / "t.vvol"
        D.write_volume(vol, path)
        back = D.read_volume(path)
        assert back.shape == (2, 2, 2, 1)
        np.testing.assert_array_equal(back.voxels.reshape(-1), np.arange(8))

    def test_truncated_payload_names_counts(self, tmp_path):
        path = tmp_path / "bad.vvol"
        D.write_volume(make_volume(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 12])
        with pytest.raises(FormatError, match=r"1012 bytes, expected 1024"):
            D.read_volume(path)

    def test_bad_magic_offset(self, tmp_path):
        path = tmp_path / "bad.vvol"
        D.write_volume(make_volume(), path)
        blob = bytearray(path.read_bytes())
        blob[0] = 0x58
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="byte 0"):
            D.read_volume(path)


class TestArrayRecord:
    """VVOL and VVCK files end each array with the same record: a u8 rank,
    rank u32 extents, then row-major float32 LE data."""

    def test_vvol_from_byte_7_is_the_vvck_record_of_its_voxels(self, tmp_path):
        vol = make_volume(shape=(2, 3, 4, 1), seed=6)
        D.write_volume(vol, tmp_path / "v.vvol")

        class OneArray:
            config = tiny_config()

            def named_parameters(self):
                return [("voxels", Tensor(vol.voxels))]

        save_checkpoint(tmp_path / "v.vvck", OneArray())
        vvck = (tmp_path / "v.vvck").read_bytes()
        record_at = 10 + struct.unpack_from("<I", vvck, 6)[0] + 4 + 2 + len("voxels")
        assert (tmp_path / "v.vvol").read_bytes()[7:] == vvck[record_at:]
        assert vvck[record_at:record_at + 17] == struct.pack("<B4I", 4, 2, 3, 4, 1)

    def test_every_vvol_prefix_is_a_format_error_naming_a_byte(self, tmp_path):
        path = tmp_path / "cut.vvol"
        D.write_volume(make_volume(shape=(2, 2, 2, 1)), path)
        blob = path.read_bytes()
        for end in range(len(blob)):
            path.write_bytes(blob[:end])
            with pytest.raises(FormatError, match="byte"):
                D.read_volume(path)

    def test_every_vvck_prefix_through_two_records_is_a_format_error(self, tmp_path):
        """Cut anywhere in the header (config, array count) or in the first
        two array records (name length, name, rank, extents, data)."""
        path = tmp_path / "cut.vvck"
        save_checkpoint(path, ModelParams.initialize(tiny_config(), seed=0))
        blob = path.read_bytes()
        at = 14 + struct.unpack_from("<I", blob, 6)[0]
        for _ in range(2):
            name_len = struct.unpack_from("<H", blob, at)[0]
            rank = blob[at + 2 + name_len]
            shape = struct.unpack_from(f"<{rank}I", blob, at + 3 + name_len)
            at += 3 + name_len + 4 * rank + 4 * math.prod(shape)
        for end in range(at + 1):
            path.write_bytes(blob[:end])
            with pytest.raises(FormatError, match="byte"):
                read_raw_checkpoint(path)


    def test_bytes_after_the_last_record_are_refused(self, tmp_path):
        vvol, vvck = tmp_path / "x.vvol", tmp_path / "x.vvck"
        D.write_volume(make_volume(shape=(2, 2, 2, 1)), vvol)
        save_checkpoint(vvck, ModelParams.zeros(tiny_config()))
        for path, read in ((vvol, D.read_volume), (vvck, read_raw_checkpoint)):
            size = path.stat().st_size
            path.write_bytes(path.read_bytes() + b"\0\0\0")
            with pytest.raises(FormatError, match=f"3 trailing bytes after byte {size}"):
                read(path)


class TestCentralSlices:
    def test_192_slice_window(self):
        vol = make_volume(shape=(192, 2, 2, 1), seed=1)
        out = D.select_central_slices(vol, 32)
        assert out.voxels.shape == (32, 2, 2, 1)
        assert (out.voxels == vol.voxels[80:112]).all()

    def test_exact_size_is_identity(self):
        vol = make_volume(shape=(32, 2, 2, 1), seed=2)
        out = D.select_central_slices(vol, 32)
        assert (out.voxels == vol.voxels).all()

    def test_odd_remainder_floors_frontward(self):
        vol = make_volume(shape=(33, 2, 2, 1), seed=3)
        out = D.select_central_slices(vol, 32)
        assert (out.voxels == vol.voxels[0:32]).all()

    def test_too_few_slices_rejected(self):
        with pytest.raises(DataError):
            D.select_central_slices(make_volume(shape=(8, 2, 2, 1)), 32)


class TestResample:
    def test_identity_bit_exact(self):
        vol = make_volume(shape=(3, 6, 5, 2), seed=4)
        out = D.resample_slices(vol, 6, 5)
        assert (out.voxels == vol.voxels).all()

    def test_constant_volume_stays_constant(self):
        vol = D.Volume("c", 0, np.full((2, 4, 4, 1), 3.25, np.float32))
        out = D.resample_slices(vol, 7, 3)
        assert out.voxels.shape == (2, 7, 3, 1)
        assert (out.voxels == np.float32(3.25)).all()

    def test_checkerboard_to_single_pixel_averages(self):
        board = np.array([[0.0, 1.0], [1.0, 0.0]], np.float32).reshape(1, 2, 2, 1)
        out = D.resample_slices(D.Volume("b", 0, board), 1, 1)
        np.testing.assert_allclose(out.voxels.reshape(()), 0.5)

    def test_upsampling_interpolates_linearly(self):
        ramp = np.array([0.0, 2.0], np.float32).reshape(1, 1, 2, 1)
        out = D.resample_slices(D.Volume("r", 0, ramp), 1, 3)
        np.testing.assert_allclose(out.voxels.reshape(-1), [0.0, 1.0, 2.0])


class TestNormalize:
    def test_minmax_hand_case(self):
        vol = D.Volume("m", 0, np.array([0.0, 5.0, 10.0], np.float32)
                       .reshape(1, 1, 3, 1))
        out = D.normalize_intensity(vol, "minmax")
        np.testing.assert_allclose(out.voxels.reshape(-1), [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("mode", ["minmax", "zscore"])
    def test_constant_volume_maps_to_zeros(self, mode):
        vol = D.Volume("c", 0, np.full((2, 3, 3, 1), 7.0, np.float32))
        out = D.normalize_intensity(vol, mode)
        assert (out.voxels == 0.0).all()

    def test_zscore_moments(self):
        vol = make_volume(shape=(4, 8, 8, 1), seed=5)
        out = D.normalize_intensity(vol, "zscore")
        vox = out.voxels.astype(np.float64)
        assert abs(vox.mean()) < 1e-6
        assert abs(vox.std() - 1.0) < 1e-6

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            D.normalize_intensity(make_volume(), "rank")


class TestStratifiedSplit:
    def test_exact_counts_10_per_class(self):
        manifest = make_manifest(10)
        out = D.stratified_split(manifest, D.SplitSpec(seed=1))
        for c in range(3):
            tags = [e.split for e in out.entries if e.label == c]
            assert tags.count("train") == 6
            assert tags.count("val") == 2
            assert tags.count("test") == 2

    def test_partition_is_total(self):
        out = D.stratified_split(make_manifest(7), D.SplitSpec(seed=2))
        assert all(e.split in D.SPLIT_TAGS for e in out.entries)
        assert len(out.entries) == 21

    def test_same_seed_same_assignment(self):
        manifest = make_manifest(10)
        a = D.stratified_split(manifest, D.SplitSpec(seed=3))
        b = D.stratified_split(manifest, D.SplitSpec(seed=3))
        assert [e.split for e in a.entries] == [e.split for e in b.entries]

    def test_different_seed_different_assignment_same_counts(self):
        manifest = make_manifest(10)
        a = D.stratified_split(manifest, D.SplitSpec(seed=4))
        b = D.stratified_split(manifest, D.SplitSpec(seed=5))
        assert [e.split for e in a.entries] != [e.split for e in b.entries]
        for tag in D.SPLIT_TAGS:
            assert sum(e.split == tag for e in a.entries) \
                == sum(e.split == tag for e in b.entries)

    def test_degenerate_fractions_rejected(self):
        with pytest.raises(ConfigError):
            D.SplitSpec(train_fraction=1.0, val_fraction=0.0, test_fraction=0.0)

    def test_small_class_rejected(self):
        entries = [D.ManifestEntry(path=f"a{i}.vvol", label=0) for i in range(2)]
        entries += [D.ManifestEntry(path=f"b{i}.vvol", label=1) for i in range(5)]
        entries += [D.ManifestEntry(path=f"c{i}.vvol", label=2) for i in range(5)]
        with pytest.raises(DataError):
            D.stratified_split(D.DatasetManifest(entries=entries), D.SplitSpec())

    def test_subject_mode_keeps_subjects_together(self):
        entries = []
        for c in range(3):
            for s in range(6):
                for scan in range(2):
                    entries.append(D.ManifestEntry(
                        path=f"c{c}s{s}_{scan}.vvol", label=c, subject_id=f"subj{c}_{s}"))
        manifest = D.DatasetManifest(entries=entries)
        out = D.stratified_split(manifest, D.SplitSpec(seed=6, stratify_by="subject"))
        by_subject = {}
        for e in out.entries:
            by_subject.setdefault(e.subject_id, set()).add(e.split)
        assert all(len(tags) == 1 for tags in by_subject.values())

    def test_subject_mode_conflicting_labels_rejected(self):
        entries = [
            D.ManifestEntry(path="a.vvol", label=0, subject_id="s"),
            D.ManifestEntry(path="b.vvol", label=1, subject_id="s"),
        ]
        entries += [D.ManifestEntry(path=f"x{i}.vvol", label=l, subject_id=f"u{i}{l}")
                    for i in range(5) for l in range(3)]
        with pytest.raises(DataError, match="conflicting"):
            D.stratified_split(D.DatasetManifest(entries=entries),
                               D.SplitSpec(stratify_by="subject"))


class TestFolds:
    def test_every_sample_tested_exactly_once(self):
        manifest = make_manifest(10)
        folds = D.make_folds(manifest, k=10, seed=0)
        assert len(folds) == 10
        seen = []
        for fold in folds:
            assert len(fold.test) == 3
            assert len(fold.train_val) == 27
            seen.extend(e.path for e in fold.test)
        assert sorted(seen) == sorted(e.path for e in manifest.entries)

    def test_fold_class_ratios_within_one(self):
        manifest = make_manifest(10)  # 30 items, balanced
        for fold in D.make_folds(manifest, k=4, seed=1):
            for c in range(3):
                count = sum(e.label == c for e in fold.test)
                assert abs(count - 10 / 4) <= 1

    def test_leave_one_out(self):
        entries = [D.ManifestEntry(path=f"e{i}.vvol", label=i % 3) for i in range(9)]
        manifest = D.DatasetManifest(entries=entries)
        folds = D.make_folds(manifest, k=3, seed=2)
        # per class 3 items over k=3 folds: singleton per class per fold
        assert all(len(f.test) == 3 for f in folds)

    def test_class_smaller_than_k_rejected(self):
        with pytest.raises(DataError):
            D.make_folds(make_manifest(5), k=10)

    def test_carve_validation_properties(self):
        manifest = make_manifest(9)
        train, val = D.carve_validation(manifest.entries, 0.25, seed=3, num_classes=3)
        assert len(train) + len(val) == 27
        assert {e.path for e in train}.isdisjoint(e.path for e in val)
        for c in range(3):
            assert sum(e.label == c for e in val) == 2  # round(0.25 * 9)


def mixed_manifest():
    """41 scans over 3 unevenly sized, interleaved classes; subjects hold
    one to several scans of one label, and every seventh scan has none."""
    entries = []
    for i in range(41):
        label = (i * 5 + i // 4) % 3
        subject = None if i % 7 == 3 else f"p{label}_{(i // 3) % 5}"
        entries.append(D.ManifestEntry(path=f"m{i:02d}.vvol", label=label,
                                       subject_id=subject))
    return D.DatasetManifest(entries=entries)


@pytest.mark.parametrize("seed", [0, 4, 17])
def test_subject_folds_keep_subjects_whole(seed):
    manifest = mixed_manifest()
    folds = D.make_folds(manifest, 3, seed=seed, by_subject=True)
    tested = [e.path for f in folds for e in f.test]
    assert sorted(tested) == sorted(e.path for e in manifest.entries)
    for fold in folds:
        assert sorted(e.path for e in fold.train_val + fold.test) == sorted(
            e.path for e in manifest.entries)
        test_subjects = {e.subject_id for e in fold.test} - {None}
        assert test_subjects.isdisjoint(e.subject_id for e in fold.train_val)


def test_subject_folds_with_an_empty_test_set_rejected():
    # one three-scan subject per class: every class fills fold 0 only
    entries = [D.ManifestEntry(path=f"s{i}.vvol", label=i // 3, subject_id=f"p{i // 3}")
               for i in range(9)]
    with pytest.raises(DataError, match="empty test set"):
        D.make_folds(D.DatasetManifest(entries=entries), 3, seed=0, by_subject=True)


def test_partition_outputs_pinned():
    """Tags and fold memberships on a fixed manifest match recorded digests,
    so any change to the shuffle order or the fill rule shows."""
    import hashlib

    def digest(value):
        return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]

    def tags(manifest):
        return [e.split for e in manifest.entries]

    def paths(entries):
        return [e.path for e in entries]

    manifest = mixed_manifest()
    train, val = D.carve_validation(manifest.entries, 0.3, seed=11, num_classes=4)
    got = {
        "scan": digest(tags(D.stratified_split(manifest, D.SplitSpec(seed=9)))),
        "subject": digest(tags(D.stratified_split(
            manifest, D.SplitSpec(seed=9, stratify_by="subject")))),
        "carve": digest([paths(train), paths(val)]),
        "folds3": digest([paths(f.test) for f in D.make_folds(manifest, 3, seed=4)]),
        "folds10": digest([paths(f.test) for f in D.make_folds(manifest, 10, seed=4)]),
    }
    assert got == {"scan": "b0994992c796e02d", "subject": "f6673d5e55b4d57f",
                   "carve": "edb96674069a18f6", "folds3": "ae955760a781869a",
                   "folds10": "fe0c2e8f0097f441"}


class TestSynthetic:
    def test_same_seed_bit_identical(self, tmp_path):
        a = D.gen_synthetic(2, (4, 8, 8, 1), seed=7, out_dir=tmp_path / "a")
        b = D.gen_synthetic(2, (4, 8, 8, 1), seed=7, out_dir=tmp_path / "b")
        for ea, eb in zip(a.entries, b.entries):
            assert (tmp_path / "a" / ea.path).read_bytes() \
                == (tmp_path / "b" / eb.path).read_bytes()

    def test_labels_balanced_and_loadable(self, tmp_path):
        manifest = D.gen_synthetic(4, (4, 8, 8, 1), seed=8, out_dir=tmp_path / "d")
        assert len(manifest.entries) == 12
        for c in range(3):
            assert sum(e.label == c for e in manifest.entries) == 4
        vols = manifest.load_volumes()
        assert all(v.shape == (4, 8, 8, 1) for v in vols)

    def test_class_means_differ(self, tmp_path):
        manifest = D.gen_synthetic(10, (4, 8, 8, 1), seed=9, out_dir=tmp_path / "m")
        vols = manifest.load_volumes()
        means = [np.mean([v.voxels for v in vols if v.label == c], axis=0)
                 for c in range(3)]
        for a in range(3):
            for b in range(a + 1, 3):
                assert np.abs(means[a] - means[b]).max() > 0.5

    def test_noise_free_blob_center_argmax_separable(self):
        extents = (4, 8, 8, 1)
        centers = np.rint(D.blob_centers(3, extents)).astype(int)
        for c in range(3):
            vox = D.synthetic_volume(c, 3, extents, Rng(0), noise_sigma=0.0)
            at_centers = [vox[tuple(centers[k])][0] for k in range(3)]
            assert int(np.argmax(at_centers)) == c


class TestManifestFile:
    def test_round_trip(self, tmp_path):
        manifest = make_manifest(3)
        manifest.entries[0].split = "train"
        path = tmp_path / "m.jsonl"
        manifest.save(path)
        back = D.DatasetManifest.load(path)
        assert [e.path for e in back.entries] == [e.path for e in manifest.entries]
        assert back.entries[0].split == "train"
        assert back.entries[1].split is None

    def test_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"path": "a.vvol", "label": 0, "extra": 1}) + "\n")
        with pytest.raises(FormatError, match="extra"):
            D.DatasetManifest.load(path)

    @pytest.mark.parametrize("record", [
        {"path": 5, "label": 0},
        {"path": None, "label": 0},
        {"path": "a.vvol", "label": True},
        {"path": "a.vvol", "label": 1.7},
        {"path": "a.vvol", "label": "1"},
        {"path": "a.vvol", "label": 0, "subject_id": 3},
        {"path": "a.vvol", "label": 0, "split": ["train"]},
        {"label": 0},
    ])
    def test_rejects_mistyped_fields(self, tmp_path, record):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(FormatError, match="m.jsonl:1"):
            D.DatasetManifest.load(path)

    @pytest.mark.parametrize("line", [
        pytest.param(b'{"path": "a\xff.vvol", "label": 0}', id="not-utf8"),
        pytest.param(b"[" * 100_000, id="deep-nesting"),
        pytest.param(b'{"path": "b.vvol", "label": 1' + b"0" * 5000 + b"}",
                     id="5000-digit-label"),
    ])
    def test_rejects_undecodable_lines(self, tmp_path, line):
        path = tmp_path / "m.jsonl"
        path.write_bytes(b'{"path": "a.vvol", "label": 0}\n' + line + b"\n")
        with pytest.raises(FormatError, match="m.jsonl:2: invalid JSON"):
            D.DatasetManifest.load(path)

    def test_keys_are_the_entry_fields(self, tmp_path, monkeypatch):
        """A field added to ManifestEntry is a known manifest key."""
        import dataclasses
        from typing import Optional

        @dataclasses.dataclass
        class Entry(D.ManifestEntry):
            site: Optional[str] = None

        monkeypatch.setattr(D, "ManifestEntry", Entry)
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"path": "a.vvol", "label": 0, "site": "x"}) + "\n")
        assert D.DatasetManifest.load(path).entries[0].site == "x"

    def test_rejects_duplicate_paths(self, tmp_path):
        path = tmp_path / "m.jsonl"
        record = json.dumps({"path": "a.vvol", "label": 0,
                             "subject_id": None, "split": None})
        path.write_text(record + "\n" + record + "\n")
        with pytest.raises(DataError, match="duplicate"):
            D.DatasetManifest.load(path)

    def test_paths_resolve_against_manifest_dir(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        D.write_volume(make_volume(), sub / "vol.vvol")
        (sub / "m.jsonl").write_text(json.dumps(
            {"path": "vol.vvol", "label": 1, "subject_id": None, "split": None}) + "\n")
        manifest = D.DatasetManifest.load(sub / "m.jsonl")
        vol = manifest.load_volume(manifest.entries[0])
        assert vol.label == 1


@settings(max_examples=25, deadline=None)
@given(per_class=st.integers(4, 20), seed=st.integers(0, 50))
def test_split_counts_follow_rounding_rule(per_class, seed):
    """train = round(0.6 n), val = round(0.2 n), remainder test, per class."""
    manifest = make_manifest(per_class)
    out = D.stratified_split(manifest, D.SplitSpec(seed=seed))
    n_train = int(np.floor(0.6 * per_class + 0.5))
    n_val = int(np.floor(0.2 * per_class + 0.5))
    for c in range(3):
        tags = [e.split for e in out.entries if e.label == c]
        assert tags.count("train") == n_train
        assert tags.count("val") == n_val
        assert tags.count("test") == per_class - n_train - n_val


def test_subject_carve_keeps_subjects_whole():
    """Inside subject folds (k=3, seed 4) a 0.25 carve at scan level puts
    10 subjects on both sides; the subject carve puts none."""
    for i, fold in enumerate(D.make_folds(mixed_manifest(), 3, seed=4, by_subject=True)):
        train, val = D.carve_validation(fold.train_val, 0.25, seed=i, num_classes=3,
                                        by_subject=True)
        assert sorted(e.path for e in train + val) == sorted(e.path for e in fold.train_val)
        for c in range(3):
            assert any(e.label == c for e in val) and any(e.label == c for e in train)
        val_subjects = {e.subject_id for e in val} - {None}
        assert val_subjects.isdisjoint(e.subject_id for e in train)


def test_subject_carve_with_one_subject_per_class_rejected():
    entries = [D.ManifestEntry(path=f"s{i}.vvol", label=i // 3, subject_id=f"p{i // 3}")
               for i in range(6)]
    with pytest.raises(DataError, match="too few subjects"):
        D.carve_validation(entries, 0.3, seed=0, num_classes=2, by_subject=True)
