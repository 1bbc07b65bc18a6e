"""Command-line pipeline: synth, preprocess, train, eval, cv, predict, inspect.

One JSON document (--config) configures everything; --set SECTION.KEY=VALUE
overrides single keys and --seed overrides every seed at once. Progress
goes to stderr, machine-readable results to stdout or files, and nothing
is overwritten without --force.

Exit codes: 0 success, 1 invalid configuration or usage, 2 I/O or
dataset-level failure (including overwrite refusals), 3 checkpoint/config
mismatch.

Training and inference run their chunks on a pool of worker threads, one
per CPU the process may run on; results do not depend on the count.
Importing this module defaults every BLAS pool to one thread per worker,
before it imports numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_MISMATCH = 3

_THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _one_blas_thread() -> None:
    """Default each BLAS pool to one thread: every chunk worker makes its
    own BLAS calls, so more threads would only contend for the cores."""
    for var in _THREAD_ENV_VARS:
        os.environ.setdefault(var, "1")


_one_blas_thread()  # BLAS reads its thread count once, when numpy loads
from . import checkpoint, data, metrics, model, rng, training  # noqa: E402
from .errors import (CheckpointMismatchError, ConfigError, DataError,  # noqa: E402
                     DimensionError, FormatError, NumericError, UsageError,
                     require_field_types)


@dataclasses.dataclass(frozen=True)
class SynthConfig:
    n_per_class: int = 10
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        require_field_types(self)
        if self.n_per_class < 1:
            raise ConfigError(f"n_per_class must be >= 1, got {self.n_per_class}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be non-negative, got {self.noise_sigma}")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")


@dataclasses.dataclass(frozen=True)
class PreprocessConfig:
    normalize: str = "minmax"
    central_slices: int | None = None  # defaults to model.slices

    def __post_init__(self):
        require_field_types(self)
        if self.normalize not in data.NORMALIZE_MODES:
            raise ConfigError(f"normalize must be one of {data.NORMALIZE_MODES}, "
                              f"got {self.normalize!r}")
        if self.central_slices is not None and self.central_slices < 1:
            raise ConfigError(f"central_slices must be >= 1, got {self.central_slices}")


@dataclasses.dataclass(frozen=True)
class PathsConfig:
    manifest: str = "manifest.jsonl"
    data_dir: str = "data"
    out_dir: str = "processed"
    checkpoint_dir: str = "checkpoints"
    report: str = "report.json"
    history: str = "history.jsonl"

    def __post_init__(self):
        require_field_types(self)
        for f in dataclasses.fields(self):
            if not data.is_file_name(getattr(self, f.name)):
                raise ConfigError(f"paths.{f.name} holds a NUL character or a "
                                  f"surrogate that no file name can encode")


# config section -> its class; a RunConfig holds one instance of each
_SECTIONS = {
    "model": model.ModelConfig,
    "train": training.TrainConfig,
    "split": data.SplitSpec,
    "synth": SynthConfig,
    "preprocess": PreprocessConfig,
    "paths": PathsConfig,
}
RunConfig = dataclasses.make_dataclass(
    "RunConfig", [*_SECTIONS.items(), ("model_overridden", bool, False)])


def _config_help() -> str:
    lines = ["configuration keys (JSON document for --config; --set overrides):"]
    for section, cls in _SECTIONS.items():
        for f in dataclasses.fields(cls):
            lines.append(f"  {section}.{f.name} (default {f.default!r})")
    return "\n".join(lines)


def _parse_set_expr(expr: str) -> tuple[str, str, object]:
    key, sep, raw = expr.partition("=")
    if not sep:
        raise ConfigError(f"--set needs SECTION.KEY=VALUE, got '{expr}'")
    section, sep, name = key.partition(".")
    if not sep:
        raise ConfigError(f"--set key must be SECTION.KEY, got '{key}'")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except (ValueError, RecursionError) as exc:  # over 4300 digits, or deep nesting
        raise ConfigError(f"--set {key}: unreadable JSON value: {exc}") from exc
    return section, name, value


def load_run_config(config_path: str | None, set_exprs: list[str],
                    seed: int | None) -> RunConfig:
    doc = {}
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:  # UnicodeDecodeError is a ValueError, as are JSON errors
                doc = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise ConfigError(f"{config_path}: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{config_path}: top level must be a JSON object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")

    values: dict[str, dict] = {}
    for section, cls in _SECTIONS.items():
        given = doc.get(section, {})
        if not isinstance(given, dict):
            raise ConfigError(f"config section '{section}' must be an object")
        known = {f.name for f in dataclasses.fields(cls)}
        bad = set(given) - known
        if bad:
            raise ConfigError(f"unknown key(s) in '{section}': {sorted(bad)}")
        values[section] = dict(given)

    model_overridden = "model" in doc and bool(doc["model"])
    for expr in set_exprs:
        section, name, value = _parse_set_expr(expr)
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section '{section}'")
        known = {f.name for f in dataclasses.fields(_SECTIONS[section])}
        if name not in known:
            raise ConfigError(f"unknown key '{name}' in section '{section}'")
        values[section][name] = value
        if section == "model":
            model_overridden = True

    if seed is not None:
        values["train"]["seed"] = seed
        values["split"]["seed"] = seed
        values["synth"]["seed"] = seed

    built = {}
    for section, cls in _SECTIONS.items():
        try:
            built[section] = cls(**values[section])
        except TypeError as exc:
            raise ConfigError(f"bad value in section '{section}': {exc}") from exc
    return RunConfig(**built, model_overridden=model_overridden)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _progress(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _refuse_existing(paths, force: bool, checkpoint_dir=None) -> None:
    """Refuse, before any work, an output path that is empty or a directory,
    whose directory is missing (other than checkpoint_dir, which the
    command creates, and which must not be empty) or which exists (unless
    force)."""
    if checkpoint_dir == "":
        raise NotADirectoryError("paths.checkpoint_dir is empty; it must name the "
                                 "directory to write checkpoints into")
    made = os.path.normpath(checkpoint_dir) if checkpoint_dir else None
    for p in paths:
        if not p or os.path.isdir(p):
            raise IsADirectoryError(f"output path '{p}' names no file")
        parent = os.path.normpath(os.path.dirname(p) or ".")
        if parent != made and not os.path.isdir(parent):
            raise FileNotFoundError(f"directory '{parent}' of output '{p}' does not exist")
        if not force and os.path.exists(p):
            raise FileExistsError(f"refusing to overwrite '{p}'; pass --force")


def _refuse_nonempty_dir(path, force: bool) -> None:
    if force:
        return
    if os.path.isdir(path) and os.listdir(path):
        raise FileExistsError(f"refusing to write into non-empty '{path}'; pass --force")


def _class_names(n: int):
    return data.DEFAULT_CLASS_NAMES if n == len(data.DEFAULT_CLASS_NAMES) \
        else tuple(f"class{i}" for i in range(n))


def _save_manifest(manifest, path) -> None:
    """Write a manifest, rebasing entry paths relative to its location."""
    target_dir = os.path.dirname(os.path.abspath(path))
    rebased = []
    for e in manifest.entries:
        absolute = manifest.volume_path(e)
        rebased.append(dataclasses.replace(e, path=os.path.relpath(absolute, target_dir)))
    type(manifest)(entries=rebased, class_names=manifest.class_names,
                   base_dir=target_dir).save(path)


def _write_report(rep, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rep.to_dict(), fh, indent=2)
        fh.write("\n")


def _load_manifest(run: RunConfig):
    return data.DatasetManifest.load(run.paths.manifest,
                                     class_names=_class_names(run.model.num_classes))


def _default_checkpoint(run: RunConfig) -> str:
    return os.path.join(run.paths.checkpoint_dir, "model.vvck")


def _load_checkpoint_for(run: RunConfig, args):
    path = args.checkpoint or _default_checkpoint(run)
    expect = run.model if run.model_overridden else None
    return checkpoint.load_checkpoint(path, expect_config=expect)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(run: RunConfig, args) -> int:
    out_dir = run.paths.data_dir
    _refuse_nonempty_dir(out_dir, args.force)
    _refuse_existing([run.paths.manifest], args.force)
    extents = run.model.input_shape
    manifest = data.gen_synthetic(run.synth.n_per_class, extents, run.synth.seed,
                                  out_dir, noise_sigma=run.synth.noise_sigma,
                                  class_names=_class_names(run.model.num_classes))
    _save_manifest(manifest, run.paths.manifest)
    counts = {name: 0 for name in manifest.class_names}
    for e in manifest.entries:
        counts[manifest.class_names[e.label]] += 1
    _progress(args, f"wrote {len(manifest.entries)} volumes of shape {extents} to {out_dir}")
    print(json.dumps({"manifest": run.paths.manifest, "counts": counts}))
    return EXIT_OK


def cmd_preprocess(run: RunConfig, args) -> int:
    manifest = _load_manifest(run)
    if not manifest.entries:
        raise DataError(f"manifest '{run.paths.manifest}' is empty")
    written = {}  # output file name -> the entry path written under it
    for entry in manifest.entries:
        filename = os.path.basename(entry.path)
        if filename in written:
            raise DataError(f"'{written[filename]}' and '{entry.path}' would both be "
                            f"written as '{filename}'")
        written[filename] = entry.path
    out_dir = run.paths.out_dir
    _refuse_nonempty_dir(out_dir, args.force)
    os.makedirs(out_dir, exist_ok=True)
    k = run.preprocess.central_slices
    if k is None:
        k = run.model.slices
    processed, skipped = [], []
    for entry in manifest.entries:
        volume = manifest.load_volume(entry)
        try:
            volume = data.select_central_slices(volume, k)
        except DataError as exc:
            skipped.append(entry.path)
            _progress(args, f"skipping {entry.path}: {exc}")
            continue
        volume = data.resample_slices(volume, run.model.height, run.model.width)
        volume = data.normalize_intensity(volume, run.preprocess.normalize)
        filename = os.path.basename(entry.path)
        data.write_volume(volume, os.path.join(out_dir, filename))
        processed.append(dataclasses.replace(entry, path=filename))
    if not processed:
        raise DataError(f"all {len(skipped)} volumes failed preprocessing")
    out_manifest_path = os.path.join(out_dir, os.path.basename(run.paths.manifest))
    type(manifest)(entries=processed, class_names=manifest.class_names,
                   base_dir=os.path.abspath(out_dir)).save(out_manifest_path)
    _progress(args, f"processed {len(processed)} volumes, skipped {len(skipped)}")
    print(json.dumps({"manifest": out_manifest_path, "processed": len(processed),
                      "skipped": len(skipped)}))
    return EXIT_OK


def _split_manifest_if_needed(run: RunConfig, manifest, args):
    tags = [e.split for e in manifest.entries]
    if all(t is None for t in tags):
        _progress(args, "manifest has no split tags; applying stratified split "
                        f"(seed {run.split.seed})")
        return data.stratified_split(manifest, run.split)
    if any(t is None for t in tags):
        raise DataError("manifest has partial split tags; clear or complete them")
    return manifest


def _train_fresh(run: RunConfig, manifest, train_entries, val_entries, stream_ids,
                 **outputs):
    """Train parameters initialized from derive_seed(train.seed, *stream_ids)
    on the given manifest entries; `outputs` go to training.train. The
    checkpoint directory is made once the parameters exist, so a model too
    large to allocate leaves none behind."""
    params = model.ModelParams.initialize(
        run.model, seed=rng.derive_seed(run.train.seed, *stream_ids))
    os.makedirs(run.paths.checkpoint_dir, exist_ok=True)
    return training.train(params, run.model, manifest.load_volumes(train_entries),
                          manifest.load_volumes(val_entries), run.train, **outputs)


def cmd_train(run: RunConfig, args) -> int:
    checkpoint_path = _default_checkpoint(run)
    _refuse_existing([checkpoint_path, run.paths.history], args.force,
                     checkpoint_dir=run.paths.checkpoint_dir)
    manifest = _split_manifest_if_needed(run, _load_manifest(run), args)
    train_entries, val_entries = manifest.subset("train"), manifest.subset("val")
    _progress(args, f"training on {len(train_entries)} volumes, validating on "
                    f"{len(val_entries)} ({model.count_params(run.model)} parameters)")

    def on_epoch(row):
        marker = " *" if row["checkpointed"] else ""
        _progress(args, f"epoch {row['epoch']}/{run.train.epochs} "
                        f"train_loss={row['train_loss']:.6f} "
                        f"val_loss={row['val_loss']:.6f} "
                        f"val_acc={row['val_acc']:.4f}{marker}")

    result = _train_fresh(run, manifest, train_entries, val_entries, (0,),
                          checkpoint_path=checkpoint_path,
                          history_path=run.paths.history, on_epoch=on_epoch)
    print(json.dumps({"checkpoint": checkpoint_path, "history": run.paths.history,
                      "monitor": run.train.monitor, "best_epoch": result.best_epoch,
                      "best_value": result.best_value}))
    return EXIT_OK


def _evaluate_entries(manifest, entries, params, batch_size):
    volumes = manifest.load_volumes(entries)
    probs = training.predict_probs(params, params.config, volumes, batch_size)
    preds = model.predict_classes(probs)
    labels = [v.label for v in volumes]
    return metrics.confusion(labels, preds, num_classes=params.config.num_classes,
                             class_names=manifest.class_names)


def cmd_eval(run: RunConfig, args) -> int:
    _refuse_existing([run.paths.report], args.force)
    _, params = _load_checkpoint_for(run, args)
    manifest = _split_manifest_if_needed(run, _load_manifest(run), args)
    entries = manifest.subset(args.split)
    if not entries:
        raise DataError(f"manifest has no entries tagged '{args.split}'")
    cm = _evaluate_entries(manifest, entries, params, run.train.batch_size)
    rep = metrics.report([cm])
    _write_report(rep, run.paths.report)
    _progress(args, f"report written to {run.paths.report}")
    print(rep.render_text(), end="")
    return EXIT_OK


def cmd_cv(run: RunConfig, args) -> int:
    if args.repeats < 1:
        raise UsageError(f"--repeats must be >= 1, got {args.repeats}")
    k = run.split.folds
    _refuse_existing([run.paths.report], args.force, checkpoint_dir=run.paths.checkpoint_dir)
    # the folds are cut before the k per-fold paths are listed, so a k larger
    # than a class is a DataError, not a list of k paths
    manifest = _load_manifest(run)
    rep_indices = [run.split.repetition + r for r in range(args.repeats)]
    rep_folds = [data.make_folds(manifest, k, seed=rng.derive_seed(run.split.seed, rep),
                                 by_subject=run.split.stratify_by == "subject")
                 for rep in rep_indices]
    stem, ext = os.path.splitext(run.paths.report)
    fold_report_paths = [
        f"{stem}_rep{rep}_fold{i}{ext or '.json'}"
        for rep in rep_indices for i in range(k)
    ]
    fold_checkpoints = [
        os.path.join(run.paths.checkpoint_dir, f"cv_rep{rep}_fold{i}.vvck")
        for rep in rep_indices for i in range(k)
    ]
    _refuse_existing([*fold_report_paths, *fold_checkpoints], args.force,
                     checkpoint_dir=run.paths.checkpoint_dir)

    inner_val_fraction = run.split.val_fraction / (
        run.split.train_fraction + run.split.val_fraction)
    matrices = []
    for r, (rep, folds) in enumerate(zip(rep_indices, rep_folds)):
        for i, fold in enumerate(folds):
            train_entries, val_entries = data.carve_validation(
                fold.train_val, inner_val_fraction,
                seed=rng.derive_seed(run.split.seed, rep, i),
                num_classes=run.model.num_classes,
                by_subject=run.split.stratify_by == "subject")
            ckpt = fold_checkpoints[r * k + i]
            _train_fresh(run, manifest, train_entries, val_entries, (rep, i),
                         checkpoint_path=ckpt)
            _, best_params = checkpoint.load_checkpoint(ckpt)
            cm = _evaluate_entries(manifest, fold.test, best_params, run.train.batch_size)
            matrices.append(cm)
            fold_report = metrics.report([cm])
            _write_report(fold_report, fold_report_paths[r * k + i])
            _progress(args, f"repetition {rep} fold {i + 1}/{k}: "
                            f"test_acc={fold_report.accuracy_mean:.4f}")
    aggregate = metrics.report(matrices)
    _write_report(aggregate, run.paths.report)
    _progress(args, f"aggregate report written to {run.paths.report}")
    print(aggregate.render_text(), end="")
    return EXIT_OK


def cmd_predict(run: RunConfig, args) -> int:
    if args.out:
        _refuse_existing([args.out], args.force)
    config, params = _load_checkpoint_for(run, args)
    if args.volumes:
        volumes = [data.read_volume(p) for p in args.volumes]
        paths = list(args.volumes)
    else:
        manifest = _load_manifest(run)
        volumes = manifest.load_volumes()
        paths = [e.path for e in manifest.entries]
    names = _class_names(config.num_classes)
    probs = training.predict_probs(params, config, volumes, run.train.batch_size)
    preds = model.predict_classes(probs)
    sink = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for path, row, pred in zip(paths, probs, preds):
            record = {"path": path, "probabilities": [float(p) for p in row],
                      "predicted": int(pred), "class_name": names[int(pred)]}
            sink.write(json.dumps(record) + "\n")
    finally:
        if args.out:
            sink.close()
    return EXIT_OK


def cmd_inspect(run: RunConfig, args) -> int:
    if args.checkpoint:
        config, _ = _load_checkpoint_for(run, args)
    else:
        config = run.model
    total = 0
    for name, shape in model.parameter_shapes(config):
        size = math.prod(shape)
        total += size
        print(f"{name:<28} {'x'.join(str(s) for s in shape):>12} {size:>10}")
    closed_form = model.count_params(config)
    print(f"total trainable parameters: {closed_form}")
    if total != closed_form:
        print(f"warning: enumerated size {total} != closed form {closed_form}",
              file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage to exit 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None,
                        help="JSON run configuration (see key listing below)")
    common.add_argument("--seed", type=int, default=None, metavar="N",
                        help="override train/split/synth seeds at once")
    common.add_argument("--force", action="store_true",
                        help="overwrite existing output files")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress output on stderr")
    common.add_argument("--set", action="append", default=[], dest="set_exprs",
                        metavar="SECTION.KEY=VALUE",
                        help="override one configuration key (repeatable)")

    parser = _Parser(
        prog="volformer",
        description="Volumetric scan classification pipeline.",
        epilog=_config_help() + "\n\nexit codes: 0 ok, 1 invalid input, "
               "2 I/O or dataset failure, 3 checkpoint/config mismatch.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("synth", parents=[common],
                       help="generate a labeled synthetic VVOL dataset")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", parents=[common],
                       help="central slices, resample, normalize per manifest")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", parents=[common],
                       help="train with improvement-gated checkpointing")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a checkpoint on one split")
    p.add_argument("--checkpoint", metavar="PATH", default=None)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cv", parents=[common],
                       help="repeated stratified k-fold cross-validation")
    p.add_argument("--repeats", type=int, default=1, metavar="R")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("predict", parents=[common],
                       help="per-volume class probabilities as JSON lines")
    p.add_argument("volumes", nargs="*", metavar="VOLUME.vvol",
                   help="volumes to classify (default: every manifest entry)")
    p.add_argument("--checkpoint", metavar="PATH", default=None)
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write JSON lines here instead of stdout")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("inspect", parents=[common],
                       help="parameter count and per-array shapes")
    p.add_argument("--checkpoint", metavar="PATH", default=None)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        run = load_run_config(args.config, args.set_exprs, args.seed)
        return args.func(run, args)
    except CheckpointMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (DataError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, UsageError, DimensionError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
