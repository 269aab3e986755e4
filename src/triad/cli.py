"""Command-line interface: gen-data / train / eval / infer / gradcheck.

Exit codes: 0 success, 2 configuration or usage error, 3 I/O error,
4 validation or gradient-check failure, each error with one stderr line.
`main` maps every expected exception to its code through `_EXIT_CODES`;
any other exception propagates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread unless the caller chose a count.  `evaluate` scores large
# samples on one thread per CPU, and BLAS threads on top of those
# oversubscribe the CPUs: with OpenBLAS's default count, a pooled 64x64
# `triad eval` ran slower than a serial one on 2 CPUs.  The serial run took
# the same time with one BLAS thread as with the default.  Must precede the
# first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from .autograd import GRADCHECK_TOLERANCE, NonFiniteError
from .config import ConfigError, build_run_config, check_fpr_limits, load_config
from .evaluate import OracleMismatchError, evaluate, infer_maps, score_samples
from .metrics import MetricError
from .model import Model, ParameterMismatchError
from .provider import BinaryValueError, DatasetFolderProvider, read_features, save_dataset
from .scoring import ShapeMismatchError
from .synthdata import LabeledSample, gen_dataset
from .tmf import (
    TmfFormatError,
    canonical_json,
    load_checkpoint,
    save_checkpoint,
    write_pgm,
    write_tensor,
)
from .trainer import TrainingContractError, run_gradcheck, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4


class ValidationError(ValueError):
    """A sample that does not fit the configuration, or a failed gradient check."""


# checked in order, first match wins; label prefixes the one-line message
_EXIT_CODES = (
    (ConfigError, EXIT_CONFIG, "config error"),
    (ParameterMismatchError, EXIT_IO, "I/O error: checkpoint does not fit its model"),
    ((OSError, TmfFormatError), EXIT_IO, "I/O error"),
    (OracleMismatchError, EXIT_VALIDATION, "validation error: oracle cross-check failed"),
    ((ShapeMismatchError, NonFiniteError, BinaryValueError, MetricError,
      TrainingContractError, ValidationError), EXIT_VALIDATION, "validation error"),
)


def _build_model(cfg) -> Model:
    return Model(cfg.dims, seed=cfg.seed, catalog=cfg.catalog,
                 mapper_kind=cfg.mapper_kind)


def _load_model_from_checkpoint(path):
    raw = load_checkpoint(path)
    cfg = build_run_config(raw["config"])
    model = _build_model(cfg)
    model.load_arrays(raw["arrays"])
    return model, cfg


def _check_fits(cfg, samples, split: str) -> None:
    """The split must hold samples, each of a configured class and feature widths."""
    if not samples:
        raise ValidationError(f"the dataset has no {split} samples")
    dims = (cfg.dims.d_rgb, cfg.dims.d_3d)
    for s in samples:
        if s.class_name not in cfg.data.classes:
            raise ValidationError(f"class {s.class_name!r} absent from the "
                                  f"configured class list")
        widths = (s.f_rgb.shape[-1], s.f_3d.shape[-1])
        if widths != dims:
            raise ValidationError(f"sample widths {widths} do not match the "
                                  f"configured dims {dims}")


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config, args.seed)
    train_samples, test_samples = gen_dataset(cfg.data, cfg.seed)
    save_dataset(args.out, train_samples, test_samples, cfg.hash, cfg.seed)
    print(f"wrote {len(train_samples)} train / {len(test_samples)} test samples "
          f"to {args.out} (config {cfg.hash[:12]})")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed)
    train_samples = DatasetFolderProvider(args.data).load_split("train")
    _check_fits(cfg, train_samples, "train")
    model = _build_model(cfg)
    # eval's rule for training input: `infer_maps` raises `NonFiniteError`,
    # without a numpy warning, for a feature value too large for the head,
    # where a training step would only filter the non-finite gradients
    with score_samples(model, train_samples, cfg.fusion) as scored:
        for _ in scored:
            pass
    arrays, loss_log = train(cfg.train, model, train_samples)
    save_checkpoint(args.out, arrays, cfg.train.steps, cfg.seed, cfg.hash, cfg.raw)
    with open(str(args.out) + ".log.jsonl", "w") as f:
        for rec in loss_log:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    final = loss_log[-1]["l_total"] if loss_log else float("nan")
    print(f"trained {cfg.train.steps} steps, final loss {final:.6f}, "
          f"checkpoint {args.out} (config {cfg.hash[:12]})")
    return EXIT_OK


def cmd_eval(args) -> int:
    check_fpr_limits(args.limit or [])  # before any file is read
    model, cfg = _load_model_from_checkpoint(args.checkpoint)
    test_samples = DatasetFolderProvider(args.data).load_split("test")
    _check_fits(cfg, test_samples, "test")
    report = evaluate(model, test_samples, cfg.fusion, args.limit or cfg.fpr_limits,
                      oracle_check=args.oracle_check)
    report["config_hash"] = cfg.hash
    report["seed"] = cfg.seed
    Path(args.out).write_bytes(canonical_json(report))
    avg = report["average"]
    summary = ", ".join(f"{k}={v:.4f}" for k, v in sorted(avg.items()))
    print(f"average: {summary}")
    return EXIT_OK


def cmd_infer(args) -> int:
    model, cfg = _load_model_from_checkpoint(args.checkpoint)
    classes = cfg.data.classes
    if not args.class_name and len(classes) > 1:
        raise ConfigError(f"--class-name is required: the checkpoint has "
                          f"{len(classes)} classes ({', '.join(map(repr, classes))})")
    f_rgb, f_3d, mask = read_features(args.sample)
    class_name = args.class_name or classes[0]
    sample = LabeledSample(class_name, f_rgb, f_3d, mask, np.zeros_like(mask), False)
    _check_fits(cfg, [sample], "input")
    final, score = infer_maps(model, sample, cfg.fusion)
    write_tensor(args.out, final.astype(np.float32))
    meta = {"config_hash": cfg.hash, "image_score": score, "class": class_name}
    Path(str(args.out) + ".meta.json").write_bytes(canonical_json(meta))
    if args.pgm:
        write_pgm(str(args.out) + ".pgm", final)
    print(f"image score: {score:.6f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = load_config(args.config, args.seed)
    report = run_gradcheck(seed=cfg.seed)
    for name in sorted(report.per_parameter_errors):
        print(f"{name}: {report.per_parameter_errors[name]:.3e}")
    print(f"max relative error {report.max_relative_error:.3e} "
          f"(worst: {report.worst_parameter})")
    if not report.passed():
        raise ValidationError(
            f"gradient check exceeded tolerance {GRADCHECK_TOLERANCE}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one stderr line, like every other error."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    p = _Parser(prog="triad", description="Text-guided RGB-3D anomaly detection head")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate the synthetic benchmark")
    g.add_argument("--config")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train the head on a generated dataset")
    t.add_argument("--config")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--oracle-check", action="store_true")
    e.add_argument("--limit", action="append", type=float,
                   help="AUPRO FPR limit, repeatable (default from config)")
    e.set_defaults(fn=cmd_eval)

    i = sub.add_parser("infer", help="score one sample folder")
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--sample", required=True)
    i.add_argument("--out", required=True)
    i.add_argument("--class-name")
    i.add_argument("--pgm", action="store_true")
    i.set_defaults(fn=cmd_infer)

    c = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    c.add_argument("--config")
    c.add_argument("--seed", type=int)
    c.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        for types, code, label in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
