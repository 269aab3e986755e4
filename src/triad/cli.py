"""Command-line interface: gen-data / train / eval / infer / gradcheck.

Exit codes: 0 success, 2 configuration error, 3 I/O error,
4 validation or gradient-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, build_run_config, load_config
from .evaluate import OracleMismatchError, evaluate, infer_maps
from .metrics import MetricError
from .model import Model, ParameterMismatchError
from .provider import DatasetFolderProvider, DatasetIOError, save_dataset
from .scoring import ShapeMismatchError
from .synthdata import LabeledSample, gen_dataset
from .tmf import (
    TmfFormatError,
    canonical_json,
    load_checkpoint,
    read_tensor,
    save_checkpoint,
    write_pgm,
    write_tensor,
)
from .trainer import run_gradcheck, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4

GRADCHECK_TOLERANCE = 1e-4


def _build_model(cfg) -> Model:
    return Model(cfg.dims, seed=cfg.seed, catalog=cfg.catalog,
                 mapper_kind=cfg.mapper_kind)


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config, args.seed)
    train_samples, test_samples = gen_dataset(cfg.data, cfg.seed)
    try:
        save_dataset(args.out, train_samples, test_samples, cfg.hash, cfg.seed)
    except OSError as exc:
        print(f"error: cannot write dataset: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(train_samples)} train / {len(test_samples)} test samples "
          f"to {args.out} (config {cfg.hash[:12]})")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed)
    try:
        provider = DatasetFolderProvider(args.data)
        train_samples = provider.load_split("train")
    except (OSError, DatasetIOError) as exc:
        print(f"error: cannot read dataset: {exc}", file=sys.stderr)
        return EXIT_IO
    model = _build_model(cfg)
    ckpt, loss_log = train(cfg.train, model, train_samples,
                           config_snapshot=cfg.raw)
    try:
        save_checkpoint(args.out, ckpt.arrays, ckpt.step, ckpt.seed,
                        cfg.hash, cfg.raw)
        log_path = Path(str(args.out) + ".log.jsonl")
        with open(log_path, "w") as f:
            for rec in loss_log:
                f.write(json.dumps(rec, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"error: cannot write checkpoint: {exc}", file=sys.stderr)
        return EXIT_IO
    final = loss_log[-1]["l_total"] if loss_log else float("nan")
    print(f"trained {ckpt.step} steps, final loss {final:.6f}, "
          f"checkpoint {args.out} (config {cfg.hash[:12]})")
    return EXIT_OK


def _load_model_from_checkpoint(path):
    raw = load_checkpoint(path)
    cfg = build_run_config(raw["config"])
    model = _build_model(cfg)
    model.load_arrays(raw["arrays"])
    return model, cfg


def cmd_eval(args) -> int:
    try:
        model, cfg = _load_model_from_checkpoint(args.checkpoint)
    except OSError as exc:
        print(f"error: cannot read checkpoint: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        provider = DatasetFolderProvider(args.data)
        test_samples = provider.load_split("test")
    except (OSError, DatasetIOError) as exc:
        print(f"error: cannot read dataset: {exc}", file=sys.stderr)
        return EXIT_IO
    known = set(cfg.data.classes)
    for s in test_samples:
        if s.class_name not in known:
            print(f"error: test class {s.class_name!r} absent from the "
                  f"configured class list", file=sys.stderr)
            return EXIT_VALIDATION
    limits = [float(x) for x in args.limit] if args.limit else cfg.fpr_limits
    try:
        report = evaluate(model, test_samples, cfg.fusion, limits,
                          oracle_check=args.oracle_check)
    except OracleMismatchError as exc:
        print(f"error: oracle cross-check failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    report["config_hash"] = cfg.hash
    report["seed"] = cfg.seed
    try:
        Path(args.out).write_bytes(canonical_json(report))
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    avg = report["average"]
    summary = ", ".join(f"{k}={v:.4f}" for k, v in sorted(avg.items()))
    print(f"average: {summary}")
    return EXIT_OK


def cmd_infer(args) -> int:
    try:
        model, cfg = _load_model_from_checkpoint(args.checkpoint)
    except OSError as exc:
        print(f"error: cannot read checkpoint: {exc}", file=sys.stderr)
        return EXIT_IO
    sdir = Path(args.sample)
    try:
        f_rgb = np.asarray(read_tensor(sdir / "f_rgb.tmf"), dtype=np.float64)
        f_3d = np.asarray(read_tensor(sdir / "f_3d.tmf"), dtype=np.float64)
        mask = read_tensor(sdir / "mask.tmf").astype(bool)
    except OSError as exc:
        print(f"error: cannot read sample: {exc}", file=sys.stderr)
        return EXIT_IO
    class_name = args.class_name or cfg.data.classes[0]
    if class_name not in cfg.data.classes:
        print(f"error: class {class_name!r} absent from the checkpoint's "
              f"configured class list", file=sys.stderr)
        return EXIT_VALIDATION
    if f_rgb.shape[-1] != cfg.dims.d_rgb or f_3d.shape[-1] != cfg.dims.d_3d:
        print(f"error: sample widths ({f_rgb.shape[-1]}, {f_3d.shape[-1]}) do not "
              f"match checkpoint dims ({cfg.dims.d_rgb}, {cfg.dims.d_3d})",
              file=sys.stderr)
        return EXIT_VALIDATION
    sample = LabeledSample(class_name, f_rgb, f_3d, mask,
                           np.zeros_like(mask), False)
    try:
        final, score = infer_maps(model, sample, cfg.fusion)
    except ShapeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        write_tensor(args.out, final.astype(np.float32))
        meta = {"config_hash": cfg.hash, "image_score": score,
                "class": class_name}
        Path(str(args.out) + ".meta.json").write_bytes(canonical_json(meta))
        if args.pgm:
            write_pgm(str(args.out) + ".pgm", final)
    except OSError as exc:
        print(f"error: cannot write map: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"image score: {score:.6f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = load_config(args.config, args.seed)
    report = run_gradcheck(tolerance=GRADCHECK_TOLERANCE, seed=cfg.seed)
    for name in sorted(report.per_parameter_errors):
        print(f"{name}: {report.per_parameter_errors[name]:.3e}")
    print(f"max relative error {report.max_relative_error:.3e} "
          f"(worst: {report.worst_parameter})")
    if not report.passed(GRADCHECK_TOLERANCE):
        print(f"error: gradient check exceeded tolerance {GRADCHECK_TOLERANCE}",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="triad",
                                description="Text-guided RGB-3D anomaly detection head")
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
    e.add_argument("--limit", action="append",
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DatasetIOError, FileNotFoundError, TmfFormatError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ParameterMismatchError as exc:
        print(f"I/O error: checkpoint does not fit its model: {exc}", file=sys.stderr)
        return EXIT_IO
    except MetricError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
