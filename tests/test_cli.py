"""End-to-end tests of the command-line interface and its exit codes."""

import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from triad.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from triad.tmf import load_checkpoint, read_tensor, save_checkpoint, write_tensor

SMALL_OVERRIDES = {
    "data": {"classes": ["bagel"], "n_train": 4, "n_test": 4,
             "height": 8, "width": 8, "d_latent": 3, "d_rgb": 5, "d_3d": 7},
    "model": {"d_text": 8, "n_experts": 3, "top_k": 2, "dropout_rate": 0.0},
    "train": {"steps": 3, "batch_size": 2},
}


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(SMALL_OVERRIDES))
    return str(p)


@pytest.fixture
def data_dir(tmp_path, cfg_path):
    out = tmp_path / "data"
    assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    return str(out)


@pytest.fixture
def checkpoint(tmp_path, cfg_path, data_dir):
    ck = tmp_path / "model.ckpt"
    assert main(["train", "--config", cfg_path, "--data", data_dir,
                 "--out", str(ck)]) == EXIT_OK
    return str(ck)


# ---------------------------------------------------------------------------
# happy paths


def test_gen_data_writes_manifest_and_samples(data_dir):
    root = Path(data_dir)
    manifest = json.loads((root / "manifest.json").read_text())
    assert len(manifest["samples"]) == 4 + 4
    first = manifest["samples"][0]["id"]
    assert (root / "samples" / first / "f_rgb.tmf").exists()


def test_gen_data_byte_identical_reruns(tmp_path, cfg_path):
    a, b = tmp_path / "d1", tmp_path / "d2"
    assert main(["gen-data", "--config", cfg_path, "--out", str(a)]) == EXIT_OK
    assert main(["gen-data", "--config", cfg_path, "--out", str(b)]) == EXIT_OK
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_train_writes_checkpoint_and_loss_log(checkpoint):
    ck = load_checkpoint(checkpoint)
    assert ck["step"] == 3 and ck["seed"] == 7
    assert ck["config"]["data"]["classes"] == ["bagel"]
    log_lines = Path(checkpoint + ".log.jsonl").read_text().splitlines()
    assert len(log_lines) == 3
    rec = json.loads(log_lines[0])
    assert set(rec) == {"step", "l_vis", "l_text", "l_total"}


def test_train_deterministic_checkpoints(tmp_path, cfg_path, data_dir):
    c1, c2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    for c in (c1, c2):
        assert main(["train", "--config", cfg_path, "--data", data_dir,
                     "--out", str(c)]) == EXIT_OK
    assert c1.read_bytes() == c2.read_bytes()


def test_eval_writes_report(tmp_path, data_dir, checkpoint):
    out = tmp_path / "report.json"
    assert main(["eval", "--checkpoint", checkpoint, "--data", data_dir,
                 "--out", str(out), "--oracle-check"]) == EXIT_OK
    report = json.loads(out.read_text())
    assert "bagel" in report["classes"]
    assert set(report["average"]) == {"i_auroc", "p_auroc",
                                      "aupro@0.3", "aupro@0.01"}
    assert report["seed"] == 7 and len(report["config_hash"]) == 64


def test_eval_custom_limit(tmp_path, data_dir, checkpoint):
    out = tmp_path / "report.json"
    assert main(["eval", "--checkpoint", checkpoint, "--data", data_dir,
                 "--out", str(out), "--limit", "0.5"]) == EXIT_OK
    report = json.loads(out.read_text())
    assert set(report["average"]) == {"i_auroc", "p_auroc", "aupro@0.5"}


def test_infer_writes_map_meta_and_pgm(tmp_path, data_dir, checkpoint):
    sample_dir = str(Path(data_dir) / "samples" / "test-00000")
    out = tmp_path / "map.tmf"
    assert main(["infer", "--checkpoint", checkpoint, "--sample", sample_dir,
                 "--out", str(out), "--pgm"]) == EXIT_OK
    final = read_tensor(out)
    assert final.shape == (8, 8)
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    assert meta["class"] == "bagel"
    assert meta["image_score"] == pytest.approx(float(final.max()), rel=1e-6)
    assert Path(str(out) + ".pgm").read_bytes().startswith(b"P5\n8 8\n255\n")


def test_gradcheck_command_passes(capsys):
    assert main(["gradcheck"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "max relative error" in out


# ---------------------------------------------------------------------------
# failure modes


def test_unknown_config_key_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"train": {"step_count": 5}}')
    code = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")])
    assert code == EXIT_CONFIG


def test_missing_config_file_exits_2(tmp_path):
    code = main(["gen-data", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "d")])
    assert code == EXIT_CONFIG


def test_missing_dataset_exits_3(tmp_path, cfg_path):
    code = main(["train", "--config", cfg_path,
                 "--data", str(tmp_path / "nodata"),
                 "--out", str(tmp_path / "ck")])
    assert code == EXIT_IO


def test_missing_checkpoint_exits_3(tmp_path, data_dir):
    code = main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                 "--data", data_dir, "--out", str(tmp_path / "r.json")])
    assert code == EXIT_IO


def test_foreign_test_class_exits_4(tmp_path, data_dir, checkpoint):
    manifest_path = Path(data_dir) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for e in manifest["samples"]:
        if e["split"] == "test":
            e["class"] = "zipper"
    manifest_path.write_text(json.dumps(manifest))
    code = main(["eval", "--checkpoint", checkpoint, "--data", data_dir,
                 "--out", str(tmp_path / "r.json")])
    assert code == EXIT_VALIDATION


def test_infer_dimension_mismatch_exits_4(tmp_path, data_dir, checkpoint):
    from triad.tmf import write_tensor
    sdir = tmp_path / "sample"
    sdir.mkdir()
    write_tensor(sdir / "f_rgb.tmf", np.zeros((8, 8, 3)))
    write_tensor(sdir / "f_3d.tmf", np.zeros((8, 8, 7)))
    write_tensor(sdir / "mask.tmf", np.ones((8, 8), dtype=np.float32))
    code = main(["infer", "--checkpoint", checkpoint, "--sample", str(sdir),
                 "--out", str(tmp_path / "m.tmf")])
    assert code == EXIT_VALIDATION


def test_oracle_check_negative_control(tmp_path, data_dir, checkpoint,
                                       monkeypatch):
    # a deliberately broken metric must trip the oracle cross-check (exit 4)
    import triad.evaluate as ev
    monkeypatch.setattr(ev, "auroc", lambda scores, labels: 0.123)
    code = main(["eval", "--checkpoint", checkpoint, "--data", data_dir,
                 "--out", str(tmp_path / "r.json"), "--oracle-check"])
    assert code == EXIT_VALIDATION


def _one_line_error(capsys):
    err = capsys.readouterr().err.strip()
    return len(err.splitlines()) == 1 and "Traceback" not in err


def _sample_dir(tmp_path, data_dir):
    """A copy of the first test sample's folder, for corrupting."""
    src = Path(data_dir) / "samples" / "test-00000"
    sdir = tmp_path / "sample"
    sdir.mkdir()
    for f in src.iterdir():
        (sdir / f.name).write_bytes(f.read_bytes())
    return sdir


def test_infer_unknown_class_exits_4(tmp_path, data_dir, checkpoint, capsys):
    sample_dir = str(Path(data_dir) / "samples" / "test-00000")
    capsys.readouterr()
    code = main(["infer", "--checkpoint", checkpoint, "--sample", sample_dir,
                 "--out", str(tmp_path / "m.tmf"), "--class-name", "notaclass"])
    assert code == EXIT_VALIDATION
    assert _one_line_error(capsys)
    assert not (tmp_path / "m.tmf").exists()


def test_truncated_checkpoint_exits_3(tmp_path, data_dir, checkpoint, capsys):
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(Path(checkpoint).read_bytes()[:100])
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(cut), "--data", data_dir,
                 "--out", str(tmp_path / "r.json")])
    assert code == EXIT_IO
    assert _one_line_error(capsys)


def test_truncated_sample_tensor_exits_3(tmp_path, data_dir, checkpoint, capsys):
    sdir = _sample_dir(tmp_path, data_dir)
    (sdir / "f_rgb.tmf").write_bytes((sdir / "f_rgb.tmf").read_bytes()[:7])
    capsys.readouterr()
    code = main(["infer", "--checkpoint", checkpoint, "--sample", str(sdir),
                 "--out", str(tmp_path / "m.tmf")])
    assert code == EXIT_IO
    assert _one_line_error(capsys)


def test_infer_mask_grid_mismatch_exits_4(tmp_path, data_dir, checkpoint, capsys):
    from triad.tmf import write_tensor
    sdir = _sample_dir(tmp_path, data_dir)
    write_tensor(sdir / "mask.tmf", np.ones((4, 4), dtype=np.float32))
    capsys.readouterr()
    code = main(["infer", "--checkpoint", checkpoint, "--sample", str(sdir),
                 "--out", str(tmp_path / "m.tmf")])
    assert code == EXIT_VALIDATION
    assert _one_line_error(capsys)


def test_eval_single_label_test_class_exits_4(tmp_path, data_dir, checkpoint,
                                              capsys):
    # AUROC is undefined when every test sample of a class carries one label
    manifest_path = Path(data_dir) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for e in manifest["samples"]:
        if e["split"] == "test":
            e["is_anomalous"] = False
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = main(["eval", "--checkpoint", checkpoint, "--data", data_dir,
                 "--out", str(tmp_path / "r.json")])
    assert code == EXIT_VALIDATION
    assert _one_line_error(capsys)
    assert not (tmp_path / "r.json").exists()


def test_checkpoint_missing_a_parameter_exits_3(tmp_path, data_dir, checkpoint,
                                                capsys):
    ck = load_checkpoint(checkpoint)
    arrays = dict(ck["arrays"])
    arrays.pop(sorted(arrays)[0])
    short = tmp_path / "short.ckpt"
    save_checkpoint(short, arrays, ck["step"], ck["seed"], ck["config_hash"],
                    ck["config"])
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(short), "--data", data_dir,
                 "--out", str(tmp_path / "r.json")])
    assert code == EXIT_IO
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert sorted(ck["arrays"])[0] in err


# ---------------------------------------------------------------------------
# exit-code table: every subcommand, one stderr line, never a traceback or a
# warning; a row expecting exit 0 prints nothing on stderr


def _set_nan(path, index):
    arr = read_tensor(path)
    arr[index] = np.nan
    write_tensor(path, arr)


def _set_rgb_at_first_pixel(sdir, value, valid=True):
    """Set channel 0 of `f_rgb` at the first valid (or invalid) pixel."""
    mask = read_tensor(sdir / "mask.tmf").astype(bool)
    r, c = np.argwhere(mask == valid)[0]
    path = sdir / "f_rgb.tmf"
    arr = read_tensor(path)
    arr[r, c, 0] = value
    write_tensor(path, arr)


def _nan_at_valid_pixel(sdir):
    _set_rgb_at_first_pixel(sdir, np.nan)


def _nan_at_invalid_pixels(sdir):
    """Set both feature grids to NaN at every invalid pixel."""
    invalid = read_tensor(sdir / "mask.tmf") == 0
    for name in ("f_rgb.tmf", "f_3d.tmf"):
        arr = read_tensor(sdir / name)
        arr[invalid] = np.nan
        write_tensor(sdir / name, arr)


# the arguments each command takes after its --config option
_AFTER_CONFIG = {
    "gen-data": lambda ctx: ["--out", str(ctx.tmp / "d")],
    "train": lambda ctx: ["--data", ctx.data, "--out", str(ctx.tmp / "new.ckpt")],
    "gradcheck": lambda ctx: [],
}


def _bad_config(command, overrides):
    """argv running `command` with the small config, each section updated by
    `overrides`."""
    def make_argv(ctx):
        cfg = {section: dict(values) for section, values in SMALL_OVERRIDES.items()}
        for section, values in overrides.items():
            cfg.setdefault(section, {}).update(values)
        bad = ctx.tmp / "bad.json"
        bad.write_text(json.dumps(cfg))
        return [command, "--config", str(bad), *_AFTER_CONFIG[command](ctx)]
    return make_argv


def _train_argv(ctx):
    return ["train", "--config", ctx.cfg, "--data", ctx.data,
            "--out", str(ctx.tmp / "new.ckpt")]


def _eval_argv(ctx, *extra):
    return ["eval", "--checkpoint", ctx.ckpt, "--data", ctx.data,
            "--out", str(ctx.tmp / "r.json"), *extra]


def _infer_argv(ctx, sdir, *extra):
    return ["infer", "--checkpoint", ctx.ckpt, "--sample", str(sdir),
            "--out", str(ctx.tmp / "m.tmf"), *extra]


def _gen_data_unwritable(ctx):
    return ["gen-data", "--config", ctx.cfg, "--out", ctx.cfg + "/data"]


def _train_truncated_manifest(ctx):
    path = Path(ctx.data) / "manifest.json"
    path.write_bytes(path.read_bytes()[:40])
    return _train_argv(ctx)


def _train_nan_sample(ctx):
    # (1, 1) is a valid pixel: the border of one pixel is invalid
    _set_nan(Path(ctx.data) / "samples" / "train-00000" / "f_3d.tmf", (1, 1, 0))
    return _train_argv(ctx)


def _train_nan_at_invalid_pixels(ctx):
    # the run must write the clean data's checkpoint, byte for byte
    for sdir in (Path(ctx.data) / "samples").glob("train-*"):
        _nan_at_invalid_pixels(sdir)
    ctx.same_bytes = [(Path(ctx.ckpt), ctx.tmp / "new.ckpt")]
    return _train_argv(ctx)


def _train_anomalous_sample(ctx):
    path = Path(ctx.data) / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["samples"][0]["is_anomalous"] = True
    path.write_text(json.dumps(manifest))
    return _train_argv(ctx)


def _eval_header_classes_not_a_list(ctx):
    ck = load_checkpoint(ctx.ckpt)
    ck["config"]["data"]["classes"] = "bagel"
    ctx.ckpt = str(ctx.tmp / "bad.ckpt")
    save_checkpoint(ctx.ckpt, ck["arrays"], ck["step"], ck["seed"],
                    ck["config_hash"], ck["config"])
    return _eval_argv(ctx)


def _eval_nan_at_valid_pixel(ctx):
    _nan_at_valid_pixel(Path(ctx.data) / "samples" / "test-00000")
    return _eval_argv(ctx)


def _eval_gt_grid_mismatch(ctx):
    write_tensor(Path(ctx.data) / "samples" / "test-00000" / "gt.tmf",
                 np.zeros((4, 4), dtype=np.float32))
    return _eval_argv(ctx)


def _drop_rgb_channels(data_dir, sid):
    path = Path(data_dir) / "samples" / sid / "f_rgb.tmf"
    write_tensor(path, read_tensor(path)[..., :3])


def _train_width_mismatch(ctx):
    _drop_rgb_channels(ctx.data, "train-00000")
    return _train_argv(ctx)


def _eval_width_mismatch(ctx):
    _drop_rgb_channels(ctx.data, "test-00000")
    return _eval_argv(ctx)


def _infer_nan_at_valid_pixel(ctx):
    sdir = _sample_dir(ctx.tmp, ctx.data)
    _nan_at_valid_pixel(sdir)
    return _infer_argv(ctx, sdir)


def _nan_in_checkpoint_array(ctx):
    ck = load_checkpoint(ctx.ckpt)
    arrays = dict(ck["arrays"])
    name = sorted(arrays)[0]
    arrays[name] = arrays[name].copy()
    arrays[name].flat[0] = np.nan
    ctx.ckpt = str(ctx.tmp / "nan.ckpt")
    save_checkpoint(ctx.ckpt, arrays, ck["step"], ck["seed"], ck["config_hash"],
                    ck["config"])


def _eval_nan_in_checkpoint(ctx):
    _nan_in_checkpoint_array(ctx)
    return _eval_argv(ctx)


def _infer_nan_in_checkpoint(ctx):
    _nan_in_checkpoint_array(ctx)
    return _infer_argv(ctx, Path(ctx.data) / "samples" / "test-00000")


def _edit_manifest(edit, argv=_eval_argv):
    """`argv(ctx)` after `edit(samples)` changed the manifest's entries."""
    def make_argv(ctx):
        path = Path(ctx.data) / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest["samples"])
        path.write_text(json.dumps(manifest))
        return argv(ctx)
    return make_argv


def _set_test_field(key, value, index=0):
    """Set `key` of the `index`-th test entry."""
    def edit(samples):
        [e for e in samples if e["split"] == "test"][index][key] = value
    return edit


def _drop_split(split):
    def edit(samples):
        samples[:] = [e for e in samples if e["split"] != split]
    return edit


def _infer_nan_filled_mask(ctx):
    sdir = _sample_dir(ctx.tmp, ctx.data)
    write_tensor(sdir / "mask.tmf", np.full((8, 8), np.nan, dtype=np.float32))
    return _infer_argv(ctx, sdir)


def _eval_gt_value_two(ctx):
    write_tensor(Path(ctx.data) / "samples" / "test-00000" / "gt.tmf",
                 np.full((8, 8), 2.0, dtype=np.float32))
    return _eval_argv(ctx)


def _eval_manifest_id_absolute(ctx):
    other = str((Path(ctx.data) / "samples" / "test-00001").resolve())
    return _edit_manifest(_set_test_field("id", other))(ctx)


def _eval_huge_at_valid_pixel(ctx):
    _set_rgb_at_first_pixel(Path(ctx.data) / "samples" / "test-00000", 1e200)
    return _eval_argv(ctx)


def _eval_huge_at_valid_pixel_pooled(ctx):
    # scored on a two-worker pool on any machine; a later sample fails there
    import triad.evaluate as ev
    ctx.monkeypatch.setattr(ev, "_usable_cpus", lambda: 2)
    ctx.monkeypatch.setattr(ev, "_POOL_MIN_ROWS", 0)
    _set_rgb_at_first_pixel(Path(ctx.data) / "samples" / "test-00002", 1e200)
    return _eval_argv(ctx)


def _infer_huge_at_valid_pixel(ctx):
    sdir = _sample_dir(ctx.tmp, ctx.data)
    _set_rgb_at_first_pixel(sdir, 1e200)
    return _infer_argv(ctx, sdir)


def _infer_huge_at_invalid_pixel(ctx):
    # the run must write the clean sample's map and sidecar, byte for byte
    sdir = _sample_dir(ctx.tmp, ctx.data)
    clean = ctx.tmp / "clean.tmf"
    assert main(["infer", "--checkpoint", ctx.ckpt, "--sample", str(sdir),
                 "--out", str(clean)]) == EXIT_OK
    out = ctx.tmp / "m.tmf"
    ctx.same_bytes = [(clean, out), (Path(f"{clean}.meta.json"), Path(f"{out}.meta.json"))]
    _set_rgb_at_first_pixel(sdir, 1e200, valid=False)
    return _infer_argv(ctx, sdir)


def _infer_nan_at_invalid_pixels(ctx):
    # the run must write the clean sample's map, sidecar and PGM, byte for byte
    sdir = _sample_dir(ctx.tmp, ctx.data)
    clean = ctx.tmp / "clean.tmf"
    assert main(["infer", "--checkpoint", ctx.ckpt, "--sample", str(sdir),
                 "--out", str(clean), "--pgm"]) == EXIT_OK
    out = ctx.tmp / "m.tmf"
    ctx.same_bytes = [(Path(f"{clean}{ext}"), Path(f"{out}{ext}"))
                      for ext in ("", ".meta.json", ".pgm")]
    _nan_at_invalid_pixels(sdir)
    return _infer_argv(ctx, sdir, "--pgm")


def _infer_overflowing_extents(ctx):
    # extents whose product wraps in int64 to a negative element count
    sdir = _sample_dir(ctx.tmp, ctx.data)
    (sdir / "f_rgb.tmf").write_bytes(
        b"TMF1" + struct.pack("<BB3I", 2, 3, 2**32 - 1, 2**32 - 1, 4))
    return _infer_argv(ctx, sdir)


def _eval_header_negative_seed(ctx):
    ck = load_checkpoint(ctx.ckpt)
    ck["config"]["seed"] = -1
    ctx.ckpt = str(ctx.tmp / "bad.ckpt")
    save_checkpoint(ctx.ckpt, ck["arrays"], ck["step"], ck["seed"],
                    ck["config_hash"], ck["config"])
    return _eval_argv(ctx)


def _eval_bad_limit_before_any_read(ctx):
    # neither the checkpoint nor the dataset exists: the limit is checked first
    return ["eval", "--checkpoint", str(ctx.tmp / "none.ckpt"),
            "--data", str(ctx.tmp / "none"), "--out", str(ctx.tmp / "r.json"),
            "--limit", "0.3", "--limit", "nan"]


def _infer_two_classes_without_class_name(ctx):
    # the sample folder does not exist: the class is settled before any read
    cfg = {section: dict(values) for section, values in SMALL_OVERRIDES.items()}
    cfg["data"]["classes"] = ["bagel", "dowel"]
    path, data = ctx.tmp / "two.json", str(ctx.tmp / "two-data")
    path.write_text(json.dumps(cfg))
    ctx.ckpt = str(ctx.tmp / "two.ckpt")
    assert main(["gen-data", "--config", str(path), "--out", data]) == EXIT_OK
    assert main(["train", "--config", str(path), "--data", data,
                 "--out", ctx.ckpt]) == EXIT_OK
    return _infer_argv(ctx, ctx.tmp / "none")


def _gradcheck_exceeds_tolerance(ctx):
    import triad.cli as cli
    from triad.autograd import GradCheckReport
    ctx.monkeypatch.setattr(cli, "run_gradcheck",
                            lambda **kw: GradCheckReport({"w": 1.0}))
    return ["gradcheck"]


EXIT_CODE_TABLE = [
    ("gen-data-unknown-config-key",
     _bad_config("gen-data", {"train": {"step_count": 5}}), EXIT_CONFIG),
    ("gen-data-classes-not-a-list",
     _bad_config("gen-data", {"data": {"classes": "bagel"}}), EXIT_CONFIG),
    ("gen-data-empty-class-name",
     _bad_config("gen-data", {"data": {"classes": [""]}}), EXIT_CONFIG),
    ("gen-data-duplicate-class-names",
     _bad_config("gen-data", {"data": {"classes": ["bagel", "bagel"]}}), EXIT_CONFIG),
    ("train-prompt-states-not-a-list",
     _bad_config("train", {"prompts": {"states": "[c]"}}), EXIT_CONFIG),
    ("train-no-prompt-states",
     _bad_config("train", {"prompts": {"states": []}}), EXIT_CONFIG),
    ("train-steps-boolean",
     _bad_config("train", {"train": {"steps": True}}), EXIT_CONFIG),
    ("train-top-k-above-experts",
     _bad_config("train", {"model": {"top_k": 9}}), EXIT_CONFIG),
    ("train-no-experts",
     _bad_config("train", {"model": {"n_experts": 0}}), EXIT_CONFIG),
    ("train-text-width-one",
     _bad_config("train", {"model": {"d_text": 1}}), EXIT_CONFIG),
    ("train-dropout-above-one",
     _bad_config("train", {"model": {"dropout_rate": 1.5}}), EXIT_CONFIG),
    ("gen-data-border-leaves-no-pixel",
     _bad_config("gen-data", {"data": {"border": 100}}), EXIT_CONFIG),
    ("train-gacm-3d-width-one",
     _bad_config("train", {"data": {"d_3d": 1}}), EXIT_CONFIG),
    ("gen-data-negative-rgb-width",
     _bad_config("gen-data", {"data": {"d_rgb": -1}}), EXIT_CONFIG),
    ("train-mlp-3d-width-zero",
     _bad_config("train", {"data": {"d_3d": 0}, "model": {"mapper": "mlp"}}),
     EXIT_CONFIG),
    ("gen-data-nan-noise-sigma",
     _bad_config("gen-data", {"data": {"noise_sigma": float("nan")}}), EXIT_CONFIG),
    ("train-adam-eps-zero",
     _bad_config("train", {"train": {"adam_eps": 0.0}}), EXIT_CONFIG),
    ("gen-data-negative-seed",
     lambda ctx: ["gen-data", "--config", ctx.cfg, "--out", str(ctx.tmp / "d"),
                  "--seed", "-1"], EXIT_CONFIG),
    ("train-negative-seed", lambda ctx: [*_train_argv(ctx), "--seed", "-3"],
     EXIT_CONFIG),
    ("gradcheck-negative-seed", lambda ctx: ["gradcheck", "--seed", "-2"], EXIT_CONFIG),
    ("gen-data-unwritable-out", _gen_data_unwritable, EXIT_IO),
    ("train-missing-dataset",
     lambda ctx: ["train", "--config", ctx.cfg, "--data", str(ctx.tmp / "none"),
                  "--out", str(ctx.tmp / "ck")], EXIT_IO),
    ("train-truncated-manifest", _train_truncated_manifest, EXIT_IO),
    ("train-nan-in-train-sample", _train_nan_sample, EXIT_VALIDATION),
    ("train-nan-at-invalid-pixels", _train_nan_at_invalid_pixels, EXIT_OK),
    ("train-anomalous-train-sample", _train_anomalous_sample, EXIT_VALIDATION),
    ("train-feature-width-mismatch", _train_width_mismatch, EXIT_VALIDATION),
    ("eval-header-classes-not-a-list", _eval_header_classes_not_a_list, EXIT_CONFIG),
    ("eval-header-negative-seed", _eval_header_negative_seed, EXIT_CONFIG),
    ("eval-nan-at-valid-pixel", _eval_nan_at_valid_pixel, EXIT_VALIDATION),
    ("eval-gt-grid-mismatch", _eval_gt_grid_mismatch, EXIT_VALIDATION),
    ("eval-feature-width-mismatch", _eval_width_mismatch, EXIT_VALIDATION),
    ("eval-limit-not-a-number", lambda ctx: _eval_argv(ctx, "--limit", "abc"),
     EXIT_CONFIG),
    ("eval-limit-out-of-range", lambda ctx: _eval_argv(ctx, "--limit", "2"),
     EXIT_CONFIG),
    ("eval-limit-nan-before-any-read", _eval_bad_limit_before_any_read, EXIT_CONFIG),
    ("eval-limits-share-a-report-key",
     lambda ctx: _eval_argv(ctx, "--limit", "0.1234567", "--limit", "0.1234568"),
     EXIT_CONFIG),
    ("train-repeated-fpr-limit",
     _bad_config("train", {"metrics": {"fpr_limits": [0.3, 0.01, 0.3]}}), EXIT_CONFIG),
    ("eval-nan-in-checkpoint-array", _eval_nan_in_checkpoint, EXIT_IO),
    ("eval-manifest-id-not-a-string", _edit_manifest(_set_test_field("id", 5)), EXIT_IO),
    ("eval-manifest-class-not-a-string",
     _edit_manifest(_set_test_field("class", ["bagel"])), EXIT_IO),
    ("eval-manifest-unknown-split",
     _edit_manifest(_set_test_field("split", "validation")), EXIT_IO),
    ("eval-manifest-is-anomalous-string",
     _edit_manifest(_set_test_field("is_anomalous", "false")), EXIT_IO),
    ("eval-manifest-duplicate-id",
     _edit_manifest(_set_test_field("id", "test-00000", index=1)), EXIT_IO),
    ("eval-manifest-id-parent-path",
     _edit_manifest(_set_test_field("id", "../samples/test-00001")), EXIT_IO),
    ("eval-manifest-id-absolute", _eval_manifest_id_absolute, EXIT_IO),
    ("eval-no-test-samples", _edit_manifest(_drop_split("test")), EXIT_VALIDATION),
    ("train-no-train-samples", _edit_manifest(_drop_split("train"), _train_argv),
     EXIT_VALIDATION),
    ("eval-gt-value-two", _eval_gt_value_two, EXIT_VALIDATION),
    ("infer-nan-at-valid-pixel", _infer_nan_at_valid_pixel, EXIT_VALIDATION),
    ("infer-nan-filled-mask", _infer_nan_filled_mask, EXIT_VALIDATION),
    ("eval-huge-at-valid-pixel", _eval_huge_at_valid_pixel, EXIT_VALIDATION),
    ("eval-huge-at-valid-pixel-pooled", _eval_huge_at_valid_pixel_pooled,
     EXIT_VALIDATION),
    ("infer-huge-at-valid-pixel", _infer_huge_at_valid_pixel, EXIT_VALIDATION),
    ("infer-huge-at-invalid-pixel", _infer_huge_at_invalid_pixel, EXIT_OK),
    ("infer-nan-at-invalid-pixels", _infer_nan_at_invalid_pixels, EXIT_OK),
    ("infer-nan-in-checkpoint-array", _infer_nan_in_checkpoint, EXIT_IO),
    ("infer-overflowing-tmf-extents", _infer_overflowing_extents, EXIT_IO),
    ("infer-two-classes-without-class-name", _infer_two_classes_without_class_name,
     EXIT_CONFIG),
    ("infer-missing-sample",
     lambda ctx: _infer_argv(ctx, ctx.tmp / "none"), EXIT_IO),
    ("gradcheck-unknown-config-key",
     _bad_config("gradcheck", {"train": {"step_count": 5}}), EXIT_CONFIG),
    ("gradcheck-exceeds-tolerance", _gradcheck_exceeds_tolerance, EXIT_VALIDATION),
]


@pytest.mark.parametrize("make_argv,expected",
                         [case[1:] for case in EXIT_CODE_TABLE],
                         ids=[case[0] for case in EXIT_CODE_TABLE])
def test_exit_code_table(tmp_path, cfg_path, data_dir, checkpoint, capsys,
                         monkeypatch, make_argv, expected):
    ctx = SimpleNamespace(tmp=tmp_path, cfg=cfg_path, data=data_dir,
                          ckpt=checkpoint, monkeypatch=monkeypatch, same_bytes=[])
    argv = make_argv(ctx)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code == expected
    assert not caught, [str(w.message) for w in caught]  # each a stderr line
    if expected == EXIT_OK:
        assert capsys.readouterr().err == ""
    else:
        assert _one_line_error(capsys)
    for want, got in ctx.same_bytes:
        assert got.read_bytes() == want.read_bytes(), got.name


def test_module_entry_point_maps_errors_to_exit_codes(tmp_path, data_dir,
                                                      checkpoint):
    import triad
    sdir = _sample_dir(tmp_path, data_dir)
    _nan_at_valid_pixel(sdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(triad.__file__).parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "triad.cli", "infer", "--checkpoint", checkpoint,
         "--sample", str(sdir), "--out", str(tmp_path / "m.tmf")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_VALIDATION
    err = proc.stderr.strip()
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "non-finite" in err


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_cli_asks_for_one_blas_thread_unless_one_was_chosen(preset, expected):
    import triad
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(triad.__file__).parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, triad.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected
