"""End-to-end tests of the command-line interface and its exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from triad.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from triad.tmf import load_checkpoint, read_tensor

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
    monkeypatch.setattr(ev, "auroc", lambda s: 0.123)
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
    from triad.tmf import save_checkpoint
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
