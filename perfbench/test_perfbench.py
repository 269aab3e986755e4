"""Fast tests of the benchmark itself: tiny runs, and each check on corrupted output.

Run from the checkout root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench_checks as bc  # noqa: E402
import bench_workloads as bw  # noqa: E402

import triad.evaluate as ev  # noqa: E402
import triad.oracles as oracles  # noqa: E402

TINY = bw.Sizes(classes=("bagel", "dowel"), n_train=16, n_test=8, grid=8, steps=40,
                batch_size=4, setup_steps=40, hr_grid=12, hr_n_test=8, setups=2)


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_tiny(name: str, trace: bool, work: Path, seed: int = 3) -> dict:
    result = bw.run_workload(name, seed, 0, trace, work, TINY)
    assert result["correct"], name
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")
    return result


@pytest.mark.parametrize("name", ["train", "score-highres"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_checks(name, trace, tmp_path):
    result = run_tiny(name, trace, tmp_path / "w")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())


def test_tiny_verify_traced(tmp_path):
    values = {k: v["value"] for k, v in run_tiny("verify", True, tmp_path / "w")
              ["metrics"].items()}
    assert values["autograd.objective_calls"] > 1000
    assert values["oracles.aupro_exhaustive_calls"] == 2 * len(TINY.classes)


def test_traced_counts_repeat(tmp_path):
    counts = []
    for k in range(2):
        result = run_tiny("train", True, tmp_path / f"w{k}")
        counts.append({m: v["value"] for m, v in result["metrics"].items()
                       if v["unit"] in ("count", "B")})
    assert counts[0] == counts[1]
    assert counts[0]["autograd.nodes_per_step"] > 0


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# -- each check rejects a corrupted output ----------------------------------------

def test_losses_finite_rejects():
    log = [{"step": i, "l_total": 1.0} for i in range(3)]
    bc.check_losses_finite(log, 3)
    with pytest.raises(bc.CheckError):
        bc.check_losses_finite(log[:2], 3)
    log[1]["l_total"] = float("nan")
    with pytest.raises(bc.CheckError):
        bc.check_losses_finite(log, 3)


def test_batch_loss_rejects():
    bc.check_batch_loss(0.75, 0.75)
    with pytest.raises(bc.CheckError):
        bc.check_batch_loss(0.75 * (1 + 1e-7), 0.75)


def test_recomputed_batch_loss_is_a_mean_of_cosine_terms():
    f = {"f_rgb": np.eye(3), "f_3d": np.eye(3), "f_rgb_to_3d": np.eye(3),
         "f_3d_to_rgb": -np.eye(3), "f_rgb_to_text": np.eye(3), "f_3d_to_text": np.eye(3)}
    weights = bw.config.build_run_config(bw.config.resolve_config()).train.loss_weights
    mask = np.array([True, True, False])
    # v2g 0, g2v 2 (opposite rows), v2t and g2t: 1 - cos to anchor e0 -> (0 + 1) / 2
    value = bc.recompute_batch_loss([f], [np.array([[1.0, 0.0, 0.0]])], [mask], weights)
    assert value == pytest.approx(0.0 + 2.0 + 0.5 + 0.5)


def test_directional_derivative_rejects():
    h = 1e-5
    bc.check_directional_derivative(2.0, 1.0 + 2.0 * h, 1.0 - 2.0 * h, h)
    with pytest.raises(bc.CheckError):
        bc.check_directional_derivative(2.0 * (1 + 1e-5), 1.0 + 2.0 * h, 1.0 - 2.0 * h, h)
    with pytest.raises(bc.CheckError):
        bc.check_directional_derivative(0.0, 1.0, 1.0, h)


def test_quality_rejects():
    bc.check_quality(0.97, 0.52)
    with pytest.raises(bc.CheckError):
        bc.check_quality(0.70, 0.52)
    with pytest.raises(bc.CheckError):
        bc.check_quality(0.90, 0.70)


def test_gradcheck_rejects():
    params = {"a": (2, 3), "b": (4,)}
    errors = {"a": 1e-7, "b": 2e-6}
    bc.check_gradcheck(errors, params, 1 + 2 * 10)
    with pytest.raises(bc.CheckError):
        bc.check_gradcheck({"a": 1e-7}, params, 21)
    with pytest.raises(bc.CheckError):
        bc.check_gradcheck({"a": 1e-7, "b": 2e-4}, params, 21)
    with pytest.raises(bc.CheckError):
        bc.check_gradcheck(errors, params, 20)


def test_oracle_eval_rejects_a_metric_that_disagrees_with_its_oracle(monkeypatch):
    cfg = bw.make_config(TINY, 5, grid=8, n_train=1, n_test=8, steps=1)
    _, test = bw.synthdata.gen_dataset(cfg.data, cfg.seed)
    model = bw.new_model(cfg)
    report = ev.evaluate(model, test, cfg.fusion, cfg.fpr_limits, oracle_check=True)
    bc.check_oracle_eval(None, report)
    real = oracles.aupro_exhaustive
    monkeypatch.setattr(ev, "aupro_exhaustive", lambda *a: real(*a) + 0.01)
    with pytest.raises(ev.OracleMismatchError) as caught:
        ev.evaluate(model, test, cfg.fusion, cfg.fpr_limits, oracle_check=True)
    with pytest.raises(bc.CheckError):
        bc.check_oracle_eval(caught.value, None)


def test_sidecar_and_invalid_pixels_reject():
    mask = np.zeros((4, 4), dtype=bool)
    mask[1:3, 1:3] = True
    written = np.where(mask, np.arange(16.0).reshape(4, 4), 0.0).astype(np.float32)
    bc.check_sidecar(written, mask, 10.0)
    bc.check_invalid_zero(written, mask)
    with pytest.raises(bc.CheckError):
        bc.check_sidecar(written, mask, 10.5)
    bumped = written.copy()
    bumped[1, 1] = 99.0
    with pytest.raises(bc.CheckError):
        bc.check_sidecar(bumped, mask, 10.0)
    leaked = written.copy()
    leaked[0, 0] = 0.25
    with pytest.raises(bc.CheckError):
        bc.check_invalid_zero(leaked, mask)


def test_rank_auroc_matches_pair_counting_with_ties():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 5, size=60).astype(float)
    labels = rng.random(60) < 0.4
    assert bc.rank_auroc(scores, labels) == pytest.approx(
        oracles.auroc_pair_counting(scores, labels), abs=1e-15)


def test_pixel_auroc_rejects():
    maps = [np.array([[0.1, 0.9], [0.4, 0.2]])]
    gts = [np.array([[False, True], [True, False]])]
    valids = [np.ones((2, 2), dtype=bool)]
    bc.check_pixel_auroc(maps, gts, valids, 1.0)
    with pytest.raises(bc.CheckError):
        bc.check_pixel_auroc(maps, gts, valids, 0.75)
