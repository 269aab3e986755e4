"""Tests for test-set inference and the per-class metrics report."""

import contextlib
import hashlib
import threading

import numpy as np
import pytest

import triad.evaluate as ev
from triad.config import build_run_config, resolve_config
from triad.evaluate import OracleMismatchError, evaluate, infer_maps
from triad.metrics import MetricError, pixel_auroc
from triad.model import Model, ModelDims
from triad.autograd import NonFiniteError, no_grad
from triad.scoring import FusionWeights, fuse, psi_3d, psi_rgb, psi_text
from triad.synthdata import LabeledSample, SynthConfig, gen_dataset
from triad.tmf import canonical_json
from triad.trainer import train

DIMS = ModelDims(d_rgb=5, d_3d=7, d_text=8, n_experts=3, top_k=2,
                 dropout_rate=0.0)


def _data(classes=("bagel", "carrot"), seed=0):
    cfg = SynthConfig(classes=list(classes), n_train=2, n_test=4, height=8,
                      width=8, d_latent=3, d_rgb=DIMS.d_rgb, d_3d=DIMS.d_3d)
    return gen_dataset(cfg, seed=seed)


def test_infer_maps_shape_and_invalid_zeroing():
    _, test = _data(classes=("bagel",))
    model = Model(DIMS, seed=0)
    s = test[0]
    final, score = infer_maps(model, s, FusionWeights())
    assert final.shape == s.mask.shape
    assert (final[~s.mask] == 0.0).all()
    assert (final >= 0.0).all()
    assert score == final[s.mask].max()



def _full_grid_maps(model, s, fusion):
    """Scoring as it was before only the valid rows were forwarded: every
    pixel's row, then the invalid pixels cleared."""
    with no_grad():
        rows = model.forward_sample(s.f_rgb, s.f_3d)
        anchor = model.text_anchor(s.class_name, mode="eval").data
        fused = fuse(psi_rgb(rows["f_rgb"].data, rows["f_3d_to_rgb"].data),
                     psi_3d(rows["f_3d"].data, rows["f_rgb_to_3d"].data),
                     psi_text(anchor, rows["f_rgb_to_text"].data,
                              rows["f_3d_to_text"].data), fusion).reshape(s.mask.shape)
    final = fused.copy()
    final[~s.mask] = 0.0
    return final, float(fused[s.mask].max())


def test_infer_maps_matches_the_full_grid_on_a_sparse_mask():
    # a quarter of the pixels valid; NaN at every invalid pixel must not reach the map
    cfg = SynthConfig(classes=["bagel"], n_train=1, n_test=4, height=32, width=32,
                      border=8, d_latent=3, d_rgb=DIMS.d_rgb, d_3d=DIMS.d_3d)
    _, test = gen_dataset(cfg, seed=6)
    model = Model(DIMS, seed=6)
    for s in test:
        want, want_score = _full_grid_maps(model, s, FusionWeights())
        holed = LabeledSample(s.class_name, s.f_rgb.copy(), s.f_3d.copy(), s.mask,
                              s.gt_pixels, s.is_anomalous)
        holed.f_rgb[~s.mask] = np.nan
        holed.f_3d[~s.mask] = np.nan
        got, score = infer_maps(model, holed, FusionWeights())
        np.testing.assert_allclose(got[s.mask], want[s.mask], rtol=1e-13, atol=0)
        assert (got[~s.mask] == 0.0).all()
        assert score == pytest.approx(want_score, rel=1e-13, abs=0)


def test_infer_maps_all_invalid_mask_gives_zero_map_and_score():
    _, test = _data(classes=("bagel",))
    s = test[0]
    mask = np.zeros_like(s.mask)
    empty = LabeledSample(s.class_name, np.full_like(s.f_rgb, np.nan),
                          np.full_like(s.f_3d, np.nan), mask, s.gt_pixels, False)
    final, score = infer_maps(Model(DIMS, seed=0), empty, FusionWeights())
    assert final.shape == mask.shape
    assert (final == 0.0).all()
    assert score == 0.0 and type(score) is float


def test_infer_maps_deterministic():
    _, test = _data(classes=("bagel",))
    model = Model(DIMS, seed=1)
    a, sa = infer_maps(model, test[0], FusionWeights())
    b, sb = infer_maps(model, test[0], FusionWeights())
    np.testing.assert_array_equal(a, b)
    assert sa == sb


def test_infer_maps_same_bytes_with_and_without_a_graph(monkeypatch):
    _, test = _data(classes=("bagel",))
    model = Model(DIMS, seed=5)
    anchor = model.text_anchor("bagel").data
    for s in test:
        for a in (None, anchor):
            no_graph = infer_maps(model, s, FusionWeights(), a)
            with monkeypatch.context() as m:
                m.setattr(ev, "no_grad", contextlib.nullcontext)
                graph = infer_maps(model, s, FusionWeights(), a)
            assert no_graph[0].tobytes() == graph[0].tobytes()
            assert no_graph[1] == graph[1]
    assert model.text_anchor("bagel")._parents  # grad mode is on again


def test_evaluate_report_structure():
    _, test = _data()
    model = Model(DIMS, seed=2)
    report = evaluate(model, test, FusionWeights(), [0.3, 0.01])
    assert sorted(report["classes"]) == ["bagel", "carrot"]
    assert report["sample_counts"] == {"bagel": 4, "carrot": 4}
    for entry in report["classes"].values():
        assert set(entry) == {"i_auroc", "p_auroc", "aupro@0.3", "aupro@0.01"}
        for v in entry.values():
            assert 0.0 <= v <= 1.0
    for key, v in report["average"].items():
        per = [report["classes"][c][key] for c in report["classes"]]
        assert v == pytest.approx(np.mean(per), abs=1e-12)


def test_evaluate_without_samples_raises_metric_error():
    with pytest.raises(MetricError, match="no test samples"):
        evaluate(Model(DIMS, seed=2), [], FusionWeights(), [0.3])


def test_evaluate_oracle_check_passes_on_real_model():
    _, test = _data(classes=("bagel",), seed=3)
    model = Model(DIMS, seed=3)
    evaluate(model, test, FusionWeights(), [0.3], oracle_check=True)


def test_evaluate_oracle_check_catches_corruption(monkeypatch):
    _, test = _data(classes=("bagel",), seed=4)
    model = Model(DIMS, seed=4)
    import triad.evaluate as ev

    def wrong_auroc(scores, labels):
        return 0.123

    monkeypatch.setattr(ev, "auroc", wrong_auroc)
    with pytest.raises(OracleMismatchError):
        ev.evaluate(model, test, FusionWeights(), [0.3], oracle_check=True)


def test_oracle_check_sweeps_once_per_class_and_integrates_per_limit(monkeypatch):
    # the benchmark counts `aupro_exhaustive` calls and replaces it with a
    # function of positional arguments only, so this call shape is pinned
    _, test = _data(seed=5)
    model = Model(DIMS, seed=5)
    sweeps, integrations = [], []

    def record(calls, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((args, kwargs, out))
            return out
        return wrapper

    monkeypatch.setattr(ev, "pro_points_exhaustive", record(sweeps, ev.pro_points_exhaustive))
    monkeypatch.setattr(ev, "aupro_exhaustive", record(integrations, ev.aupro_exhaustive))
    evaluate(model, test, FusionWeights(), [0.3, 0.05], oracle_check=True)
    assert len(sweeps) == 2  # one per class
    assert [(len(args), kwargs, args[3]) for args, kwargs, _ in integrations] == [
        (5, {}, 0.3), (5, {}, 0.05)] * 2
    for c, (_, _, points) in enumerate(sweeps):  # each class's limits share its sweep
        assert integrations[2 * c][0][4] is integrations[2 * c + 1][0][4] is points


# SHA-256 of the canonical-JSON report of an oracle-checked evaluation, and of
# the anomaly map of the last (anomalous) test sample, for a 2-class 8x8 head
# trained 20 steps at the default settings; any change to the bytes of
# training, scoring or the metrics shows here
PINNED_REPORT_SHA256 = "0bf77ecb107ca54cd3ae1473049e87d5d0f1ad784bc0b829b5bb028ea978f067"
PINNED_MAP_SHA256 = "f7608d0ce83774196da75c99e88b6591468e52cabf1d628107bb629f91153bf8"


def test_report_and_map_bytes_are_pinned():
    cfg = build_run_config(resolve_config({
        "data": {"classes": ["bagel", "dowel"], "n_train": 16, "n_test": 8,
                 "height": 8, "width": 8},
        "train": {"steps": 20}}))
    train_samples, test_samples = gen_dataset(cfg.data, cfg.seed)
    model = Model(cfg.dims, seed=cfg.seed, catalog=cfg.catalog,
                  mapper_kind=cfg.mapper_kind)
    train(cfg.train, model, train_samples)
    report = evaluate(model, test_samples, cfg.fusion, cfg.fpr_limits,
                      oracle_check=True)
    final, _ = infer_maps(model, test_samples[-1], cfg.fusion)
    assert test_samples[-1].is_anomalous
    assert hashlib.sha256(canonical_json(report)).hexdigest() == PINNED_REPORT_SHA256
    assert hashlib.sha256(final.tobytes()).hexdigest() == PINNED_MAP_SHA256


@pytest.fixture(scope="module")
def highres():
    """A 2-class head trained 20 steps at 8x8 and a 40x40 test split, whose
    samples hold 1444 valid rows each, above `_POOL_MIN_ROWS`."""
    overrides = {"data": {"classes": ["bagel", "dowel"], "n_train": 16, "n_test": 8,
                          "height": 8, "width": 8}, "train": {"steps": 20}}
    cfg = build_run_config(resolve_config(overrides))
    train_samples, _ = gen_dataset(cfg.data, cfg.seed)
    model = Model(cfg.dims, seed=cfg.seed, catalog=cfg.catalog,
                  mapper_kind=cfg.mapper_kind)
    train(cfg.train, model, train_samples)
    overrides["data"].update(height=40, width=40)
    _, test_samples = gen_dataset(build_run_config(resolve_config(overrides)).data,
                                  cfg.seed)
    assert min(np.count_nonzero(s.mask) for s in test_samples) >= ev._POOL_MIN_ROWS
    return model, test_samples, cfg


def _two_cpus(m, gate: int) -> list:
    """Give `evaluate` two usable CPUs and a pool gate of `gate` rows; the
    returned list gains the arguments of each thread pool it builds."""
    built = []

    class CountedPool(ev.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    m.setattr(ev, "_usable_cpus", lambda: 2)
    m.setattr(ev, "_POOL_MIN_ROWS", gate)
    m.setattr(ev, "ThreadPoolExecutor", CountedPool)
    return built


def test_pooled_scoring_gives_the_serial_bytes(monkeypatch, highres):
    model, test, cfg = highres
    above_every_sample = max(np.count_nonzero(s.mask) for s in test) + 1
    reports, maps, pools = {}, {}, {}
    for gate in (0, above_every_sample):  # pooled, then serial
        seen = maps[gate] = []

        def recording_pixel_auroc(class_maps, gts, valids, seen=seen):
            seen.extend(class_maps)
            return pixel_auroc(class_maps, gts, valids)

        with monkeypatch.context() as m:
            pools[gate] = _two_cpus(m, gate)
            m.setattr(ev, "pixel_auroc", recording_pixel_auroc)
            reports[gate] = canonical_json(evaluate(model, test, cfg.fusion,
                                                    cfg.fpr_limits, oracle_check=True))
    assert pools == {0: [(2,)], above_every_sample: []}
    assert reports[0] == reports[above_every_sample]
    in_class_order = sorted(test, key=lambda s: s.class_name)
    assert len(maps[0]) == len(maps[above_every_sample]) == len(test)
    for s, pooled, serial in zip(in_class_order, maps[0], maps[above_every_sample]):
        alone, _ = infer_maps(model, s, cfg.fusion)
        assert pooled.tobytes() == serial.tobytes() == alone.tobytes()


def test_default_split_is_scored_without_a_pool(monkeypatch):
    cfg = build_run_config(resolve_config({}))
    _, test = gen_dataset(cfg.data, cfg.seed)

    def no_pool(*args, **kwargs):
        raise AssertionError("a 16x16 split must be scored serially")

    monkeypatch.setattr(ev, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ev, "ThreadPoolExecutor", no_pool)
    model = Model(cfg.dims, seed=cfg.seed, catalog=cfg.catalog,
                  mapper_kind=cfg.mapper_kind)
    report = evaluate(model, test, cfg.fusion, cfg.fpr_limits)
    assert sum(report["sample_counts"].values()) == len(test)


def test_a_worker_error_reaches_the_caller_and_no_thread_outlives_it(monkeypatch,
                                                                      highres):
    model, test, cfg = highres
    k = 5  # a later sample of the first class: the workers have started
    bad = LabeledSample(test[k].class_name, test[k].f_rgb.copy(), test[k].f_3d,
                        test[k].mask, test[k].gt_pixels, test[k].is_anomalous)
    r, c = np.argwhere(bad.mask)[0]
    bad.f_rgb[r, c, 0] = 1e200
    samples = test[:k] + [bad] + test[k + 1:]
    threads = threading.active_count()
    errors, pools = {}, {}
    for gate in (0, 10**9):  # pooled, then serial
        with monkeypatch.context() as m:
            pools[gate] = _two_cpus(m, gate)
            with pytest.raises(NonFiniteError) as exc:
                evaluate(model, samples, cfg.fusion, cfg.fpr_limits)
        errors[gate] = str(exc.value)
        assert threading.active_count() == threads
    assert pools == {0: [(2,)], 10**9: []}
    assert errors[0] == errors[10**9]
    assert "too large for the head" in errors[0]
