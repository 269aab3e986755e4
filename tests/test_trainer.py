"""Tests for the training loop, Adam updates, and the gradient-check entry point."""

import logging

import numpy as np
import pytest

from triad.autograd import Tensor, add, gather_rows, mul
from triad.config import build_run_config, resolve_config
from triad.losses import LossWeights, text_loss, visual_loss
from triad.model import Model, ModelDims
from triad.synthdata import LabeledSample, SynthConfig, gen_dataset
from triad.trainer import (
    AdamState,
    TrainConfig,
    TrainingContractError,
    batch_loss,
    filter_nonfinite,
    run_gradcheck,
    train,
    train_step,
)

SMALL_DIMS = ModelDims(d_rgb=5, d_3d=7, d_text=8, n_experts=3, top_k=2,
                       dropout_rate=0.0)


def _tiny_data(seed=0):
    cfg = SynthConfig(classes=["bagel"], n_train=6, n_test=4, height=6, width=6,
                      d_latent=3, d_rgb=SMALL_DIMS.d_rgb, d_3d=SMALL_DIMS.d_3d)
    return gen_dataset(cfg, seed=seed)


def _model(seed=0, dims=SMALL_DIMS, **kw):
    return Model(dims, seed=seed, **kw)


# ---------------------------------------------------------------------------
# config and contract


def test_train_config_validation():
    TrainConfig().validate()
    with pytest.raises(ValueError):
        TrainConfig(steps=-1).validate()
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=float("nan")).validate()
    with pytest.raises(ValueError):
        TrainConfig(adam_beta1=1.0).validate()
    for eps in (0.0, -1e-8, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="adam_eps"):
            TrainConfig(adam_eps=eps).validate()


def test_anomalous_sample_in_batch_rejected():
    train_samples, test_samples = _tiny_data()
    anom = next(s for s in test_samples if s.is_anomalous)
    model = _model()
    cfg = TrainConfig(steps=1, batch_size=2)
    with pytest.raises(TrainingContractError):
        train_step([train_samples[0], anom], model, AdamState(model), cfg, 0)


def test_empty_training_set_rejected():
    with pytest.raises(ValueError):
        train(TrainConfig(steps=1), _model(), [])


# ---------------------------------------------------------------------------
# non-finite gradient filtering


_SLICES = {"a": slice(0, 4), "b": slice(4, 6), "c": slice(6, 7), "d": slice(7, 9)}


def test_filter_nonfinite_zeroes_bad_tensors_only():
    good_a, good_d = np.arange(4.0), np.array([-0.0, 1e-300])
    grad = np.concatenate([good_a, [1.0, np.nan], [np.inf], good_d])
    filter_nonfinite(grad, _SLICES)
    # bits of the finite tensors untouched, the -0.0 included
    assert grad[_SLICES["a"]].tobytes() == good_a.tobytes()
    assert grad[_SLICES["d"]].tobytes() == good_d.tobytes()
    np.testing.assert_array_equal(grad[_SLICES["b"]], np.zeros(2))
    np.testing.assert_array_equal(grad[_SLICES["c"]], np.zeros(1))


def test_filter_nonfinite_logs_warning(caplog):
    grad = np.array([0.5, np.nan])
    with caplog.at_level(logging.WARNING, logger="triad.trainer"):
        filter_nonfinite(grad, {"proto.wq": slice(0, 1), "layer.weight": slice(1, 2)})
    assert [r.getMessage() for r in caplog.records] == [
        "non-finite gradient filtered for layer.weight"]
    np.testing.assert_array_equal(grad, [0.5, 0.0])


# ---------------------------------------------------------------------------
# the parameter buffer


def _assert_views_of_buffer(model):
    flat = model.store.flat
    for name, t in model.store.items():
        assert np.shares_memory(t.data, flat), name
    np.testing.assert_array_equal(
        np.concatenate([a.ravel() for a in model.export_arrays().values()]), flat)


def test_parameters_stay_views_of_one_buffer():
    train_samples, _ = _tiny_data()
    model = _model(seed=15)
    cfg = TrainConfig(steps=2, batch_size=2)
    _assert_views_of_buffer(model)
    arrays, _ = train(cfg, model, train_samples)
    _assert_views_of_buffer(model)

    other = _model(seed=16)
    other.load_arrays(arrays)
    _assert_views_of_buffer(other)
    assert other.store.flat.tobytes() == model.store.flat.tobytes()

    before = model.store.flat.copy()
    train_step(train_samples[:2], model, AdamState(model), cfg, 0)
    _assert_views_of_buffer(model)
    assert not np.array_equal(model.store.flat, before)


def test_export_arrays_are_copies_in_buffer_order():
    model = _model(seed=17)
    arrays = model.export_arrays()
    assert list(arrays) == list(model.store.slices)
    for name, s in model.store.slices.items():
        np.testing.assert_array_equal(arrays[name].ravel(), model.store.flat[s])
        assert not np.shares_memory(arrays[name], model.store.flat), name
    arrays["gacm.ln_gain"] += 1.0
    np.testing.assert_array_equal(model.store["gacm.ln_gain"].data, 1.0)


def test_register_after_packing_raises():
    model = _model(seed=18)
    with pytest.raises(ValueError, match="packed"):
        model.store.register("late.weight", np.zeros(2))


# ---------------------------------------------------------------------------
# optimization behaviour


def test_zero_learning_rate_leaves_parameters_bit_identical():
    train_samples, _ = _tiny_data()
    model = _model()
    before = model.export_arrays()
    train(TrainConfig(steps=3, batch_size=2, learning_rate=0.0), model,
          train_samples)
    after = model.export_arrays()
    for name in before:
        np.testing.assert_array_equal(before[name], after[name])


def test_zero_steps_returns_initial_checkpoint():
    train_samples, _ = _tiny_data()
    model = _model()
    before = model.export_arrays()
    arrays, log_rows = train(TrainConfig(steps=0), model, train_samples)
    assert log_rows == []
    for name in before:
        np.testing.assert_array_equal(arrays[name], before[name])


def test_training_is_deterministic():
    train_samples, _ = _tiny_data()
    cfg = TrainConfig(steps=5, batch_size=3, learning_rate=0.01)
    arrays1, log1 = train(cfg, _model(seed=1), train_samples)
    arrays2, log2 = train(cfg, _model(seed=1), train_samples)
    assert log1 == log2
    for name in arrays1:
        np.testing.assert_array_equal(arrays1[name], arrays2[name])


def test_loss_decreases_over_training():
    train_samples, _ = _tiny_data()
    cfg = TrainConfig(steps=40, batch_size=4, learning_rate=0.02)
    _, log_rows = train(cfg, _model(seed=2), train_samples)
    assert log_rows[-1]["l_total"] < log_rows[0]["l_total"]


def test_loss_log_schema_and_recomposition():
    train_samples, _ = _tiny_data()
    _, log_rows = train(TrainConfig(steps=2, batch_size=2), _model(seed=3),
                        train_samples)
    assert [r["step"] for r in log_rows] == [0, 1]
    for r in log_rows:
        assert r["l_total"] == pytest.approx(r["l_vis"] + r["l_text"], abs=1e-12)


def test_batch_loss_matches_manual_average():
    train_samples, _ = _tiny_data()
    model = _model(seed=4)
    batch = train_samples[:2]
    w = LossWeights()
    loss, l_vis, l_text = batch_loss(model, batch, w, mode="eval")
    assert float(loss.data) == pytest.approx(l_vis + l_text, abs=1e-12)
    singles = [float(batch_loss(model, [s], w, mode="eval")[0].data) for s in batch]
    assert float(loss.data) == pytest.approx(np.mean(singles), abs=1e-12)


def test_train_step_uses_seeded_dropout():
    # identical models and batches must produce identical losses at a given step
    train_samples, _ = _tiny_data()
    dims = ModelDims(d_rgb=5, d_3d=7, d_text=8, n_experts=3, top_k=2,
                     dropout_rate=0.5)
    cfg = TrainConfig(steps=1, batch_size=2, learning_rate=0.01)
    outs = []
    for _ in range(2):
        model = _model(seed=5, dims=dims)
        outs.append(train_step(train_samples[:2], model, AdamState(model), cfg, 0))
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# gradient check entry point


def test_run_gradcheck_passes_default_tolerance():
    report = run_gradcheck(seed=0)
    assert report.passed(), report


def test_run_gradcheck_covers_every_parameter_once():
    model = Model(ModelDims(d_rgb=4, d_3d=6, d_text=8, n_experts=3, top_k=2,
                            dropout_rate=0.0), seed=1)
    report = run_gradcheck(seed=0)
    assert sorted(report.per_parameter_errors) == sorted(model.store.slices)


# ---------------------------------------------------------------------------
# stacked-batch graph against a per-sample reference


def _reference_batch_loss(model, batch, w, mode="eval", dropout_rng=None):
    """Every module once per sample and the adaptor once per class, sorted.

    Each class draws its own 1 x D_text dropout mask, in sorted class order.
    Each sample runs on its full grid; its valid rows are then picked, and its
    loss is the mean over them.
    """
    classes = sorted({s.class_name for s in batch})
    anchors = {c: model.text_anchor(c, mode=mode, dropout_rng=dropout_rng)
               for c in classes}
    l_vis = l_text = Tensor(0.0)
    for s in batch:
        f = model.forward_sample(s.f_rgb, s.f_3d)
        idx = np.flatnonzero(s.mask)
        f = {k: gather_rows(v, idx) for k, v in f.items()}
        rows = gather_rows(anchors[s.class_name], np.zeros(idx.size, dtype=np.intp))
        weights = np.full(idx.size, 1.0 / max(idx.size, 1))
        l_vis = add(l_vis, visual_loss(f["f_rgb"], f["f_3d"], f["f_rgb_to_3d"],
                                       f["f_3d_to_rgb"], w, weights))
        l_text = add(l_text, text_loss(f["f_rgb_to_text"], f["f_3d_to_text"],
                                       rows, w, weights))
    return add(mul(l_vis, 1.0 / len(batch)), mul(l_text, 1.0 / len(batch)))


def _loss_and_grads(model, build):
    model.store.zero_grad()
    loss = build()
    loss.backward()
    return float(loss.data), {n: (np.zeros_like(p.data) if p.grad is None else p.grad)
                         for n, p in model.store.items()}


def _assert_matches_reference(model, batch, mode="eval", seed=0):
    w = LossWeights(lambda_v2g=1.0, lambda_g2v=0.5, lambda_v2t=2.0, lambda_g2t=0.75)
    got, got_g = _loss_and_grads(model, lambda: batch_loss(
        model, batch, w, mode=mode, dropout_rng=np.random.default_rng(seed))[0])
    ref, ref_g = _loss_and_grads(model, lambda: _reference_batch_loss(
        model, batch, w, mode=mode, dropout_rng=np.random.default_rng(seed)))
    assert abs(got - ref) <= 1e-12 * abs(ref)
    for name, g in ref_g.items():
        scale = np.abs(g).max()
        assert np.abs(got_g[name] - g).max() <= 1e-12 * scale, name
    return ref, ref_g


def _mixed_data():
    cfg = SynthConfig(classes=["bagel", "dowel", "tire"], n_train=3, n_test=2,
                      height=5, width=6, d_latent=3, d_rgb=SMALL_DIMS.d_rgb,
                      d_3d=SMALL_DIMS.d_3d)
    train_samples, _ = gen_dataset(cfg, seed=11)
    by_class = {}
    for s in train_samples:
        by_class.setdefault(s.class_name, []).append(s)
    # classes out of sorted order, one of them twice
    return [by_class["tire"][0], by_class["bagel"][0], by_class["tire"][1],
            by_class["dowel"][0], by_class["bagel"][2]]


def _without_valid_patches(s):
    return LabeledSample(s.class_name, s.f_rgb, s.f_3d, np.zeros_like(s.mask),
                         s.gt_pixels, s.is_anomalous)


def test_stacked_loss_matches_reference_mixed_classes():
    ref, grads = _assert_matches_reference(_model(seed=8), _mixed_data())
    assert ref > 0 and all(np.abs(g).max() > 0 for g in grads.values())


def test_stacked_loss_matches_reference_one_class():
    train_samples, _ = _tiny_data()
    _assert_matches_reference(_model(seed=9), train_samples[:4])


def test_stacked_loss_counts_sample_without_valid_patch(caplog):
    batch = _mixed_data()
    batch[1] = _without_valid_patches(batch[1])
    model = _model(seed=10)
    with caplog.at_level(logging.WARNING, logger="triad.losses"):
        _assert_matches_reference(model, batch)
    assert any("no valid patch" in r.getMessage() for r in caplog.records)
    # the empty sample still counts in the 1/B mean
    w = LossWeights()
    full = float(batch_loss(model, batch, w, mode="eval")[0].data)
    rest = float(batch_loss(model, batch[:1] + batch[2:], w, mode="eval")[0].data)
    assert full == pytest.approx(rest * (len(batch) - 1) / len(batch), rel=1e-12)


def test_stacked_loss_all_invalid_batch_is_zero(caplog):
    batch = [_without_valid_patches(s) for s in _mixed_data()]
    with caplog.at_level(logging.WARNING, logger="triad.losses"):
        ref, grads = _assert_matches_reference(_model(seed=12), batch)
    assert ref == 0.0 and all(not g.any() for g in grads.values())
    assert sum("no valid patch" in r.getMessage() for r in caplog.records) == len(batch)


@pytest.mark.parametrize("bad", [np.nan, 1e9], ids=["nan", "1e9"])
def test_values_at_invalid_pixels_cannot_reach_loss_or_gradients(bad):
    # invalid patches are dropped before the forward, so even a NaN there
    # leaves the value and every parameter gradient the same to the last bit
    batch = _mixed_data()
    model = _model(seed=19)
    w = LossWeights(lambda_v2g=1.0, lambda_g2v=0.5, lambda_v2t=2.0, lambda_g2t=0.75)

    def build(b):
        return lambda: batch_loss(model, b, w, mode="eval")[0]

    clean, clean_g = _loss_and_grads(model, build(batch))
    s = batch[2]
    assert not s.mask.all()
    f_rgb, f_3d = s.f_rgb.copy(), s.f_3d.copy()
    f_rgb[~s.mask] = bad
    f_3d[~s.mask] = -bad
    batch[2] = LabeledSample(s.class_name, f_rgb, f_3d, s.mask, s.gt_pixels,
                             s.is_anomalous)
    got, got_g = _loss_and_grads(model, build(batch))
    assert np.float64(got).tobytes() == np.float64(clean).tobytes()
    for name, g in clean_g.items():
        assert got_g[name].tobytes() == g.tobytes(), name


def test_stacked_loss_matches_reference_train_mode_dropout():
    dims = ModelDims(d_rgb=5, d_3d=7, d_text=8, n_experts=3, top_k=2,
                     dropout_rate=0.5)
    model = _model(seed=13, dims=dims)
    _assert_matches_reference(model, _mixed_data(), mode="train", seed=4)
    # one (C, D_text) dropout draw equals C one-row draws in sorted class order
    classes = ["bagel", "dowel", "tire"]
    rng = np.random.default_rng(5)
    one_by_one = np.concatenate([model.text_anchor(c, mode="train", dropout_rng=rng).data
                                 for c in classes])
    stacked = model.text_anchors(classes, mode="train",
                                 dropout_rng=np.random.default_rng(5)).data
    np.testing.assert_allclose(stacked, one_by_one, rtol=1e-12, atol=1e-14)


def test_stacked_loss_matches_reference_mlp_mapper():
    _assert_matches_reference(_model(seed=14, mapper_kind="mlp"), _mixed_data())


def _graph_nodes(root):
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def test_default_config_step_builds_at_most_160_nodes():
    # one graph per batch: the count does not grow with the batch size, each
    # affine map, LayerNorm and cosine is one node, and the valid rows are
    # picked before the forward, not gathered in the loss
    cfg = build_run_config(resolve_config())
    train_samples, _ = gen_dataset(cfg.data, cfg.seed)
    model = Model(cfg.dims, seed=cfg.seed, catalog=cfg.catalog)
    size = cfg.train.batch_size
    batch = [train_samples[i * len(train_samples) // size] for i in range(size)]
    assert len({s.class_name for s in batch}) == len(cfg.data.classes)
    loss, _, _ = batch_loss(model, batch, cfg.train.loss_weights, mode="train",
                            dropout_rng=np.random.default_rng(0))
    assert _graph_nodes(loss) <= 158


def test_gradcheck_objective_builds_at_most_88_nodes(monkeypatch):
    # every graph node, leaf results included, is made by autograd._make
    import triad.autograd as ag
    import triad.trainer as trainer_mod
    make = ag._make
    built = []

    def counting_make(*args):
        built.append(args)
        return make(*args)

    def one_objective(objective, params):
        monkeypatch.setattr(ag, "_make", counting_make)
        objective()
        monkeypatch.setattr(ag, "_make", make)
        return trainer_mod.GradCheckReport({})

    monkeypatch.setattr(trainer_mod, "finite_diff_gradient_check", one_objective)
    run_gradcheck()
    assert 0 < len(built) <= 86
