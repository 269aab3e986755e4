"""Tests for the cosine alignment losses and the total objective."""

import logging

import numpy as np
import pytest

from triad.autograd import DimensionMismatchError, NonFiniteError, Tensor
from triad.losses import (
    LossWeights,
    cosine_loss,
    sample_row_weights,
    text_loss,
    total_loss,
    visual_loss,
)


def _mean_weights(n):
    return np.full(n, 1.0 / n)


# ---------------------------------------------------------------------------
# cosine_loss


def test_identical_features_zero_loss():
    x = np.random.default_rng(0).standard_normal((6, 4))
    assert cosine_loss(x, x, _mean_weights(6)).item() == pytest.approx(0.0, abs=1e-12)


def test_orthogonal_features_unit_loss():
    pred = np.tile([1.0, 0.0], (5, 1))
    target = np.tile([0.0, 1.0], (5, 1))
    assert cosine_loss(pred, target, _mean_weights(5)).item() == pytest.approx(1.0)


def test_hand_average_of_sims():
    # two valid patches with cosine similarities 1 and 0 -> loss 0.5
    pred = np.array([[1.0, 0.0], [1.0, 0.0]])
    target = np.array([[2.0, 0.0], [0.0, 3.0]])
    assert cosine_loss(pred, target, _mean_weights(2)).item() == pytest.approx(0.5)


def test_antiparallel_maximum_loss():
    x = np.random.default_rng(1).standard_normal((4, 3))
    assert cosine_loss(x, -x, _mean_weights(4)).item() == pytest.approx(2.0, abs=1e-12)


def test_loss_within_cosine_bounds():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pred = rng.standard_normal((8, 5))
        target = rng.standard_normal((8, 5))
        v = cosine_loss(pred, target, _mean_weights(8)).item()
        assert 0.0 <= v <= 2.0


def test_empty_mask_contributes_zero_with_warning(caplog):
    # a sample with no valid patch adds no rows but still counts in the 1/B
    # mean, so it contributes exactly 0; an all-empty batch sums no rows
    pred = np.array([[1.0, 0.0], [1.0, 0.0]])
    target = np.array([[2.0, 0.0], [0.0, 3.0]])  # per-row losses 0 and 1
    with caplog.at_level(logging.WARNING, logger="triad.losses"):
        w = sample_row_weights([2, 0])
    np.testing.assert_array_equal(w, [0.25, 0.25])
    assert cosine_loss(pred, target, w).item() == pytest.approx(0.25)
    assert sum("no valid patch" in r.getMessage() for r in caplog.records) == 1
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="triad.losses"):
        w = sample_row_weights([0, 0, 0])
    assert w.shape == (0,)
    assert cosine_loss(np.ones((0, 2)), np.ones((0, 2)), w).item() == 0.0
    assert sum("no valid patch" in r.getMessage() for r in caplog.records) == 3


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        cosine_loss(np.ones((3, 2)), np.ones((3, 3)), _mean_weights(3))
    with pytest.raises(DimensionMismatchError):
        cosine_loss(np.ones((3, 2)), np.ones((3, 2)), _mean_weights(4))


def test_zero_row_hits_eps_guard_not_nan():
    pred = np.zeros((2, 3))
    target = np.ones((2, 3))
    v = cosine_loss(pred, target, _mean_weights(2)).item()
    assert np.isfinite(v)
    assert v == pytest.approx(1.0)  # clamped norm makes sim 0


def test_zero_row_gradient_is_finite_and_matches_finite_difference():
    # the norm is clamped at eps, so near a zero row the cosine is linear:
    # d/da cos = b / (eps * |b|), times the row weight 1/2 and the loss sign
    pred = np.array([[0.0, 0.0], [1.0, 2.0]])
    target = np.array([[1.0, 0.0], [1.0, 1.0]])
    p = Tensor(pred.copy(), requires_grad=True)
    cosine_loss(p, target, _mean_weights(2)).backward()
    assert np.isfinite(p.grad).all()
    np.testing.assert_array_equal(p.grad[0], [-5e7, 0.0])
    h = 1e-10  # keeps the perturbed row's norm inside the clamp
    for j in range(2):
        up, down = pred.copy(), pred.copy()
        up[0, j] += h
        down[0, j] -= h
        fd = (cosine_loss(up, target, _mean_weights(2)).item()
              - cosine_loss(down, target, _mean_weights(2)).item()) / (2 * h)
        assert fd == pytest.approx(p.grad[0, j], rel=1e-6, abs=1e-3)


# ---------------------------------------------------------------------------
# composite losses


def test_visual_loss_weighted_sum():
    rng = np.random.default_rng(4)
    f_rgb = rng.standard_normal((5, 3))
    f_3d = rng.standard_normal((5, 4))
    rows = _mean_weights(5)
    w = LossWeights(lambda_v2g=2.0, lambda_g2v=0.0)
    got = visual_loss(f_rgb, f_3d, f_3d * 0 + 1.0, f_rgb, w, rows).item()
    first = cosine_loss(f_3d * 0 + 1.0, f_3d, rows).item()
    assert got == pytest.approx(2.0 * first, abs=1e-12)


def test_visual_loss_perfect_mappings():
    rng = np.random.default_rng(5)
    f_rgb = rng.standard_normal((4, 3))
    f_3d = rng.standard_normal((4, 6))
    v = visual_loss(f_rgb, f_3d, f_3d, f_rgb, LossWeights(), _mean_weights(4)).item()
    assert v == pytest.approx(0.0, abs=1e-12)


def test_text_loss_parallel_and_antiparallel():
    anchor = np.tile([1.0, 0.0, 0.0], (4, 1))  # one anchor row per patch
    par = np.tile([2.0, 0.0, 0.0], (4, 1))
    anti = -par
    w, rows = LossWeights(), _mean_weights(4)
    assert text_loss(par, par, anchor, w, rows).item() == pytest.approx(0.0, abs=1e-12)
    assert text_loss(anti, anti, anchor, w, rows).item() == pytest.approx(4.0, abs=1e-12)


def test_text_loss_half_parallel_half_orthogonal():
    anchor = np.tile([1.0, 0.0], (4, 1))
    feats = np.array([[3.0, 0.0], [3.0, 0.0], [0.0, 2.0], [0.0, 2.0]])
    v = text_loss(feats, feats, anchor, LossWeights(), _mean_weights(4)).item()
    assert v == pytest.approx(1.0, abs=1e-12)


def test_text_loss_uses_one_shared_anchor():
    # the same anchor rows feed the RGB-side and 3D-side terms; passing the
    # rgb-side features on both slots must equal twice the one-sided term
    rng = np.random.default_rng(6)
    anchor = np.tile(rng.standard_normal((1, 4)), (5, 1))
    feats = rng.standard_normal((5, 4))
    both = text_loss(feats, feats, anchor, LossWeights(), _mean_weights(5)).item()
    one = cosine_loss(anchor, feats, _mean_weights(5)).item()
    assert both == pytest.approx(2.0 * one, abs=1e-12)


def test_text_loss_anchor_gradient_is_the_sum_of_both_terms():
    # each term's gradient on the shared anchor rows is complete before the
    # two are added, to the last bit
    rng = np.random.default_rng(8)
    anchors, f_rgb, f_3d = rng.standard_normal((3, 6, 4))
    rows = _mean_weights(6)
    grads = []
    for w in (LossWeights(), LossWeights(lambda_g2t=0.0), LossWeights(lambda_v2t=0.0)):
        t = Tensor(anchors.copy(), requires_grad=True)
        text_loss(f_rgb, f_3d, t, w, rows).backward()
        grads.append(t.grad)
    assert grads[0].tobytes() == (grads[1] + grads[2]).tobytes()


def test_total_loss_sum_and_recomposition():
    assert total_loss(Tensor(0.0), Tensor(0.0)).item() == 0.0
    assert total_loss(Tensor(0.4), Tensor(0.6)).item() == pytest.approx(1.0)


def test_total_loss_rejects_nonfinite():
    with pytest.raises(NonFiniteError):
        total_loss(Tensor(float("nan")), Tensor(0.0))
    with pytest.raises(NonFiniteError):
        total_loss(Tensor(0.0), Tensor(float("inf")))


def test_loss_weights_validation():
    LossWeights().validate()
    with pytest.raises(ValueError):
        LossWeights(lambda_v2g=-1.0).validate()
    with pytest.raises(ValueError):
        LossWeights(lambda_g2t=float("nan")).validate()


def test_loss_gradients_flow_to_inputs():
    rng = np.random.default_rng(7)
    pred = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    target = rng.standard_normal((4, 3))
    cosine_loss(pred, target, np.array([1.0, 1.0, 0.0, 1.0]) / 3).backward()
    assert pred.grad is not None
    # a row of weight 0 receives exactly zero gradient
    np.testing.assert_array_equal(pred.grad[2], np.zeros(3))
    assert np.abs(pred.grad[[0, 1, 3]]).max() > 0.0
