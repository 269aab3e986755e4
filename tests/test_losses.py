"""Tests for the masked cosine alignment losses and the total objective."""

import logging

import numpy as np
import pytest

from triad.autograd import DimensionMismatchError, NonFiniteError, Tensor
from triad.losses import (
    LossWeights,
    masked_cosine_loss,
    text_loss,
    total_loss,
    visual_loss,
)


def _full_mask(n):
    return np.ones(n, dtype=bool)


# ---------------------------------------------------------------------------
# masked_cosine_loss


def test_identical_features_zero_loss():
    x = np.random.default_rng(0).standard_normal((6, 4))
    assert masked_cosine_loss(x, x, _full_mask(6)).item() == pytest.approx(0.0, abs=1e-12)


def test_orthogonal_features_unit_loss():
    pred = np.tile([1.0, 0.0], (5, 1))
    target = np.tile([0.0, 1.0], (5, 1))
    assert masked_cosine_loss(pred, target, _full_mask(5)).item() == pytest.approx(1.0)


def test_hand_average_of_sims():
    # two valid patches with cosine similarities 1 and 0 -> loss 0.5
    pred = np.array([[1.0, 0.0], [1.0, 0.0]])
    target = np.array([[2.0, 0.0], [0.0, 3.0]])
    assert masked_cosine_loss(pred, target, _full_mask(2)).item() == pytest.approx(0.5)


def test_antiparallel_maximum_loss():
    x = np.random.default_rng(1).standard_normal((4, 3))
    assert masked_cosine_loss(x, -x, _full_mask(4)).item() == pytest.approx(2.0, abs=1e-12)


def test_loss_within_cosine_bounds():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pred = rng.standard_normal((8, 5))
        target = rng.standard_normal((8, 5))
        v = masked_cosine_loss(pred, target, _full_mask(8)).item()
        assert 0.0 <= v <= 2.0


def test_invalid_patches_cannot_influence_loss():
    rng = np.random.default_rng(3)
    pred = rng.standard_normal((6, 4))
    target = rng.standard_normal((6, 4))
    mask = np.array([True, False, True, False, True, True])
    base = masked_cosine_loss(pred, target, mask).item()
    pred2, target2 = pred.copy(), target.copy()
    pred2[~mask] = 1e9
    target2[~mask] = np.e
    flipped = masked_cosine_loss(pred2, target2, mask).item()
    assert base == flipped  # bit-identical


def test_empty_mask_contributes_zero_with_warning(caplog):
    pred = np.ones((3, 2))
    with caplog.at_level(logging.WARNING):
        v = masked_cosine_loss(pred, pred, np.zeros(3, dtype=bool))
    assert v.item() == 0.0
    assert any("no valid patch" in r.message for r in caplog.records)


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        masked_cosine_loss(np.ones((3, 2)), np.ones((3, 3)), _full_mask(3))
    with pytest.raises(DimensionMismatchError):
        masked_cosine_loss(np.ones((3, 2)), np.ones((3, 2)), _full_mask(4))


def test_zero_row_hits_eps_guard_not_nan():
    pred = np.zeros((2, 3))
    target = np.ones((2, 3))
    v = masked_cosine_loss(pred, target, _full_mask(2)).item()
    assert np.isfinite(v)
    assert v == pytest.approx(1.0)  # clamped norm makes sim 0


def test_zero_row_gradient_is_finite_and_matches_finite_difference():
    # the norm is clamped at eps, so near a zero row the cosine is linear:
    # d/da cos = b / (eps * |b|), times the row weight 1/2 and the loss sign
    pred = np.array([[0.0, 0.0], [1.0, 2.0]])
    target = np.array([[1.0, 0.0], [1.0, 1.0]])
    p = Tensor(pred.copy(), requires_grad=True)
    masked_cosine_loss(p, target, _full_mask(2)).backward()
    assert np.isfinite(p.grad).all()
    np.testing.assert_array_equal(p.grad[0], [-5e7, 0.0])
    h = 1e-10  # keeps the perturbed row's norm inside the clamp
    for j in range(2):
        up, down = pred.copy(), pred.copy()
        up[0, j] += h
        down[0, j] -= h
        fd = (masked_cosine_loss(up, target, _full_mask(2)).item()
              - masked_cosine_loss(down, target, _full_mask(2)).item()) / (2 * h)
        assert fd == pytest.approx(p.grad[0, j], rel=1e-6, abs=1e-3)


# ---------------------------------------------------------------------------
# composite losses


def test_visual_loss_weighted_sum():
    rng = np.random.default_rng(4)
    f_rgb = rng.standard_normal((5, 3))
    f_3d = rng.standard_normal((5, 4))
    mask = _full_mask(5)
    w = LossWeights(lambda_v2g=2.0, lambda_g2v=0.0)
    got = visual_loss(f_rgb, f_3d, f_3d * 0 + 1.0, f_rgb, mask, w).item()
    first = masked_cosine_loss(f_3d * 0 + 1.0, f_3d, mask).item()
    assert got == pytest.approx(2.0 * first, abs=1e-12)


def test_visual_loss_perfect_mappings():
    rng = np.random.default_rng(5)
    f_rgb = rng.standard_normal((4, 3))
    f_3d = rng.standard_normal((4, 6))
    v = visual_loss(f_rgb, f_3d, f_3d, f_rgb, _full_mask(4), LossWeights()).item()
    assert v == pytest.approx(0.0, abs=1e-12)


def test_text_loss_parallel_and_antiparallel():
    anchor = np.tile([1.0, 0.0, 0.0], (4, 1))  # one anchor row per patch
    par = np.tile([2.0, 0.0, 0.0], (4, 1))
    anti = -par
    mask = _full_mask(4)
    w = LossWeights()
    assert text_loss(par, par, anchor, mask, w).item() == pytest.approx(0.0, abs=1e-12)
    assert text_loss(anti, anti, anchor, mask, w).item() == pytest.approx(4.0, abs=1e-12)


def test_text_loss_half_parallel_half_orthogonal():
    anchor = np.tile([1.0, 0.0], (4, 1))
    feats = np.array([[3.0, 0.0], [3.0, 0.0], [0.0, 2.0], [0.0, 2.0]])
    v = text_loss(feats, feats, anchor, _full_mask(4), LossWeights()).item()
    assert v == pytest.approx(1.0, abs=1e-12)


def test_text_loss_uses_one_shared_anchor():
    # the same anchor rows feed the RGB-side and 3D-side terms; passing the
    # rgb-side features on both slots must equal twice the one-sided term
    rng = np.random.default_rng(6)
    anchor = np.tile(rng.standard_normal((1, 4)), (5, 1))
    feats = rng.standard_normal((5, 4))
    both = text_loss(feats, feats, anchor, _full_mask(5), LossWeights()).item()
    one = masked_cosine_loss(anchor, feats, _full_mask(5)).item()
    assert both == pytest.approx(2.0 * one, abs=1e-12)


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
    mask = np.array([True, True, False, True])
    masked_cosine_loss(pred, target, mask).backward()
    assert pred.grad is not None
    # invalid row receives exactly zero gradient
    np.testing.assert_array_equal(pred.grad[2], np.zeros(3))
    assert np.abs(pred.grad[[0, 1, 3]]).max() > 0.0
