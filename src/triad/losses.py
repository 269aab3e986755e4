"""Masked cosine alignment losses and the total training objective."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .autograd import (
    DimensionMismatchError,
    NonFiniteError,
    Tensor,
    add,
    as_tensor,
    cosine_rows,
    gather_rows,
    mul,
    sub,
    tensor_sum,
)

log = logging.getLogger(__name__)


@dataclass
class LossWeights:
    """Balancing coefficients for the four alignment terms; all default to 1."""

    lambda_v2g: float = 1.0
    lambda_g2v: float = 1.0
    lambda_v2t: float = 1.0
    lambda_g2t: float = 1.0

    def validate(self) -> None:
        for name, v in vars(self).items():
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")


def masked_cosine_loss(pred, target, mask: np.ndarray,
                       row_weights: np.ndarray | None = None) -> Tensor:
    """Weighted sum of (1 - cosine similarity) over valid patches.

    `pred` and `target` are (N, D) patch matrices; `mask` is a flat boolean
    array of length N.  `row_weights` (length N) weighs each row's term; by
    default every valid row weighs 1/n_valid, which gives the mean.  Invalid
    patches are dropped before this loss's arithmetic, so their values cannot
    influence the value or its gradients as long as they are finite.  A NaN
    or infinity at an invalid patch still can: the model's forward runs on
    every stacked row, and a weight gradient then computes NaN * 0 = NaN.
    `provider.read_features` rejects sample files holding such values.
    Returns 0 (with a warning) when no patch is valid.
    """
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.data.shape != target.data.shape:
        raise DimensionMismatchError(
            f"masked_cosine_loss shapes differ: {pred.data.shape} vs {target.data.shape}")
    mask = np.asarray(mask, dtype=bool).ravel()
    if mask.shape[0] != pred.data.shape[0]:
        raise DimensionMismatchError(
            f"mask length {mask.shape[0]} != patch count {pred.data.shape[0]}")
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        log.warning("masked_cosine_loss: no valid patch, contributing 0")
        return Tensor(0.0)
    weights = (np.full(idx.size, 1.0 / idx.size) if row_weights is None
               else np.asarray(row_weights, dtype=np.float64)[idx])
    sims = cosine_rows(gather_rows(pred, idx), gather_rows(target, idx))
    return tensor_sum(mul(sub(1.0, sims), weights))


def sample_row_weights(masks: list[np.ndarray]) -> np.ndarray:
    """Row weights 1/(n_valid_s * B) for the stacked patch rows of B samples.

    With them, one weighted sum over the stacked rows equals the mean over
    the samples of each sample's mean over its valid patches.  A sample with
    no valid patch still counts in the 1/B mean, contributing 0 (with a
    warning).
    """
    weights = []
    for i, m in enumerate(masks):
        n_valid = int(np.count_nonzero(m))
        if n_valid == 0:
            log.warning("sample %d of the batch: no valid patch, contributing 0", i)
        weights.append(np.full(np.size(m), 1.0 / (max(n_valid, 1) * len(masks))))
    return np.concatenate(weights)


def visual_loss(f_rgb, f_3d, f_rgb_to_3d, f_3d_to_rgb, mask: np.ndarray,
                w: LossWeights, row_weights: np.ndarray | None = None) -> Tensor:
    """Bidirectional visual-geometric consistency term."""
    return add(mul(masked_cosine_loss(f_rgb_to_3d, f_3d, mask, row_weights), w.lambda_v2g),
               mul(masked_cosine_loss(f_3d_to_rgb, f_rgb, mask, row_weights), w.lambda_g2v))


def text_loss(f_rgb_to_text, f_3d_to_text, text_anchors, mask: np.ndarray,
              w: LossWeights, row_weights: np.ndarray | None = None) -> Tensor:
    """Visual-linguistic alignment: pull projected patches toward their class anchor.

    `text_anchors` holds one row per patch: the anchor of the patch's class.
    The same rows serve both the RGB-side and 3D-side terms.
    """
    return add(mul(masked_cosine_loss(text_anchors, f_rgb_to_text, mask, row_weights),
                   w.lambda_v2t),
               mul(masked_cosine_loss(text_anchors, f_3d_to_text, mask, row_weights),
                   w.lambda_g2t))


def total_loss(l_vis, l_text) -> Tensor:
    """Sum of the visual and textual alignment losses."""
    l_vis, l_text = as_tensor(l_vis), as_tensor(l_text)
    if not (np.isfinite(l_vis.data).all() and np.isfinite(l_text.data).all()):
        raise NonFiniteError("total_loss received a non-finite term")
    return add(l_vis, l_text)
