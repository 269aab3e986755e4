"""Cosine alignment losses over valid patch rows and the total training objective.

The trainer drops invalid patches before the forward, so nothing here takes a mask.
"""

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


def cosine_loss(pred, target, row_weights: np.ndarray) -> Tensor:
    """Weighted sum of (1 - cosine similarity) over the rows: Σ_r w_r·(1 − cos_r).

    `pred` and `target` are (N, D) patch matrices and `row_weights` holds one
    weight per row; weights 1/N give the mean.
    """
    pred = as_tensor(pred)
    row_weights = np.asarray(row_weights, dtype=np.float64)
    if row_weights.shape != pred.data.shape[:1]:
        raise DimensionMismatchError(
            f"row weights of shape {row_weights.shape} for {pred.data.shape[0]} rows")
    return tensor_sum(mul(sub(1.0, cosine_rows(pred, target)), row_weights))


def sample_row_weights(counts: list[int]) -> np.ndarray:
    """Row weights 1/(n_s * B) for the stacked valid rows of B samples.

    `counts` holds each sample's number n_s of valid patches.  With these
    weights, one weighted sum over the stacked rows equals the mean over the
    samples of each sample's mean over its valid patches.  A sample with no
    valid patch still counts in the 1/B mean, contributing 0 (with a warning).
    """
    for i, n in enumerate(counts):
        if n == 0:
            log.warning("sample %d of the batch: no valid patch, contributing 0", i)
    return np.repeat([1.0 / (max(n, 1) * len(counts)) for n in counts], counts)


def visual_loss(f_rgb, f_3d, f_rgb_to_3d, f_3d_to_rgb, w: LossWeights,
                row_weights: np.ndarray) -> Tensor:
    """Bidirectional visual-geometric consistency term."""
    return add(mul(cosine_loss(f_rgb_to_3d, f_3d, row_weights), w.lambda_v2g),
               mul(cosine_loss(f_3d_to_rgb, f_rgb, row_weights), w.lambda_g2v))


def text_loss(f_rgb_to_text, f_3d_to_text, text_anchors, w: LossWeights,
              row_weights: np.ndarray) -> Tensor:
    """Visual-linguistic alignment: pull projected patches toward their class anchor.

    `text_anchors` holds one row per patch: the anchor of the patch's class.
    The same rows serve both the RGB-side and 3D-side terms.  Each term reads
    them through its own pass-through node (times 1.0, exact both ways), so
    each term's gradient is summed on its own before the two are added once;
    one running sum over the parts of both terms would round differently.
    """
    return add(mul(cosine_loss(mul(text_anchors, 1.0), f_rgb_to_text, row_weights),
                   w.lambda_v2t),
               mul(cosine_loss(mul(text_anchors, 1.0), f_3d_to_text, row_weights),
                   w.lambda_g2t))


def total_loss(l_vis, l_text) -> Tensor:
    """Sum of the visual and textual alignment losses."""
    l_vis, l_text = as_tensor(l_vis), as_tensor(l_text)
    if not (np.isfinite(l_vis.data).all() and np.isfinite(l_text.data).all()):
        raise NonFiniteError("total_loss received a non-finite term")
    return add(l_vis, l_text)
