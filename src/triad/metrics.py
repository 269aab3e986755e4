"""Evaluation metrics: image/pixel AUROC and AUPRO at configurable FPR limits.

The AUROC uses the rank-based Mann-Whitney statistic with average ranks for
ties, which is exactly (concordant + 0.5 * tied) / (P * N).  The AUPRO sweeps
every distinct score value, computes per-region overlap against pooled
false-positive rate, and trapezoid-integrates the curve up to the limit.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage
from scipy.stats import rankdata


class MetricError(ValueError):
    pass


def auroc(scores, labels) -> float:
    """Area under the ROC curve via the Mann-Whitney U statistic; True = anomalous."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    pos = np.asarray(labels, dtype=bool).ravel()
    if scores.shape != pos.shape:
        raise MetricError("scores and labels must have equal length")
    n_pos = int(pos.sum())
    n_neg = int((~pos).sum())
    if n_pos == 0:
        raise MetricError("auroc undefined: no anomalous (positive) sample")
    if n_neg == 0:
        raise MetricError("auroc undefined: no normal (negative) sample")
    ranks = rankdata(scores, method="average")
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def pixel_auroc(maps, gt_masks, valid) -> float:
    """AUROC over the pooled valid pixels of all samples."""
    scores, labels = [], []
    for m, gt, v in zip(maps, gt_masks, valid):
        v = np.asarray(v, dtype=bool)
        scores.append(np.asarray(m, dtype=np.float64)[v])
        labels.append(np.asarray(gt, dtype=bool)[v])
    return auroc(np.concatenate(scores), np.concatenate(labels))


_EIGHT_CONN = np.ones((3, 3), dtype=int)


def connected_components(mask: np.ndarray) -> list[np.ndarray]:
    """8-connectivity components of a boolean mask.

    Returns one (k, 2) array of (row, col) coordinates per component, ordered
    by each component's topmost-leftmost pixel: `ndimage.label` numbers the
    components in the raster order of their first pixels.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise MetricError(f"mask must be 2-D, got shape {mask.shape}")
    labeled, n = ndimage.label(mask, structure=_EIGHT_CONN)
    comps = []
    for i in range(1, n + 1):
        rows, cols = np.nonzero(labeled == i)
        comps.append(np.stack([rows, cols], axis=1))
    return comps


def _integrate_to_limit(fprs: np.ndarray, pros: np.ndarray, limit: float) -> float:
    """Trapezoid area under the (fpr, pro) polyline from 0 up to `limit`.

    `fprs` rises from 0 and never falls, and `limit` > 0.  The bits are those
    of a loop that adds each segment's `(x1 - x0) * (y0 + y1) / 2.0` to a
    running area from 0.0 and stops at the first segment reaching `limit`,
    clipped there by linear interpolation: the full segments' terms are
    computed elementwise, the clipped one as scalars, and `cumsum` adds them
    in the loop's order.
    """
    k = 1 + int(np.searchsorted(fprs[1:], limit, side="left"))  # first x1 >= limit
    terms = [[0.0], (fprs[1:k] - fprs[:k - 1]) * (pros[:k - 1] + pros[1:k]) / 2.0]
    if k < len(fprs):
        x0, y0, x1, y1 = fprs[k - 1], pros[k - 1], fprs[k], pros[k]
        if x1 > limit:
            y1 = y0 + (y1 - y0) * (limit - x0) / (x1 - x0)
            x1 = limit
        terms.append([(x1 - x0) * (y0 + y1) / 2.0])
    return np.cumsum(np.concatenate(terms))[-1]


def pro_curve(maps, gt_masks, valid) -> tuple[np.ndarray, np.ndarray]:
    """PRO-vs-FPR curve over every distinct score value, threshold descending.

    The curve starts at (0, 0), the point for an infinitely strict threshold.
    """
    region_scores: list[np.ndarray] = []
    neg_scores: list[np.ndarray] = []
    all_scores: list[np.ndarray] = []
    for m, gt, v in zip(maps, gt_masks, valid):
        m = np.asarray(m, dtype=np.float64)
        gt = np.asarray(gt, dtype=bool)
        v = np.asarray(v, dtype=bool)
        for comp in connected_components(gt):
            keep = v[comp[:, 0], comp[:, 1]]
            if keep.any():
                region_scores.append(np.sort(m[comp[keep, 0], comp[keep, 1]]))
        neg_scores.append(m[v & ~gt])
        all_scores.append(m[v])
    if not region_scores:
        raise MetricError("aupro undefined: no ground-truth region")
    neg = np.sort(np.concatenate(neg_scores))
    if neg.size == 0:
        raise MetricError("aupro undefined: no normal valid pixel")
    thresholds = np.unique(np.concatenate(all_scores))[::-1]
    # count of entries >= t in a sorted ascending array: n - searchsorted(t, 'left')
    fprs = (neg.size - np.searchsorted(neg, thresholds, side="left")) / neg.size
    pros = np.zeros_like(thresholds)
    for rs in region_scores:
        pros += (rs.size - np.searchsorted(rs, thresholds, side="left")) / rs.size
    pros /= len(region_scores)
    fprs = np.concatenate([[0.0], fprs])
    pros = np.concatenate([[0.0], pros])
    return fprs, pros


def aupro_key(fpr_limit: float) -> str:
    """The report key of the AUPRO at `fpr_limit`."""
    return f"aupro@{fpr_limit:g}"


def aupro(maps, gt_masks, valid, fpr_limit: float,
          curve: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """Normalized area under the per-region-overlap curve up to `fpr_limit`.

    `curve` may pass the :func:`pro_curve` of the same maps, so that several
    limits share one curve; by default this call builds it.
    """
    if not 0.0 < fpr_limit <= 1.0:
        raise MetricError(f"fpr_limit must be in (0, 1], got {fpr_limit}")
    fprs, pros = pro_curve(maps, gt_masks, valid) if curve is None else curve
    return _integrate_to_limit(fprs, pros, fpr_limit) / fpr_limit
