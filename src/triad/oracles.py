"""Brute-force reference implementations used to cross-check the metric suite.

These deliberately avoid the vectorized counting tricks of
:mod:`triad.metrics`: the AUROC oracle enumerates every positive/negative
pair, and the AUPRO oracle recomputes the thresholded prediction mask for
every distinct score value.
"""

from __future__ import annotations

import numpy as np

from .metrics import MetricError, connected_components


def auroc_pair_counting(scores, labels) -> float:
    """(concordant pairs + 0.5 * tied pairs) / (P * N), enumerated explicitly."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    pos = scores[labels]
    neg = scores[~labels]
    if pos.size == 0:
        raise MetricError("auroc undefined: no anomalous (positive) sample")
    if neg.size == 0:
        raise MetricError("auroc undefined: no normal (negative) sample")
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (pos.size * neg.size)


def pro_points_exhaustive(maps, gt_masks, valid,
                          fpr_stop: float = 1.0) -> list[tuple[float, float]]:
    """(FPR, PRO) points threshold by threshold, strictest first, from (0, 0).

    Every distinct valid score is a threshold, and each one rebuilds the
    prediction masks from scratch.  The sweep ends at the first point whose
    FPR reaches `fpr_stop`: integrating up to any limit <= `fpr_stop` never
    reads a later point.
    """
    maps = [np.asarray(m, dtype=np.float64) for m in maps]
    gt_masks = [np.asarray(g, dtype=bool) for g in gt_masks]
    valid = [np.asarray(v, dtype=bool) for v in valid]
    regions = []  # (sample index, boolean region mask restricted to valid)
    for i, (gt, v) in enumerate(zip(gt_masks, valid)):
        for comp in connected_components(gt):
            region = np.zeros_like(gt)
            region[comp[:, 0], comp[:, 1]] = True
            region &= v
            if region.any():
                regions.append((i, region))
    if not regions:
        raise MetricError("aupro undefined: no ground-truth region")
    neg_total = sum(int((v & ~gt).sum()) for gt, v in zip(gt_masks, valid))
    if neg_total == 0:
        raise MetricError("aupro undefined: no normal valid pixel")
    thresholds = np.unique(np.concatenate([m[v] for m, v in zip(maps, valid)]))[::-1]
    points = [(0.0, 0.0)]
    for t in thresholds:
        preds = [m >= t for m in maps]
        fp = sum(int((p & v & ~gt).sum())
                 for p, gt, v in zip(preds, gt_masks, valid))
        pro = float(np.mean([(preds[i] & region).sum() / region.sum()
                             for i, region in regions]))
        points.append((fp / neg_total, pro))
        if points[-1][0] >= fpr_stop:
            break
    return points


def aupro_exhaustive(maps, gt_masks, valid, fpr_limit: float,
                     points: list[tuple[float, float]] | None = None) -> float:
    """Threshold-by-threshold AUPRO with naive trapezoid integration.

    `points` may pass a sweep of the same maps from
    :func:`pro_points_exhaustive` that reaches at least `fpr_limit`, so that
    several limits share one sweep; by default this call sweeps.
    """
    if not 0.0 < fpr_limit <= 1.0:
        raise MetricError(f"fpr_limit must be in (0, 1], got {fpr_limit}")
    if points is None:
        points = pro_points_exhaustive(maps, gt_masks, valid, fpr_limit)
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 >= fpr_limit:
            break
        if x1 > fpr_limit:
            y1 = y0 + (y1 - y0) * (fpr_limit - x0) / (x1 - x0)
            x1 = fpr_limit
        area += (x1 - x0) * (y0 + y1) / 2.0
        if x1 >= fpr_limit:
            break
    return area / fpr_limit
