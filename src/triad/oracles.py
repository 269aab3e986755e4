"""Brute-force reference implementations used to cross-check the metric suite.

These deliberately avoid the counting tricks of :mod:`triad.metrics` (ranks,
sorted scores, binary search, cumulative sums): the AUROC oracle compares
every positive/negative pair, and the AUPRO oracle rebuilds the thresholded
prediction of every negative and every region pixel for every distinct score
value.  Each array operation handles a block of rows (positives, or
thresholds) at a time, and every count is an exact integer, so the values
equal those of the plain loops to the last bit.
"""

from __future__ import annotations

import numpy as np

from .metrics import MetricError


_PAIR_BLOCK_ROWS = 256  # positives per block: a (256, N) comparison at a time
_SWEEP_BLOCK_ROWS = 128  # thresholds per block: a (128, N) comparison at a time


def auroc_pair_counting(scores, labels) -> float:
    """(concordant pairs + 0.5 * tied pairs) / (P * N), every pair compared."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    pos = scores[labels]
    neg = scores[~labels]
    if pos.size == 0:
        raise MetricError("auroc undefined: no anomalous (positive) sample")
    if neg.size == 0:
        raise MetricError("auroc undefined: no normal (negative) sample")
    above = tied = 0
    for i in range(0, pos.size, _PAIR_BLOCK_ROWS):
        block = pos[i:i + _PAIR_BLOCK_ROWS, None]
        above += int(np.count_nonzero(block > neg))
        tied += int(np.count_nonzero(block == neg))
    return (above + 0.5 * tied) / (pos.size * neg.size)


def pro_points_exhaustive(scores, region,
                          fpr_stop: float = 1.0) -> list[tuple[float, float]]:
    """(FPR, PRO) points threshold by threshold, strictest first, from (0, 0).

    Takes the pooled valid pixels of :func:`triad.metrics.pool_valid`.  Every
    distinct score is a threshold, and each one rebuilds the prediction of
    every negative pixel and every region pixel from scratch; each region's
    scores form one run of the gathered region scores.  Each array operation
    handles a block of `_SWEEP_BLOCK_ROWS` descending thresholds, one row per
    threshold.  The sweep ends at the first point whose FPR reaches
    `fpr_stop`: integrating up to any limit <= `fpr_stop` never reads a later
    point.
    """
    scores = np.asarray(scores, dtype=np.float64)
    region = np.asarray(region)
    region_scores, starts = [], []  # each region's scores
    n_region_px = 0
    for r in range(1, int(region.max(initial=0)) + 1):
        region_scores.append(scores[region == r])
        starts.append(n_region_px)
        n_region_px += region_scores[-1].size
    if not region_scores:
        raise MetricError("aupro undefined: no ground-truth region")
    neg_scores = scores[region == 0]
    neg_total = neg_scores.size
    if neg_total == 0:
        raise MetricError("aupro undefined: no normal valid pixel")
    sizes = np.array([r.size for r in region_scores])
    region_scores = np.concatenate(region_scores)
    thresholds = np.unique(scores)[::-1]
    points = [(0.0, 0.0)]
    for i in range(0, thresholds.size, _SWEEP_BLOCK_ROWS):
        t = thresholds[i:i + _SWEEP_BLOCK_ROWS, None]
        fp = np.count_nonzero(neg_scores >= t, axis=1)
        hits = np.add.reduceat(region_scores >= t, starts, axis=1, dtype=np.int64)
        pro = np.mean(hits / sizes, axis=1)
        for fp_t, pro_t in zip(fp.tolist(), pro.tolist()):
            points.append((fp_t / neg_total, pro_t))
            if points[-1][0] >= fpr_stop:
                return points
    return points


def aupro_exhaustive(points: list[tuple[float, float]], fpr_limit: float) -> float:
    """Naive trapezoid AUPRO of a :func:`pro_points_exhaustive` sweep that
    reaches at least `fpr_limit`."""
    if not 0.0 < fpr_limit <= 1.0:
        raise MetricError(f"fpr_limit must be in (0, 1], got {fpr_limit}")
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
