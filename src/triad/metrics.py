"""Evaluation metrics: image/pixel AUROC and AUPRO at configurable FPR limits.

Pixel metrics read the pooled valid pixels of :func:`pool_valid`.

The AUROC uses the rank-based Mann-Whitney statistic with average ranks for
ties, which is exactly (concordant + 0.5 * tied) / (P * N).  The AUPRO sweeps
every distinct score value, computes per-region overlap against pooled
false-positive rate, and trapezoid-integrates the curve up to the limit.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage


class MetricError(ValueError):
    pass


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array; tied values share their mean rank.

    The values of `scipy.stats.rankdata(x, method="average")`: each is a
    whole or half integer, so exact in float64.
    """
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size)
    # sorted positions [start, end) hold ranks start + 1 .. end
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auroc(scores, labels) -> float:
    """Area under the ROC curve via the Mann-Whitney U statistic; True = anomalous.

    `MetricError` for a NaN score, which has no rank; +-inf scores are ranked.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    pos = np.asarray(labels, dtype=bool).ravel()
    if scores.shape != pos.shape:
        raise MetricError("scores and labels must have equal length")
    n_nan = int(np.isnan(scores).sum())
    if n_nan:
        raise MetricError(f"auroc undefined: {n_nan} score(s) are NaN")
    n_pos = int(pos.sum())
    n_neg = int((~pos).sum())
    if n_pos == 0:
        raise MetricError("auroc undefined: no anomalous (positive) sample")
    if n_neg == 0:
        raise MetricError("auroc undefined: no normal (negative) sample")
    ranks = average_ranks(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


_EIGHT_CONN = np.ones((3, 3), dtype=int)


def pool_valid(maps, gt_masks, valid) -> tuple[np.ndarray, np.ndarray]:
    """Every valid pixel's score and region id, pooled over the samples.

    Pixels come sample by sample, in raster order within each sample.  The
    region id is 0 for a normal pixel, otherwise the pixel's 8-connected
    ground-truth region.  Ids run on across samples; within a sample they
    follow the raster order of each region's first pixel, and a region with
    no valid pixel gets no id.
    """
    scores, regions = [], []
    n_regions = 0
    for m, gt, v in zip(maps, gt_masks, valid):
        gt = np.asarray(gt, dtype=bool)
        if gt.ndim != 2:
            raise MetricError(f"mask must be 2-D, got shape {gt.shape}")
        v = np.asarray(v, dtype=bool)
        labeled, n = ndimage.label(gt, structure=_EIGHT_CONN)
        labels = labeled[v]
        kept = np.unique(labels[labels > 0])
        renumber = np.zeros(n + 1, dtype=np.intp)
        renumber[kept] = np.arange(n_regions + 1, n_regions + 1 + kept.size)
        n_regions += kept.size
        scores.append(np.asarray(m, dtype=np.float64)[v])
        regions.append(renumber[labels])
    return np.concatenate(scores), np.concatenate(regions)


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


def pro_curve(scores: np.ndarray, region: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PRO-vs-FPR curve of a :func:`pool_valid` pair over every distinct
    score value, threshold descending.

    The curve starts at (0, 0), the point for an infinitely strict threshold.
    """
    # the normal pixels' scores (region 0), then each region's, each ascending
    runs = np.split(scores[np.argsort(region, kind="stable")],
                    np.cumsum(np.bincount(region, minlength=1))[:-1])
    neg, *region_scores = [np.sort(r) for r in runs]
    if not region_scores:
        raise MetricError("aupro undefined: no ground-truth region")
    if neg.size == 0:
        raise MetricError("aupro undefined: no normal valid pixel")
    thresholds = np.unique(scores)[::-1]
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


def aupro(curve: tuple[np.ndarray, np.ndarray], fpr_limit: float) -> float:
    """Normalized area under a :func:`pro_curve` up to `fpr_limit`."""
    if not 0.0 < fpr_limit <= 1.0:
        raise MetricError(f"fpr_limit must be in (0, 1], got {fpr_limit}")
    fprs, pros = curve
    return _integrate_to_limit(fprs, pros, fpr_limit) / fpr_limit
