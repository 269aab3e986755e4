"""Anomaly-map inference over test sets and the per-class metrics report."""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .autograd import NonFiniteError, no_grad
from .metrics import (
    MetricError,
    aupro,
    aupro_key,
    auroc,
    pool_valid,
    pro_curve,
)
from .model import Model
from .oracles import auroc_pair_counting, aupro_exhaustive, pro_points_exhaustive
from .scoring import (
    FusionWeights,
    ShapeMismatchError,
    distance_map,
    fuse,
    psi_text,
)
from .synthdata import LabeledSample


# Largest differences allowed between a metric and its brute-force oracle:
# the oracles sum in another order than the metrics' ranks and cumulative sums.
_P_AUROC_ORACLE_TOL = 1e-9
_AUPRO_ORACLE_TOL = 1e-6

# Smallest mean valid-row count per test sample at which `evaluate` scores
# the samples on a thread pool.  Below it a forward is mostly Python work, and
# two threads contending for the GIL scored 16x16 grids (196 rows) at 0.5-0.9x
# the serial rate on 2 CPUs; from about 1000 rows numpy kernels that release
# the GIL (erf, the matmuls, LayerNorm) take most of a forward.
_POOL_MIN_ROWS = 1024


class OracleMismatchError(AssertionError):
    pass


def infer_maps(model: Model, sample: LabeledSample, fusion: FusionWeights,
               anchor: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Final anomaly map and image score for one sample.

    Only the valid pixels' rows are scored; the map is 0 at invalid pixels,
    and the image score is the largest valid value, 0 when none is valid.
    `NonFiniteError`, with numpy's floating-point warnings off, if a feature
    value is too large for the head.
    """
    grid = sample.mask.shape
    if len(grid) != 2 or sample.f_rgb.shape[:-1] != grid or sample.f_3d.shape[:-1] != grid:
        raise ShapeMismatchError(
            f"feature grids {sample.f_rgb.shape[:-1]} and {sample.f_3d.shape[:-1]} "
            f"do not match the mask grid {grid}")
    with no_grad(), np.errstate(all="ignore"):
        rows = model.forward_sample(sample.f_rgb[sample.mask], sample.f_3d[sample.mask])
        if anchor is None:
            anchor = model.text_anchor(sample.class_name, mode="eval").data
        m_rgb = distance_map(rows["f_rgb"].data, rows["f_3d_to_rgb"].data)
        m_3d = distance_map(rows["f_3d"].data, rows["f_rgb_to_3d"].data)
        m_text = psi_text(anchor, rows["f_rgb_to_text"].data, rows["f_3d_to_text"].data)
        fused = fuse(m_rgb, m_3d, m_text, fusion)
    if not np.isfinite(fused).all():
        raise NonFiniteError(f"non-finite anomaly map for a {sample.class_name!r} "
                             f"sample: a feature value is too large for the head")
    final = np.zeros(grid)
    final[sample.mask] = fused
    return final, float(fused.max()) if fused.size else 0.0


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def score_samples(model: Model, samples: list[LabeledSample], fusion: FusionWeights):
    """Yields an iterator of each sample's `infer_maps` result, in sample order.

    The eval anchors are built here, one `text_anchor` call per class in
    sorted class order.  When the samples average at least `_POOL_MIN_ROWS`
    valid rows and more than one CPU is usable, every sample is queued on a
    thread pool with one worker per CPU, and leaving the block cancels the
    samples still queued; the results have the same bytes.
    """
    with no_grad():
        anchors = {c: model.text_anchor(c, mode="eval").data
                   for c in sorted({s.class_name for s in samples})}

    def score(s: LabeledSample) -> tuple[np.ndarray, float]:
        return infer_maps(model, s, fusion, anchors[s.class_name])

    workers = _usable_cpus()
    mean_rows = sum(np.count_nonzero(s.mask) for s in samples) / len(samples)
    if workers > 1 and mean_rows >= _POOL_MIN_ROWS:
        pool = ThreadPoolExecutor(workers)
        try:
            yield pool.map(score, samples)
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        yield map(score, samples)


def evaluate(model: Model, test_samples: list[LabeledSample],
             fusion: FusionWeights, fpr_limits: list[float],
             oracle_check: bool = False) -> dict:
    """Per-class and averaged I-AUROC, P-AUROC, and AUPRO at each limit.

    Each sample is scored alone by `infer_maps`, through `score_samples`.
    """
    if not test_samples:
        raise MetricError("no test samples to evaluate")
    classes = sorted({s.class_name for s in test_samples})
    by_class = {c: [s for s in test_samples if s.class_name == c] for c in classes}
    per_class: dict[str, dict] = {}
    counts: dict[str, int] = {}
    # on the pool every sample is queued at once, in class order, so the
    # workers score the next class while this thread computes a class's metrics
    with score_samples(model, [s for c in classes for s in by_class[c]],
                       fusion) as scored:
        for cname in classes:
            samples = by_class[cname]
            counts[cname] = len(samples)
            maps, scores, labels = [], [], []
            for s in samples:
                final, image_score = next(scored)
                maps.append(final)
                scores.append(image_score)
                labels.append(s.is_anomalous)
            px_scores, region = pool_valid(maps, [s.gt_pixels for s in samples],
                                           [s.mask for s in samples])
            entry = {
                "i_auroc": auroc(scores, labels),
                "p_auroc": auroc(px_scores, region > 0),
            }
            # one curve per class serves every limit
            curve = pro_curve(px_scores, region) if fpr_limits else None
            for lim in fpr_limits:
                entry[aupro_key(lim)] = aupro(curve, lim)
            if oracle_check:
                _assert_oracles(entry, px_scores, region, scores, labels, fpr_limits)
            per_class[cname] = entry
    average = {k: float(np.mean([per_class[c][k] for c in classes]))
               for k in next(iter(per_class.values()))}
    return {"classes": per_class, "average": average, "sample_counts": counts}


def _assert_oracles(entry, px_scores, region, scores, labels, fpr_limits) -> None:
    ref_i = auroc_pair_counting(scores, labels)
    if entry["i_auroc"] != ref_i:
        raise OracleMismatchError(
            f"i_auroc {entry['i_auroc']} != pair-counting oracle {ref_i}")
    ref_p = auroc_pair_counting(px_scores, region > 0)
    if abs(entry["p_auroc"] - ref_p) > _P_AUROC_ORACLE_TOL:
        raise OracleMismatchError(
            f"p_auroc {entry['p_auroc']} != pair-counting oracle {ref_p}")
    # one sweep per class, up to the largest limit, serves every limit
    points = (pro_points_exhaustive(px_scores, region, max(fpr_limits))
              if fpr_limits else [])
    for lim in fpr_limits:
        ref = aupro_exhaustive(points, lim)
        key = aupro_key(lim)
        if abs(entry[key] - ref) > _AUPRO_ORACLE_TOL:
            raise OracleMismatchError(f"{key} {entry[key]} != oracle {ref}")
