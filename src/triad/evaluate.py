"""Anomaly-map inference over test sets and the per-class metrics report."""

from __future__ import annotations

import numpy as np

from .autograd import NonFiniteError, no_grad
from .metrics import BinaryLabeledScores, MetricError, auroc, aupro, pixel_auroc, pro_curve
from .model import Model
from .oracles import auroc_pair_counting, aupro_exhaustive, pro_points_exhaustive
from .scoring import (
    FusionWeights,
    ShapeMismatchError,
    fuse,
    image_score,
    psi_3d,
    psi_rgb,
    psi_text,
    zero_invalid,
)
from .synthdata import LabeledSample


class OracleMismatchError(AssertionError):
    pass


def infer_maps(model: Model, sample: LabeledSample, fusion: FusionWeights,
               anchor: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Final anomaly map (invalid pixels zeroed) and image score for one sample.

    Numpy's floating-point warnings are off, as a huge value at an invalid
    pixel may overflow there; `NonFiniteError` if the zeroed map is not finite.
    """
    grid = sample.mask.shape
    if len(grid) != 2 or sample.f_rgb.shape[:-1] != grid or sample.f_3d.shape[:-1] != grid:
        raise ShapeMismatchError(
            f"feature grids {sample.f_rgb.shape[:-1]} and {sample.f_3d.shape[:-1]} "
            f"do not match the mask grid {grid}")
    h, w = grid
    with no_grad(), np.errstate(all="ignore"):
        feats = model.forward_sample(sample.f_rgb, sample.f_3d)
        if anchor is None:
            anchor = model.text_anchor(sample.class_name, mode="eval").data
        grids = {k: feats[k].data.reshape(h, w, -1)
                 for k in ("f_rgb", "f_3d", "f_rgb_to_3d", "f_3d_to_rgb",
                           "f_rgb_to_text", "f_3d_to_text")}
        m_rgb = psi_rgb(grids["f_rgb"], grids["f_3d_to_rgb"])
        m_3d = psi_3d(grids["f_3d"], grids["f_rgb_to_3d"])
        m_text = psi_text(anchor, grids["f_rgb_to_text"], grids["f_3d_to_text"])
        final = zero_invalid(fuse(m_rgb, m_3d, m_text, fusion), sample.mask)
    if not np.isfinite(final).all():
        raise NonFiniteError(f"non-finite anomaly map for a {sample.class_name!r} "
                             f"sample: a feature value is too large for the head")
    return final, image_score(final, sample.mask)


def evaluate(model: Model, test_samples: list[LabeledSample],
             fusion: FusionWeights, fpr_limits: list[float],
             oracle_check: bool = False,
             oracle_tolerance: float = 1e-6) -> dict:
    """Per-class and averaged I-AUROC, P-AUROC, and AUPRO at each limit."""
    if not test_samples:
        raise MetricError("no test samples to evaluate")
    classes = sorted({s.class_name for s in test_samples})
    with no_grad():
        anchors = {c: model.text_anchor(c, mode="eval").data for c in classes}
    per_class: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for cname in classes:
        samples = [s for s in test_samples if s.class_name == cname]
        counts[cname] = len(samples)
        maps, scores, labels = [], [], []
        for s in samples:
            final, score = infer_maps(model, s, fusion, anchors[cname])
            maps.append(final)
            scores.append(score)
            labels.append(s.is_anomalous)
        gts = [s.gt_pixels for s in samples]
        valids = [s.mask for s in samples]
        entry = {
            "i_auroc": auroc(BinaryLabeledScores(scores, labels)),
            "p_auroc": pixel_auroc(maps, gts, valids),
        }
        # one curve per class serves every limit
        curve = pro_curve(maps, gts, valids) if fpr_limits else None
        for lim in fpr_limits:
            entry[f"aupro@{lim:g}"] = aupro(maps, gts, valids, lim, curve)
        if oracle_check:
            _assert_oracles(entry, maps, gts, valids, scores, labels,
                            fpr_limits, oracle_tolerance)
        per_class[cname] = entry
    average = {k: float(np.mean([per_class[c][k] for c in classes]))
               for k in next(iter(per_class.values()))}
    return {"classes": per_class, "average": average, "sample_counts": counts}


def _assert_oracles(entry, maps, gts, valids, scores, labels, fpr_limits,
                    tol) -> None:
    ref_i = auroc_pair_counting(scores, labels)
    if entry["i_auroc"] != ref_i:
        raise OracleMismatchError(
            f"i_auroc {entry['i_auroc']} != pair-counting oracle {ref_i}")
    px_scores = np.concatenate([m[v] for m, v in zip(maps, valids)])
    px_labels = np.concatenate([g[v] for g, v in zip(gts, valids)])
    ref_p = auroc_pair_counting(px_scores, px_labels)
    if abs(entry["p_auroc"] - ref_p) > 1e-9:
        raise OracleMismatchError(
            f"p_auroc {entry['p_auroc']} != pair-counting oracle {ref_p}")
    # one sweep per class, up to the largest limit, serves every limit
    points = (pro_points_exhaustive(maps, gts, valids, max(fpr_limits))
              if fpr_limits else [])
    for lim in fpr_limits:
        ref = aupro_exhaustive(maps, gts, valids, lim, points)
        if abs(entry[f"aupro@{lim:g}"] - ref) > tol:
            raise OracleMismatchError(
                f"aupro@{lim:g} {entry[f'aupro@{lim:g}']} != oracle {ref}")
