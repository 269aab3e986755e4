"""Output checks of the benchmark workloads.

Each check compares a program output with an independent computation or with
a property the method must have, and raises :class:`CheckError` when the
output fails it.  None compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

# An untrained head scores near chance; a trained one must clear it by this
# much in I-AUROC, and reach the absolute floor below.
QUALITY_MARGIN = 0.25
QUALITY_FLOOR = 0.8


class CheckError(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def check_losses_finite(loss_log: list[dict], steps: int) -> None:
    """Every step of the loop logged a finite total loss."""
    _require(len(loss_log) == steps,
             f"loss log has {len(loss_log)} entries for {steps} steps")
    bad = [r["step"] for r in loss_log if not math.isfinite(r["l_total"])]
    _require(not bad, f"non-finite loss at steps {bad[:5]}")


def _masked_cosine(pred: np.ndarray, target: np.ndarray, valid: np.ndarray,
                   eps: float = 1e-8) -> float:
    a, b = pred[valid], target[valid]
    na = np.maximum(np.sqrt((a * a).sum(axis=-1)), eps)
    nb = np.maximum(np.sqrt((b * b).sum(axis=-1)), eps)
    return float(np.mean(1.0 - (a * b).sum(axis=-1) / (na * nb)))


def recompute_batch_loss(feats: list[dict[str, np.ndarray]], anchors: list[np.ndarray],
                         masks: list[np.ndarray], weights) -> float:
    """The four masked cosine terms, averaged over the batch, in plain numpy.

    `feats[i]` holds sample i's flattened forward outputs, `anchors[i]` its
    class anchor (1 x D_text), `masks[i]` its validity grid.
    """
    vis, txt = 0.0, 0.0
    for f, anchor, mask in zip(feats, anchors, masks):
        valid = np.asarray(mask, dtype=bool).ravel()
        a = np.broadcast_to(anchor.reshape(1, -1), f["f_rgb_to_text"].shape)
        vis += (weights.lambda_v2g * _masked_cosine(f["f_rgb_to_3d"], f["f_3d"], valid)
                + weights.lambda_g2v * _masked_cosine(f["f_3d_to_rgb"], f["f_rgb"], valid))
        txt += (weights.lambda_v2t * _masked_cosine(a, f["f_rgb_to_text"], valid)
                + weights.lambda_g2t * _masked_cosine(a, f["f_3d_to_text"], valid))
    return vis / len(feats) + txt / len(feats)


def check_batch_loss(program_value: float, recomputed: float,
                     rtol: float = 1e-10) -> None:
    """The eval-mode batch loss equals its plain-numpy recomputation."""
    _require(abs(program_value - recomputed) <= rtol * max(1.0, abs(recomputed)),
             f"batch_loss {program_value!r} != recomputed {recomputed!r}")


def check_directional_derivative(analytic: float, f_plus: float, f_minus: float,
                                 h: float, rtol: float = 1e-6) -> None:
    """Central difference along the update direction matches <grad, d>."""
    numeric = (f_plus - f_minus) / (2.0 * h)
    _require(analytic != 0.0, "update direction is orthogonal to the gradient")
    _require(abs(numeric - analytic) <= rtol * abs(analytic),
             f"directional derivative {analytic!r} != central difference {numeric!r}")


def check_quality(trained_i_auroc: float, untrained_i_auroc: float) -> None:
    """The trained head ranks anomalies far better than an untrained one."""
    _require(trained_i_auroc >= QUALITY_FLOOR
             and trained_i_auroc >= untrained_i_auroc + QUALITY_MARGIN,
             f"I-AUROC {trained_i_auroc:.4f} not far above the untrained "
             f"{untrained_i_auroc:.4f}")


def check_gradcheck(errors: dict[str, float], params: dict[str, tuple],
                    objective_calls: int, tolerance: float = 1e-4) -> None:
    """The report passes at `tolerance` and covers every coordinate of every parameter."""
    _require(set(errors) == set(params),
             f"gradcheck covers {sorted(set(errors) ^ set(params))} wrongly")
    worst = max(errors.values(), default=float("nan"))
    _require(all(math.isfinite(e) and e <= tolerance for e in errors.values()),
             f"gradcheck max relative error {worst!r} above {tolerance}")
    coords = sum(int(np.prod(s)) for s in params.values())
    _require(objective_calls == 1 + 2 * coords,
             f"{objective_calls} objective calls for {coords} coordinates")


def check_oracle_eval(error: BaseException | None, report: dict | None) -> None:
    """The oracle-checked evaluation raised nothing and returned bounded metrics."""
    _require(error is None, f"oracle-checked evaluation raised {error!r}")
    _require(report is not None and all(0.0 <= v <= 1.0
                                        for v in report["average"].values()),
             "oracle-checked evaluation returned no bounded report")


def check_sidecar(written_map: np.ndarray, mask: np.ndarray, score: float) -> None:
    """The sidecar score is the maximum of the written map over valid pixels."""
    valid = np.asarray(mask, dtype=bool)
    _require(written_map.shape == valid.shape,
             f"map shape {written_map.shape} != mask shape {valid.shape}")
    peak = written_map[valid].max() if valid.any() else written_map.dtype.type(0)
    _require(written_map.dtype.type(score) == peak,
             f"sidecar score {score!r} != map maximum {peak!r}")


def check_invalid_zero(written_map: np.ndarray, mask: np.ndarray) -> None:
    """Pixels outside the validity mask are exactly 0."""
    invalid = ~np.asarray(mask, dtype=bool)
    _require(not np.any(written_map[invalid]),
             f"{int(np.count_nonzero(written_map[invalid]))} invalid pixels are nonzero")


def rank_auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUROC with average ranks for tied scores."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    ranks = (last - (counts - 1) / 2.0)[inverse]
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def check_pixel_auroc(maps, gts, valids, reported: float, tol: float = 1e-12) -> None:
    """Rank AUROC of the pooled valid pixel scores equals the reported P-AUROC."""
    scores = np.concatenate([np.asarray(m)[np.asarray(v, bool)] for m, v in zip(maps, valids)])
    labels = np.concatenate([np.asarray(g, bool)[np.asarray(v, bool)] for g, v in zip(gts, valids)])
    own = rank_auroc(scores, labels)
    _require(abs(own - reported) <= tol, f"p_auroc {reported!r} != rank AUROC {own!r}")
