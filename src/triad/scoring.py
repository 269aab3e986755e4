"""Inference-time anomaly map construction and fusion.

All inputs here are plain numpy arrays.  The per-modality maps are computed
on (N, D) patch rows and are (N,) vectors; the caller reshapes the fused map
to its (H, W) grid.  No gradients are needed at inference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeMismatchError(ValueError):
    pass


@dataclass
class FusionWeights:
    """Blend between the cross-modal product map and the textual map."""

    alpha: float = 0.5
    beta: float = 0.5

    def validate(self) -> None:
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")


def distance_map(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row Euclidean distance between (N, D) patch rows.

    `a` is either (N, D), row against row, or one (1, D) row compared with
    every row of `b`.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2 or a.shape not in (b.shape, (1,) + b.shape[1:]):
        raise ShapeMismatchError(f"row shapes differ: {a.shape} vs {b.shape}")
    return np.sqrt(((a - b) ** 2).sum(axis=-1))


def psi_rgb(f_rgb: np.ndarray, f_3d_to_rgb: np.ndarray) -> np.ndarray:
    """RGB-space discrepancy between observed features and the 3D-to-RGB mapping."""
    return distance_map(f_rgb, f_3d_to_rgb)


def psi_3d(f_3d: np.ndarray, f_rgb_to_3d: np.ndarray) -> np.ndarray:
    """3D-space discrepancy between observed features and the RGB-to-3D mapping."""
    return distance_map(f_3d, f_rgb_to_3d)


def psi_text(text_anchor: np.ndarray, f_rgb_to_text: np.ndarray,
             f_3d_to_text: np.ndarray) -> np.ndarray:
    """Product of the two per-patch distances to the (1, D) text anchor."""
    return (distance_map(text_anchor, f_rgb_to_text)
            * distance_map(text_anchor, f_3d_to_text))


def fuse(psi_rgb_map: np.ndarray, psi_3d_map: np.ndarray, psi_text_map: np.ndarray,
         w: FusionWeights | None = None) -> np.ndarray:
    """Final map: alpha * (psi_rgb * psi_3d) + beta * psi_text, per pixel."""
    if w is None:
        w = FusionWeights()
    r = np.asarray(psi_rgb_map, dtype=np.float64)
    g = np.asarray(psi_3d_map, dtype=np.float64)
    t = np.asarray(psi_text_map, dtype=np.float64)
    if r.shape != g.shape or r.shape != t.shape:
        raise ShapeMismatchError(
            f"map shapes differ: {r.shape}, {g.shape}, {t.shape}")
    return w.alpha * (r * g) + w.beta * t


def image_score(psi_final: np.ndarray, mask: np.ndarray) -> float:
    """Maximum anomaly value over valid pixels; 0 when no pixel is valid."""
    psi_final = np.asarray(psi_final, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if psi_final.shape != mask.shape:
        raise ShapeMismatchError(
            f"map shape {psi_final.shape} != mask shape {mask.shape}")
    if not mask.any():
        return 0.0
    return float(psi_final[mask].max())


def zero_invalid(psi_final: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Clear invalid pixels so they never outrank defects in pixel metrics."""
    out = np.asarray(psi_final, dtype=np.float64).copy()
    out[~np.asarray(mask, dtype=bool)] = 0.0
    return out
