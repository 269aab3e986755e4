"""Inference-time anomaly map construction and fusion.

All inputs here are plain numpy arrays.  The per-modality maps are computed
on (N, D) patch rows and are (N,) vectors; the caller places the fused map
on its (H, W) grid.  No gradients are needed at inference.
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


def psi_text(text_anchor: np.ndarray, f_rgb_to_text: np.ndarray,
             f_3d_to_text: np.ndarray) -> np.ndarray:
    """Product of the two per-patch distances to the (1, D) text anchor."""
    return (distance_map(text_anchor, f_rgb_to_text)
            * distance_map(text_anchor, f_3d_to_text))


def fuse(map_rgb: np.ndarray, map_3d: np.ndarray, map_text: np.ndarray,
         w: FusionWeights | None = None) -> np.ndarray:
    """Final map: alpha * (map_rgb * map_3d) + beta * map_text, per pixel.

    `map_rgb` and `map_3d` are the `distance_map`s between each modality's
    observed rows and the rows mapped from the other modality.
    """
    if w is None:
        w = FusionWeights()
    r = np.asarray(map_rgb, dtype=np.float64)
    g = np.asarray(map_3d, dtype=np.float64)
    t = np.asarray(map_text, dtype=np.float64)
    if r.shape != g.shape or r.shape != t.shape:
        raise ShapeMismatchError(
            f"map shapes differ: {r.shape}, {g.shape}, {t.shape}")
    return w.alpha * (r * g) + w.beta * t

