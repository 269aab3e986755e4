"""Deterministic synthetic tri-modal benchmark.

Nominal samples of a class share a latent field Z: the RGB and 3D grids are
two different linear images of the same smooth Z plus observation noise.
Anomalies replace the 3D features inside a localized elliptical blob with an
independent latent, breaking the cross-modal relation the head learns while
keeping per-pixel magnitudes comparable to nominal ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

MVTEC_CLASS_NAMES = [
    "bagel", "cable gland", "carrot", "cookie", "dowel",
    "foam", "peach", "potato", "rope", "tire",
]

DEFAULT_CLASSES = MVTEC_CLASS_NAMES[:4]


@dataclass
class SynthConfig:
    classes: list[str] = field(default_factory=lambda: list(DEFAULT_CLASSES))
    n_train: int = 64
    n_test: int = 32  # split 50/50 nominal/anomalous per class
    height: int = 16
    width: int = 16
    d_latent: int = 4
    d_rgb: int = 12
    d_3d: int = 18
    smoothness: int = 2
    noise_sigma: float = 0.02
    border: int = 1
    area_frac_min: float = 0.02
    area_frac_max: float = 0.15
    corrupt_modality: str = "3d"  # or "rgb"

    def validate(self) -> None:
        if not self.classes:
            raise ValueError("at least one class is required")
        if not all(self.classes):
            raise ValueError("class names must be nonempty")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError(f"duplicate class names in {self.classes}")
        if self.n_train < 1 or self.n_test < 2:
            raise ValueError("invalid sample counts")
        if self.height < 4 or self.width < 4:
            raise ValueError("grid extents must be >= 4")
        if min(self.d_rgb, self.d_3d, self.d_latent) < 1:
            raise ValueError(f"d_rgb, d_3d and d_latent must be >= 1, got {self.d_rgb}, "
                             f"{self.d_3d} and {self.d_latent}")
        if self.smoothness < 0:
            raise ValueError(f"smoothness must be >= 0, got {self.smoothness}")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, "
                             f"got {self.noise_sigma}")
        if not 0 <= 2 * self.border < min(self.height, self.width):
            raise ValueError(f"border {self.border} must be >= 0 and leave a valid "
                             f"pixel on the {self.height}x{self.width} grid")
        if self.corrupt_modality not in ("3d", "rgb"):
            raise ValueError(f"corrupt_modality must be '3d' or 'rgb', "
                             f"got {self.corrupt_modality!r}")
        if not 0.0 < self.area_frac_min <= self.area_frac_max <= 1.0:
            raise ValueError("invalid anomaly area fraction range")


@dataclass
class ClassGenerator:
    class_name: str
    a_rgb: np.ndarray  # (d_rgb, d_latent)
    a_3d: np.ndarray   # (d_3d, d_latent)
    cfg: SynthConfig


@dataclass
class LabeledSample:
    class_name: str
    f_rgb: np.ndarray   # (H, W, d_rgb)
    f_3d: np.ndarray    # (H, W, d_3d)
    mask: np.ndarray    # (H, W) bool validity
    gt_pixels: np.ndarray  # (H, W) bool ground truth
    is_anomalous: bool


def make_class_generator(class_name: str, cfg: SynthConfig,
                         seed_seq: np.random.SeedSequence) -> ClassGenerator:
    rng = np.random.default_rng(seed_seq)
    return ClassGenerator(
        class_name=class_name,
        a_rgb=rng.standard_normal((cfg.d_rgb, cfg.d_latent)),
        a_3d=rng.standard_normal((cfg.d_3d, cfg.d_latent)),
        cfg=cfg,
    )


def _smooth_latent(rng: np.random.Generator, h: int, w: int, d: int,
                   smoothness: int) -> np.ndarray:
    z = rng.standard_normal((h, w, d))
    for _ in range(smoothness):
        z = ndimage.uniform_filter(z, size=(3, 3, 1), mode="nearest")
    return z


def _observe(z: np.ndarray, a: np.ndarray, cfg: SynthConfig,
             rng: np.random.Generator) -> np.ndarray:
    """One modality's features: the linear image `z @ a.T` of the latent
    plus observation noise."""
    return z @ a.T + cfg.noise_sigma * rng.standard_normal(z.shape[:-1] + a.shape[:1])


def gen_nominal(cg: ClassGenerator, seed) -> LabeledSample:
    """One nominal sample on the configured grid: both modalities are linear
    images of one latent field."""
    cfg = cg.cfg
    h, w = cfg.height, cfg.width
    rng = np.random.default_rng(seed)
    z = _smooth_latent(rng, h, w, cg.a_rgb.shape[1], cfg.smoothness)
    f_rgb = _observe(z, cg.a_rgb, cfg, rng)
    f_3d = _observe(z, cg.a_3d, cfg, rng)
    mask = np.zeros((h, w), dtype=bool)
    b = cfg.border
    mask[b:h - b, b:w - b] = True
    return LabeledSample(cg.class_name, f_rgb, f_3d, mask,
                         np.zeros((h, w), dtype=bool), False)


def _elliptical_blob(rng: np.random.Generator, mask: np.ndarray,
                     target_count: int) -> np.ndarray:
    """Pick `target_count` valid pixels closest in elliptical distance to a center."""
    h, w = mask.shape
    rows, cols = np.nonzero(mask)
    center_idx = rng.integers(rows.size)
    cy, cx = rows[center_idx], cols[center_idx]
    aspect = rng.uniform(0.5, 2.0)
    theta = rng.uniform(0.0, np.pi)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    dy, dx = yy - cy, xx - cx
    u = np.cos(theta) * dx + np.sin(theta) * dy
    v = -np.sin(theta) * dx + np.cos(theta) * dy
    dist = (u * aspect) ** 2 + (v / aspect) ** 2
    dist[~mask] = np.inf
    flat_order = np.argsort(dist, axis=None, kind="stable")
    blob = np.zeros((h, w), dtype=bool)
    blob.flat[flat_order[:target_count]] = True
    return blob


def inject_anomaly(s: LabeledSample, cg: ClassGenerator, seed) -> LabeledSample:
    """Corrupt `cg`'s modality inside a seeded elliptical blob of the valid area."""
    if s.is_anomalous:
        raise ValueError("inject_anomaly expects a nominal input sample")
    cfg = cg.cfg
    rng = np.random.default_rng(seed)
    n_valid = int(s.mask.sum())
    frac = rng.uniform(cfg.area_frac_min, cfg.area_frac_max)
    target_count = max(1, round(frac * n_valid))
    blob = _elliptical_blob(rng, s.mask, target_count)
    n_blob = int(blob.sum())
    z_alt = rng.standard_normal((n_blob, cg.a_rgb.shape[1]))
    # match the variance of the blurred nominal latent so magnitude alone
    # cannot reveal the blob to an untrained model
    z_alt *= (3.0 ** -cfg.smoothness)
    f_rgb = s.f_rgb.copy()
    f_3d = s.f_3d.copy()
    f, a = (f_3d, cg.a_3d) if cfg.corrupt_modality == "3d" else (f_rgb, cg.a_rgb)
    f[blob] = _observe(z_alt, a, cfg, rng)
    return LabeledSample(s.class_name, f_rgb, f_3d, s.mask.copy(), blob, True)


def gen_dataset(cfg: SynthConfig, seed: int) -> tuple[list[LabeledSample],
                                                      list[LabeledSample]]:
    """Seeded benchmark: nominal-only train split, mixed 50/50 test split."""
    cfg.validate()
    train: list[LabeledSample] = []
    test: list[LabeledSample] = []
    for ci, name in enumerate(cfg.classes):
        class_seq = np.random.SeedSequence([seed, ci])
        cg = make_class_generator(name, cfg, class_seq)
        n_anom = cfg.n_test // 2
        n_test_nominal = cfg.n_test - n_anom
        children = class_seq.spawn(cfg.n_train + cfg.n_test + n_anom)
        for i in range(cfg.n_train):
            train.append(gen_nominal(cg, children[i]))
        for i in range(n_test_nominal):
            test.append(gen_nominal(cg, children[cfg.n_train + i]))
        for i in range(n_anom):
            base = gen_nominal(cg, children[cfg.n_train + n_test_nominal + i])
            test.append(inject_anomaly(base, cg, children[cfg.n_train + cfg.n_test + i]))
    return train, test
