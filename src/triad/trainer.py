"""Unified multi-class training loop with Adam and non-finite gradient filtering."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .autograd import (
    GradCheckReport,
    Tensor,
    finite_diff_gradient_check,
    gather_rows,
    mul,
)
from .losses import LossWeights, sample_row_weights, text_loss, total_loss, visual_loss
from .model import Model, ModelDims
from .octa import PromptCatalog
from .synthdata import LabeledSample

log = logging.getLogger(__name__)


class TrainingContractError(ValueError):
    """An anomalous sample reached the (nominal-only) training path."""


@dataclass
class TrainConfig:
    steps: int = 200
    batch_size: int = 8
    # calibrated on the reference benchmark run: at the 200-step budget the
    # cross-modal mapping needs this step size to converge on one CPU core
    learning_rate: float = 2e-2
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 7
    loss_weights: LossWeights = field(default_factory=LossWeights)

    def validate(self) -> None:
        if self.steps < 0 or self.batch_size < 1:
            raise ValueError("steps must be >= 0 and batch_size >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and >= 0")
        if not 0 <= self.adam_beta1 < 1 or not 0 <= self.adam_beta2 < 1:
            raise ValueError("Adam betas must be in [0, 1)")
        if not (np.isfinite(self.adam_eps) and self.adam_eps > 0):
            raise ValueError(f"adam_eps must be finite and > 0, got {self.adam_eps}")
        self.loss_weights.validate()


class AdamState:
    """First/second moment accumulators in the layout of the parameter buffer."""

    def __init__(self, model: Model):
        self.t = 0
        self.m = np.zeros_like(model.store.flat)
        self.v = np.zeros_like(model.store.flat)


def filter_nonfinite(grad: np.ndarray, slices: dict[str, slice]) -> None:
    """Zero out (and log) each tensor's slice of `grad` that holds NaN or Inf."""
    finite = np.isfinite(grad)
    if finite.all():
        return
    for name, s in slices.items():
        if not finite[s].all():
            log.warning("non-finite gradient filtered for %s", name)
            grad[s] = 0.0


def batch_loss(model: Model, batch: list[LabeledSample], w: LossWeights,
               mode: str = "train",
               dropout_rng: np.random.Generator | None = None
               ) -> tuple[Tensor, float, float]:
    """Mean loss over a batch, built as one graph on its valid patch rows.

    The one place in training that reads the masks: each sample's valid rows
    are stacked in row-major order, so invalid patches never reach the model.
    Each module runs once per batch, and the anchors of the batch's classes
    come from one adaptor pass in sorted class order; each row takes its
    class's anchor row.  Row weights 1/(n_s * B) make the weighted sums the
    mean over the samples of each sample's mean over its n_s valid rows.
    """
    classes = sorted({s.class_name for s in batch})
    anchors = model.text_anchors(classes, mode=mode, dropout_rng=dropout_rng)
    feats = model.forward_sample(np.concatenate([s.f_rgb[s.mask] for s in batch]),
                                 np.concatenate([s.f_3d[s.mask] for s in batch]))
    counts = [int(np.count_nonzero(s.mask)) for s in batch]
    weights = sample_row_weights(counts)
    row_class = np.repeat([classes.index(s.class_name) for s in batch], counts)
    l_vis = visual_loss(feats["f_rgb"], feats["f_3d"], feats["f_rgb_to_3d"],
                        feats["f_3d_to_rgb"], w, weights)
    l_text = text_loss(feats["f_rgb_to_text"], feats["f_3d_to_text"],
                       gather_rows(anchors, row_class), w, weights)
    return total_loss(l_vis, l_text), float(l_vis.data), float(l_text.data)


def train_step(batch: list[LabeledSample], model: Model, opt: AdamState,
               cfg: TrainConfig, step: int) -> tuple[float, float, float]:
    """One optimization step; returns (l_total, l_vis, l_text)."""
    for s in batch:
        if s.is_anomalous:
            raise TrainingContractError(
                f"anomalous sample of class {s.class_name!r} in training batch")
    dropout_rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([cfg.seed, 1, step])))
    model.store.zero_grad()
    loss, l_vis, l_text = batch_loss(model, batch, cfg.loss_weights,
                                     mode="train", dropout_rng=dropout_rng)
    loss.backward()
    grad = model.store.gather_grads()
    filter_nonfinite(grad, model.store.slices)
    _adam_update(model.store.flat, opt, grad, cfg)
    return float(loss.data), l_vis, l_text


def _adam_update(params: np.ndarray, opt: AdamState, g: np.ndarray,
                 cfg: TrainConfig) -> None:
    """One Adam step over the whole parameter buffer, in place."""
    opt.t += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    opt.m = b1 * opt.m + (1 - b1) * g
    opt.v = b2 * opt.v + (1 - b2) * g * g
    m_hat = opt.m / (1 - b1 ** opt.t)
    v_hat = opt.v / (1 - b2 ** opt.t)
    params -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


def train(cfg: TrainConfig, model: Model, train_samples: list[LabeledSample]
          ) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Run the full loop; returns the final parameter arrays and the loss log."""
    cfg.validate()
    if not train_samples:
        raise ValueError("empty training set")
    opt = AdamState(model)
    shuffle_rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([cfg.seed, 2])))
    order: list[int] = []
    loss_log: list[dict] = []
    for step in range(cfg.steps):
        if len(order) < cfg.batch_size:
            perm = shuffle_rng.permutation(len(train_samples)).tolist()
            order.extend(perm)
        idx, order = order[:cfg.batch_size], order[cfg.batch_size:]
        batch = [train_samples[i] for i in idx]
        l_total, l_vis, l_text = train_step(batch, model, opt, cfg, step)
        loss_log.append({"step": step, "l_vis": l_vis, "l_text": l_text,
                         "l_total": l_total})
    return model.export_arrays(), loss_log


# Objective scale for the finite-difference check.  A power of two multiplies
# exactly in binary floating point, so the analytic gradients being verified
# are bit-equivalent to those of the unscaled loss, while the smaller objective
# keeps central-difference roundoff (proportional to |f|/FD_EPSILON) below the
# 1e-8 comparison floor even for coordinates whose true gradient is ~0.
GRADCHECK_OBJECTIVE_SCALE = 2.0 ** -11

# Prompt catalog for the check model: sentences that share almost every token
# embed to nearly parallel rows, which makes the prototype attention uniform
# and its query/key gradients vanish identically — a degenerate point where
# the check would be vacuous for those tensors.  Distinct filler tokens keep
# the rows spread out.
_GRADCHECK_CATALOG = PromptCatalog(
    states=["[c]", "zebra [c] quantum", "[c] umbrella"],
    templates=["[s] nine", "crimson [s] fourteen"],
)

# Attention tensors are amplified at the check point: their gradients scale
# with the product of prototype, key, and value magnitudes, and at the raw
# initialization they sit orders of magnitude below every other tensor's.
_GRADCHECK_AMPLIFIED = ("proto.prototype", "proto.wq", "proto.wk", "proto.wv")


def run_gradcheck(seed: int = 0) -> GradCheckReport:
    """Finite-difference check of the full objective at tiny dimensions.

    The check evaluates at a generic point: a seeded perturbation is added to
    every parameter so that no tensor sits at a symmetric initialization where
    its gradient would be structurally zero (and the comparison vacuous).
    """
    dims = ModelDims(d_rgb=4, d_3d=6, d_text=8, n_experts=3, top_k=2,
                     dropout_rate=0.0)
    model = Model(dims, seed=seed + 1, catalog=_GRADCHECK_CATALOG)
    prng = np.random.default_rng(seed + 100)
    for name, p in model.store.items():
        p.data += 0.3 * prng.standard_normal(p.data.shape)
        if name in _GRADCHECK_AMPLIFIED:
            p.data *= 2.0

    sample_rng = np.random.default_rng(seed + 500)
    mask = np.ones((2, 2), dtype=bool)
    mask[0, 0] = False  # exercise the invalid-patch path
    batch = [
        LabeledSample(cname,
                      sample_rng.standard_normal((2, 2, dims.d_rgb)),
                      sample_rng.standard_normal((2, 2, dims.d_3d)),
                      mask.copy(), np.zeros((2, 2), dtype=bool), False)
        for cname in ("bagel", "dowel")
    ]
    weights = LossWeights()

    def objective() -> Tensor:
        loss, _, _ = batch_loss(model, batch, weights, mode="eval")
        return mul(loss, GRADCHECK_OBJECTIVE_SCALE)

    report = finite_diff_gradient_check(objective, model.store)
    if not report.passed():
        log.warning("gradient check failed: %s", report)
    return report
