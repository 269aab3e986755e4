"""Geometry-aware cross-modal mapper: predicts 3D-side features from RGB features.

The RGB feature grid is bifurcated into a semantic branch and a geometric
branch, blended by a sigmoid gate driven by the geometric branch, passed
through LayerNorm + GELU, and added to a residual projection of the input.
"""

from __future__ import annotations

import numpy as np

from .autograd import (
    DimensionMismatchError,
    LinearParams,
    ParameterStore,
    Tensor,
    add,
    gelu,
    layer_norm,
    linear_forward,
    mul,
    sigmoid,
    sub,
)

def _init_linear(store: ParameterStore, prefix: str, d_in: int, d_out: int,
                 rng: np.random.Generator) -> LinearParams:
    bound = 1.0 / np.sqrt(d_in)
    w = store.register(f"{prefix}.weight", rng.uniform(-bound, bound, size=(d_in, d_out)))
    b = store.register(f"{prefix}.bias", np.zeros(d_out))
    return LinearParams(w, b)


def _init_identity_linear(store: ParameterStore, prefix: str, d_in: int,
                          d_out: int) -> LinearParams:
    # identity when square, zero-padded identity otherwise
    w = store.register(f"{prefix}.weight", np.eye(d_in, d_out))
    b = store.register(f"{prefix}.bias", np.zeros(d_out))
    return LinearParams(w, b)


class GacmParams:
    """All trainable tensors of the mapper, registered under "gacm." in `store`."""

    def __init__(self, store: ParameterStore, d_rgb: int, d_3d: int,
                 rng: np.random.Generator):
        self.phi_s = _init_linear(store, "gacm.phi_s", d_rgb, d_3d, rng)
        self.phi_g = _init_linear(store, "gacm.phi_g", d_rgb, d_3d, rng)
        self.w_gate = _init_linear(store, "gacm.w_gate", d_3d, d_3d, rng)
        self.ln_gain = store.register("gacm.ln_gain", np.ones(d_3d))
        self.ln_shift = store.register("gacm.ln_shift", np.zeros(d_3d))
        self.residual = _init_identity_linear(store, "gacm.residual", d_rgb, d_3d)


def gacm_fuse(f_sem: Tensor, f_geo: Tensor, gate: Tensor) -> Tensor:
    """Convex per-element blend: geo * gate + sem * (1 - gate)."""
    if f_sem.data.shape != f_geo.data.shape or f_sem.data.shape != gate.data.shape:
        raise DimensionMismatchError(
            f"gacm_fuse shapes differ: {f_sem.data.shape}, {f_geo.data.shape}, "
            f"{gate.data.shape}")
    return add(mul(f_geo, gate), mul(f_sem, sub(1.0, gate)))


def gacm_forward(f_rgb, p: GacmParams) -> Tensor:
    """Full mapper: residual(F_rgb) + GELU(LN(fused))."""
    f_sem = linear_forward(f_rgb, p.phi_s)
    f_geo = linear_forward(f_rgb, p.phi_g)
    gate = sigmoid(linear_forward(f_geo, p.w_gate))
    fused = gacm_fuse(f_sem, f_geo, gate)
    mimic = gelu(layer_norm(fused, p.ln_gain, p.ln_shift))
    return add(linear_forward(f_rgb, p.residual), mimic)
