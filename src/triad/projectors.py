"""Dual-layer MLP projectors between modality feature spaces."""

from __future__ import annotations

import numpy as np

from .autograd import LinearParams, ParameterStore, Tensor, gelu, linear_forward
from .gacm import _init_linear


class MlpParams:
    """Two affine layers with a GELU in between: D_in -> D_hidden -> D_out."""

    def __init__(self, store: ParameterStore, d_in: int, d_out: int,
                 rng: np.random.Generator, prefix: str):
        self.d_hidden = d_hidden = max(d_in, d_out)
        self.layer1 = _init_linear(store, f"{prefix}.layer1", d_in, d_hidden, rng)
        self.layer2 = _init_linear(store, f"{prefix}.layer2", d_hidden, d_out, rng)


def project(f, p: MlpParams) -> Tensor:
    """Apply layer2(gelu(layer1(x))) to every patch vector."""
    return linear_forward(gelu(linear_forward(f, p.layer1)), p.layer2)
