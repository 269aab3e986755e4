"""Tests for the dual-layer MLP modality projectors."""

import numpy as np
import pytest

from triad.autograd import (
    DimensionMismatchError,
    ParameterStore,
    Tensor,
    finite_diff_gradient_check,
    gelu,
    linear_forward,
    mul,
    tensor_sum,
)
from triad.projectors import MlpParams, project


def _mlp(d_in, d_out, seed=0):
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    return store, MlpParams(store, d_in, d_out, rng, "proj")


def test_output_width_matches_target():
    for d_in, d_out in ((6, 4), (4, 8), (5, 5)):
        store, p = _mlp(d_in, d_out)
        out = project(Tensor(np.ones((3, d_in))), p)
        assert out.data.shape == (3, d_out)


def test_default_hidden_width_is_max_of_ends():
    _, p = _mlp(6, 4)
    assert p.d_hidden == 6
    _, p = _mlp(4, 8)
    assert p.d_hidden == 8


def test_matches_composed_linear_gelu_oracle():
    store, p = _mlp(2, 2, seed=1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 2))
    got = project(Tensor(x), p).data
    expected = linear_forward(gelu(linear_forward(Tensor(x), p.layer1)),
                              p.layer2).data
    np.testing.assert_array_equal(got, expected)
    # and against a plain-numpy recomputation
    h = x @ p.layer1.weight.data + p.layer1.bias.data
    h = gelu(Tensor(h)).data
    manual = h @ p.layer2.weight.data + p.layer2.bias.data
    np.testing.assert_allclose(got, manual, atol=1e-15)


def test_grid_shaped_input_rejected():
    # the model flattens (H, W, D) grids to (H*W, D) patch rows first
    store, p = _mlp(3, 5, seed=3)
    with pytest.raises(DimensionMismatchError):
        project(Tensor(np.zeros((2, 2, 3))), p)


@pytest.mark.parametrize("seed", range(5))
def test_projector_gradcheck(seed):
    store, p = _mlp(6, 4, seed=seed)
    rng = np.random.default_rng(seed + 20)
    x = rng.standard_normal((4, 6))  # 2x2 grid flattened
    probe = rng.standard_normal((4, 4))

    def objective():
        return tensor_sum(mul(project(Tensor(x), p), Tensor(probe)))

    report = finite_diff_gradient_check(objective, store)
    assert report.max_relative_error <= 1e-4, report
