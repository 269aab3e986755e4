"""Tests for the geometry-aware RGB-to-3D mapper."""

import numpy as np
import pytest

from triad.autograd import (
    DimensionMismatchError,
    ParameterStore,
    Tensor,
    finite_diff_gradient_check,
    mul,
    tensor_sum,
)
from triad.gacm import (
    GacmParams,
    gacm_bifurcate,
    gacm_forward,
    gacm_fuse,
    gacm_gate,
)


def _params(d_rgb=4, d_3d=6, seed=0, zero_branches=False):
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    return store, GacmParams(store, d_rgb, d_3d, rng, zero_branches=zero_branches)


def test_bifurcate_shapes():
    store, p = _params()
    f_sem, f_geo = gacm_bifurcate(Tensor(np.ones((5, 4))), p)
    assert f_sem.data.shape == (5, 6)
    assert f_geo.data.shape == (5, 6)


def test_gate_strictly_inside_unit_interval():
    store, p = _params(seed=1)
    rng = np.random.default_rng(2)
    gate = gacm_gate(Tensor(rng.standard_normal((8, 6)) * 5), p)
    assert (gate.data > 0.0).all() and (gate.data < 1.0).all()


def test_fuse_convex_between_inputs():
    rng = np.random.default_rng(3)
    sem = rng.standard_normal((7, 6))
    geo = rng.standard_normal((7, 6))
    gate = rng.uniform(0.01, 0.99, size=(7, 6))
    fused = gacm_fuse(Tensor(sem), Tensor(geo), Tensor(gate)).data
    lo = np.minimum(sem, geo)
    hi = np.maximum(sem, geo)
    assert (fused >= lo - 1e-12).all() and (fused <= hi + 1e-12).all()


def test_fuse_gate_extremes():
    sem = Tensor(np.full((2, 3), 5.0))
    geo = Tensor(np.full((2, 3), -1.0))
    all_geo = gacm_fuse(sem, geo, Tensor(np.ones((2, 3))))
    all_sem = gacm_fuse(sem, geo, Tensor(np.zeros((2, 3))))
    np.testing.assert_array_equal(all_geo.data, geo.data)
    np.testing.assert_array_equal(all_sem.data, sem.data)


def test_fuse_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        gacm_fuse(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))),
                  Tensor(np.zeros((3, 2))))


def test_pass_through_initialization_is_exact_identity():
    # square widths, zeroed branches: residual = identity, mapped branch = 0
    store, p = _params(d_rgb=5, d_3d=5, zero_branches=True)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((9, 5))
    out = gacm_forward(Tensor(x), p)
    np.testing.assert_array_equal(out.data, x)


def test_constant_fused_rows_reduce_to_residual():
    # when the fused features are constant per patch, LN outputs zero and
    # gelu(0) = 0, so the mapper returns exactly the residual projection
    store, p = _params(d_rgb=4, d_3d=6, zero_branches=True)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 4))
    out = gacm_forward(Tensor(x), p)
    expected = np.zeros((3, 6))
    expected[:, :4] = x  # zero-padded identity residual
    np.testing.assert_allclose(out.data, expected, atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_gacm_forward_gradcheck(seed):
    store, p = _params(seed=seed)
    rng = np.random.default_rng(seed + 10)
    x = rng.standard_normal((4, 4))  # 2x2 grid flattened
    probe = rng.standard_normal((4, 6))

    def objective():
        return tensor_sum(mul(gacm_forward(Tensor(x), p), Tensor(probe)))

    report = finite_diff_gradient_check(objective, store)
    assert report.max_relative_error <= 1e-4, report


def test_gradients_reach_every_parameter():
    store, p = _params(seed=6)
    rng = np.random.default_rng(7)
    out = gacm_forward(Tensor(rng.standard_normal((4, 4))), p)
    tensor_sum(mul(out, out)).backward()
    for name, t in store.items():
        assert t.grad is not None, name
        assert np.abs(t.grad).max() > 0.0, name
