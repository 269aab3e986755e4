"""Tests for the geometry-aware RGB-to-3D mapper."""

import contextlib
import math

import numpy as np
import pytest
from scipy.special import erf

from triad.autograd import (
    DimensionMismatchError,
    ParameterStore,
    Tensor,
    finite_diff_gradient_check,
    mul,
    no_grad,
    tensor_sum,
)
from triad.gacm import GacmParams, gacm_forward, gacm_fuse


def _params(d_rgb=4, d_3d=6, seed=0, zero_branches=False):
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    p = GacmParams(store, d_rgb, d_3d, rng)
    if zero_branches:  # exact pass-through: only the residual is left
        for lin in (p.phi_s, p.phi_g, p.w_gate):
            lin.weight.data[...] = 0.0
    return store, p


def _gacm_reference(x, p):
    """The mapper in plain numpy, in the autograd's operation order."""
    def linear(v, lin):
        return v @ lin.weight.data + lin.bias.data

    sem = linear(x, p.phi_s)
    geo = linear(x, p.phi_g)
    g = 1.0 / (np.exp(-linear(geo, p.w_gate)) + 1.0)
    fused = geo * g + sem * (1.0 - g)
    inv_n = 1.0 / fused.shape[-1]
    xc = fused - fused.sum(axis=-1, keepdims=True) * inv_n
    den = np.sqrt((xc * xc).sum(axis=-1, keepdims=True) * inv_n + 1e-5)
    ln = xc / den * p.ln_gain.data + p.ln_shift.data
    mimic = ln * ((erf(ln * (1.0 / math.sqrt(2.0))) + 1.0) * 0.5)
    return linear(x, p.residual) + mimic


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("grad", [True, False])
def test_forward_equals_the_numpy_reference(seed, grad):
    rng = np.random.default_rng(seed + 20)
    store, p = _params(d_rgb=12, d_3d=18, seed=seed)
    for t in (p.ln_gain, p.ln_shift, p.phi_s.bias, p.phi_g.bias, p.w_gate.bias):
        t.data[...] = rng.standard_normal(t.data.shape)  # reach every term
    x = 3.0 * rng.standard_normal((37, 12))
    with contextlib.nullcontext() if grad else no_grad():
        out = gacm_forward(Tensor(x), p)
    assert out.data.shape == (37, 18)
    assert (out.data == _gacm_reference(x, p)).all()


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
