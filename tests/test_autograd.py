"""Tests for the dense-tensor primitives and the gradient-check harness."""

import contextlib
import itertools
import math
import threading

import numpy as np
import pytest
from scipy.special import erf

from triad.autograd import (
    DimensionMismatchError,
    LinearParams,
    NonFiniteError,
    ParameterStore,
    Tensor,
    _make,
    _unbroadcast,
    add,
    as_tensor,
    column,
    cosine_rows,
    finite_diff_gradient_check,
    gather_rows,
    gelu,
    layer_norm,
    linear_forward,
    matmul,
    mul,
    no_grad,
    sigmoid,
    softmax_row,
    sub,
    tensor_sum,
    transpose,
)


def _store_with(name, data):
    store = ParameterStore()
    t = store.register(name, data)
    return store, t


def _linear_objective(build, store, seed):
    """Scalar objective: fixed random linear functional of `build()`'s output.

    A linear functional keeps every parameter gradient away from the
    finite-difference noise floor without hiding any backward rule.
    """
    rng = np.random.default_rng(seed)
    weights = None

    def objective():
        nonlocal weights
        out = build()
        if weights is None:
            weights = rng.standard_normal(out.data.shape)
        return tensor_sum(mul(out, Tensor(weights)))

    return objective


# ---------------------------------------------------------------------------
# forward values


def test_gelu_values():
    assert float(gelu(Tensor(0.0)).data) == 0.0
    assert float(gelu(Tensor(30.0)).data) == pytest.approx(30.0, abs=1e-12)
    assert float(gelu(Tensor(-30.0)).data) == pytest.approx(0.0, abs=1e-12)
    # x * Phi(x) at x=1 against a high-precision normal-CDF value
    assert float(gelu(Tensor(1.0)).data) == pytest.approx(0.84134, abs=1e-4)


def test_gelu_monotone_right_of_minimum():
    # x * Phi(x) is exactly monotone only to the right of its single minimum
    # near -0.7518; to the left the derivative Phi(x) + x*phi(x) is negative.
    x = np.arange(-0.75, 6.0, 1e-3)
    y = gelu(Tensor(x)).data
    assert (np.diff(y) >= 0).all()
    left = np.arange(-6.0, -0.76, 1e-3)
    assert (np.diff(gelu(Tensor(left)).data) <= 0).all()


def test_softmax_uniform_and_normalization():
    out = softmax_row(Tensor([0.0, 0.0, 0.0])).data
    np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 7)) * 50
    rows = softmax_row(Tensor(x)).data
    np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_shift_invariance():
    x = np.array([[1.0, 2.0, 3.0]])
    a = softmax_row(Tensor(x)).data
    b = softmax_row(Tensor(x + 100.0)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_layer_norm_constant_input_maps_to_shift():
    gain = Tensor(np.ones(4))
    shift = Tensor(np.zeros(4))
    out = layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]), gain, shift).data
    np.testing.assert_allclose(out, np.zeros(4), atol=1e-12)


def test_layer_norm_example_values():
    gain = Tensor(np.ones(3))
    shift = Tensor(np.ones(3))
    out = layer_norm(Tensor([0.0, 2.0, 4.0]), gain, shift).data
    np.testing.assert_allclose(out, [-0.2247, 1.0, 2.2247], atol=1e-3)


def test_layer_norm_rejects_width_one():
    with pytest.raises(DimensionMismatchError):
        layer_norm(Tensor([[1.0]]), Tensor(np.ones(1)), Tensor(np.zeros(1)))


def test_cosine_similarity_bounds_and_symmetry():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((2, 50, 6))
    c = cosine_rows(a, b).data
    assert c.shape == (50,)
    assert ((-1.0 - 1e-12 <= c) & (c <= 1.0 + 1e-12)).all()
    np.testing.assert_allclose(c, cosine_rows(b, a).data, rtol=0, atol=1e-15)


def test_cosine_similarity_special_cases():
    v = np.array([[1.0, 2.0, 3.0]])
    assert cosine_rows(v, v).data[0] == pytest.approx(1.0, abs=1e-12)
    assert cosine_rows(v, -v).data[0] == pytest.approx(-1.0, abs=1e-12)
    assert cosine_rows([[1.0, 0.0]], [[0.0, 1.0]]).data[0] == pytest.approx(0.0)


def test_linear_forward_zero_weight_gives_bias():
    store = ParameterStore()
    w = store.register("w", np.zeros((3, 2)))
    b = store.register("b", np.array([1.0, 2.0]))
    out = linear_forward(Tensor(np.random.default_rng(0).standard_normal((4, 3))),
                         LinearParams(w, b))
    np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0], (4, 1)))


def test_linear_forward_dimension_mismatch():
    store = ParameterStore()
    p = LinearParams(store.register("w", np.zeros((3, 2))),
                     store.register("b", np.zeros(2)))
    with pytest.raises(DimensionMismatchError):
        linear_forward(Tensor(np.zeros((4, 5))), p)


@pytest.mark.parametrize("shape", [(2, 5, 3), (3,)], ids=["linear-3d", "linear-1d"])
def test_linear_forward_rejects_other_ranks(shape):
    # callers flatten grids to (N, D) rows, as matmul requires
    store = ParameterStore()
    p = LinearParams(store.register("w", np.zeros((3, 2))),
                     store.register("b", np.zeros(2)))
    with pytest.raises(DimensionMismatchError, match="2-D"):
        linear_forward(Tensor(np.zeros(shape)), p)


def test_matmul_shape_errors():
    with pytest.raises(DimensionMismatchError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    with pytest.raises(DimensionMismatchError):
        matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


# ---------------------------------------------------------------------------
# backward correctness


def test_backward_requires_scalar():
    t = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ValueError):
        add(t, 1.0).backward()


def test_add_broadcasting_gradients():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    tensor_sum(add(a, b)).backward()
    np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
    np.testing.assert_array_equal(b.grad, np.full(3, 2.0))


def test_gather_rows_scatters_gradients():
    a = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = gather_rows(a, np.array([0, 0, 2]))
    tensor_sum(out).backward()
    np.testing.assert_array_equal(a.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_gather_rows_unique_and_repeated_indices_agree_with_dense_sum():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((5, 3))
    probe = rng.standard_normal((7, 3))
    for idx in (np.array([0, 1, 3, 4]), np.array([4, 1, 4, 0, 1, 1, 2])):
        a = Tensor(data, requires_grad=True)
        tensor_sum(mul(gather_rows(a, idx), Tensor(probe[:idx.size]))).backward()
        dense = np.eye(5)[idx].T @ probe[:idx.size]
        np.testing.assert_allclose(a.grad, dense, rtol=1e-14, atol=1e-15)


def test_column_selects_and_scatters():
    a = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = column(a, 1)
    np.testing.assert_array_equal(out.data, [[1.0], [3.0], [5.0]])
    tensor_sum(mul(out, Tensor(np.array([[1.0], [2.0], [3.0]])))).backward()
    np.testing.assert_array_equal(a.grad, [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])


def test_gradient_shared_by_two_parents_is_not_changed_in_place():
    # add() hands one gradient array to both operands; a later contribution
    # to `a` must not alter the gradient already given to `b`
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    tensor_sum(add(add(a, b), a)).backward()
    np.testing.assert_array_equal(a.grad, np.full(3, 2.0))
    np.testing.assert_array_equal(b.grad, np.ones(3))


def test_gradient_accumulates_over_shared_subexpressions():
    x = Tensor(2.0, requires_grad=True)
    y = add(mul(x, x), mul(x, 3.0))  # x^2 + 3x -> dy/dx = 2x + 3 = 7
    y.backward()
    assert float(x.grad) == pytest.approx(7.0)


def test_linear_layer_mean_square_gradcheck():
    rng = np.random.default_rng(3)
    store = ParameterStore()
    w = store.register("w", rng.standard_normal((4, 3)))
    b = store.register("b", rng.standard_normal(3))
    p = LinearParams(w, b)
    x = rng.standard_normal((5, 4))
    target = rng.standard_normal((5, 3))

    def objective():
        diff = sub(linear_forward(Tensor(x), p), Tensor(target))
        return mul(tensor_sum(mul(diff, diff)), 1.0 / diff.data.size)

    report = finite_diff_gradient_check(objective, store)
    assert report.max_relative_error <= 1e-6, report


def test_constant_objective_zero_gradients():
    store = ParameterStore()
    store.register("w", np.ones((2, 2)))

    def objective():
        return Tensor(4.0)

    report = finite_diff_gradient_check(objective, store)
    assert report.max_relative_error == 0.0


def test_nonfinite_objective_raises():
    store = ParameterStore()
    t = store.register("w", np.ones(2))

    def objective():
        return tensor_sum(mul(t, np.inf))

    with pytest.raises(NonFiniteError):
        finite_diff_gradient_check(objective, store)


@pytest.mark.parametrize("seed", range(5))
def test_every_op_gradcheck(seed):
    """Composite covering each differentiable primitive, dims <= 8."""
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    a = store.register("a", rng.standard_normal((3, 4)) + 0.5)
    b = store.register("b", rng.standard_normal((3, 4)) + 0.5)
    w = store.register("w", rng.standard_normal((4, 4)))
    lin = LinearParams(store.register("lin.weight", rng.standard_normal((4, 4))),
                       store.register("lin.bias", rng.standard_normal(4)))
    gain = store.register("gain", 1.0 + 0.1 * rng.standard_normal(4))
    shift = store.register("shift", 0.1 * rng.standard_normal(4))

    def build():
        h = add(mul(a, b), mul(b, 0.5))
        h = sub(h, mul(a, 0.25))
        h = matmul(h, w)
        h = add(gelu(h), sigmoid(h))
        h = linear_forward(h, lin)
        h = layer_norm(h, gain, shift)
        h = softmax_row(h)
        h = transpose(h)
        h = gather_rows(h, np.array([0, 2, 2]))
        h = add(h, column(h, 1))
        sims = cosine_rows(h, add(h, b.data[:, :3].T * 0 + 1.0))
        return add(tensor_sum(h), tensor_sum(sims))

    report = finite_diff_gradient_check(_linear_objective(build, store, seed + 50),
                                        store)
    assert report.max_relative_error <= 1e-4, report


def test_parameter_store_rejects_duplicates():
    store = ParameterStore()
    store.register("w", np.zeros(2))
    with pytest.raises(ValueError):
        store.register("w", np.zeros(2))
    assert [name for name, _ in store.items()] == ["w"]


# ---------------------------------------------------------------------------
# fused layer nodes against the chains of elementary nodes they replace
#
# Literal copies of the elementary ops and of the composite layers built from
# them.  The fused nodes must give these values and gradients to the last bit.


def _ref_mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    else:
        n = a.data.shape[axis]
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def _ref_div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(data, (a, b), bw)


def _ref_maximum_scalar(a, c):
    a = as_tensor(a)
    data = np.maximum(a.data, c)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * (a.data >= c))

    return _make(data, (a,), bw)


def _ref_sqrt(a):
    a = as_tensor(a)
    data = np.sqrt(a.data)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * 0.5 / data)

    return _make(data, (a,), bw)


def _ref_layer_norm(x, gain, shift):
    x = as_tensor(x)
    mu = _ref_mean(x, axis=-1, keepdims=True)
    xc = sub(x, mu)
    var = _ref_mean(mul(xc, xc), axis=-1, keepdims=True)
    xhat = _ref_div(xc, _ref_sqrt(add(var, 1e-5)))
    return add(mul(xhat, gain), shift)


def _ref_cosine_rows(a, b, eps=1e-8):
    a, b = as_tensor(a), as_tensor(b)
    dot = tensor_sum(mul(a, b), axis=-1)
    na = _ref_sqrt(_ref_maximum_scalar(tensor_sum(mul(a, a), axis=-1), eps * eps))
    nb = _ref_sqrt(_ref_maximum_scalar(tensor_sum(mul(b, b), axis=-1), eps * eps))
    return _ref_div(dot, mul(na, nb))


def _ref_linear_forward(x, p):
    return add(matmul(x, p.weight), p.bias)


def _linear_args(x, w, b):
    return x, LinearParams(w, b)


def _fused_cases(rng):
    """(name, fused op, reference op, argument packer, argument arrays) for
    every fused layer."""
    zero_row = rng.standard_normal((6, 5))
    zero_row[2] = 0.0
    return [
        ("linear-2d", linear_forward, _ref_linear_forward, _linear_args,
         [rng.standard_normal((7, 4)), rng.standard_normal((4, 3)),
          rng.standard_normal(3)]),
        ("layer-norm-2d", layer_norm, _ref_layer_norm, None,
         [rng.standard_normal((6, 5)) * 3.0 + 1.0, 1.0 + 0.2 * rng.standard_normal(5),
          0.1 * rng.standard_normal(5)]),
        ("layer-norm-3d", layer_norm, _ref_layer_norm, None,
         [rng.standard_normal((2, 3, 4)), 1.0 + 0.2 * rng.standard_normal(4),
          0.1 * rng.standard_normal(4)]),
        ("cosine", cosine_rows, _ref_cosine_rows, None,
         [rng.standard_normal((6, 5)), rng.standard_normal((6, 5))]),
        ("cosine-zero-row", cosine_rows, _ref_cosine_rows, None,
         [zero_row, rng.standard_normal((6, 5))]),
    ]


def _run_layer(op, pack, arrays, probe_seed, other_first):
    """Values and every gradient of a loss where the layer's first input is a
    non-leaf that also feeds a second branch of the graph.

    `other_first` puts the second branch's backward before the layer's, so
    the layer's gradient terms are added to a gradient already there.
    """
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    first = mul(leaves[0], 1.5)
    args = [first, *leaves[1:]]
    out = op(*(pack(*args) if pack else args))
    rng = np.random.default_rng(probe_seed)
    terms = [tensor_sum(mul(out, Tensor(rng.standard_normal(out.data.shape)))),
             tensor_sum(mul(gelu(first), Tensor(rng.standard_normal(first.data.shape))))]
    loss = add(*(terms[::-1] if other_first else terms))
    loss.backward()
    return out.data, loss.data, [t.grad for t in leaves]


@pytest.mark.parametrize("seed", range(3))
def test_fused_layers_equal_composite_chains_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for (name, fused, ref, pack, arrays), other_first in itertools.product(
            _fused_cases(rng), (False, True)):
        out, loss, grads = _run_layer(fused, pack, arrays, seed + 10, other_first)
        ref_out, ref_loss, ref_grads = _run_layer(ref, pack, arrays, seed + 10,
                                                  other_first)
        assert out.shape == ref_out.shape and (out == ref_out).all(), name
        assert loss == ref_loss, name
        for g, rg in zip(grads, ref_grads):
            assert g.shape == rg.shape and (g == rg).all(), name
        assert all(np.isfinite(g).all() for g in grads), name


def test_fused_layers_build_one_node():
    rng = np.random.default_rng(0)
    for name, fused, _, pack, arrays in _fused_cases(rng):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = fused(*(pack(*leaves) if pack else leaves))
        assert out._parents == tuple(leaves), name


@pytest.mark.parametrize("name", ["linear-2d", "layer-norm-2d", "layer-norm-3d",
                                  "cosine", "cosine-zero-row"])
def test_fused_layer_central_difference(name):
    rng = np.random.default_rng(7)
    case = {c[0]: c for c in _fused_cases(rng)}[name]
    _, fused, _, pack, arrays = case
    store = ParameterStore()
    if name == "cosine-zero-row":
        # the zero row sits in a constant operand: at a zero row of a
        # parameter the clamped norm is not differentiable
        a = store.register("a", arrays[1])
        args = [Tensor(arrays[0]), a]
    else:
        args = [store.register(f"p{i}", arr) for i, arr in enumerate(arrays)]

    def build():
        return fused(*(pack(*args) if pack else args))

    report = finite_diff_gradient_check(_linear_objective(build, store, 3), store)
    assert report.max_relative_error <= 1e-6, report


def test_gelu_and_sigmoid_in_place_kernels_keep_the_formulas_bits():
    x = np.random.default_rng(2).standard_normal((5, 7)) * 4.0
    before = x.copy()
    want_gelu = x * (0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0)))))
    want_sigmoid = 1.0 / (1.0 + np.exp(-x))
    for requires_grad in (True, False):
        t = Tensor(x, requires_grad=requires_grad)
        for grad_off in (False, True):
            with no_grad() if grad_off else contextlib.nullcontext():
                assert (gelu(t).data == want_gelu).all()
                assert (sigmoid(t).data == want_sigmoid).all()
    assert (x == before).all()  # the input array is never written


# ---------------------------------------------------------------------------
# grad mode


def test_no_grad_results_are_leaves():
    store = ParameterStore()
    p = LinearParams(store.register("w", np.ones((3, 2))), store.register("b", np.ones(2)))
    x = store.register("x", np.ones((4, 3)))
    with no_grad():
        outs = [linear_forward(x, p), layer_norm(x, x.data[0], 0.0), cosine_rows(x, x),
                gelu(x), sigmoid(x), add(x, x), softmax_row(x)]
    for out in outs:
        assert out._parents == () and out._backward is None and not out.requires_grad
    assert add(x, 1.0)._parents[0] is x  # grad mode is back


def test_no_grad_restores_the_mode_after_nesting_and_errors():
    x = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside")
    assert add(x, 1.0).requires_grad
    with no_grad():
        with no_grad():
            pass
        assert not add(x, 1.0).requires_grad  # the inner exit keeps it off
        with pytest.raises(KeyError):
            with no_grad():
                raise KeyError("nested")
        assert not add(x, 1.0).requires_grad
    assert add(x, 1.0).requires_grad


def test_no_grad_is_per_thread():
    x = Tensor(np.ones(2), requires_grad=True)
    seen = []
    with no_grad():
        worker = threading.Thread(target=lambda: seen.append(add(x, 1.0).requires_grad))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert not add(x, 1.0).requires_grad
    assert seen == [True]
