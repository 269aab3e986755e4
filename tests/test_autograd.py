"""Tests for the dense-tensor primitives and the gradient-check harness."""

import numpy as np
import pytest

from triad.autograd import (
    DimensionMismatchError,
    LinearParams,
    NonFiniteError,
    ParameterStore,
    Tensor,
    add,
    column,
    cosine_rows,
    div,
    finite_diff_gradient_check,
    gather_rows,
    gelu,
    layer_norm,
    linear_forward,
    matmul,
    maximum_scalar,
    mean,
    mul,
    sigmoid,
    softmax_row,
    sqrt,
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
    assert gelu(Tensor(0.0)).item() == 0.0
    assert gelu(Tensor(30.0)).item() == pytest.approx(30.0, abs=1e-12)
    assert gelu(Tensor(-30.0)).item() == pytest.approx(0.0, abs=1e-12)
    # x * Phi(x) at x=1 against a high-precision normal-CDF value
    assert gelu(Tensor(1.0)).item() == pytest.approx(0.84134, abs=1e-4)


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
        return mean(mul(diff, diff))

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
        return tensor_sum(div(t, 0.0))

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
    gain = store.register("gain", 1.0 + 0.1 * rng.standard_normal(4))
    shift = store.register("shift", 0.1 * rng.standard_normal(4))

    def build():
        h = add(mul(a, b), div(b, 2.0))
        h = sub(h, mul(a, 0.25))
        h = matmul(h, w)
        h = add(gelu(h), sigmoid(h))
        h = add(h, sqrt(maximum_scalar(h, 0.5)))
        h = layer_norm(h, gain, shift)
        h = softmax_row(h)
        h = transpose(h)
        h = gather_rows(h, np.array([0, 2, 2]))
        sims = cosine_rows(h, add(h, b.data[:, :3].T * 0 + 1.0))
        return add(tensor_sum(h), mean(sims))

    report = finite_diff_gradient_check(_linear_objective(build, store, seed + 50),
                                        store)
    assert report.max_relative_error <= 1e-4, report


def test_parameter_store_rejects_duplicates():
    store = ParameterStore()
    store.register("w", np.zeros(2))
    with pytest.raises(ValueError):
        store.register("w", np.zeros(2))
    assert store.names() == ["w"]
    assert "w" in store and len(store) == 1
