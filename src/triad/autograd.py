"""Dense double-precision tensors with reverse-mode automatic differentiation.

Every value is a row-major float64 numpy array wrapped in a :class:`Tensor`
node of a dynamically built computation graph.  Calling ``backward()`` on a
scalar output accumulates gradients into every reachable node that has
``requires_grad`` set.  All operations are pure: a node's data is never
mutated after construction, so graphs are safe to share across threads.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf as _erf

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class DimensionMismatchError(ValueError):
    """Raised when operand extents are incompatible."""


class NonFiniteError(FloatingPointError):
    """Raised when an operation that requires finite values sees NaN/Inf."""


class Tensor:
    """A float64 array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        # The first gradient is kept as is; later ones are added out of place,
        # so an array handed to several parents is never changed under them.
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Backpropagate from this scalar through the graph."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # convenience operators; everything routes through the module functions
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` over the axes that numpy broadcasting expanded."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _make(data: np.ndarray, parents: Sequence[Tensor],
          backward: Callable[[np.ndarray], None] | None) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return _make(data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(data, (a, b), bw)


def maximum_scalar(a, c: float) -> Tensor:
    """Elementwise max(a, c) for a constant c; subgradient routes to `a` at ties."""
    a = as_tensor(a)
    data = np.maximum(a.data, c)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * (a.data >= c))

    return _make(data, (a,), bw)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    data = np.sqrt(a.data)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * 0.5 / data)

    return _make(data, (a,), bw)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    data = 1.0 / (1.0 + np.exp(-a.data))

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * data * (1.0 - data))

    return _make(data, (a,), bw)


def gelu(a) -> Tensor:
    """Exact GELU: x * Phi(x) with Phi the standard-normal CDF (erf form)."""
    a = as_tensor(a)
    phi = 0.5 * (1.0 + _erf(a.data * _INV_SQRT2))
    data = a.data * phi

    def bw(g):
        if a.requires_grad:
            pdf = _INV_SQRT2PI * np.exp(-0.5 * a.data * a.data)
            a._accumulate(g * (phi + a.data * pdf))

    return _make(data, (a,), bw)


# ---------------------------------------------------------------------------
# reductions and shape ops

def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        a._accumulate(np.broadcast_to(gg, a.data.shape).copy())

    return _make(data, (a,), bw)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    else:
        n = a.data.shape[axis]
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))

    return _make(data, (a,), bw)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    data = a.data.T

    def bw(g):
        if a.requires_grad:
            a._accumulate(g.T)

    return _make(data, (a,), bw)


def gather_rows(a, idx: np.ndarray) -> Tensor:
    """Select rows of a 2-D tensor; backward scatters gradients back."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    data = a.data[idx]

    def bw(g):
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            if (idx[1:] > idx[:-1]).all():
                acc[idx] = g  # strictly increasing indices are unique
            else:
                np.add.at(acc, idx, g)
            a._accumulate(acc)

    return _make(data, (a,), bw)


def column(a, i: int) -> Tensor:
    """Column i of a 2-D tensor as an (N, 1) tensor."""
    a = as_tensor(a)
    data = a.data[:, i:i + 1]

    def bw(g):
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            acc[:, i:i + 1] = g
            a._accumulate(acc)

    return _make(data, (a,), bw)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionMismatchError(
            f"matmul expects 2-D operands, got {a.data.ndim}-D and {b.data.ndim}-D")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionMismatchError(
            f"matmul inner extents differ: {a.data.shape[1]} vs {b.data.shape[0]}")
    data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(data, (a, b), bw)


# ---------------------------------------------------------------------------
# composite neural-net operations

def softmax_row(a) -> Tensor:
    """Numerically stable softmax along the last axis."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        if a.requires_grad:
            dot = (g * data).sum(axis=-1, keepdims=True)
            a._accumulate(data * (g - dot))

    return _make(data, (a,), bw)


def layer_norm(x, gain, shift) -> Tensor:
    """Per-vector zero-mean unit-variance normalization along the last axis.

    The variance is floored by adding 1e-5 before the square root.
    """
    x = as_tensor(x)
    if x.data.shape[-1] < 2:
        raise DimensionMismatchError(
            f"layer_norm needs a trailing extent >= 2, got {x.data.shape[-1]}")
    mu = mean(x, axis=-1, keepdims=True)
    xc = sub(x, mu)
    var = mean(mul(xc, xc), axis=-1, keepdims=True)
    xhat = div(xc, sqrt(add(var, 1e-5)))
    return add(mul(xhat, gain), shift)


def cosine_rows(a, b, eps: float = 1e-8) -> Tensor:
    """Row-wise cosine similarity of two (N, D) tensors; eps clamps norms."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise DimensionMismatchError(
            f"cosine_rows shapes differ: {a.data.shape} vs {b.data.shape}")
    dot = tensor_sum(mul(a, b), axis=-1)
    # clamp the squared norm before the root, so a zero row's gradient is 0, not 0/0
    na = sqrt(maximum_scalar(tensor_sum(mul(a, a), axis=-1), eps * eps))
    nb = sqrt(maximum_scalar(tensor_sum(mul(b, b), axis=-1), eps * eps))
    return div(dot, mul(na, nb))


# ---------------------------------------------------------------------------
# parameters and linear layers

class ParameterStore:
    """Named, ordered collection of trainable tensors."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def register(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.asarray(data, dtype=np.float64).copy(), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.zero_grad()


class LinearParams:
    """Weight (D_in, D_out) and bias (D_out,) of one affine layer."""

    def __init__(self, weight: Tensor, bias: Tensor):
        if weight.data.ndim != 2 or bias.data.ndim != 1:
            raise DimensionMismatchError("LinearParams expects 2-D weight and 1-D bias")
        if weight.data.shape[1] != bias.data.shape[0]:
            raise DimensionMismatchError(
                f"weight out extent {weight.data.shape[1]} != bias extent {bias.data.shape[0]}")
        self.weight = weight
        self.bias = bias

    @property
    def d_in(self) -> int:
        return self.weight.data.shape[0]

    @property
    def d_out(self) -> int:
        return self.weight.data.shape[1]


def linear_forward(x, p: LinearParams) -> Tensor:
    """y = x @ W + b along the last axis of x."""
    x = as_tensor(x)
    if x.data.shape[-1] != p.d_in:
        raise DimensionMismatchError(
            f"linear_forward input extent {x.data.shape[-1]} != weight extent {p.d_in}")
    orig = x.data.shape
    flat = reshape(x, (-1, p.d_in)) if x.data.ndim != 2 else x
    out = add(matmul(flat, p.weight), p.bias)
    if x.data.ndim != 2:
        out = reshape(out, orig[:-1] + (p.d_out,))
    return out


# ---------------------------------------------------------------------------
# finite-difference gradient checking

class GradCheckReport:
    """Outcome of a finite-difference comparison against analytic gradients."""

    def __init__(self, per_parameter_errors: dict[str, float]):
        self.per_parameter_errors = dict(per_parameter_errors)
        if self.per_parameter_errors:
            self.worst_parameter = max(self.per_parameter_errors,
                                       key=self.per_parameter_errors.get)
            self.max_relative_error = self.per_parameter_errors[self.worst_parameter]
        else:
            self.worst_parameter = ""
            self.max_relative_error = 0.0

    def passed(self, tolerance: float = 1e-4) -> bool:
        return self.max_relative_error <= tolerance

    def __repr__(self):
        return (f"GradCheckReport(max_relative_error={self.max_relative_error:.3e}, "
                f"worst_parameter={self.worst_parameter!r})")


def finite_diff_gradient_check(objective: Callable[[], Tensor],
                               params: ParameterStore,
                               epsilon: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients of a scalar objective with central differences.

    `objective` must rebuild its graph from the current parameter values on
    every call.  Relative error per coordinate is |a - n| / max(|a|, |n|, 1e-8).
    """
    params.zero_grad()
    out = objective()
    if not np.isfinite(out.data).all():
        raise NonFiniteError("objective is non-finite at the base point")
    out.backward()
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in params.items()}

    errors: dict[str, float] = {}
    for name, t in params.items():
        flat = t.data.ravel()
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = float(objective().data)
            flat[i] = orig - epsilon
            f_minus = float(objective().data)
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NonFiniteError(
                    f"objective became non-finite while perturbing parameter {name!r}")
            num[i] = (f_plus - f_minus) / (2.0 * epsilon)
        a = analytic[name].ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(num)), 1e-8)
        errors[name] = float(np.max(np.abs(a - num) / denom)) if flat.size else 0.0
    return GradCheckReport(errors)
