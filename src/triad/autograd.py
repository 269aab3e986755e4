"""Dense double-precision tensors with reverse-mode automatic differentiation.

Every value is a row-major float64 numpy array wrapped in a :class:`Tensor`
node of a dynamically built computation graph.  Calling ``backward()`` on a
scalar output accumulates gradients into every reachable node that has
``requires_grad`` set.

Operations are pure towards their inputs: a forward kernel may work in place
only on arrays that the node itself created, never on an input's data or on
another node's arrays, and a computed node's data is never mutated after
construction.  Parameter leaves are the exception: each is a view into its
:class:`ParameterStore`'s buffer, which the optimizer, checkpoint loading and
the finite-difference check update in place, so a graph holds only until its
parameters next change.

Grad mode is a per-thread flag, on by default.  Inside :func:`no_grad` every
result is a leaf with no parents and no backward closure, so a forward whose
graph nobody walks keeps no intermediates alive.  Scoring and the perturbed
forwards of the finite-difference check run this way.

The layers the model is built from (:func:`linear_forward`,
:func:`layer_norm`, :func:`cosine_rows`) are one graph node each.  Their
forwards and backwards run the arithmetic of the equivalent chains of
elementary nodes in the same order, so values and gradients are those of
the chains to the last bit.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy.special import erf as _erf

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_COSINE_EPS = 1e-8  # norms below this are clamped in cosine_rows

# Finite-difference gradient check: the central-difference step, and the
# largest per-coordinate relative error at which a check passes.
FD_EPSILON = 1e-5
GRADCHECK_TOLERANCE = 1e-4


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


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Build no graph in this thread until the block exits (nesting allowed)."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _make(data: np.ndarray, parents: Sequence[Tensor],
          backward: Callable[[np.ndarray], None] | None) -> Tensor:
    out = Tensor(data)
    # the only place a backward is attached: a one-input node's backward
    # therefore runs only for an input that requires grad
    if _grad_mode.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic

def _identity(g: np.ndarray) -> np.ndarray:
    return g


def _elementwise(a: Tensor, b: Tensor, data: np.ndarray,
                 grad_a: Callable[[np.ndarray], np.ndarray],
                 grad_b: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """A broadcasting two-input node: each input that requires grad takes its
    rule's gradient summed back to its own shape, `a` before `b`."""
    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad_a(g), a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad_b(g), b.data.shape))

    return _make(data, (a, b), bw)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _elementwise(a, b, a.data + b.data, _identity, _identity)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _elementwise(a, b, a.data - b.data, _identity, np.negative)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _elementwise(a, b, a.data * b.data,
                        lambda g: g * b.data, lambda g: g * a.data)


def sigmoid(a) -> Tensor:
    """1 / (1 + exp(-a)), computed in place on the node's own array."""
    a = as_tensor(a)
    data = np.negative(a.data, out=np.empty_like(a.data))  # an array even for 0-D
    np.exp(data, out=data)
    data += 1.0
    np.divide(1.0, data, out=data)

    def bw(g):
        a._accumulate(g * data * (1.0 - data))

    return _make(data, (a,), bw)


def gelu(a) -> Tensor:
    """Exact GELU: x * Phi(x) with Phi the standard-normal CDF (erf form)."""
    a = as_tensor(a)
    phi = np.multiply(a.data, _INV_SQRT2, out=np.empty_like(a.data))
    _erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    data = a.data * phi

    def bw(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * a.data * a.data)
        a._accumulate(g * (phi + a.data * pdf))

    return _make(data, (a,), bw)


# ---------------------------------------------------------------------------
# reductions and shape ops

def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _make(data, (a,), bw)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    data = a.data.T

    def bw(g):
        a._accumulate(g.T)

    return _make(data, (a,), bw)


def gather_rows(a, idx: np.ndarray) -> Tensor:
    """Select rows of a 2-D tensor; backward scatters gradients back."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    data = a.data[idx]

    def bw(g):
        acc = np.zeros_like(a.data)
        np.add.at(acc, idx, g)
        a._accumulate(acc)

    return _make(data, (a,), bw)


def column(a, i: int) -> Tensor:
    """Column i of a 2-D tensor as an (N, 1) tensor."""
    a = as_tensor(a)
    data = a.data[:, i:i + 1]

    def bw(g):
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
        dot = (g * data).sum(axis=-1, keepdims=True)
        a._accumulate(data * (g - dot))

    return _make(data, (a,), bw)


def layer_norm(x, gain, shift) -> Tensor:
    """Per-vector zero-mean unit-variance normalization along the last axis.

    The variance is floored by adding 1e-5 before the square root; `gain`
    and `shift` broadcast against the normalized vectors.  One graph node.
    """
    x, gain, shift = as_tensor(x), as_tensor(gain), as_tensor(shift)
    if x.data.shape[-1] < 2:
        raise DimensionMismatchError(
            f"layer_norm needs a trailing extent >= 2, got {x.data.shape[-1]}")
    inv_n = 1.0 / x.data.shape[-1]
    xc = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    den = np.sqrt((xc * xc).sum(axis=-1, keepdims=True) * inv_n + 1e-5)
    xhat = xc / den
    data = xhat * gain.data
    data += shift.data

    def bw(g):
        if shift.requires_grad:
            shift._accumulate(_unbroadcast(g, shift.data.shape))
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * xhat, gain.data.shape))
        if not x.requires_grad:
            return
        g_xhat = _unbroadcast(g * gain.data, xhat.shape)
        g_den = _unbroadcast(-g_xhat * xc / (den * den), den.shape)
        t = g_den * 0.5 / den * inv_n * xc  # each of the two factors of xc * xc
        g_xc = g_xhat / den + t + t
        # the centred and the mean paths reach x as two separate terms
        x._accumulate(g_xc)
        x._accumulate(np.broadcast_to(
            _unbroadcast(-g_xc, den.shape) * inv_n, x.data.shape))

    return _make(data, (x, gain, shift), bw)


def cosine_rows(a, b) -> Tensor:
    """Row-wise cosine similarity of two (N, D) tensors; tiny norms are clamped.

    One graph node.  The squared norms are clamped at `_COSINE_EPS`**2 before
    the root, so a zero row's gradient is 0, not 0/0.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise DimensionMismatchError(
            f"cosine_rows shapes differ: {a.data.shape} vs {b.data.shape}")
    eps2 = _COSINE_EPS * _COSINE_EPS
    dot = (a.data * b.data).sum(axis=-1)
    sq_a = (a.data * a.data).sum(axis=-1)
    sq_b = (b.data * b.data).sum(axis=-1)
    na = np.sqrt(np.maximum(sq_a, eps2))
    nb = np.sqrt(np.maximum(sq_b, eps2))
    den = na * nb
    data = dot / den

    def bw(g):
        g_dot = np.expand_dims(g / den, -1)
        g_den = -g * dot / (den * den)
        # the chain's order: both dot terms, then each input's two squared-norm
        # terms (the same tensor may be both inputs)
        if a.requires_grad:
            a._accumulate(g_dot * b.data)
        if b.requires_grad:
            b._accumulate(g_dot * a.data)
        for v, sq, own, other in ((a, sq_a, na, nb), (b, sq_b, nb, na)):
            if v.requires_grad:
                t = np.expand_dims(g_den * other * 0.5 / own * (sq >= eps2), -1) * v.data
                v._accumulate(t)
                v._accumulate(t)

    return _make(data, (a, b), bw)


# ---------------------------------------------------------------------------
# parameters and linear layers

class ParameterStore:
    """Named, ordered collection of trainable tensors.

    After :meth:`pack`, every parameter's data is a view into one contiguous
    float64 buffer, ``flat``, and ``slices`` maps each name to its range in
    it, in registration order.  From then on parameters are updated in place
    only, so the views stay valid, and no parameter can be registered.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self.flat: np.ndarray | None = None
        self.slices: dict[str, slice] = {}

    def register(self, name: str, data: np.ndarray) -> Tensor:
        if self.flat is not None:
            raise ValueError(f"cannot register {name!r}: the store is packed")
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.asarray(data, dtype=np.float64).copy(), requires_grad=True)
        self._params[name] = t
        return t

    def pack(self) -> None:
        """Move every parameter into ``flat``; each keeps its shape and values."""
        self.flat = np.empty(sum(t.data.size for t in self._params.values()))
        pos = 0
        for name, t in self._params.items():
            self.slices[name] = s = slice(pos, pos + t.data.size)
            self.flat[s] = t.data.ravel()
            t.data = self.flat[s].reshape(t.data.shape)
            pos = s.stop

    def gather_grads(self) -> np.ndarray:
        """Every gradient in the layout of ``flat``; zeros for a parameter without one."""
        g = np.zeros_like(self.flat)
        for name, t in self._params.items():
            if t.grad is not None:
                g[self.slices[name]] = t.grad.ravel()
        return g

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None


class LinearParams(NamedTuple):
    """Weight (D_in, D_out) and bias (D_out,) of one affine layer."""

    weight: Tensor
    bias: Tensor


def linear_forward(x, p: LinearParams) -> Tensor:
    """y = x @ W + b for (N, D_in) rows x, as one graph node."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise DimensionMismatchError(
            f"linear_forward expects 2-D input, got {x.data.ndim}-D")
    w, bias = p
    if x.data.shape[1] != w.data.shape[0]:
        raise DimensionMismatchError(f"linear_forward input extent {x.data.shape[1]} "
                                     f"!= weight extent {w.data.shape[0]}")
    data = x.data @ w.data
    data += bias.data

    def bw(g):
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.data.shape))
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ g)

    return _make(data, (x, w, bias), bw)


# ---------------------------------------------------------------------------
# finite-difference gradient checking

class GradCheckReport:
    """Outcome of a finite-difference comparison against analytic gradients."""

    def __init__(self, per_parameter_errors: dict[str, float]):
        errors = self.per_parameter_errors = dict(per_parameter_errors)
        self.worst_parameter = max(errors, key=errors.get, default="")
        self.max_relative_error = errors.get(self.worst_parameter, 0.0)

    def passed(self) -> bool:
        return self.max_relative_error <= GRADCHECK_TOLERANCE

    def __repr__(self):
        return (f"GradCheckReport(max_relative_error={self.max_relative_error:.3e}, "
                f"worst_parameter={self.worst_parameter!r})")


def finite_diff_gradient_check(objective: Callable[[], Tensor],
                               params: ParameterStore) -> GradCheckReport:
    """Compare analytic gradients of a scalar objective with central differences.

    Each coordinate is perturbed by +-`FD_EPSILON`.  `objective` must rebuild
    its graph from the current parameter values on every call.  Relative
    error per coordinate is |a - n| / max(|a|, |n|, 1e-8).
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
            with no_grad():  # only the values of the perturbed forwards are read
                flat[i] = orig + FD_EPSILON
                f_plus = float(objective().data)
                flat[i] = orig - FD_EPSILON
                f_minus = float(objective().data)
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NonFiniteError(
                    f"objective became non-finite while perturbing parameter {name!r}")
            num[i] = (f_plus - f_minus) / (2.0 * FD_EPSILON)
        a = analytic[name].ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(num)), 1e-8)
        errors[name] = float(np.max(np.abs(a - num) / denom)) if flat.size else 0.0
    return GradCheckReport(errors)
