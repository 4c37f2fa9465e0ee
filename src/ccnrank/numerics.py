"""Dense tensors with taped reverse-mode gradients, plus RMSProp.

Everything downstream (layers, models, training) runs on this module.
A Tensor wraps a float numpy array and, when gradients are needed, records
its parents and a backward rule so that ``backward`` can replay the chain
rule from a scalar output.  ``ParameterSet`` names the trainable leaves,
``finite_diff_check`` compares taped gradients against central differences,
and ``RmsProp`` applies the running-mean-of-squared-gradients update.

Gradient discipline: every ``backward`` call runs an independent pass and
adds its result into the leaves' ``.grad`` buffers, so calling it twice
without zeroing doubles the stored gradients.  ``RmsProp.step`` consumes
and zeroes them.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field

import numpy as np

MAX_RANK = 3


class ShapeError(ValueError):
    """Operand shapes do not fit the requested operation."""


class ContractError(ValueError):
    """An operation was called outside its stated contract."""


class NonFiniteError(ArithmeticError):
    """A computation produced NaN or infinite values where finite ones are required."""


_tape_state = threading.local()  # per-thread, so one thread's no_grad leaves others taping


def _grad_enabled():
    return getattr(_tape_state, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (pure forward evaluation)."""
    prev = _grad_enabled()
    _tape_state.enabled = False
    try:
        yield
    finally:
        _tape_state.enabled = prev


class Tensor:
    """A dense float array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False):
        arr = np.array(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        if arr.ndim > MAX_RANK:
            raise ShapeError(f"tensors are limited to rank {MAX_RANK}, got shape {arr.shape}")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad) and _grad_enabled()
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def records(parents):
    """Whether an op over ``parents`` is recorded on the tape now: gradients
    are enabled and at least one parent needs one.  Ops with a hand-written
    backward ask this before keeping what their backward would need."""
    return _grad_enabled() and any(p.requires_grad for p in parents)


def _make(data, parents, backward_fn):
    """Wrap an op result; records the tape edge only when a parent needs it."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if records(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _unbroadcast(g, shape):
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise ops -------------------------------------------------------


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward_fn(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        return ga, gb

    return _make(data, (a, b), backward_fn)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward_fn(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(-g, b.shape) if b.requires_grad else None
        return ga, gb

    return _make(data, (a, b), backward_fn)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward_fn(g):
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    return _make(data, (a, b), backward_fn)


def scale(a, factor):
    """Multiply by a plain python/numpy scalar constant."""
    a = _as_tensor(a)
    factor = float(factor)

    def backward_fn(g):
        return (g * factor,)

    return _make(a.data * factor, (a,), backward_fn)


def sigmoid(a):
    a = _as_tensor(a)
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def backward_fn(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), backward_fn)


def tanh(a):
    a = _as_tensor(a)
    out = np.tanh(a.data)

    def backward_fn(g):
        return (g * (1.0 - out * out),)

    return _make(out, (a,), backward_fn)


# -- structural ops --------------------------------------------------------


def matmul(a, b):
    """Matrix product of two rank-2 tensors, or batched over a shared leading axis."""
    a, b = _as_tensor(a), _as_tensor(b)
    ok = (
        a.ndim == b.ndim
        and a.ndim in (2, 3)
        and a.shape[-1] == b.shape[-2]
        and (a.ndim == 2 or a.shape[0] == b.shape[0])
    )
    if not ok:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not align")
    data = a.data @ b.data

    def backward_fn(g):
        ga = g @ b.data.swapaxes(-1, -2) if a.requires_grad else None
        gb = a.data.swapaxes(-1, -2) @ g if b.requires_grad else None
        return ga, gb

    return _make(data, (a, b), backward_fn)


def transpose_last(a):
    a = _as_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"transpose_last needs rank >= 2, got shape {a.shape}")

    def backward_fn(g):
        return (g.swapaxes(-1, -2),)

    return _make(a.data.swapaxes(-1, -2), (a,), backward_fn)


def reshape(a, shape):
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)
    old = a.shape

    def backward_fn(g):
        return (g.reshape(old),)

    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"cannot reshape {old} to {shape}") from None
    return _make(data, (a,), backward_fn)


def narrow(a, axis, start, length):
    """Slice ``length`` entries starting at ``start`` along ``axis``."""
    a = _as_tensor(a)
    if not (0 <= axis < a.ndim):
        raise ShapeError(f"narrow: axis {axis} out of range for shape {a.shape}")
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeError(f"narrow: [{start}:{start + length}] out of range on axis {axis} of {a.shape}")
    index = tuple(slice(start, start + length) if i == axis else slice(None) for i in range(a.ndim))

    def backward_fn(g):
        full = np.zeros(a.shape, dtype=g.dtype)
        full[index] = g
        return (full,)

    return _make(a.data[index], (a,), backward_fn)


def tsum(a, axis=None):
    a = _as_tensor(a)
    if axis is None:
        data = np.asarray(a.data.sum())

        def backward_fn(g):
            return (np.broadcast_to(g, a.shape),)

    else:

        def backward_fn(g):
            return (np.broadcast_to(np.expand_dims(g, axis), a.shape),)

        data = a.data.sum(axis=axis)
    return _make(data, (a,), backward_fn)


def mean(a):
    a = _as_tensor(a)
    n = a.size

    def backward_fn(g):
        return (np.broadcast_to(g / n, a.shape),)

    return _make(np.asarray(a.data.mean()), (a,), backward_fn)


def custom_op(data, parents, backward_fn):
    """Register a result with a hand-written backward rule (used by layers)."""
    return _make(data, parents, backward_fn)


# -- backward pass ---------------------------------------------------------


def backward(output: Tensor):
    """Accumulate d(output)/d(leaf) into every contributing leaf's ``.grad``.

    ``output`` must hold a single element.  Each call is an independent
    pass: gradients add on top of whatever is already stored.
    """
    if output.data.size != 1:
        raise ContractError(f"backward requires a scalar output, got shape {output.shape}")
    if not output.requires_grad:
        return

    topo = []
    seen = set()
    stack = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    grads = {id(output): np.ones_like(output.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._parents:
            for parent, contrib in zip(node._parents, node._backward_fn(g)):
                if contrib is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contrib
                else:
                    grads[key] = contrib
        else:
            node.grad = g.copy() if node.grad is None else node.grad + g


# -- parameters ------------------------------------------------------------


class ParameterSet:
    """Named leaf tensors with parallel gradient slots."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def add(self, name, value) -> Tensor:
        if name in self._tensors:
            raise ContractError(f"duplicate parameter name {name!r}")
        t = value if isinstance(value, Tensor) else Tensor(value)
        t.requires_grad = True
        self._tensors[name] = t
        return t

    def __contains__(self, name):
        return name in self._tensors

    def __getitem__(self, name) -> Tensor:
        return self._tensors[name]

    def __len__(self):
        return len(self._tensors)

    def names(self):
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def zero_gradients(self):
        for t in self._tensors.values():
            t.grad = None

    def copy_values(self):
        return {name: t.data.copy() for name, t in self._tensors.items()}

    def load_values(self, values):
        for name, t in self._tensors.items():
            arr = np.asarray(values[name])
            if arr.shape != t.data.shape:
                raise ShapeError(f"parameter {name!r}: expected shape {t.data.shape}, got {arr.shape}")
            t.data = arr.astype(t.data.dtype, copy=True)

    def global_grad_norm(self):
        total = 0.0
        for t in self._tensors.values():
            if t.grad is not None:
                total += float((t.grad * t.grad).sum())
        return total ** 0.5


# -- optimizer -------------------------------------------------------------


class RmsProp:
    """RMSProp: acc <- RHO*acc + (1-RHO)*g^2; theta <- theta - lr*g/sqrt(acc+eps).

    ``RHO``, the accumulator's decay, is 0.9.  Gradients are zeroed after the
    step so the next backward pass starts clean.
    """

    RHO = 0.9

    def __init__(self, params: ParameterSet, learning_rate=1e-3, epsilon=1e-6):
        self.params = params
        self.learning_rate = float(learning_rate)
        self.epsilon = float(epsilon)
        self.accumulators: dict[str, np.ndarray] = {}

    def step(self):
        for name, t in self.params.items():
            # the step keeps each parameter's dtype (float32 stays float32)
            g = np.zeros_like(t.data) if t.grad is None else t.grad.astype(t.data.dtype, copy=False)
            acc = self.accumulators.get(name)
            if acc is None:
                acc = np.zeros_like(t.data)
            acc = self.RHO * acc + (1.0 - self.RHO) * g * g
            self.accumulators[name] = acc
            t.data = t.data - self.learning_rate * g / np.sqrt(acc + self.epsilon)
            t.grad = None


# -- gradient verification --------------------------------------------------


@dataclass
class GradCheckReport:
    max_relative_error: float
    worst_parameter: str
    tolerance: float
    passed: bool
    errors_by_parameter: dict = field(default_factory=dict)


def finite_diff_check(
    loss_fn,
    params: ParameterSet,
    h=1e-5,
    tolerance=1e-4,
    max_coords_per_param=32,
    seed=0,
) -> GradCheckReport:
    """Compare taped gradients of ``loss_fn()`` against central differences.

    Samples up to ``max_coords_per_param`` coordinates per parameter (all of
    them when the parameter is small).  Relative error is
    |a - n| / max(|a|, |n|, 1e-8).
    """
    if h <= 0:
        raise ContractError("finite_diff_check requires h > 0")
    params.zero_gradients()
    out = loss_fn()
    backward(out)
    analytic = {name: np.zeros_like(t.data) if t.grad is None else t.grad for name, t in params.items()}
    params.zero_gradients()

    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_name = ""
    per_param = {}
    for name, t in params.items():
        flat = t.data.reshape(-1)
        n = flat.size
        if n <= max_coords_per_param:
            coords = np.arange(n)
        else:
            coords = np.sort(rng.choice(n, size=max_coords_per_param, replace=False))
        param_worst = 0.0
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            plus = float(loss_fn().data)
            flat[i] = orig - h
            minus = float(loss_fn().data)
            flat[i] = orig
            numeric = (plus - minus) / (2.0 * h)
            a = float(analytic[name].reshape(-1)[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if rel > param_worst:
                param_worst = rel
        per_param[name] = param_worst
        if param_worst > worst:
            worst = param_worst
            worst_name = name
    return GradCheckReport(
        max_relative_error=worst,
        worst_parameter=worst_name,
        tolerance=tolerance,
        passed=worst <= tolerance,
        errors_by_parameter=per_param,
    )
