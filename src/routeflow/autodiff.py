"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and records its parents plus a backward
closure; ``backward(loss)`` runs the tape in reverse topological order. The
module-level math helpers (exp, take, segment_sum, ...) dispatch on input
type, so the same forward code can run either on raw arrays (fast inference)
or on Tensors (training with exact gradients).
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """Node of the computation tape; ``grad`` accumulates after backward()."""

    __slots__ = ("data", "grad", "parents", "bw", "requires_grad", "name")

    # keep numpy from intercepting mixed ndarray (op) Tensor expressions
    __array_ufunc__ = None

    def __init__(self, data, parents=(), bw=None, requires_grad=False, name=""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.bw = bw
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    # -- operator overloads ------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data + other.data, (self, other))

        def bw(g):
            self._accumulate(_unbroadcast(g, self.data.shape))
            other._accumulate(_unbroadcast(g, other.data.shape))

        out.bw = bw
        return out

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data * other.data, (self, other))

        def bw(g):
            self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        out.bw = bw
        return out

    __rmul__ = __mul__

    def __neg__(self):
        out = Tensor(-self.data, (self,))
        out.bw = lambda g: self._accumulate(-g)
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __truediv__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data / other.data, (self, other))

        def bw(g):
            self._accumulate(_unbroadcast(g / other.data, self.data.shape))
            other._accumulate(
                _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape)
            )

        out.bw = bw
        return out

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __matmul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data @ other.data, (self, other))

        def bw(g):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(g * b)
                other._accumulate(g * a)
            elif a.ndim == 2 and b.ndim == 1:
                self._accumulate(np.outer(g, b))
                other._accumulate(a.T @ g)
            elif a.ndim == 1 and b.ndim == 2:
                self._accumulate(b @ g)
                other._accumulate(np.outer(a, g))
            else:
                self._accumulate(g @ b.T)
                other._accumulate(a.T @ g)

        out.bw = bw
        return out

    def __rmatmul__(self, other):
        return as_tensor(other) @ self

    def __getitem__(self, key):
        out = Tensor(self.data[key], (self,))

        def bw(g):
            full = np.zeros_like(self.data)
            np.add.at(full, key, g)
            self._accumulate(full)

        out.bw = bw
        return out

    def reshape(self, *shape):
        out = Tensor(self.data.reshape(*shape), (self,))
        out.bw = lambda g: self._accumulate(g.reshape(self.data.shape))
        return out

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def bw(g):
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        out.bw = bw
        return out

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def parameter(data, name="") -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)


def backward(loss: Tensor) -> None:
    """Reverse-topological sweep seeding d(loss)/d(loss) = 1."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(order):
        if node.bw is not None and node.grad is not None:
            node.bw(node.grad)


def zero_grad(params) -> None:
    for p in params:
        p.grad = None


# -- dual-mode math helpers --------------------------------------------------


def exp(x):
    if isinstance(x, Tensor):
        out = Tensor(np.exp(x.data), (x,))
        out.bw = lambda g: x._accumulate(g * out.data)
        return out
    return np.exp(x)


def log(x):
    if isinstance(x, Tensor):
        out = Tensor(np.log(x.data), (x,))
        out.bw = lambda g: x._accumulate(g / x.data)
        return out
    return np.log(x)


def sqrt(x):
    if isinstance(x, Tensor):
        out = Tensor(np.sqrt(x.data), (x,))
        out.bw = lambda g: x._accumulate(g * 0.5 / out.data)
        return out
    return np.sqrt(x)


def sigmoid(x):
    if isinstance(x, Tensor):
        val = 1.0 / (1.0 + np.exp(-x.data))
        out = Tensor(val, (x,))
        out.bw = lambda g: x._accumulate(g * out.data * (1.0 - out.data))
        return out
    return 1.0 / (1.0 + np.exp(-x))


def leaky_relu(x, slope: float = 0.2):
    if isinstance(x, Tensor):
        mask = np.where(x.data > 0, 1.0, slope)
        out = Tensor(x.data * mask, (x,))
        out.bw = lambda g: x._accumulate(g * mask)
        return out
    return np.where(x > 0, x, slope * x)


def log_sigmoid(x):
    """log(sigmoid(x)) computed stably; gradient is sigmoid(-x)."""
    if isinstance(x, Tensor):
        val = -np.logaddexp(0.0, -x.data)
        out = Tensor(val, (x,))
        out.bw = lambda g: x._accumulate(g * (1.0 - np.exp(val)))
        return out
    return -np.logaddexp(0.0, -x)


def square(x):
    if isinstance(x, Tensor):
        return x * x
    return x * x


def take(x, idx):
    """Rows of x at integer indices idx (gather along axis 0)."""
    idx = np.asarray(idx)
    if isinstance(x, Tensor):
        out = Tensor(x.data[idx], (x,))

        def bw(g):
            full = np.zeros_like(x.data)
            np.add.at(full, idx, g)
            x._accumulate(full)

        out.bw = bw
        return out
    return x[idx]


def segment_sum(x, owner: np.ndarray, n: int):
    """Sum edge values into per-node buckets: out[v] = sum of x[owner == v]."""
    if isinstance(x, Tensor):
        shape = (n,) + x.data.shape[1:]
        buf = np.zeros(shape, dtype=np.float64)
        np.add.at(buf, owner, x.data)
        out = Tensor(buf, (x,))
        out.bw = lambda g: x._accumulate(g[owner])
        return out
    shape = (n,) + x.shape[1:]
    buf = np.zeros(shape, dtype=np.float64)
    np.add.at(buf, owner, x)
    return buf


def segment_logsumexp(x, owner: np.ndarray, n: int):
    """Per-bucket log-sum-exp: out[v] = log(sum(exp(x[owner == v]))).

    Each bucket is shifted by its own maximum, so a one-entry bucket returns
    that entry exactly. Every bucket must own at least one entry.
    """
    data = value(x)
    top = np.full(n, -np.inf)
    np.maximum.at(top, owner, data)
    ex = np.exp(data - top[owner])
    total = np.zeros(n)
    np.add.at(total, owner, ex)
    lse = top + np.log(total)
    if isinstance(x, Tensor):
        out = Tensor(lse, (x,))
        out.bw = lambda g: x._accumulate(g[owner] * ex / total[owner])
        return out
    return lse


def matvec(a, v):
    """(m, k) matrix times (k,) vector. On raw arrays every output reads only
    its own row in a fixed order, so the result for a row never depends on
    which other rows share the call (BLAS blocks rows together)."""
    if isinstance(a, Tensor) or isinstance(v, Tensor):
        return as_tensor(a) @ v
    return np.einsum("ij,j->i", a, v)


def concat(xs, axis=0):
    if any(isinstance(x, Tensor) for x in xs):
        xs = [as_tensor(x) for x in xs]
        out = Tensor(np.concatenate([x.data for x in xs], axis=axis), tuple(xs))
        sizes = [x.data.shape[axis] for x in xs]
        offsets = np.cumsum([0] + sizes)

        def bw(g):
            for x, a, b in zip(xs, offsets[:-1], offsets[1:]):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(a, b)
                x._accumulate(g[tuple(sl)])

        out.bw = bw
        return out
    return np.concatenate(xs, axis=axis)


def mean(x, axis=None, keepdims=False):
    if isinstance(x, Tensor):
        return x.mean(axis=axis, keepdims=keepdims)
    return x.mean(axis=axis, keepdims=keepdims)


def asum(x, axis=None, keepdims=False):
    if isinstance(x, Tensor):
        return x.sum(axis=axis, keepdims=keepdims)
    return x.sum(axis=axis, keepdims=keepdims)


def stack_scalars(xs) -> Tensor:
    """1-D tensor from a list of scalar Tensors (for batched losses)."""
    xs = [as_tensor(x) for x in xs]
    out = Tensor(np.array([x.data for x in xs], dtype=np.float64), tuple(xs))

    def bw(g):
        for i, x in enumerate(xs):
            x._accumulate(np.asarray(g[i]))

    out.bw = bw
    return out


def value(x) -> np.ndarray:
    """Raw ndarray behind either a Tensor or an array."""
    return x.data if isinstance(x, Tensor) else x
