"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and records its parents plus a backward
closure; ``backward(loss)`` runs the tape in reverse topological order. A
closure never captures its own output Tensor: that would be a reference
cycle, and the tape would then wait for the cyclic collector instead of
being freed as soon as the loss goes out of scope.

The module-level math helpers (exp, take, segment_sum, ...) run either on
raw arrays (fast inference) or on Tensors (training with exact gradients).
Each computes its value once, from ``value(x)``, and ``_lift`` puts it on
the tape only when ``x`` is a Tensor, so both modes give the same numbers,
bit for bit: ``Tensor.mean`` is sum / count, as numpy's ``mean`` is, and
``matvec`` is one row-local product in both modes.

The CSR helpers (``csr_sum``, ``csr_repeat``, ``csr_gather``) work on
segments that tile the last axis, given by their offsets. Each one's
forward and backward is one ``np.add.reduceat``, ``np.repeat`` or
``np.take`` along that axis, never an ``np.add.at`` scatter.
``csr_gather`` reads a symmetric pattern's columns and gathers its gradient
back through each entry's transpose.
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
    """Node of the computation tape. After backward(), a leaf's ``grad``
    holds its gradient; an interior node's is dropped once passed on."""

    __slots__ = ("data", "grad", "parents", "bw", "requires_grad")

    # keep numpy from intercepting mixed ndarray (op) Tensor expressions
    __array_ufunc__ = None

    def __init__(self, data, parents=(), bw=None, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.bw = bw
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g: np.ndarray):
        # the first write stores a copy: ``g`` may be shared with another
        # parent or be a view of an array that is still in use
        if self.grad is not None:
            self.grad += g
        elif np.shape(g) == self.data.shape:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad = np.array(np.broadcast_to(g, self.data.shape), dtype=np.float64)

    # -- operator overloads ------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data + other.data, (self, other))

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))

        out.bw = bw
        return out

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data * other.data, (self, other))

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
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
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
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
            if self.requires_grad:
                if b.ndim == 1:
                    self._accumulate(g * b if a.ndim == 1 else np.outer(g, b))
                else:
                    self._accumulate(b @ g if a.ndim == 1 else g @ b.T)
            if other.requires_grad:
                if a.ndim == 1:
                    other._accumulate(g * a if b.ndim == 1 else np.outer(a, g))
                else:
                    other._accumulate(a.T @ g)

        out.bw = bw
        return out

    def __rmatmul__(self, other):
        return as_tensor(other) @ self

    def __getitem__(self, key):
        """Basic indexing only: slices and integers never select an element
        twice, so the gradient is assigned, not summed. Gather with ``take``."""
        if not all(k is None or k is Ellipsis or isinstance(k, (slice, int, np.integer))
                   for k in (key if isinstance(key, tuple) else (key,))):
            raise TypeError(f"a Tensor takes slices and integers only, got {key!r}; use F.take")
        out = Tensor(self.data[key], (self,))

        def bw(g):
            full = np.zeros_like(self.data)
            full[key] = g
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
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        out.bw = bw
        return out

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / count


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


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
            node.grad = None  # every consumer came before, so it is complete and spent


# -- dual-mode math helpers --------------------------------------------------


def _lift(x, val: np.ndarray, grad):
    """``val``, computed once from ``value(x)``, as the op's result: the array
    itself for an array ``x``; for a Tensor, a node on the tape whose
    backward passes ``grad(g)`` to ``x``. ``grad`` captures arrays only,
    never the output node."""
    if not isinstance(x, Tensor):
        return val
    out = Tensor(val, (x,))
    out.bw = lambda g: x._accumulate(grad(g))
    return out


def exp(x):
    val = np.exp(value(x))
    return _lift(x, val, lambda g: g * val)


def sqrt(x):
    val = np.sqrt(value(x))
    return _lift(x, val, lambda g: g * 0.5 / val)


def sigmoid(x):
    val = 1.0 / (1.0 + np.exp(-value(x)))
    return _lift(x, val, lambda g: g * val * (1.0 - val))


def leaky_relu(x, slope: float = 0.2):
    data = value(x)
    return _lift(
        x, np.where(data > 0, data, slope * data), lambda g: g * np.where(data > 0, 1.0, slope)
    )


def log_sigmoid(x):
    """log(sigmoid(x)) computed stably; gradient is sigmoid(-x)."""
    val = -np.logaddexp(0.0, -value(x))
    return _lift(x, val, lambda g: g * (1.0 - np.exp(val)))


def square(x):
    return x * x


def take(x, idx):
    """Rows of x at integer indices idx (gather along axis 0)."""
    idx = np.asarray(idx)
    data = value(x)

    def grad(g):
        full = np.zeros_like(data)
        np.add.at(full, idx, g)
        return full

    return _lift(x, data[idx], grad)


def segment_sum(x, owner: np.ndarray, n: int):
    """Sum edge values into per-node buckets: out[v] = sum of x[owner == v]."""
    data = value(x)
    buf = np.zeros((n,) + data.shape[1:], dtype=np.float64)
    np.add.at(buf, owner, data)
    return _lift(x, buf, lambda g: g[owner])


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
    return _lift(x, top + np.log(total), lambda g: g[owner] * ex / total[owner])


def transpose(x):
    """The transpose of a 2-D x, as a C-contiguous copy."""
    return _lift(x, np.ascontiguousarray(value(x).T), lambda g: g.T)


# -- CSR segments along the last axis ----------------------------------------
#
# ``start`` holds the offsets of consecutive segments that tile the last
# axis: segment v is ``start[v]:start[v + 1]``. No segment may be empty,
# since ``reduceat`` returns the next entry for an empty one.


def csr_sum(x, start: np.ndarray):
    """Segment sums along the last axis: out[..., v] = x[..., start[v]:start[v + 1]].sum()."""
    sizes = np.diff(start)
    return _lift(x, np.add.reduceat(value(x), start[:-1], axis=-1),
                 lambda g: np.repeat(g, sizes, axis=-1))


def csr_repeat(x, start: np.ndarray):
    """Each segment's value over its entries: out[..., a] = x[..., v] for
    ``start[v] <= a < start[v + 1]``; the gradient is ``csr_sum``'s value."""
    return _lift(x, np.repeat(value(x), np.diff(start), axis=-1),
                 lambda g: np.add.reduceat(g, start[:-1], axis=-1))


def csr_gather(x, col: np.ndarray, rev: np.ndarray, start: np.ndarray):
    """Columns of x at the entries' column ids: out[..., a] = x[..., col[a]].

    The pattern must be symmetric: ``rev[a]`` is the entry of a's transpose,
    so the entries whose column is v are the transposes of segment v, and
    the gradient is one gather by ``rev`` and one segment sum.
    """
    return _lift(x, np.take(value(x), col, axis=-1),
                 lambda g: np.add.reduceat(np.take(g, rev, axis=-1), start[:-1], axis=-1))


def matvec(a, v):
    """(m, k) matrix times (k,) vector. Every output reads only its own row
    in a fixed order, so the result for a row never depends on which other
    rows share the call (BLAS blocks rows together), nor on the mode."""
    am, vm = value(a), value(v)
    val = np.einsum("ij,j->i", am, vm)
    if not (isinstance(a, Tensor) or isinstance(v, Tensor)):
        return val
    a, v = as_tensor(a), as_tensor(v)
    out = Tensor(val, (a, v))

    def bw(g):
        if a.requires_grad:
            a._accumulate(np.outer(g, vm))
        if v.requires_grad:
            v._accumulate(am.T @ g)

    out.bw = bw
    return out


def concat(xs, axis=0):
    val = np.concatenate([value(x) for x in xs], axis=axis)
    if not any(isinstance(x, Tensor) for x in xs):
        return val
    xs = [as_tensor(x) for x in xs]
    out = Tensor(val, tuple(xs))
    offsets = np.cumsum([0] + [x.data.shape[axis] for x in xs])

    def bw(g):
        for x, a, b in zip(xs, offsets[:-1], offsets[1:]):
            if not x.requires_grad:
                continue
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(a, b)
            x._accumulate(g[tuple(sl)])

    out.bw = bw
    return out


def mean(x, axis=None, keepdims=False):
    return x.mean(axis=axis, keepdims=keepdims)


def value(x) -> np.ndarray:
    """Raw ndarray behind either a Tensor or an array."""
    return x.data if isinstance(x, Tensor) else x
