"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and holds its inputs as (input, grad)
pairs: ``grad`` maps the node's gradient to that input's share.
``backward(loss)`` walks the tape in reverse topological order and alone
applies gradients. A ``grad`` never captures its output node: that would be
a reference cycle, and the tape would then wait for the cyclic collector
instead of being freed as soon as the loss goes out of scope.

Every op computes its value once, from its operands' values, and ``_node``
puts it on the tape only when an operand is a Tensor. So the math helpers
(exp, take, segment_sum, ...) run on raw arrays (fast inference) or on
Tensors (training with exact gradients) with the same numbers, bit for
bit: ``Tensor.mean`` is sum / count, as numpy's ``mean`` is, and
``matvec`` is one row-local product in both modes.

No op scatters with ``np.add.at``. ``take``'s gradient and
``segment_sum``'s value are one ``np.bincount`` each, which starts every
bin at zero and adds its entries in index order, as that scatter would.
The CSR helpers (``csr_sum``, ``csr_repeat``, ``csr_gather``) work on
segments that tile the last axis, given by their offsets. Each one's
forward and backward is one ``np.add.reduceat``, ``np.repeat`` or
``np.take`` along that axis.
``csr_gather`` reads a symmetric pattern's columns and gathers its gradient
back through each entry's transpose.
"""

from __future__ import annotations

import math

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
    """Node of the computation tape: a value and its (input Tensor, grad)
    pairs. After backward(), a leaf's ``grad`` holds its gradient; an
    interior node's is dropped once passed on."""

    __slots__ = ("data", "grad", "inputs", "requires_grad")

    # keep numpy from intercepting mixed ndarray (op) Tensor expressions
    __array_ufunc__ = None

    def __init__(self, data, inputs=(), requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.inputs = inputs
        self.requires_grad = requires_grad or any(x.requires_grad for x, _ in inputs)

    def _accumulate(self, g: np.ndarray):
        # ``g`` has this node's shape; the first write stores a copy, as ``g``
        # may be shared with another input or be a view of a live array
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    # -- operator overloads ------------------------------------------------

    def __add__(self, other):
        a, b = self.data, _operand(other)
        return _node(a + b, (self, lambda g: _unbroadcast(g, a.shape)),
                     (other, lambda g: _unbroadcast(g, b.shape)))

    __radd__ = __add__

    def __mul__(self, other):
        a, b = self.data, _operand(other)
        return _node(a * b, (self, lambda g: _unbroadcast(g * b, a.shape)),
                     (other, lambda g: _unbroadcast(g * a, b.shape)))

    __rmul__ = __mul__

    def __neg__(self):
        return _node(-self.data, (self, lambda g: -g))

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __truediv__(self, other):
        a, b = self.data, _operand(other)
        return _node(a / b, (self, lambda g: _unbroadcast(g / b, a.shape)),
                     (other, lambda g: _unbroadcast(-g * a / (b * b), b.shape)))

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __matmul__(self, other):
        a, b = self.data, _operand(other)
        return _node(a @ b,
                     (self, lambda g: (g * b if a.ndim == 1 else np.outer(g, b)) if b.ndim == 1
                      else b @ g if a.ndim == 1 else g @ b.T),
                     (other, lambda g: (g * a if b.ndim == 1 else np.outer(a, g)) if a.ndim == 1
                      else a.T @ g))

    def __rmatmul__(self, other):
        return as_tensor(other) @ self

    def __getitem__(self, key):
        """Basic indexing only: slices and integers never select an element
        twice, so the gradient is assigned, not summed. Gather with ``take``."""
        if not all(k is None or k is Ellipsis or isinstance(k, (slice, int, np.integer))
                   for k in (key if isinstance(key, tuple) else (key,))):
            raise TypeError(f"a Tensor takes slices and integers only, got {key!r}; use F.take")

        def grad(g):
            full = np.zeros_like(self.data)
            full[key] = g
            return full

        return _node(self.data[key], (self, grad))

    def reshape(self, *shape):
        return _node(self.data.reshape(*shape), (self, lambda g: g.reshape(self.data.shape)))

    def sum(self, axis=None, keepdims=False):
        def grad(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, self.data.shape).copy()

        return _node(self.data.sum(axis=axis, keepdims=keepdims), (self, grad))

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / count


def _node(val: np.ndarray, *pairs):
    """An op's result ``val``: the array itself when no operand is a Tensor,
    else a node holding each (Tensor operand, grad) pair. A ``grad`` maps the
    node's gradient to that operand's share and never captures the node."""
    inputs = tuple(pair for pair in pairs if isinstance(pair[0], Tensor))
    return Tensor(val, inputs) if inputs else val


def _operand(x) -> np.ndarray:
    """``as_tensor(x).data``, with no Tensor built for a constant."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def backward(loss: Tensor) -> None:
    """Reverse-topological sweep seeding d(loss)/d(loss) = 1; each node passes
    ``grad(node.grad)`` to each input that requires one, then drops its own."""
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
        for x, _ in node.inputs:
            if id(x) not in seen and x.requires_grad:
                stack.append((x, False))
    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(order):
        if node.inputs:
            for x, grad in node.inputs:
                if x.requires_grad:
                    x._accumulate(grad(node.grad))
            node.grad = None  # every consumer came before, so it is complete and spent


# -- dual-mode math helpers --------------------------------------------------


def exp(x):
    val = np.exp(value(x))
    return _node(val, (x, lambda g: g * val))


def sqrt(x):
    val = np.sqrt(value(x))
    return _node(val, (x, lambda g: g * 0.5 / val))


def sigmoid(x):
    val = 1.0 / (1.0 + np.exp(-value(x)))
    return _node(val, (x, lambda g: g * val * (1.0 - val)))


def leaky_relu(x, slope: float = 0.2):
    data = value(x)
    return _node(np.where(data > 0, data, slope * data),
                 (x, lambda g: g * np.where(data > 0, 1.0, slope)))


def log_sigmoid(x):
    """log(sigmoid(x)) computed stably; gradient is sigmoid(-x)."""
    val = -np.logaddexp(0.0, -value(x))
    return _node(val, (x, lambda g: g * (1.0 - np.exp(val))))


def square(x):
    return x * x


def take(x, idx):
    """Rows of x at non-negative integer indices idx (gather along axis 0).

    The gradient is one ``np.bincount`` over the flattened (row, column)
    bins. Each bin starts at zero and adds its entries in index order, as
    an ``np.add.at`` scatter does, so a repeated row sums to the same bits.
    A negative index is a ``ValueError``: bincount takes none.
    """
    idx = np.asarray(idx)
    if idx.size and idx.min() < 0:
        raise ValueError(f"take needs non-negative indices, got {idx.min()}")
    data = value(x)

    def grad(g):
        width = math.prod(data.shape[1:])
        bins = (idx.reshape(-1, 1) * width + np.arange(width)).ravel()
        return np.bincount(bins, g.ravel(), data.size).reshape(data.shape)

    return _node(data[idx], (x, grad))


def segment_sum(x, owner: np.ndarray, n: int):
    """out[v] = sum of the 1-D x[owner == v], added in index order."""
    return _node(np.bincount(owner, value(x), n), (x, lambda g: g[owner]))


def segment_logsumexp(x, owner: np.ndarray, n: int):
    """Per-bucket log-sum-exp: out[v] = log(sum(exp(x[owner == v]))).

    Each bucket is shifted by its own maximum, so a one-entry bucket returns
    that entry exactly. Every bucket must own at least one entry.
    """
    data = value(x)
    top = np.full(n, -np.inf)
    np.maximum.at(top, owner, data)
    ex = np.exp(data - top[owner])
    total = np.bincount(owner, ex, n)
    return _node(top + np.log(total), (x, lambda g: g[owner] * ex / total[owner]))


def transpose(x):
    """The transpose of a 2-D x, as a C-contiguous copy."""
    return _node(np.ascontiguousarray(value(x).T), (x, lambda g: g.T))


# -- CSR segments along the last axis ----------------------------------------
#
# ``start`` holds the offsets of consecutive segments that tile the last
# axis: segment v is ``start[v]:start[v + 1]``. No segment may be empty,
# since ``reduceat`` returns the next entry for an empty one.


def csr_sum(x, start: np.ndarray):
    """Segment sums along the last axis: out[..., v] = x[..., start[v]:start[v + 1]].sum()."""
    sizes = np.diff(start)
    return _node(np.add.reduceat(value(x), start[:-1], axis=-1),
                 (x, lambda g: np.repeat(g, sizes, axis=-1)))


def csr_repeat(x, start: np.ndarray):
    """Each segment's value over its entries: out[..., a] = x[..., v] for
    ``start[v] <= a < start[v + 1]``; the gradient is ``csr_sum``'s value."""
    return _node(np.repeat(value(x), np.diff(start), axis=-1),
                 (x, lambda g: np.add.reduceat(g, start[:-1], axis=-1)))


def csr_gather(x, col: np.ndarray, rev: np.ndarray, start: np.ndarray):
    """Columns of x at the entries' column ids: out[..., a] = x[..., col[a]].

    The pattern must be symmetric: ``rev[a]`` is the entry of a's transpose,
    so the entries whose column is v are the transposes of segment v, and
    the gradient is one gather by ``rev`` and one segment sum.
    """
    return _node(np.take(value(x), col, axis=-1),
                 (x, lambda g: np.add.reduceat(np.take(g, rev, axis=-1), start[:-1], axis=-1)))


def matvec(a, v):
    """(m, k) matrix times (k,) vector. Every output reads only its own row
    in a fixed order, so the result for a row never depends on which other
    rows share the call (BLAS blocks rows together), nor on the mode."""
    am, vm = value(a), value(v)
    return _node(np.einsum("ij,j->i", am, vm),
                 (a, lambda g: np.outer(g, vm)), (v, lambda g: am.T @ g))


def concat(xs, axis=0):
    parts = [value(x) for x in xs]
    val = np.concatenate(parts, axis=axis)
    pairs, end = [], 0
    for x, part in zip(xs, parts):
        key = [slice(None)] * val.ndim
        key[axis] = slice(end, end + part.shape[axis])
        end += part.shape[axis]
        pairs.append((x, lambda g, key=tuple(key): g[key]))
    return _node(val, *pairs)


def mean(x, axis=None, keepdims=False):
    return x.mean(axis=axis, keepdims=keepdims)


def value(x) -> np.ndarray:
    """Raw ndarray behind either a Tensor or an array."""
    return x.data if isinstance(x, Tensor) else x
