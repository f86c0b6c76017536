import gc
import inspect

import numpy as np
import pytest

from routeflow import autodiff as F


def _segments(seed=0):
    rng = np.random.default_rng(seed)
    sizes = np.array([1, 4, 2, 7, 1, 3])
    owner = np.repeat(np.arange(len(sizes)), sizes)
    rng.shuffle(owner)  # buckets need not be contiguous
    x = rng.normal(size=owner.size) * 5
    return x, owner, len(sizes)


def _rand(*shape, lo=-2.0, hi=2.0, seed=0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


_OWNER = np.array([0, 2, 2, 1, 0, 2, 1])  # bucket 3 stays empty
_REPEATED = np.array([0, 2, 2, 1, 0])
# a symmetric CSR pattern on 4 nodes: entries sorted by (row, column), one
# row per node, and each entry's transpose
_ARCS = sorted({(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (2, 3), (3, 2)})
_ROW, _COL = (np.array(c) for c in zip(*_ARCS))
_START = np.searchsorted(_ROW, np.arange(5))
_REV = np.array([_ARCS.index((j, i)) for i, j in _ARCS])
_CONST = _rand(3, 1, seed=3)  # a constant left operand, broadcast over the columns
# op -> (function of its inputs, inputs); every function runs on arrays and on Tensors
OPS = {
    "take": (lambda x: F.take(x, _REPEATED), [_rand(3, 4)]),
    "segment_sum_1d": (lambda x: F.segment_sum(x, _OWNER, 4), [_rand(7)]),
    "segment_logsumexp": (lambda x: F.segment_logsumexp(x, _OWNER[:6], 3), [_rand(6)]),
    "csr_sum_1d": (lambda x: F.csr_sum(x, _START), [_rand(8)]),
    "csr_sum_3d": (lambda x: F.csr_sum(x, _START), [_rand(2, 3, 8)]),
    "csr_repeat": (lambda x: F.csr_repeat(x, _START), [_rand(3, 4)]),
    "csr_softmax_1d": (lambda x: F.csr_softmax(x, _START), [_rand(8)]),
    "csr_softmax_2d": (lambda x: F.csr_softmax(x, _START), [_rand(3, 8)]),
    "csr_gather_1d": (lambda x: F.csr_gather(x, _COL, _REV, _START), [_rand(4)]),
    "csr_gather_2d": (lambda x: F.csr_gather(x, _COL, _REV, _START), [_rand(3, 4)]),
    "transpose": (F.transpose, [_rand(3, 4)]),
    "square": (F.square, [_rand(3, 4)]),
    "concat_axis0": (lambda a, b: F.concat([a, b], axis=0), [_rand(2, 3), _rand(4, 3, seed=1)]),
    "concat_axis1": (lambda a, b: F.concat([a, b], axis=1), [_rand(3, 2), _rand(3, 4, seed=1)]),
    "exp": (F.exp, [_rand(3, 4)]),
    "sqrt": (F.sqrt, [_rand(3, 4, lo=0.5, hi=3.0)]),
    "sigmoid": (F.sigmoid, [_rand(3, 4)]),
    "log_sigmoid": (F.log_sigmoid, [_rand(3, 4, lo=-6.0, hi=6.0)]),
    "leaky_relu": (lambda x: F.leaky_relu(x, 0.2), [_rand(3, 4)]),
    "add": (lambda a, b: a + b, [_rand(3, 4), _rand(1, 4, seed=1)]),
    "radd": (lambda x: _CONST + x, [_rand(3, 4)]),
    "sub": (lambda a, b: a - b, [_rand(3, 4), _rand(1, 4, seed=1)]),
    "rsub": (lambda x: _CONST - x, [_rand(3, 4)]),
    "neg": (lambda x: -x, [_rand(3, 4)]),
    "mul": (lambda a, b: a * b, [_rand(3, 4), _rand(3, 1, seed=1)]),
    "rmul": (lambda x: _CONST * x, [_rand(3, 4)]),
    "truediv": (lambda a, b: a / b, [_rand(3, 4), _rand(1, 4, lo=0.5, hi=2.0, seed=1)]),
    "rtruediv": (lambda x: _CONST / x, [_rand(3, 4, lo=0.5, hi=2.0)]),
    "reshape": (lambda x: x.reshape(2, 6), [_rand(3, 4)]),
    "getitem_slices": (lambda x: x[1:3, ::2], [_rand(4, 5)]),
    "getitem_column": (lambda x: x[:, 1], [_rand(4, 5)]),
    "sum_all": (lambda x: x.sum(), [_rand(3, 4)]),
    "sum_axis0": (lambda x: x.sum(axis=0), [_rand(3, 4)]),
    "sum_axis1_keepdims": (lambda x: x.sum(axis=1, keepdims=True), [_rand(3, 4)]),
    "mean_axis0_keepdims": (lambda x: F.mean(x, axis=0, keepdims=True), [_rand(3, 4)]),
    "mean_axis1": (lambda x: F.mean(x, axis=1), [_rand(3, 4)]),
    "matmul_1d_1d": (lambda a, b: a @ b, [_rand(4), _rand(4, seed=1)]),
    "matmul_2d_1d": (lambda a, b: a @ b, [_rand(3, 4), _rand(4, seed=1)]),
    "matmul_1d_2d": (lambda a, b: a @ b, [_rand(3), _rand(3, 4, seed=1)]),
    "matmul_2d_2d": (lambda a, b: a @ b, [_rand(3, 4), _rand(4, 2, seed=1)]),
    "rmatmul": (lambda x: _CONST.T @ x, [_rand(3, 4)]),
    "matvec": (F.matvec, [_rand(3, 4), _rand(4, seed=1)]),
}


# tape plumbing, not math: no gradient of their own to check
_PLUMBING = {"as_tensor", "parameter", "backward", "value"}


def _without_a_case(names):
    return sorted(h for h in names if not any(op == h or op.startswith(h + "_") for op in OPS))


def test_every_dual_mode_helper_has_a_gradient_case():
    helpers = {
        name for name, fn in vars(F).items()
        if inspect.isfunction(fn) and fn.__module__ == F.__name__ and not name.startswith("_")
    }
    missing = _without_a_case(helpers - _PLUMBING)
    assert not missing, f"add an OPS case for {missing}"


def test_every_tensor_operator_has_a_gradient_case():
    # each arithmetic dunder and method by its bare name: ``__rsub__`` needs an "rsub" case
    ops = {
        name.strip("_") for name, fn in vars(F.Tensor).items()
        if inspect.isfunction(fn) and name not in ("__init__", "_accumulate")
    }
    assert {"radd", "rmatmul", "getitem", "reshape", "mean"} <= ops
    missing = _without_a_case(ops)
    assert not missing, f"add an OPS case for {missing}"


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_modes_agree_and_gradients_match_central_differences(name):
    fn, inputs = OPS[name]
    out = fn(*inputs)
    params = [F.parameter(x) for x in inputs]
    on_tape = fn(*params)
    assert not isinstance(out, F.Tensor) and isinstance(on_tape, F.Tensor)
    assert np.array_equal(on_tape.data, out)
    weights = _rand(*out.shape, seed=7)
    F.backward((on_tape * weights).sum())
    eps = 1e-6
    for k, (x, p) in enumerate(zip(inputs, params)):
        fd = np.zeros_like(x)
        for i in np.ndindex(x.shape):
            shifted = []
            for step in (eps, -eps):
                xs = [y.copy() for y in inputs]
                xs[k][i] += step
                shifted.append(float((fn(*xs) * weights).sum()))
            fd[i] = (shifted[0] - shifted[1]) / (2 * eps)
        assert np.allclose(p.grad, fd, rtol=1e-6, atol=1e-8), (name, k)


class TestSegmentLogsumexp:
    def test_matches_per_segment_reference(self):
        x, owner, n = _segments()
        ref = np.array([np.log(np.exp(x[owner == v]).sum()) for v in range(n)])
        assert np.allclose(F.segment_logsumexp(x, owner, n), ref, rtol=1e-12, atol=1e-12)
        tensor = F.segment_logsumexp(F.parameter(x), owner, n)
        assert np.array_equal(tensor.data, F.segment_logsumexp(x, owner, n))

    def test_large_logits_stay_finite(self):
        out = F.segment_logsumexp(np.array([1000.0, 999.0, -1000.0]), np.array([0, 0, 1]), 2)
        assert np.allclose(out, [1000.0 + np.log1p(np.exp(-1.0)), -1000.0])

    def test_gradient_matches_central_differences(self):
        x, owner, n = _segments(1)
        weights = np.random.default_rng(2).normal(size=n)
        xt = F.parameter(x)
        F.backward((F.segment_logsumexp(xt, owner, n) * weights).sum())
        eps = 1e-6
        fd = np.zeros_like(x)
        for i in range(x.size):
            hi, lo = x.copy(), x.copy()
            hi[i] += eps
            lo[i] -= eps
            diff = F.segment_logsumexp(hi, owner, n) - F.segment_logsumexp(lo, owner, n)
            fd[i] = weights @ diff / (2 * eps)
        assert np.allclose(xt.grad, fd, rtol=1e-6, atol=1e-8)

    def test_one_entry_segment_gives_log_prob_exactly_zero(self):
        x = np.array([0.3, -7.25, 2.0, 41.5])
        owner = np.array([0, 1, 1, 2])
        lse = F.segment_logsumexp(x, owner, 3)
        assert x[0] - lse[0] == 0.0
        assert x[3] - lse[2] == 0.0


class TestMatvec:
    def test_row_results_do_not_depend_on_the_batch(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(37, 13))
        v = rng.normal(size=13)
        full = F.matvec(a, v)
        assert np.allclose(full, a @ v, rtol=1e-12, atol=1e-12)
        for lo, hi in ((0, 1), (5, 6), (3, 10), (30, 37)):
            assert np.array_equal(F.matvec(a[lo:hi], v), full[lo:hi])

    def test_tensor_value_equals_array_value(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(600, 128))
        v = rng.normal(size=128)
        full = F.matvec(a, v)
        for args in ((F.parameter(a), v), (a, F.parameter(v)), (F.parameter(a), F.parameter(v))):
            assert np.array_equal(F.matvec(*args).data, full)

    def test_tensor_gradient(self):
        rng = np.random.default_rng(4)
        a = F.parameter(rng.normal(size=(5, 3)))
        v = F.parameter(rng.normal(size=3))
        F.backward(F.matvec(a, v).sum())
        assert np.allclose(a.grad, np.tile(v.data, (5, 1)))
        assert np.allclose(v.grad, a.data.sum(axis=0))


def _scattered(data, idx, g):
    """The gradient of ``take`` by the ``np.add.at`` scatter it replaced."""
    full = np.zeros_like(data)
    np.add.at(full, idx, g)
    return full


class TestTake:
    @pytest.mark.parametrize("shape", [(6,), (6, 5)], ids=["1d", "2d"])
    @pytest.mark.parametrize("idx", [
        np.array([4, 1, 4, 0, 1, 4, 5, 2, 1]),  # repeated and unsorted
        np.array([[3, 0, 3], [5, 3, 1]]),  # a 2-D index
        np.array([], dtype=np.int64),
    ], ids=["repeated", "index_2d", "empty"])
    def test_the_gradient_is_the_scatter_bit_for_bit(self, shape, idx):
        data = _rand(*shape)
        x = F.parameter(data)
        out = F.take(x, idx)
        # wide magnitudes, so a sum in another order would show in the bits
        g = _rand(*out.data.shape, seed=4) * 10.0 ** (np.arange(out.data.size) % 7).reshape(out.data.shape)
        F.backward((out * g).sum())
        assert np.array_equal(x.grad.view(np.int64), _scattered(data, idx, g).view(np.int64))

    def test_each_row_adds_its_entries_in_index_order(self):
        # 1 + 2**-53 rounds back to 1, twice; the two halves first would sum to 2**-52
        x = F.parameter(np.zeros(2))
        F.backward((F.take(x, [0, 1, 0, 0]) * np.array([1.0, 5.0, 2.0**-53, 2.0**-53])).sum())
        assert x.grad.tolist() == [1.0, 5.0]

    def test_a_negative_zero_contribution_gives_positive_zero(self):
        # both start the bin at +0.0, and +0.0 + -0.0 is +0.0
        x = F.parameter(_rand(3, 2))
        g = np.array([[-0.0, 1.5], [-0.0, -0.0]])
        F.backward((F.take(x, [2, 0]) * g).sum())
        expected = _scattered(x.data, np.array([2, 0]), g)
        assert np.array_equal(x.grad.view(np.int64), expected.view(np.int64))
        assert not np.signbit(x.grad).any()

    @pytest.mark.parametrize("mode", ["array", "tensor"])
    def test_a_negative_index_is_refused(self, mode):
        data = _rand(4, 3)
        with pytest.raises(ValueError, match="non-negative indices, got -1"):
            F.take(F.parameter(data) if mode == "tensor" else data, [0, -1, 2])


# the ops that pass gradients to two or more operands, each of which may be a constant
_BINARY = {name: OPS[name] for name in OPS if len(OPS[name][1]) == 2}


@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("name", sorted(_BINARY))
def test_a_constant_operand_gets_no_gradient(name, position):
    fn, inputs = _BINARY[name]
    both = [F.parameter(x) for x in inputs]
    F.backward(fn(*both).sum())
    mixed = [F.parameter(x) if k == position else F.Tensor(x) for k, x in enumerate(inputs)]
    F.backward(fn(*mixed).sum())
    for k, t in enumerate(mixed):
        if k == position:
            assert np.array_equal(t.grad, both[k].grad)
        else:
            assert not t.requires_grad and t.grad is None


class TestTape:
    def test_backward_keeps_the_leaf_gradients_only(self):
        x = F.parameter(np.linspace(0.1, 1.0, 5))
        y = F.exp(x)
        F.backward((y * x).sum())
        assert np.allclose(x.grad, np.exp(x.data) * (1.0 + x.data))
        assert y.grad is None

    @pytest.mark.parametrize("key", [_REPEATED, [0, 2, 2], (slice(None), _REPEATED)],
                             ids=["array", "list", "slice-and-array"])
    def test_a_tensor_refuses_fancy_keys(self, key):
        # assigning the gradient of a repeated index would count it once
        x = F.parameter(_rand(5, 5))
        with pytest.raises(TypeError, match="F.take"):
            x[key]

    def test_a_dropped_tape_is_freed_without_the_cyclic_collector(self):
        # a tape in a reference cycle lingers until the collector runs, and
        # in training that held several updates' tapes at once
        gc.collect()
        gc.disable()
        try:
            x = F.parameter(np.linspace(0.1, 1.0, 5))
            loss = (F.sigmoid(F.sqrt(F.exp(x))) * x).sum()
            F.backward(loss)
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()
