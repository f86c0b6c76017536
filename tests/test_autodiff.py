import numpy as np

from routeflow import autodiff as F


def _segments(seed=0):
    rng = np.random.default_rng(seed)
    sizes = np.array([1, 4, 2, 7, 1, 3])
    owner = np.repeat(np.arange(len(sizes)), sizes)
    rng.shuffle(owner)  # buckets need not be contiguous
    x = rng.normal(size=owner.size) * 5
    return x, owner, len(sizes)


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
        F.backward(F.asum(F.segment_logsumexp(xt, owner, n) * weights))
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

    def test_tensor_gradient(self):
        rng = np.random.default_rng(4)
        a = F.parameter(rng.normal(size=(5, 3)))
        v = F.parameter(rng.normal(size=3))
        F.backward(F.asum(F.matvec(a, v)))
        assert np.allclose(a.grad, np.tile(v.data, (5, 1)))
        assert np.allclose(v.grad, a.data.sum(axis=0))
