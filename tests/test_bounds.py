import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mipprune.bounds
from mipprune.bounds import check_soundness, propagate, propagate_batch
from mipprune.errors import InvalidArgument
from mipprune.linalg import matvec
from mipprune.network import avgpool, build_network, conv, dense, flatten, forward, init_network, maxpool


def single_layer(weight, bias):
    w = np.asarray(weight, dtype=np.float64)
    return build_network(w.shape[1], [dense(w.shape[0]), dense(w.shape[0], activation="none")],
                         params=[(w, np.asarray(bias, dtype=np.float64)),
                                 (np.eye(w.shape[0]), np.zeros(w.shape[0]))])


def corner_enumeration(weight, bias, x, eps):
    """Oracle: evaluate the affine layer at every corner of the input box."""
    w = np.asarray(weight, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64)
    n = w.shape[1]
    lo = np.full(w.shape[0], np.inf)
    hi = np.full(w.shape[0], -np.inf)
    for bits in range(2 ** n):
        corner = np.array([x[j] + (eps if bits >> j & 1 else -eps) for j in range(n)])
        v = w @ corner + b
        lo = np.minimum(lo, v)
        hi = np.maximum(hi, v)
    return lo, hi


class TestPropagate:
    def test_positive_weight_corners(self):
        net = single_layer([[2.0]], [0.0])
        b = propagate(net, [1.0], 0.1)
        assert b.pre_lo[0][0] == pytest.approx(1.8, abs=1e-12)
        assert b.pre_hi[0][0] == pytest.approx(2.2, abs=1e-12)

    def test_negative_weight_corners(self):
        net = single_layer([[-2.0]], [0.0])
        b = propagate(net, [1.0], 0.1)
        assert b.pre_lo[0][0] == pytest.approx(-2.2, abs=1e-12)
        assert b.pre_hi[0][0] == pytest.approx(-1.8, abs=1e-12)

    def test_single_layer_tight_at_corners(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = rng.normal(size=(3, 4))
            bias = rng.normal(size=3)
            x = rng.normal(size=4)
            net = single_layer(w, bias)
            b = propagate(net, x, 0.25)
            lo, hi = corner_enumeration(w, bias, x, 0.25)
            assert np.max(np.abs(b.pre_lo[0] - lo)) <= 1e-10
            assert np.max(np.abs(b.pre_hi[0] - hi)) <= 1e-10

    def test_zero_epsilon_exact_preactivations(self):
        net = init_network(3, [dense(5), dense(4), dense(2, activation="none")], seed=2)
        x = np.array([0.4, -1.2, 0.7])
        b = propagate(net, x, 0.0)
        trace = forward(net, x)
        for layer in range(len(net.layers)):
            assert b.pre_lo[layer].tobytes() == trace.pre[layer].tobytes()
            assert b.pre_hi[layer].tobytes() == trace.pre[layer].tobytes()

    def test_pool_layers_propagate(self):
        net = init_network((1, 4, 4), [conv(2, 2, 2), avgpool(3), flatten(),
                                       dense(2, activation="none")], seed=3)
        x = np.random.default_rng(4).normal(size=16)
        b = propagate(net, x, 0.05)
        for lo, hi in zip(b.pre_lo, b.pre_hi):
            assert np.all(lo <= hi + 1e-12)

    def test_epsilon_monotonicity(self):
        net = init_network(3, [dense(6), dense(4), dense(3, activation="none")], seed=5)
        x = np.random.default_rng(6).normal(size=3)
        small = propagate(net, x, 0.01)
        big = propagate(net, x, 0.05)
        for layer in range(len(net.layers)):
            assert np.all(big.pre_lo[layer] <= small.pre_lo[layer] + 1e-12)
            assert np.all(big.pre_hi[layer] >= small.pre_hi[layer] - 1e-12)

    def test_negative_epsilon_rejected(self):
        net = init_network(2, [dense(3), dense(2, activation="none")], seed=7)
        with pytest.raises(InvalidArgument):
            propagate(net, [0.0, 0.0], -0.1)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, eps):
        net = init_network(2, [dense(3), dense(2, activation="none")], seed=7)
        with pytest.raises(InvalidArgument, match=f"epsilon must be finite and >= 0, got {eps}"):
            propagate(net, [0.0, 0.0], eps)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_relu_clipping_keeps_post_bounds_nonnegative(self, seed):
        net = init_network(2, [dense(4), dense(2, activation="none")], seed=seed)
        x = np.random.default_rng(seed).normal(size=2)
        b = propagate(net, x, 0.1)
        assert np.all(b.post_lo[0] >= 0.0)
        assert np.all(b.post_hi[0] >= 0.0)


def per_point_bounds(net, x, eps):
    """Reference: one point at a time, each product a matvec on the lowered matrix."""
    if eps == 0.0:
        trace = forward(net, x)
        return trace.pre, trace.pre, trace.post, trace.post
    lo, hi = x - eps, x + eps
    out = [[], [], [], []]
    for spec in net.layers:
        if spec.kind in ("dense", "conv"):
            w_pos, w_neg = np.maximum(spec.weight, 0.0), np.minimum(spec.weight, 0.0)
            zl = matvec(w_pos, lo) + matvec(w_neg, hi) + spec.bias
            zh = matvec(w_pos, hi) + matvec(w_neg, lo) + spec.bias
            al, ah = zl, zh
            if spec.activation == "relu":
                al, ah = np.maximum(zl, 0.0), np.maximum(zh, 0.0)
        elif spec.kind == "avgpool":
            zl = al = lo.reshape(-1, spec.pool_window).mean(axis=1)
            zh = ah = hi.reshape(-1, spec.pool_window).mean(axis=1)
        elif spec.kind == "maxpool":
            zl = al = lo.reshape(-1, spec.pool_window).max(axis=1)
            zh = ah = hi.reshape(-1, spec.pool_window).max(axis=1)
        else:
            zl = al = lo
            zh = ah = hi
        for arrays, v in zip(out, (zl, zh, al, ah)):
            arrays.append(v)
        lo, hi = al, ah
    return out


BATCH_NETS = {
    "dense": (12, [dense(16), dense(10), dense(3, activation="none")]),
    "conv-avgpool": ((2, 6, 6), [conv(3, 3, 3), avgpool(2), flatten(),
                                 dense(3, activation="none")]),
    "conv-maxpool": ((2, 6, 6), [conv(3, 3, 3), maxpool(2), flatten(),
                                 dense(3, activation="none")]),
    "padded-conv-conv": ((1, 6, 6), [conv(2, 3, 3, padding=1), conv(3, 3, 3), flatten(),
                                     dense(3, activation="none")]),
}


class TestBatch:
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.5])
    @pytest.mark.parametrize("name", sorted(BATCH_NETS))
    def test_batch_has_the_per_point_bits(self, name, eps):
        """Each point's bounds in one batched pass are the bytes of a pass of
        matvec products on that point alone, at every batch size."""
        net = init_network(*BATCH_NETS[name], seed=17)
        rng = np.random.default_rng(18)
        for n in (1, 2, 7):
            xs = rng.normal(size=(n, net.input_size))
            batch = propagate_batch(net, xs, eps)
            assert len(batch) == n
            for k, b in enumerate(batch):
                single = propagate(net, xs[k], eps)
                for got, alone, want in zip((b.pre_lo, b.pre_hi, b.post_lo, b.post_hi),
                                            (single.pre_lo, single.pre_hi, single.post_lo,
                                             single.post_hi),
                                            per_point_bounds(net, xs[k], eps)):
                    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
                    assert [g.tobytes() for g in got] == [s.tobytes() for s in alone]


class TestSoundness:
    def test_zero_epsilon_single_sample(self):
        net = init_network(2, [dense(4), dense(2, activation="none")], seed=8)
        assert check_soundness(net, [0.3, -0.7], 0.0, 1) == 0

    def test_nan_epsilon_is_no_vacuous_pass(self):
        net = init_network(2, [dense(4), dense(2, activation="none")], seed=8)
        with pytest.raises(InvalidArgument, match="got nan"):
            check_soundness(net, [0.3, -0.7], float("nan"), 10)

    def test_random_three_layer_nets(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            net = init_network(3, [dense(5), dense(4), dense(3, activation="none")], seed=seed)
            x = rng.normal(size=3)
            assert check_soundness(net, x, 0.05, 1000, seed=seed) == 0

    def test_soundness_with_pools(self):
        net = init_network((1, 3, 3), [conv(2, 2, 2), maxpool(2), flatten(),
                                       dense(2, activation="none")], seed=10)
        x = np.random.default_rng(11).normal(size=9)
        assert check_soundness(net, x, 0.05, 500, seed=1) == 0

    SHRUNK_NET = ((1, 4, 4), [conv(2, 2, 2), avgpool(3), flatten(), dense(4),
                              dense(2, activation="none")])

    @pytest.mark.parametrize("eps", [0.05, 0.0])
    def test_count_equals_a_per_sample_loop(self, eps, monkeypatch):
        """Bounds shrunk toward their midpoint let samples escape; the batched
        count equals one forward pass a sample against the same bounds."""
        net = init_network(*self.SHRUNK_NET, seed=14)
        x = np.random.default_rng(15).normal(size=net.input_size)

        def shrunk(net, x, epsilon=0.0):
            b = propagate(net, x, epsilon)
            for lo, hi in zip(b.pre_lo, b.pre_hi):
                mid, half = (lo + hi) / 2, (hi - lo) / 2
                lo[:], hi[:] = mid - half / 2, mid + half / 2
                lo[::2] += 1e-3  # at eps 0 the box is a point: move half of them off it
            return b

        monkeypatch.setattr(mipprune.bounds, "propagate", shrunk)
        b = shrunk(net, x, eps)
        rng = np.random.Generator(np.random.PCG64(3))
        want = 0
        for _ in range(300):
            trace = forward(net, np.asarray(x) + rng.uniform(-eps, eps, size=net.input_size)
                            if eps > 0 else x)
            for z, lo, hi in zip(trace.pre, b.pre_lo, b.pre_hi):
                want += int(np.sum(z < lo)) + int(np.sum(z > hi))
        assert want > 0
        assert check_soundness(net, x, eps, 300, seed=3) == want

    def test_samples_run_in_batches(self, monkeypatch):
        net = init_network(3, [dense(4), dense(2, activation="none")], seed=16)
        seen = []

        def counting_forward(net, x, mask=None):
            seen.append(np.shape(x))
            return forward(net, x, mask)

        monkeypatch.setattr(mipprune.bounds, "forward", counting_forward)
        assert check_soundness(net, [0.1, 0.2, 0.3], 0.05, 2500) == 0
        assert seen == [(1024, 3), (1024, 3), (452, 3)]
        seen.clear()
        assert check_soundness(net, [0.1, 0.2, 0.3], 0.0, 2500) == 0
        assert seen == [(3,), (1, 3)]  # propagate's pass at eps 0, then the point's

    def test_widened_bounds_still_sound(self):
        net = init_network(2, [dense(3), dense(2, activation="none")], seed=12)
        x = [0.1, 0.2]
        b = propagate(net, x, 0.05)
        # soundness is one-sided: inflating the box cannot create violations
        for layer in range(len(net.layers)):
            b.pre_hi[layer] += 1.0
            b.pre_lo[layer] -= 1.0
        rng = np.random.default_rng(13)
        violations = 0
        for _ in range(200):
            pt = np.asarray(x) + rng.uniform(-0.05, 0.05, size=2)
            trace = forward(net, pt)
            for layer, z in enumerate(trace.pre):
                violations += int(np.sum(z < b.pre_lo[layer]))
                violations += int(np.sum(z > b.pre_hi[layer]))
        assert violations == 0
