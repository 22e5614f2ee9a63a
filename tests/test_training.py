import numpy as np
import pytest

from mipprune.datasets import Dataset, make_dataset
from mipprune.errors import InvalidArgument, TrainingDiverged, UnsupportedFeature
from mipprune.linalg import conv_index_map
from mipprune.network import (
    Mask,
    apply_mask,
    avgpool,
    conv,
    dense,
    flatten,
    forward,
    init_network,
    maxpool,
)
from mipprune.training import TrainConfig, evaluate, loss_and_grads, train


from gradcheck import finite_difference_grads, rel_err


class TestGradients:
    def test_dense_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        net = init_network(3, [dense(4), dense(3, activation="none")], seed=2)
        x = rng.normal(size=(5, 3))
        y = rng.integers(0, 3, size=5)
        _, got = loss_and_grads(net, x, y)
        want = finite_difference_grads(net, x, y)
        for (gw, gb), (fw, fb) in zip(got, want):
            assert rel_err(gw, fw) <= 1e-4
            assert rel_err(gb, fb) <= 1e-4

    def test_conv_avgpool_flatten_match_finite_differences(self):
        rng = np.random.default_rng(3)
        net = init_network((1, 3, 3), [conv(2, 2, 2), avgpool(2), flatten(),
                                       dense(3, activation="none")], seed=4)
        x = rng.normal(size=(4, 9))
        y = rng.integers(0, 3, size=4)
        _, got = loss_and_grads(net, x, y)
        want = finite_difference_grads(net, x, y)
        for (gw, gb), (fw, fb) in zip(got, want):
            assert rel_err(gw, fw) <= 1e-4
            assert rel_err(gb, fb) <= 1e-4

    def test_maxpool_training_rejected(self):
        net = init_network(4, [dense(4), maxpool(2), dense(2, activation="none")], seed=1)
        ds = make_dataset("blobs", 5, seed=1, n_classes=2, dim=4)
        with pytest.raises(UnsupportedFeature):
            train(net, ds, TrainConfig(epochs=1, seed=0))


class TestTrain:
    def test_separable_blobs_converge(self):
        ds = make_dataset("blobs", 30, seed=5, n_classes=2, dim=2, separation=6.0)
        net = init_network(2, [dense(6), dense(2, activation="none")], seed=3)
        out = train(net, ds, TrainConfig(epochs=200, learning_rate=1e-2, seed=0))
        assert evaluate(out.net, ds) >= 0.99

    def test_zero_learning_rate_keeps_weights(self):
        ds = make_dataset("blobs", 5, seed=6)
        net = init_network(2, [dense(4), dense(4, activation="none")], seed=7)
        out = train(net, ds, TrainConfig(epochs=3, learning_rate=0.0, seed=0))
        for a, b in zip(net.layers, out.net.layers):
            assert a.weight.tobytes() == b.weight.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()

    def test_conv_lowering_walk_runs_once_per_spec(self):
        ds = make_dataset("minidigits", 4, seed=1)  # 40 points: 5 batch steps per epoch
        net = init_network((1, 8, 8), [conv(2, 3, 3), avgpool(4), flatten(),
                                       dense(10, activation="none")], seed=2)
        conv_index_map.cache_clear()
        train(net, ds, TrainConfig(epochs=3, batch_size=8, learning_rate=1e-2, seed=0))
        info = conv_index_map.cache_info()
        # one gradient fold and one re-lowering per step; only the first builds the map
        assert (info.misses, info.hits) == (1, 2 * 15 - 1)

    def test_bit_deterministic(self):
        ds = make_dataset("moons", 15, seed=8)
        net = init_network(2, [dense(5), dense(2, activation="none")], seed=9)
        cfg = TrainConfig(epochs=10, learning_rate=1e-3, seed=4)
        a = train(net, ds, cfg)
        b = train(net, ds, cfg)
        for la, lb in zip(a.net.layers, b.net.layers):
            assert la.weight.tobytes() == lb.weight.tobytes()
        assert a.trace == b.trace

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_divergence_reported_with_epoch(self):
        ds = make_dataset("blobs", 10, seed=10)
        net = init_network(2, [dense(8), dense(4, activation="none")], seed=11)
        with pytest.raises(TrainingDiverged) as err:
            train(net, ds, TrainConfig(epochs=50, learning_rate=1e12, optimizer="sgd", seed=0))
        assert err.value.epoch >= 0

    def test_smoothed_loss_decreases_on_convergent_run(self):
        ds = make_dataset("blobs", 20, seed=21, n_classes=2, separation=6.0)
        net = init_network(2, [dense(6), dense(2, activation="none")], seed=22)
        out = train(net, ds, TrainConfig(epochs=120, learning_rate=1e-2, seed=5))
        losses = [row[1] for row in out.trace]
        head = float(np.mean(losses[:10]))
        tail = float(np.mean(losses[-10:]))
        assert tail < head

    def test_trace_has_one_row_per_epoch(self):
        ds = make_dataset("blobs", 6, seed=12)
        net = init_network(2, [dense(4), dense(4, activation="none")], seed=13)
        out = train(net, ds, TrainConfig(epochs=7, seed=1))
        assert [row[0] for row in out.trace] == list(range(7))


class TestEvaluate:
    def test_perfect_memorizer(self):
        ds = make_dataset("blobs", 20, seed=14, n_classes=2, separation=8.0)
        net = init_network(2, [dense(8), dense(2, activation="none")], seed=15)
        out = train(net, ds, TrainConfig(epochs=300, learning_rate=1e-2, seed=2))
        assert evaluate(out.net, ds) == 1.0

    def test_constant_logits_tie_break_lowest_class(self):
        net = init_network(2, [dense(3), dense(2, activation="none")], seed=16)
        for spec in net.layers:
            spec.weight[:] = 0.0
            spec.bias[:] = 0.0
        inputs = np.random.default_rng(0).normal(size=(10, 2))
        labels = np.array([0] * 5 + [1] * 5)
        ds = Dataset("x", inputs, labels, 2, 0)
        # all logits equal: argmax picks class 0, so accuracy = class-0 share
        assert evaluate(net, ds) == 0.5

    def test_masked_evaluate_equals_structural(self):
        ds = make_dataset("blobs", 10, seed=17)
        net = init_network(2, [dense(6), dense(4, activation="none")], seed=18)
        trained = train(net, ds, TrainConfig(epochs=30, seed=3)).net
        mask = Mask.empty(trained)
        mask.bits[0][2] = True
        a = evaluate(trained, ds, mask)
        b = evaluate(apply_mask(trained, mask), ds)
        assert abs(a - b) <= 1e-12

    def test_masked_matches_per_input_argmax(self):
        ds = make_dataset("blobs", 15, seed=20)
        net = init_network(2, [dense(8), dense(6), dense(4, activation="none")], seed=21)
        trained = train(net, ds, TrainConfig(epochs=20, learning_rate=1e-2, seed=4)).net
        rng = np.random.default_rng(22)
        n = ds.labels.size
        for _ in range(10):
            mask = Mask.empty(trained)
            for bits in mask.bits.values():
                bits[:] = rng.random(bits.size) < 0.4
                bits[rng.integers(bits.size)] = False  # never mask a whole layer
            # reference: one forward pass and one argmax per input
            correct = sum(int(np.argmax(forward(trained, ds.inputs[i], mask).logits)) ==
                          int(ds.labels[i]) for i in range(n))
            assert evaluate(trained, ds, mask) == correct / n

    def test_all_false_mask_is_validated(self):
        ds = make_dataset("blobs", 5, seed=23)
        net = init_network(2, [dense(4), dense(4, activation="none")], seed=24)
        mask = Mask({0: np.zeros(3, dtype=bool)})  # layer 0 has 4 units
        with pytest.raises(InvalidArgument, match="layer 0: mask has 3 bits"):
            evaluate(net, ds, mask)

    def test_empty_dataset_rejected(self):
        net = init_network(2, [dense(3), dense(2, activation="none")], seed=19)
        with pytest.raises(InvalidArgument):
            Dataset("x", np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2, 0)
