import hashlib

import numpy as np
import pytest

from mipprune.datasets import (
    Dataset,
    balanced_batch,
    load_dataset,
    make_dataset,
    save_dataset,
    split_dataset,
)
from mipprune.errors import InvalidArgument, ModelFormatError
from mipprune.network import dense, float_to_hex, init_network
from mipprune.training import TrainConfig, evaluate, train


class TestMakeDataset:
    def test_same_seed_identical_bytes(self):
        a = make_dataset("blobs", 10, seed=7)
        b = make_dataset("blobs", 10, seed=7)
        assert a.inputs.tobytes() == b.inputs.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_minidigits_covers_all_classes(self):
        ds = make_dataset("minidigits", 3, seed=1)
        assert sorted(set(ds.labels.tolist())) == list(range(10))
        assert ds.dim == 64

    def test_moons_two_classes(self):
        ds = make_dataset("moons", 25, seed=2)
        assert ds.n_classes == 2
        assert ds.inputs.shape == (50, 2)

    def test_unknown_name(self):
        with pytest.raises(InvalidArgument):
            make_dataset("spirals", 5, seed=0)

    def test_n_per_class_minimum(self):
        with pytest.raises(InvalidArgument):
            make_dataset("blobs", 1, seed=0)

    def test_blobs_linear_separability(self):
        # separation 6 sigma: a 1-hidden-layer net fits the training set exactly
        ds = make_dataset("blobs", 30, seed=5, n_classes=2, dim=2, separation=6.0)
        net = init_network(2, [dense(8), dense(2, activation="none")], seed=1)
        cfg = TrainConfig(epochs=200, learning_rate=1e-2, batch_size=16,
                          optimizer="rmsprop", seed=0)
        trained = train(net, ds, cfg).net
        assert evaluate(trained, ds) == 1.0

    def test_prefix_stability(self):
        small = make_dataset("blobs", 10, seed=9)
        big = make_dataset("blobs", 20, seed=9)
        for c in range(small.n_classes):
            a = small.inputs[small.labels == c]
            b = big.inputs[big.labels == c][:10]
            assert a.tobytes() == b.tobytes()


class TestSplit:
    def test_split_sizes_and_distribution(self):
        full = make_dataset("blobs", 20, seed=3)
        tr, ev = split_dataset(full, 12)
        assert np.bincount(tr.labels).tolist() == [12] * 4
        assert np.bincount(ev.labels).tolist() == [8] * 4

    def test_split_preserves_points(self):
        full = make_dataset("moons", 10, seed=4)
        tr, ev = split_dataset(full, 6)
        joined = np.concatenate([tr.inputs, ev.inputs])
        assert sorted(map(tuple, joined.tolist())) == sorted(map(tuple, full.inputs.tolist()))

    def test_split_needs_leftover(self):
        full = make_dataset("blobs", 5, seed=3)
        with pytest.raises(InvalidArgument):
            split_dataset(full, 5)


class TestBalancedBatch:
    def test_one_per_class_in_order(self):
        ds = make_dataset("blobs", 4, seed=6)
        xs, ys = balanced_batch(ds, 1)
        assert ys.tolist() == [0, 1, 2, 3]
        assert xs.shape == (4, ds.dim)

    def test_deterministic(self):
        ds = make_dataset("minidigits", 4, seed=6)
        a = balanced_batch(ds, 2)
        b = balanced_batch(ds, 2)
        assert a[0].tobytes() == b[0].tobytes()


class TestCacheFile:
    def test_round_trip(self, tmp_path):
        ds = make_dataset("moons", 8, seed=11)
        save_dataset(ds, tmp_path / "m.ds")
        loaded = load_dataset(tmp_path / "m.ds")
        assert loaded.inputs.tobytes() == ds.inputs.tobytes()
        assert loaded.labels.tolist() == ds.labels.tolist()
        assert loaded.name == "moons" and loaded.seed == 11

    @pytest.mark.parametrize("edit", [
        lambda ls: ls[:-1],                                          # last data line missing
        lambda ls: [l for l in ls if l != "inputs"],                 # no inputs header
        lambda ls: ls[:6] + [ls[6].replace(ls[6].split()[0], float_to_hex(np.nan), 1)]
        + ls[7:],                                                    # NaN input token
    ], ids=["short-values", "no-inputs-header", "nan-input"])
    def test_malformed_file_rejected(self, tmp_path, edit):
        save_dataset(make_dataset("moons", 8, seed=11), tmp_path / "m.ds")
        lines = (tmp_path / "m.ds").read_text().splitlines()
        (tmp_path / "m.ds").write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(ModelFormatError):
            load_dataset(tmp_path / "m.ds")

    def test_bad_hex_token_names_its_line(self, tmp_path):
        save_dataset(make_dataset("moons", 8, seed=11), tmp_path / "m.ds")
        lines = (tmp_path / "m.ds").read_text().splitlines()
        lines[8] = lines[8].replace(lines[8].split()[1], "0x3ff00000000000", 1)
        (tmp_path / "m.ds").write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match="line 9: bad float64 hex token"):
            load_dataset(tmp_path / "m.ds")

    def test_header_error_names_its_line(self, tmp_path):
        save_dataset(make_dataset("moons", 8, seed=11), tmp_path / "m.ds")
        lines = (tmp_path / "m.ds").read_text().splitlines()
        assert lines[3] == "shape 16 2"
        lines[3] = "shape 16"
        (tmp_path / "m.ds").write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match="line 4: "):
            load_dataset(tmp_path / "m.ds")

    # sha256 of the save_dataset bytes; a change here breaks every cached .ds file
    @pytest.mark.parametrize("name, n_per_class, digest", [
        ("blobs", 5, "e08bc84e11fc0f65d51bf98470ecad248258a171037438c7794666526f24252d"),
        ("moons", 5, "f906f44c5c660d40328c20dcb1179babe8c22ba50bea1d67ea81bc87e7efec4e"),
        ("minidigits", 3, "b8e309559f6e8bdbd9e0b188928ca8872e4e870e50a8da301f3718d46c53f40e"),
    ], ids=["blobs", "moons", "minidigits"])
    def test_golden_file_bytes(self, tmp_path, name, n_per_class, digest):
        save_dataset(make_dataset(name, n_per_class, seed=3), tmp_path / "g.ds")
        assert hashlib.sha256((tmp_path / "g.ds").read_bytes()).hexdigest() == digest

    def test_validation_on_labels(self):
        with pytest.raises(InvalidArgument):
            Dataset("x", np.zeros((3, 2)), np.array([0, 1, 5]), 2, 0)
