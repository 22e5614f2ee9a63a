import numpy as np
import pytest

from mipprune.errors import InvalidArgument, UnsupportedFeature
from mipprune.linalg import (
    ConvSpec,
    as_matrix,
    conv_index_map,
    conv_matmat,
    conv_taps,
    conv_to_matrix,
    matmat,
    matvec,
)


def direct_conv2d(x, kernel, pad):
    """Oracle: true convolution (flipped kernel) by nested loops."""
    kh, kw = kernel.shape
    h, w = x.shape
    xp = np.zeros((h + 2 * pad, w + 2 * pad))
    xp[pad : pad + h, pad : pad + w] = x
    oh, ow = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    out = np.zeros((oh, ow))
    for r in range(oh):
        for c in range(ow):
            acc = 0.0
            for p in range(kh):
                for q in range(kw):
                    acc += kernel[p, q] * xp[r + kh - 1 - p, c + kw - 1 - q]
            out[r, c] = acc
    return out


class TestConvToMatrix:
    def test_identity_kernel(self):
        spec = ConvSpec(1, 1, 1, 1, 2, 2, padding=0)
        m = conv_to_matrix(np.ones((1, 1, 1, 1)), spec)
        assert np.array_equal(m, np.eye(4))

    def test_2x2_kernel_3x3_input_no_padding(self):
        spec = ConvSpec(1, 1, 2, 2, 3, 3, padding=0)
        kernel = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        m = conv_to_matrix(kernel, spec)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=(3, 3))
            want = direct_conv2d(x, kernel[0, 0], 0).ravel()
            assert np.max(np.abs(matvec(m, x.ravel()) - want)) <= 1e-12

    def test_3x3_kernel_4x4_input_padding_1(self):
        spec = ConvSpec(1, 1, 3, 3, 4, 4, padding=1)
        rng = np.random.default_rng(4)
        kernel = rng.normal(size=(1, 1, 3, 3))
        m = conv_to_matrix(kernel, spec)
        assert m.shape[0] == 16
        x = rng.normal(size=(4, 4))
        want = direct_conv2d(x, kernel[0, 0], 1).ravel()
        assert np.max(np.abs(matvec(m, x.ravel()) - want)) <= 1e-12

    def test_random_configs_match_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            h, w = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            kh, kw = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
            pad = int(rng.integers(0, 3))
            oc, ic = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            spec = ConvSpec(ic, oc, kh, kw, h, w, padding=pad)
            k = rng.normal(size=(oc, ic, kh, kw))
            m = conv_to_matrix(k, spec)
            x = rng.normal(size=(ic, h, w))
            got = matvec(m, x.ravel())
            want = np.concatenate([
                sum(direct_conv2d(x[i], k[o, i], pad) for i in range(ic)).ravel()
                for o in range(oc)
            ])
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_stride_rejected(self):
        with pytest.raises(UnsupportedFeature):
            ConvSpec(1, 1, 2, 2, 4, 4, padding=0, stride=2)

    def test_kernel_shape_mismatch(self):
        spec = ConvSpec(1, 1, 2, 2, 4, 4)
        with pytest.raises(InvalidArgument):
            conv_to_matrix(np.zeros((1, 1, 3, 3)), spec)

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(InvalidArgument):
            ConvSpec(1, 1, 5, 5, 3, 3, padding=0)

    def test_result_is_a_fresh_writable_array(self):
        spec = ConvSpec(2, 2, 2, 2, 3, 3, padding=1)
        k = np.random.default_rng(6).normal(size=(2, 2, 2, 2))
        first = conv_to_matrix(k, spec)
        want = first.copy()
        first[...] = 7.0
        assert conv_to_matrix(k, spec).tobytes() == want.tobytes()

    def test_index_map_cached_read_only(self):
        spec = ConvSpec(2, 3, 2, 3, 4, 5, padding=1)
        kmap = conv_index_map(spec)
        assert conv_index_map(ConvSpec(2, 3, 2, 3, 4, 5, padding=1)) is kmap
        assert kmap.shape == (spec.output_size, spec.input_size)
        assert not kmap.flags.writeable
        with pytest.raises(ValueError):
            kmap[0, 0] = 0

    def test_taps_cached_read_only(self):
        spec = ConvSpec(2, 3, 2, 3, 4, 5, padding=1)
        taps = conv_taps(spec)
        assert conv_taps(ConvSpec(2, 3, 2, 3, 4, 5, padding=1)) is taps
        assert taps.index.shape == (2 * 2 * 3, spec.output_h * spec.output_w)
        assert not any(a.flags.writeable for a in taps)

    def test_index_map_places_every_kernel_entry(self):
        # without padding each kernel entry lands once per output position of its map
        spec = ConvSpec(2, 3, 2, 2, 3, 3, padding=0)
        kmap = conv_index_map(spec)
        counts = np.bincount(kmap[kmap >= 0], minlength=24)
        assert counts.tolist() == [spec.output_h * spec.output_w] * 24


class TestConvMatmat:
    def test_equals_the_lowered_product_byte_for_byte(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            ic, oc, kh, kw = (int(d) for d in rng.integers(1, 4, size=4))
            pad = int(rng.integers(0, 3))
            h = int(rng.integers(max(1, kh - 2 * pad), 8))
            w = int(rng.integers(max(1, kw - 2 * pad), 8))
            spec = ConvSpec(ic, oc, kh, kw, h, w, padding=pad)
            k = rng.normal(size=(oc, ic, kh, kw))
            k[rng.random(k.shape) < 0.2] = 0.0
            x = rng.normal(size=(spec.input_size, int(rng.integers(2, 40))))
            x[rng.random(x.shape) < 0.2] = 0.0
            want = matmat(conv_to_matrix(k, spec), x)
            assert conv_matmat(k, spec, x).tobytes() == want.tobytes(), spec

    def test_input_size_mismatch(self):
        spec = ConvSpec(1, 1, 2, 2, 3, 3)
        with pytest.raises(InvalidArgument):
            conv_matmat(np.ones((1, 1, 2, 2)), spec, np.ones((8, 2)))


class TestMatvec:
    def test_identity(self):
        assert matvec(np.eye(3), [1.0, 2.0, 3.0]).tolist() == [1.0, 2.0, 3.0]

    def test_zero_matrix(self):
        assert matvec(np.zeros((2, 2)), [5.0, 7.0]).tolist() == [0.0, 0.0]

    def test_against_transposed_loop(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(5, 5))
        v = rng.normal(size=5)
        want = np.zeros(5)
        for j in range(5):  # accumulate column-wise, a different order
            for i in range(5):
                want[i] += m[i, j] * v[j]
        assert np.max(np.abs(matvec(m, v) - want)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgument):
            matvec(np.eye(3), [1.0, 2.0])

    def test_bit_deterministic(self):
        rng = np.random.default_rng(10)
        m = rng.normal(size=(7, 4))
        v = rng.normal(size=4)
        a = matvec(m, v)
        b = matvec(m.copy(), v.copy())
        assert a.tobytes() == b.tobytes()

    def test_matmat_matches_columnwise_matvec(self):
        """Close for a C-ordered ``x``; an F-ordered one (one input per row,
        transposed) gives each column matvec's bits at every width."""
        rng = np.random.default_rng(12)
        m = rng.normal(size=(4, 6))
        x = rng.normal(size=(6, 3))
        got = matmat(m, x)
        for j in range(3):
            assert np.max(np.abs(got[:, j] - matvec(m, x[:, j]))) <= 1e-13
        assert matmat(m, x).tobytes() == matmat(m.copy(), x.copy()).tobytes()
        m = rng.normal(size=(5, 80)) * rng.choice([1e-8, 1.0, 1e8], size=(5, 80))
        for cols in (1, 2, 3, 17):
            x = rng.normal(size=(cols, 80)).T
            got = matmat(m, x)
            assert [got[:, j].tobytes() for j in range(cols)] == \
                [matvec(m, x[:, j]).tobytes() for j in range(cols)]

    @pytest.mark.parametrize("cols", [2, 3, 17])
    def test_matmat_sums_left_to_right_from_two_columns(self, cols):
        """The property :func:`conv_matmat` rests on: with two or more result
        columns each entry is the left-to-right sum over the shared index."""
        rng = np.random.default_rng(16)
        m = rng.normal(size=(5, 80)) * rng.choice([1e-8, 1.0, 1e8], size=(5, 80))
        x = rng.normal(size=(80, cols))
        want = np.zeros((5, cols))
        for j in range(80):
            want += np.outer(m[:, j], x[j])
        assert matmat(m, x).tobytes() == want.tobytes()


class TestAsMatrix:
    def test_rejects_nan(self):
        with pytest.raises(InvalidArgument):
            as_matrix([[1.0, float("nan")]])

    def test_rejects_inf(self):
        with pytest.raises(InvalidArgument):
            as_matrix([[float("inf")]])

    def test_enforces_dims(self):
        with pytest.raises(InvalidArgument):
            as_matrix(np.zeros((2, 3)), rows=3)
