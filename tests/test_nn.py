"""Tests for the dense-tensor kernel.

Gradients are checked against float64 central finite differences
(eps = 1e-5, norm-relative tolerance 1e-4). The vectorised convolutions are
checked against naive quadruple-loop references to 1e-6 relative error.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import mse, naive_conv2d, naive_conv_transpose2d, numeric_grad, rel_err

from vibanom.errors import ConfigurationError, DimensionError, TrainingError
from vibanom import dcan, nn

GRAD_TOL = 1e-4
FD_EPS = 1e-5


def random_conv(rng, in_c, out_c, kernel, stride, transpose=False):
    cls = nn.ConvTranspose2dLayer if transpose else nn.Conv2dLayer
    layer = cls.zeros(in_c, out_c, kernel, stride, dtype=np.float64)
    layer.weight[...] = rng.standard_normal(layer.weight.shape)
    layer.bias[...] = rng.standard_normal(layer.bias.shape)
    return layer


class TestShapeFormulas:
    def test_conv_output_sizes_match_architecture(self):
        # Width chain of the encoder: 4096 -> 253 -> 61 -> 57.
        assert nn.conv_output_hw(3, 4096, (3, 64), (1, 16)) == (1, 253)
        assert nn.conv_output_hw(1, 253, (1, 13), (1, 4)) == (1, 61)
        assert nn.conv_output_hw(1, 61, (1, 5), (1, 1)) == (1, 57)

    def test_conv_transpose_output_sizes_match_architecture(self):
        # Decoder restores the widths exactly: 57 -> 61 -> 253 -> 4096.
        assert nn.conv_transpose_output_hw(1, 57, (1, 5), (1, 1)) == (1, 61)
        assert nn.conv_transpose_output_hw(1, 61, (1, 13), (1, 4)) == (1, 253)
        assert nn.conv_transpose_output_hw(1, 253, (3, 64), (1, 16)) == (3, 4096)

    def test_round_trip_identity_for_all_layer_pairs(self):
        for h, w, kernel, stride in [
            (3, 4096, (3, 64), (1, 16)),
            (1, 253, (1, 13), (1, 4)),
            (1, 61, (1, 5), (1, 1)),
            (5, 100, (2, 7), (1, 3)),
        ]:
            ho, wo = nn.conv_output_hw(h, w, kernel, stride)
            # Valid conv followed by its transpose restores the size only when
            # the stride tiles the input exactly; all model layers do.
            if (h - kernel[0]) % stride[0] == 0 and (w - kernel[1]) % stride[1] == 0:
                assert nn.conv_transpose_output_hw(ho, wo, kernel, stride) == (h, w)

    def test_kernel_larger_than_input_raises(self):
        with pytest.raises(DimensionError):
            nn.conv_output_hw(2, 10, (3, 1), (1, 1))
        with pytest.raises(DimensionError):
            nn.conv_output_hw(3, 10, (1, 11), (1, 1))


class TestConv2d:
    def test_single_frame_shape(self):
        x = np.zeros((1, 1, 3, 4096), dtype=np.float32)
        layer = nn.Conv2dLayer.zeros(1, 8, (3, 64), (1, 16))
        out = nn.conv2d_forward(x, layer)
        assert out.shape == (1, 8, 1, 253)
        assert out.dtype == np.float32

    def test_identity_kernel_two_by_two(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        layer = nn.Conv2dLayer.zeros(1, 1, (2, 2), (1, 1), dtype=np.float64)
        layer.weight[0, 0] = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = nn.conv2d_forward(x, layer)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == pytest.approx(5.0)

    def test_bias_is_added_per_channel(self):
        x = np.zeros((2, 1, 3, 4), dtype=np.float64)
        layer = nn.Conv2dLayer.zeros(1, 3, (3, 2), (1, 1), dtype=np.float64)
        layer.bias[...] = [1.0, -2.0, 0.5]
        out = nn.conv2d_forward(x, layer)
        for f, expect in enumerate([1.0, -2.0, 0.5]):
            assert np.all(out[:, f] == expect)

    @pytest.mark.parametrize(
        "b,in_c,out_c,h,w,kernel,stride",
        [
            (2, 1, 4, 3, 40, (3, 8), (1, 4)),
            # A height stride, which a one-row output never takes.
            (1, 3, 2, 3, 9, (3, 3), (2, 2)),
            (3, 2, 5, 5, 5, (5, 5), (1, 1)),
            (2, 4, 1, 1, 11, (1, 4), (1, 3)),
            # conv1 and conv2 of the model at their real input sizes.
            (2, 1, 8, 3, 4096, (3, 64), (1, 16)),
            (2, 8, 16, 1, 253, (1, 13), (1, 4)),
            # Overlapping width windows, the last column reached by none.
            (2, 2, 3, 3, 22, (3, 5), (1, 2)),
        ],
    )
    def test_matches_naive_oracle(self, b, in_c, out_c, h, w, kernel, stride):
        rng = np.random.default_rng(101)
        x = rng.standard_normal((b, in_c, h, w))
        layer = random_conv(rng, in_c, out_c, kernel, stride)
        fast = nn.conv2d_forward(x, layer)
        slow = naive_conv2d(x, layer.weight, layer.bias, stride)
        assert fast.shape == slow.shape
        assert rel_err(fast, slow) <= 1e-6

    def test_channel_mismatch_raises(self):
        layer = nn.Conv2dLayer.zeros(2, 4, (2, 2), (1, 1))
        with pytest.raises(DimensionError, match="axis 1"):
            nn.conv2d_forward(np.zeros((1, 3, 2, 4), dtype=np.float32), layer)

    def test_non_4d_input_raises(self):
        layer = nn.Conv2dLayer.zeros(1, 1, (2, 2), (1, 1))
        with pytest.raises(DimensionError):
            nn.conv2d_forward(np.zeros((4, 4), dtype=np.float32), layer)

    @pytest.mark.parametrize(
        "in_c,out_c,h,w,kernel,stride",
        [
            (1, 2, 1, 10, (1, 3), (1, 2)),
            (2, 3, 3, 6, (3, 2), (2, 2)),
            (3, 1, 1, 7, (1, 4), (1, 3)),
            # Height stride 2, width stride not dividing the kernel, and two
            # trailing columns that no window reaches.
            (2, 2, 3, 13, (3, 5), (2, 3)),
        ],
    )
    def test_gradients_match_finite_differences(self, in_c, out_c, h, w, kernel, stride):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, in_c, h, w))
        layer = random_conv(rng, in_c, out_c, kernel, stride)
        proj = rng.standard_normal(nn.conv2d_forward(x, layer).shape)

        gx, gw, gb = nn.conv2d_backward(x, layer, proj)

        fd_x = numeric_grad(lambda v: np.sum(nn.conv2d_forward(v, layer) * proj), x, FD_EPS)
        assert rel_err(gx, fd_x) <= GRAD_TOL

        def loss_of_weight(w_):
            trial = nn.Conv2dLayer(in_c, out_c, layer.kernel, layer.stride, w_, layer.bias)
            return np.sum(nn.conv2d_forward(x, trial) * proj)

        assert rel_err(gw, numeric_grad(loss_of_weight, layer.weight, FD_EPS)) <= GRAD_TOL

        def loss_of_bias(b_):
            trial = nn.Conv2dLayer(in_c, out_c, layer.kernel, layer.stride, layer.weight, b_)
            return np.sum(nn.conv2d_forward(x, trial) * proj)

        assert rel_err(gb, numeric_grad(loss_of_bias, layer.bias, FD_EPS)) <= GRAD_TOL

    @pytest.mark.parametrize("h", [1, 4])
    def test_input_height_other_than_the_kernel_raises(self, h):
        # a kernel spans its input's full height: (2, 3) needs 2 rows
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 1, h, 8))
        layer = random_conv(rng, 1, 2, (2, 3), (1, 1))
        with pytest.raises(DimensionError, match="axis 2"):
            nn.conv2d_forward(x, layer)
        with pytest.raises(DimensionError, match="axis 2"):
            nn.conv2d_backward(x, layer, np.zeros((2, 2, 1, 6)))

    def test_backward_rejects_wrong_upstream_shape(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 1, 2, 8))
        layer = random_conv(rng, 1, 2, (2, 2), (1, 2))
        with pytest.raises(DimensionError, match="upstream"):
            nn.conv2d_backward(x, layer, np.zeros((1, 2, 3, 3)))

    @pytest.mark.parametrize(
        "in_c,out_c,h,w,kernel,stride",
        [(1, 8, 3, 4096, (3, 64), (1, 16)), (2, 2, 3, 13, (3, 5), (2, 3))],
    )
    def test_backward_can_skip_input_gradient(self, in_c, out_c, h, w, kernel, stride):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, in_c, h, w))
        layer = random_conv(rng, in_c, out_c, kernel, stride)
        upstream = rng.standard_normal(nn.conv2d_forward(x, layer).shape)
        gx, gw, gb = nn.conv2d_backward(x, layer, upstream)
        skipped, gw_skip, gb_skip = nn.conv2d_backward(x, layer, upstream, input_grad=False)
        assert gx is not None and skipped is None
        assert np.array_equal(gw_skip, gw) and np.array_equal(gb_skip, gb)


class TestConvTranspose2d:
    @pytest.mark.parametrize(
        "b,in_c,out_c,h,w,kernel,stride",
        [
            (2, 4, 1, 1, 13, (3, 8), (1, 4)),
            # A height stride, which a one-row input never takes.
            (1, 2, 3, 1, 5, (2, 3), (2, 2)),
            (3, 5, 2, 1, 9, (1, 5), (1, 1)),
            # deconv3 and deconv2 of the model at their real input sizes.
            (2, 8, 1, 1, 253, (3, 64), (1, 16)),
            (2, 16, 8, 1, 61, (1, 13), (1, 4)),
            # Overlapping width windows.
            (2, 3, 2, 1, 9, (3, 5), (1, 2)),
        ],
    )
    def test_matches_naive_oracle(self, b, in_c, out_c, h, w, kernel, stride):
        rng = np.random.default_rng(211)
        x = rng.standard_normal((b, in_c, h, w))
        layer = random_conv(rng, in_c, out_c, kernel, stride, transpose=True)
        fast = nn.conv_transpose2d_forward(x, layer)
        slow = naive_conv_transpose2d(x, layer.weight, layer.bias, stride)
        assert fast.shape == slow.shape
        assert rel_err(fast, slow) <= 1e-6

    def test_is_adjoint_of_conv2d(self):
        # <convT(y), x> == <y, conv(x)> for a shared, bias-free kernel.
        rng = np.random.default_rng(31)
        for in_c, out_c, h, w, kernel, stride in [
            (1, 8, 3, 128, (3, 16), (1, 8)),
            (2, 3, 3, 10, (3, 4), (2, 3)),
            (4, 4, 1, 61, (1, 5), (1, 1)),
            (1, 8, 3, 4096, (3, 64), (1, 16)),
            (8, 16, 1, 253, (1, 13), (1, 4)),
        ]:
            conv = nn.Conv2dLayer.zeros(in_c, out_c, kernel, stride, dtype=np.float64)
            conv.weight[...] = rng.standard_normal(conv.weight.shape)
            tconv = nn.ConvTranspose2dLayer(
                out_c, in_c, kernel, stride, conv.weight, np.zeros(in_c)
            )
            x = rng.standard_normal((2, in_c, h, w))
            y = rng.standard_normal(nn.conv2d_forward(x, conv).shape)
            lhs = np.sum(nn.conv_transpose2d_forward(y, tconv) * x)
            rhs = np.sum(y * nn.conv2d_forward(x, conv))
            assert rel_err(lhs, rhs) <= 1e-5

    @pytest.mark.parametrize(
        "in_c,out_c,h,w,kernel,stride",
        [
            (2, 1, 1, 7, (2, 3), (1, 2)),
            (1, 3, 1, 4, (2, 2), (2, 2)),
            (3, 2, 1, 11, (1, 5), (1, 1)),
            # Height stride 2 and a width stride that does not divide the kernel.
            (2, 2, 1, 3, (3, 5), (2, 3)),
        ],
    )
    def test_gradients_match_finite_differences(self, in_c, out_c, h, w, kernel, stride):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, in_c, h, w))
        layer = random_conv(rng, in_c, out_c, kernel, stride, transpose=True)
        proj = rng.standard_normal(nn.conv_transpose2d_forward(x, layer).shape)

        gx, gw, gb = nn.conv_transpose2d_backward(x, layer, proj)

        fd_x = numeric_grad(
            lambda v: np.sum(nn.conv_transpose2d_forward(v, layer) * proj), x, FD_EPS
        )
        assert rel_err(gx, fd_x) <= GRAD_TOL

        def loss_of_weight(w_):
            trial = nn.ConvTranspose2dLayer(in_c, out_c, layer.kernel, layer.stride, w_, layer.bias)
            return np.sum(nn.conv_transpose2d_forward(x, trial) * proj)

        assert rel_err(gw, numeric_grad(loss_of_weight, layer.weight, FD_EPS)) <= GRAD_TOL

        def loss_of_bias(b_):
            trial = nn.ConvTranspose2dLayer(in_c, out_c, layer.kernel, layer.stride, layer.weight, b_)
            return np.sum(nn.conv_transpose2d_forward(x, trial) * proj)

        assert rel_err(gb, numeric_grad(loss_of_bias, layer.bias, FD_EPS)) <= GRAD_TOL

    def test_input_of_more_than_one_row_raises(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 2, 2, 5))
        layer = random_conv(rng, 2, 1, (2, 3), (1, 2), transpose=True)
        with pytest.raises(DimensionError, match="axis 2"):
            nn.conv_transpose2d_forward(x, layer)
        with pytest.raises(DimensionError, match="axis 2"):
            nn.conv_transpose2d_backward(x, layer, np.zeros((2, 1, 3, 11)))

    def test_channel_mismatch_raises(self):
        layer = nn.ConvTranspose2dLayer.zeros(4, 2, (1, 3), (1, 2))
        with pytest.raises(DimensionError, match="axis 1"):
            nn.conv_transpose2d_forward(np.zeros((1, 3, 1, 5), dtype=np.float32), layer)


BLOCK_GEOMETRIES = [
    # (batch, channels, kernel, stride, conv input width): kernel widths
    # that are and are not a multiple of the stride; 10 / 3 pads 2
    # samples past the map, 5 / 2 pads 1
    (2, 4, (3, 8), (1, 2), 64),
    (2, 4, (3, 10), (1, 3), 64),
    (3, 2, (1, 5), (1, 2), 19),
    (2, 8, (3, 64), (1, 16), 4096),
]


class TestStrideBlockLayout:
    """The block-layout ends: conv2d's blocks= and the transposed
    convolution's unfolded output and block upstream gradient."""

    @staticmethod
    def pair(rng, b, c, kernel, stride, w):
        conv = random_conv(rng, 1, c, kernel, stride)
        tconv = random_conv(rng, c, 1, kernel, stride, transpose=True)
        x = rng.standard_normal((b, 1, kernel[0], w))
        y = rng.standard_normal(nn.conv2d_forward(x, conv).shape)
        return conv, tconv, x, y

    @pytest.mark.parametrize("b,c,kernel,stride,w", BLOCK_GEOMETRIES)
    def test_conv2d_given_its_blocks_gives_the_same_bits(self, b, c, kernel, stride, w):
        conv, _, x, y = self.pair(np.random.default_rng(60), b, c, kernel, stride, w)
        blocks = nn.conv2d_blocks(x, conv)
        assert np.array_equal(nn.conv2d_forward(x, conv, blocks=blocks), nn.conv2d_forward(x, conv))
        given = nn.conv2d_backward(x, conv, y, blocks=blocks)
        for a, b_ in zip(given, nn.conv2d_backward(x, conv, y)):
            assert np.array_equal(a, b_)

    @pytest.mark.parametrize("b,c,kernel,stride,w", BLOCK_GEOMETRIES)
    def test_unfolded_output_is_the_blocks_of_the_map(self, b, c, kernel, stride, w):
        conv, tconv, x, y = self.pair(np.random.default_rng(61), b, c, kernel, stride, w)
        unfolded = tconv.forward(y, fold=False)
        folded = tconv.forward(y)
        assert folded.shape == x.shape
        # the padded tail is zero, as in the blocks of the frame-sized map
        assert np.array_equal(unfolded, nn.conv2d_blocks(folded, conv))

    @pytest.mark.parametrize("b,c,kernel,stride,w", BLOCK_GEOMETRIES)
    def test_block_upstream_gives_the_map_upstream_gradients(self, b, c, kernel, stride, w):
        conv, tconv, x, y = self.pair(np.random.default_rng(62), b, c, kernel, stride, w)
        upstream = np.random.default_rng(63).standard_normal(x.shape)
        gx, gw, gb = nn.conv_transpose2d_backward(y, tconv, nn.conv2d_blocks(upstream, conv))
        rx, rw, rb = nn.conv_transpose2d_backward(y, tconv, upstream)
        assert np.array_equal(gx, rx) and np.array_equal(gw, rw)
        assert rel_err(gb, rb) <= 1e-12  # summed in block order

    def test_blocks_of_the_wrong_shape_raise(self):
        conv, tconv, x, y = self.pair(np.random.default_rng(64), 2, 4, (3, 10), (1, 3), 64)
        blocks = nn.conv2d_blocks(x, conv)
        with pytest.raises(DimensionError, match="stride blocks"):
            nn.conv2d_forward(x[:1], conv, blocks=blocks)
        with pytest.raises(DimensionError, match="stride blocks"):
            nn.conv2d_backward(x, conv, y, blocks=blocks[:, :-1])
        with pytest.raises(DimensionError, match="stride blocks"):
            nn.conv_transpose2d_backward(y, tconv, blocks[:-1])


class TestDense:
    def test_known_values(self):
        layer = nn.DenseLayer.zeros(2, 2, dtype=np.float64)
        layer.weight[...] = [[1.0, 2.0], [3.0, 4.0]]
        layer.bias[...] = [10.0, 20.0]
        out = nn.dense_forward(np.array([[1.0, 1.0]]), layer)
        assert np.allclose(out, [[13.0, 27.0]])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((3, 5))
        layer = nn.DenseLayer.zeros(5, 4, dtype=np.float64)
        layer.weight[...] = rng.standard_normal(layer.weight.shape)
        layer.bias[...] = rng.standard_normal(4)
        proj = rng.standard_normal((3, 4))

        gx, gw, gb = nn.dense_backward(x, layer, proj)
        fd_x = numeric_grad(lambda v: np.sum(nn.dense_forward(v, layer) * proj), x, FD_EPS)
        assert rel_err(gx, fd_x) <= GRAD_TOL

        def loss_of_weight(w_):
            trial = nn.DenseLayer(5, 4, w_, layer.bias)
            return np.sum(nn.dense_forward(x, trial) * proj)

        assert rel_err(gw, numeric_grad(loss_of_weight, layer.weight, FD_EPS)) <= GRAD_TOL

        def loss_of_bias(b_):
            trial = nn.DenseLayer(5, 4, layer.weight, b_)
            return np.sum(nn.dense_forward(x, trial) * proj)

        assert rel_err(gb, numeric_grad(loss_of_bias, layer.bias, FD_EPS)) <= GRAD_TOL

    def test_feature_mismatch_raises(self):
        layer = nn.DenseLayer.zeros(5, 4)
        with pytest.raises(DimensionError, match="axis 1"):
            nn.dense_forward(np.zeros((2, 6), dtype=np.float32), layer)


class TestLeakyRelu:
    def test_values(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 3.0])
        out = nn.leaky_relu(x, 0.01)
        assert np.allclose(out, [-0.02, -0.005, 0.0, 0.5, 3.0])

    def test_gradient_at_zero_is_one(self):
        x = np.array([0.0])
        up = np.array([7.0])
        assert nn.leaky_relu_backward(x, up, 0.01)[0] == 7.0

    def test_gradient_values(self):
        x = np.array([-1.0, 2.0])
        up = np.array([10.0, 10.0])
        assert np.allclose(nn.leaky_relu_backward(x, up, 0.01), [0.1, 10.0])

    def test_preserves_float32(self):
        x = np.array([-1.0, 1.0], dtype=np.float32)
        assert nn.leaky_relu(x, dcan.LEAKY_SLOPE).dtype == np.float32
        assert nn.leaky_relu_backward(x, x, dcan.LEAKY_SLOPE).dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.0, 0.01, 1.0])
    def test_bit_equal_to_the_branch_form(self, dtype, slope):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(4096).astype(dtype)
        x[:4] = [0.0, -0.0, 1e-40, -1e-40]
        want = np.where(x >= 0, x, x * slope)
        got = nn.leaky_relu(x, slope)
        assert got.dtype == dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.3, 1.0])
    def test_backward_bit_equal_to_the_branch_form(self, dtype, slope):
        rng = np.random.default_rng(18)
        x = rng.standard_normal(4096).astype(dtype)
        up = rng.standard_normal(4096).astype(dtype)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan]
        x[:5] = special
        up[5:10] = special  # and each special upstream value on both signs of x
        up[10:15] = special
        x[10:15] = -1.0
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN in both forms
            want = up * np.where(x >= 0, dtype(1.0), dtype(slope))
            got = nn.leaky_relu_backward(x, up, slope)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()

    def test_gradcheck_away_from_kink(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(20)
        x = np.where(np.abs(x) < 0.1, x + 0.2, x)  # keep clear of the kink
        up = rng.standard_normal(20)
        g = nn.leaky_relu_backward(x, up, 0.01)
        fd = numeric_grad(lambda v: np.sum(nn.leaky_relu(v, 0.01) * up), x, FD_EPS)
        assert rel_err(g, fd) <= GRAD_TOL


class TestMse:
    """helpers.mse, the float64 reference the loss tests compare against."""

    def test_zero_for_identical(self):
        a = np.array([1.0, 2.0, 3.0])
        assert mse(a, a) == 0.0

    def test_known_value(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        assert mse(a, b) == pytest.approx(12.5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            mse(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(64, 1, 3, 4096), (7, 1, 1, 4096), (3, 5), (1000,)])
    def test_bit_identical_to_float64_formula(self, dtype, shape):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(shape).astype(dtype)
        b = rng.standard_normal(shape).astype(dtype)
        d = a.astype(np.float64) - b.astype(np.float64)
        assert mse(a, b) == float(np.mean(d * d))


class TestResidualMse:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float64_sum_of_squares_over_count(self, dtype):
        d = np.random.default_rng(7).standard_normal((32, 48)).astype(dtype)
        exact = math.fsum(float(v) ** 2 for v in d.ravel())
        assert nn.residual_mse(d.reshape(-1), d.size) == pytest.approx(exact / d.size, rel=1e-13)

    def test_zeros_past_the_samples_count_nothing(self):
        d = np.zeros((4, 6), np.float32)
        d[:, :5] = 3.0
        assert nn.residual_mse(d.reshape(-1), 20) == 9.0
        assert nn.residual_mse(d, 5).tolist() == [9.0] * 4

    def test_is_the_mse_of_the_float32_residual(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 1, 3, 64)).astype(np.float32)
        b = rng.standard_normal((5, 1, 3, 64)).astype(np.float32)
        assert nn.residual_mse((a - b).reshape(-1), a.size) == pytest.approx(mse(a, b), rel=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_value_per_row_each_as_if_alone(self, dtype):
        d = np.random.default_rng(9).standard_normal((4, 1, 3, 4096)).astype(dtype)
        rows = nn.residual_mse(d, 4096)
        assert rows.shape == (4, 1, 3) and rows.dtype == np.float64
        for index in np.ndindex(rows.shape):
            assert rows[index] == nn.residual_mse(d[index].copy(), 4096)
            exact = math.fsum(float(v) ** 2 for v in d[index])
            assert rows[index] == pytest.approx(exact / 4096, rel=1e-13)


def adam_reference(params, grads, moments, t, lr):
    """The whole-tensor Adam update, one operation per line of the formula."""
    bc1 = 1.0 - nn.ADAM_BETA1**t
    bc2 = 1.0 - nn.ADAM_BETA2**t
    for name, p in params.items():
        g = grads[name]
        m, v = moments[name]
        m *= nn.ADAM_BETA1
        m += (1.0 - nn.ADAM_BETA1) * g
        v *= nn.ADAM_BETA2
        v += (1.0 - nn.ADAM_BETA2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + nn.ADAM_EPSILON)


class TestAdam:
    def test_first_step_size_is_learning_rate(self):
        # With m_hat = g and v_hat = g^2 the first update is lr * sign(g).
        p = np.zeros(4, dtype=np.float64)
        g = np.array([3.0, -2.0, 0.5, -10.0])
        params = {"p": p}
        state = nn.AdamState.for_params(params, lr=1e-3)
        nn.adam_step(params, {"p": g}, state)
        assert state.step_count == 1
        assert np.allclose(p, -1e-3 * np.sign(g), atol=1e-9)

    def test_deterministic(self):
        def run():
            p = np.linspace(-1, 1, 6).astype(np.float64)
            params = {"w": p}
            state = nn.AdamState.for_params(params, lr=1e-2)
            rng = np.random.default_rng(42)
            for _ in range(25):
                nn.adam_step(params, {"w": rng.standard_normal(6)}, state)
            return p

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_converges_on_quadratic(self):
        target = np.array([1.0, -2.0, 0.5])
        p = np.zeros(3, dtype=np.float64)
        params = {"p": p}
        state = nn.AdamState.for_params(params, lr=1e-2)
        for _ in range(3000):
            nn.adam_step(params, {"p": 2.0 * (p - target)}, state)
        assert np.allclose(p, target, atol=1e-4)

    def test_updates_in_place_and_float32_stays_float32(self):
        p = np.ones(3, dtype=np.float32)
        ident = id(p)
        params = {"p": p}
        state = nn.AdamState.for_params(params, lr=1e-3)
        nn.adam_step(params, {"p": np.ones(3, dtype=np.float32)}, state)
        assert id(params["p"]) == ident
        assert params["p"].dtype == np.float32

    @pytest.mark.parametrize("lr", [0.0, -1e-3])
    def test_learning_rate_must_be_positive(self, lr):
        with pytest.raises(ConfigurationError, match="learning rate"):
            nn.AdamState.for_params({"p": np.zeros(2)}, lr=lr)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_update_has_the_reference_formula_bits(self, dtype):
        # a large tensor, a small one and a strided view
        rng = np.random.default_rng(9)
        shapes = {"big": (98_309,), "small": (7, 3), "view": (40, 30)}
        start = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
        ours = {k: v.copy() for k, v in start.items()}
        ours["view"] = np.ones((40, 60), dtype)[:, ::2]
        ours["view"][...] = start["view"]
        ref = {k: v.copy() for k, v in start.items()}
        state = nn.AdamState.for_params(ours, lr=1e-2)
        moments = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in ref.items()}
        for t in range(1, 6):
            grads = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
            nn.adam_step(ours, grads, state)
            adam_reference(ref, grads, moments, t, 1e-2)
        for k in shapes:
            assert np.array_equal(ours[k], ref[k]), k
            assert np.array_equal(state.first_moment[k], moments[k][0]), k
            assert np.array_equal(state.second_moment[k], moments[k][1]), k

    @pytest.mark.parametrize(
        "bad, error", [(np.nan, TrainingError), (np.inf, TrainingError), (None, DimensionError)]
    )
    def test_failed_step_changes_nothing(self, bad, error):
        # the last gradient is the bad one, so every other tensor would
        # already have been updated by a step that checks as it goes
        rng = np.random.default_rng(10)
        params = {k: rng.standard_normal(n).astype(np.float32)
                  for k, n in (("a", 65_536), ("b", 9), ("last", 4))}
        state = nn.AdamState.for_params(params, lr=1e-3)
        for _ in range(2):
            nn.adam_step(params, {k: rng.standard_normal(p.shape).astype(np.float32)
                                  for k, p in params.items()}, state)
        before = [{k: v.copy() for k, v in d.items()}
                  for d in (params, state.first_moment, state.second_moment)]
        grads = {k: np.ones_like(p) for k, p in params.items()}
        if bad is None:
            grads["last"] = np.ones(5, np.float32)
        else:
            grads["last"][-1] = bad
        with pytest.raises(error, match="'last'"):
            nn.adam_step(params, grads, state)
        assert state.step_count == 2
        after = (params, state.first_moment, state.second_moment)
        for old, new in zip(before, after):
            for k in old:
                assert np.array_equal(old[k], new[k]), k

    def test_non_finite_gradient_raises_with_name(self):
        p = np.zeros(2, dtype=np.float64)
        params = {"enc.w": p}
        state = nn.AdamState.for_params(params, lr=1e-3)
        with pytest.raises(TrainingError, match="enc.w"):
            nn.adam_step(params, {"enc.w": np.array([1.0, np.nan])}, state)


VALID_LAYERS = {
    "conv": lambda: nn.Conv2dLayer.zeros(2, 3, (1, 4), (1, 2)),
    "deconv": lambda: nn.ConvTranspose2dLayer.zeros(2, 3, (1, 4), (1, 2)),
    "dense": lambda: nn.DenseLayer.zeros(4, 5),
}
# Each defect maps a valid layer to the constructor fields that break it,
# plus the text the ConfigurationError must contain.
LAYER_DEFECTS = {
    "weight-axes-swapped": (lambda l: {"weight": l.weight.swapaxes(0, 1)}, "weight shape"),
    "bias-too-long": (lambda l: {"bias": np.zeros(l.bias.size + 1, l.bias.dtype)}, "bias shape"),
    "kernel-width-0": (lambda l: {"kernel": (1, 0), "weight": l.weight[..., :0]}, ">= 1"),
    "stride-height-0": (lambda l: {"stride": (0, 2)}, ">= 1"),
}


@pytest.mark.parametrize(
    "kind, defect",
    [(k, d) for k in ("conv", "deconv") for d in LAYER_DEFECTS]
    + [("dense", "weight-axes-swapped"), ("dense", "bias-too-long")],
)
def test_layer_constructor_rejects(kind, defect):
    layer = VALID_LAYERS[kind]()
    fields, match = LAYER_DEFECTS[defect]
    with pytest.raises(ConfigurationError, match=match):
        replace(layer, **fields(layer))


class TestInit:
    def test_uniform_bound_and_mean(self):
        layer = nn.DenseLayer.zeros(200, 200, dtype=np.float32)
        nn.init_params(layer, seed=1234)
        s = np.sqrt(1.0 / 200)
        assert np.all(np.abs(layer.weight) <= s)
        assert abs(float(layer.weight.mean())) <= 0.01 * s
        assert np.all(layer.bias == 0)

    def test_conv_fan_in_includes_kernel(self):
        layer = nn.Conv2dLayer.zeros(2, 4, (3, 5), (1, 1), dtype=np.float64)
        nn.init_params(layer, seed=9)
        s = np.sqrt(1.0 / (2 * 3 * 5))
        assert np.all(np.abs(layer.weight) <= s)
        # With 120 draws the extremes should come close to the bound.
        assert float(np.abs(layer.weight).max()) > 0.8 * s

    def test_bias_reset_to_zero(self):
        layer = nn.DenseLayer.zeros(4, 4, dtype=np.float64)
        layer.bias[...] = 1.0
        nn.init_params(layer, seed=0)
        assert np.all(layer.bias == 0)

    def test_seed_reproducibility(self):
        a = nn.init_params(nn.DenseLayer.zeros(10, 10), seed=77).weight.copy()
        b = nn.init_params(nn.DenseLayer.zeros(10, 10), seed=77).weight.copy()
        c = nn.init_params(nn.DenseLayer.zeros(10, 10), seed=78).weight.copy()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_preserves_layer_dtype(self):
        layer = nn.init_params(nn.DenseLayer.zeros(8, 8, dtype=np.float32), seed=3)
        assert layer.weight.dtype == np.float32


def _transpose_backward_with_a_wrong_map():
    layer = nn.ConvTranspose2dLayer.zeros(2, 3, (1, 3), (1, 2), dtype=np.float64)
    ho, wo = nn.conv_transpose_output_hw(1, 5, layer.kernel, layer.stride)
    nn.conv_transpose2d_backward(np.zeros((1, 2, 1, 5)), layer, np.zeros((1, 3, ho, wo + 1)))


@pytest.mark.parametrize(
    "call, error, message",
    [(_transpose_backward_with_a_wrong_map, DimensionError, r"upstream gradient shape \(1, 3, 1, 12\)"),
     (lambda: nn.dense_forward(np.zeros(5), nn.DenseLayer.zeros(5, 4)),
      DimensionError, "dense input must be 2-D"),
     (lambda: nn.dense_backward(np.zeros((2, 5)), nn.DenseLayer.zeros(5, 4), np.zeros((2, 5))),
      DimensionError, r"upstream gradient shape \(2, 5\) != \(2, 4\)"),
     (lambda: nn.init_params(object(), seed=0),
      ConfigurationError, "cannot initialize object of type object")],
    ids=["transpose-backward-upstream", "dense-forward-1d", "dense-backward-upstream",
         "init-not-a-layer"],
)
def test_bad_input_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()
