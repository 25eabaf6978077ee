"""Tests for the auto-encoding network assembly.

Every arrow of the shape chain is asserted individually, parameter counts
are pinned for both axis modes, and the analytic end-to-end gradient is
spot-checked against finite differences (the full parameter sweep runs in
the acceptance suite).
"""

import dataclasses
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    cast,
    dcan_loss_and_branches,
    frame_layout_loss_and_gradients,
    mse,
    padded_model,
    rel_err,
    tiny_model,
)

from vibanom import blas, dcan, nn, training
from vibanom.errors import ConfigurationError, DimensionError


class TestShapeChain:
    def test_every_encoder_arrow(self):
        model = dcan.build(dcan.DcanConfig(axes=3), seed=0)
        x = np.random.default_rng(1).standard_normal((2, 1, 3, 4096)).astype(np.float32)

        h1 = nn.conv2d_forward(x, model.layers["conv1"])
        assert h1.shape == (2, 8, 1, 253)
        h2 = nn.conv2d_forward(nn.leaky_relu(h1, dcan.LEAKY_SLOPE), model.layers["conv2"])
        assert h2.shape == (2, 16, 1, 61)
        h3 = nn.conv2d_forward(nn.leaky_relu(h2, dcan.LEAKY_SLOPE), model.layers["conv3"])
        assert h3.shape == (2, 16, 1, 57)
        assert h3.reshape(2, -1).shape == (2, 912)

    def test_every_decoder_arrow(self):
        model = dcan.build(dcan.DcanConfig(axes=3), seed=0)
        z = np.random.default_rng(2).standard_normal((2, 16, 1, 57)).astype(np.float32)

        d1 = nn.conv_transpose2d_forward(z, model.layers["deconv1"])
        assert d1.shape == (2, 16, 1, 61)
        d2 = nn.conv_transpose2d_forward(nn.leaky_relu(d1, dcan.LEAKY_SLOPE), model.layers["deconv2"])
        assert d2.shape == (2, 8, 1, 253)
        d3 = nn.conv_transpose2d_forward(nn.leaky_relu(d2, dcan.LEAKY_SLOPE), model.layers["deconv3"])
        assert d3.shape == (2, 1, 3, 4096)

    def test_fc_widths(self):
        model = dcan.build(dcan.DcanConfig(axes=3), seed=0)
        fcs = [model.layers[f"fc{i}"] for i in range(1, 6)]
        widths = [(l.in_features, l.out_features) for l in fcs]
        assert widths == [(912, 200), (200, 200), (200, 200), (200, 200), (200, 912)]

    def test_encode_width_and_reconstruction_shape(self):
        model = dcan.build(dcan.DcanConfig(axes=3), seed=0)
        x = np.random.default_rng(3).standard_normal((4, 1, 3, 4096)).astype(np.float32)
        assert model.layers["fc1"].in_features == model.layers["fc5"].out_features == 912
        assert dcan.reconstruct(model, x).shape == x.shape

    def test_single_axis_mode(self):
        model = dcan.build(dcan.DcanConfig(axes=1), seed=0)
        x = np.random.default_rng(4).standard_normal((2, 1, 1, 4096)).astype(np.float32)
        assert model.layers["fc1"].in_features == 912
        assert model.layers["conv1"].kernel == (1, 64)
        assert dcan.reconstruct(model, x).shape == (2, 1, 1, 4096)


class TestParameters:
    def test_parameter_count_three_axes(self):
        model = dcan.build(dcan.DcanConfig(axes=3), seed=0)
        assert dcan.parameter_count(model) == 495537

    def test_parameter_count_one_axis(self):
        model = dcan.build(dcan.DcanConfig(axes=1), seed=0)
        assert dcan.parameter_count(model) == 493489

    def test_named_parameters_are_live_references(self):
        model = tiny_model(0)
        params = model.named_parameters()
        assert len(params) == 22
        params["conv1.weight"][...] = 0
        assert np.all(model.layers["conv1"].weight == 0)

    def test_build_is_reproducible(self):
        a = tiny_model(11)
        b = tiny_model(11)
        c = tiny_model(12)
        for k, v in a.named_parameters().items():
            assert np.array_equal(v, b.named_parameters()[k])
        assert any(
            not np.array_equal(v, c.named_parameters()[k])
            for k, v in a.named_parameters().items()
        )

    def test_unsupported_axis_count(self):
        with pytest.raises(ConfigurationError):
            dcan.build(dcan.DcanConfig(axes=2), seed=0)

    def test_axes_is_the_one_setting(self):
        assert [f.name for f in dataclasses.fields(dcan.DcanConfig)] == ["axes"]
        assert dcan.DcanConfig() == dcan.DcanConfig(axes=3)

    @pytest.mark.parametrize("axes", [1, 3])
    def test_decoder_mirrors_encoder(self, axes):
        layers = dcan.build(dcan.DcanConfig(axes=axes), seed=0).layers
        for i in (1, 2, 3):
            conv, deconv = layers[f"conv{i}"], layers[f"deconv{4 - i}"]
            assert (deconv.in_channels, deconv.out_channels, deconv.kernel, deconv.stride) == (
                conv.out_channels, conv.in_channels, conv.kernel, conv.stride)
        assert layers["conv1"].kernel == (axes, 64)

class TestForward:
    def test_reconstruct_is_deterministic(self):
        model = tiny_model(5)
        x = np.random.default_rng(6).standard_normal((3, 1, 3, 64)).astype(np.float32)
        assert np.array_equal(dcan.reconstruct(model, x), dcan.reconstruct(model, x))

    def test_zero_input_zero_bias_gives_zero_features(self):
        model = tiny_model(9)
        for conv in (model.layers["conv1"], model.layers["conv2"], model.layers["conv3"]):
            conv.bias[...] = 0
        h = np.zeros((1, 1, 3, 64), dtype=np.float32)
        for name in ("conv1", "conv2", "conv3"):
            h = nn.leaky_relu(model.layers[name].forward(h), dcan.LEAKY_SLOPE)
        assert h.shape == (1, 8, 1, 11) and np.all(h == 0)

    def test_untrained_model_has_positive_error(self):
        model = tiny_model(10)
        x = np.random.default_rng(11).standard_normal((2, 1, 3, 64)).astype(np.float32)
        _, total = dcan.reconstruction_report(x, dcan.reconstruct(model, x))
        assert all(total > 0)

    @pytest.mark.parametrize("length", [4095, 4100, 4112])
    def test_frames_longer_or_shorter_than_the_decoder_restores(self, length):
        # conv1 alone would read 4100 or 4112 samples and drop the tail
        model = dcan.build(dcan.DcanConfig(axes=3), seed=0)
        x = np.zeros((2, 1, 3, length), np.float32)
        message = re.escape("frames must have shape (B, 1, 3, 4096), got (2, 1, 3, %d)" % length)
        for run in (dcan.reconstruct, dcan.loss_and_gradients):
            with pytest.raises(DimensionError, match="^%s$" % message):
                run(model, x)

    def test_wrong_shape_raises(self):
        model = tiny_model(0)
        with pytest.raises(DimensionError):
            dcan.reconstruct(model, np.zeros((2, 1, 3, 65), dtype=np.float32))
        with pytest.raises(DimensionError):
            dcan.reconstruct(model, np.zeros((2, 3, 64), dtype=np.float32))
        with pytest.raises(DimensionError):
            dcan.loss_and_gradients(model, np.zeros((2, 1, 1, 64), dtype=np.float32))


class TestReport:
    def test_identical_tensors_give_zeros(self):
        x = np.random.default_rng(0).standard_normal((2, 1, 3, 16))
        per_axis, total = dcan.reconstruction_report(x, x)
        assert per_axis[0].tolist() == [0.0, 0.0, 0.0]
        assert total[0] == 0.0

    def test_error_on_one_axis_only(self):
        x = np.zeros((1, 1, 3, 16))
        y = x.copy()
        y[0, 0, 0, :] = 1.0
        per_axis, total = dcan.reconstruction_report(x, y)
        assert per_axis[0] == pytest.approx((1.0, 0.0, 0.0))
        assert total[0] == pytest.approx(1.0 / 3.0)

    def test_single_axis_total_equals_axis(self):
        x = np.zeros((1, 1, 1, 8))
        y = np.ones((1, 1, 1, 8))
        per_axis, total = dcan.reconstruction_report(x, y)
        assert total[0] == per_axis[0, 0] == pytest.approx(1.0)

    def test_total_is_mean_of_axes(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 1, 3, 32))
        y = rng.standard_normal((4, 1, 3, 32))
        for axis_mse, mse in zip(*dcan.reconstruction_report(x, y)):
            assert mse == pytest.approx(np.mean(axis_mse))

    def test_one_report_per_frame(self):
        x = np.zeros((5, 1, 3, 8))
        per_axis, total = dcan.reconstruction_report(x, x)
        assert per_axis.shape == (5, 3) and total.shape == (5,)
        assert per_axis.dtype == total.dtype == np.float64

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            dcan.reconstruction_report(np.zeros((1, 1, 3, 8)), np.zeros((1, 1, 3, 9)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape", [(1, 1, 1, 4096), (64, 1, 3, 4096), (5, 1, 2, 33), (17, 1, 3, 33)]
    )
    def test_bit_identical_to_per_frame_float64_formula(self, shape, dtype):
        # the reference takes each axis of each frame alone: its residual in
        # the frames' dtype, the squares summed in float64; and, up to that
        # dtype's rounding of the residual, the float64 residual's MSE
        rng = np.random.default_rng(14)
        x = rng.standard_normal(shape).astype(dtype)
        y = rng.standard_normal(shape).astype(dtype)
        per_axis, total = dcan.reconstruction_report(x, y)
        assert len(per_axis) == len(total) == shape[0]
        for f in range(shape[0]):
            alone = [float(np.einsum("i,i->", d, d, dtype=np.float64)) / shape[3]
                     for d in y[f, 0] - x[f, 0]]
            assert per_axis[f].tolist() == alone
            assert total[f] == float(np.mean(alone))
            sq = np.square(x[f].astype(np.float64) - y[f].astype(np.float64))
            assert per_axis[f] == pytest.approx(sq[0].mean(axis=1), rel=1e-6)
            assert total[f] == pytest.approx(float(sq.mean()), rel=1e-6)


class TestGradients:
    def test_loss_matches_mse_of_reconstruction(self):
        model = cast(tiny_model(20), np.float64)
        x = np.random.default_rng(21).standard_normal((2, 1, 3, 64))
        loss, _ = dcan.loss_and_gradients(model, x)
        assert loss == pytest.approx(mse(dcan.reconstruct(model, x), x), rel=1e-12)

    def test_sampled_coordinates_match_finite_differences(self):
        # Fast spot check on every layer; the acceptance suite sweeps all
        # parameters. Coordinates whose difference window crosses a LeakyReLU
        # kink or falls below central-difference resolution are skipped (the
        # estimate is not a valid oracle there).
        model = cast(tiny_model(22), np.float64)
        x = np.random.default_rng(23).standard_normal((2, 1, 3, 64))
        _, grads = dcan.loss_and_gradients(model, x)
        _, base_branches = dcan_loss_and_branches(model, x)
        params = model.named_parameters()
        rng = np.random.default_rng(24)
        eps = 1e-5
        checked = 0
        for name, p in params.items():
            flat = p.ravel()
            for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                hi, hi_branches = dcan_loss_and_branches(model, x)
                flat[idx] = orig - eps
                lo, lo_branches = dcan_loss_and_branches(model, x)
                flat[idx] = orig
                if not (
                    np.array_equal(hi_branches, base_branches)
                    and np.array_equal(lo_branches, base_branches)
                ):
                    continue
                fd = (hi - lo) / (2 * eps)
                analytic = grads[name].ravel()[idx]
                denom = max(abs(fd), abs(analytic))
                if denom < 1e-6:
                    continue
                assert abs(fd - analytic) / denom <= 1e-4, f"{name}[{idx}]"
                checked += 1
        # Tiny true gradients below difference resolution are common in the
        # attenuated decoder tail; the full-parameter sweep with a norm
        # metric runs in the acceptance suite. Here just require that a
        # healthy number of coordinates was actually verified.
        assert checked >= 20

    def test_gradient_keys_match_parameters(self):
        model = cast(tiny_model(25), np.float64)
        x = np.random.default_rng(26).standard_normal((1, 1, 3, 64))
        _, grads = dcan.loss_and_gradients(model, x)
        params = model.named_parameters()
        assert set(grads) == set(params)
        for k in params:
            assert grads[k].shape == params[k].shape


class TestPaddedBlocks:
    """A conv1 kernel width that is no multiple of its stride: the block
    ends then carry a padded tail past the frame."""

    @staticmethod
    def model(seed):
        # nonzero biases: deconv3's bias reaches the padded tail of its
        # unfolded output, where the residual must stay zero
        model = cast(padded_model(seed), np.float64)
        rng = np.random.default_rng(seed)
        for layer in model.layers.values():
            layer.bias[...] = 0.5 * rng.standard_normal(layer.bias.shape)
        return model

    def test_geometry_pads_past_the_frame(self):
        model = padded_model(50)
        x = np.zeros((2, 1, 3, 64), np.float32)
        assert nn.conv2d_blocks(x, model.layers["conv1"]).shape == (2 * 22, 3 * 3)

    def test_every_parameter_matches_central_differences(self, monkeypatch):
        # slope 1 makes every activation linear, so every coordinate of
        # every parameter is a valid finite-difference point
        monkeypatch.setattr(dcan, "LEAKY_SLOPE", 1.0)
        model = self.model(51)
        x = np.random.default_rng(52).standard_normal((2, 1, 3, 64))
        _, grads = dcan.loss_and_gradients(model, x)
        eps = 1e-5
        for name, param in model.named_parameters().items():
            flat = param.ravel()
            fd = np.empty(flat.size)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi, _ = dcan_loss_and_branches(model, x)
                flat[i] = orig - eps
                lo, _ = dcan_loss_and_branches(model, x)
                flat[i] = orig
                fd[i] = (hi - lo) / (2 * eps)
            assert rel_err(grads[name].ravel(), fd) <= 1e-4, name

    def test_loss_is_the_float64_mse_of_the_reconstruction(self):
        model = self.model(53)
        x = np.random.default_rng(54).standard_normal((3, 1, 3, 64))
        loss, _ = dcan.loss_and_gradients(model, x)
        assert loss == pytest.approx(mse(dcan.reconstruct(model, x), x), rel=1e-12)

    def test_train_runs(self):
        frames = np.random.default_rng(55).standard_normal((40, 1, 3, 64)).astype(np.float32)
        stats = training.fit_standardization(frames)
        model = padded_model(56)
        cfg = training.TrainConfig(batch_size=16, max_epochs=3, patience=3, seed=57)
        _, history = training.train(model, frames, stats, cfg)
        assert len(history) == 3
        assert all(np.isfinite(h.train_mse) and np.isfinite(h.val_mse) for h in history)


class TestStrideBlockEnds:
    """loss_and_gradients keeps both ends of the network as stride blocks:
    no frame-sized array is folded, and the frames are read as blocks once."""

    @staticmethod
    def task():
        model = dcan.build(dcan.DcanConfig(axes=3), seed=40)
        x = np.random.default_rng(41).standard_normal((32, 1, 3, 4096)).astype(np.float32)
        return model, x

    def test_frames_read_as_blocks_once_and_nothing_frame_sized_folded(self, monkeypatch):
        model, x = self.task()
        blocked, folded = [], []
        real_blocks, real_fold = nn._blocks, nn._fold

        def blocks(a, nb, sw):
            blocked.append(a.shape)
            return real_blocks(a, nb, sw)

        def fold(m, shape):
            folded.append(tuple(shape))
            return real_fold(m, shape)

        monkeypatch.setattr(nn, "_blocks", blocks)
        monkeypatch.setattr(nn, "_fold", fold)
        dcan.loss_and_gradients(model, x)
        assert blocked.count(x.shape) == 1
        assert all(np.prod(shape) < x.size for shape in folded)

    def test_peak_memory_of_a_task(self):
        # the frame-layout ends (two frame-sized float32 copies of the
        # residual and a float64 one for the loss) peaked at 5.43 times
        # the frames' bytes
        model, x = self.task()
        with blas.one_thread():
            dcan.loss_and_gradients(model, x)
            tracemalloc.start()
            try:
                dcan.loss_and_gradients(model, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 5.43 * x.nbytes

    def test_pinned_float32_gradients_match_the_frame_layout_chain(self):
        # bit for bit, but for deconv3.bias, which is summed in block order
        model, x = self.task()
        with blas.one_thread():
            loss, grads = dcan.loss_and_gradients(model, x)
            ref_loss, ref_grads = frame_layout_loss_and_gradients(model, x)
        assert set(grads) == set(ref_grads)
        for name, g in grads.items():
            assert g.dtype == np.float32, name
            if name == "deconv3.bias":
                assert rel_err(g, ref_grads[name]) <= 1e-6
            else:
                assert np.array_equal(g, ref_grads[name]), name
        assert loss == pytest.approx(ref_loss, rel=1e-9)


@pytest.mark.parametrize("shape", [(2, 3, 16), (2, 2, 3, 16)], ids=["3-d", "two-channels"])
def test_report_refuses_tensors_that_are_not_single_channel_batches(shape):
    x = np.zeros(shape)
    with pytest.raises(DimensionError) as raised:
        dcan.reconstruction_report(x, x.copy())
    assert str(raised.value) == "expected (B, 1, A, L) tensors, got %s" % (shape,)


class TestReadme:
    """README's "The model" states the layer table and parameter counts
    of dcan.build, so the constants and the README cannot drift apart."""

    SECTION = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8").split("\n## The model\n")[1].split("\n## ")[0]

    def test_shape_chain(self):
        model = dcan.build(dcan.DcanConfig(axes=3), seed=0)
        layers = model.layers
        x = np.zeros((1, 1, 3, 4096), np.float32)
        parts = ["(1, 3, 4096)"]
        h, w = 3, 4096
        for name in ("conv1", "conv2", "conv3"):
            conv = layers[name]
            h, w = nn.conv_output_hw(h, w, conv.kernel, conv.stride)
            stride = "" if conv.stride == (1, 1) else "/s%d" % conv.stride[1]
            parts.append("-conv %dx(%d,%d)%s-> (%d, %d, %d)"
                         % (conv.out_channels, *conv.kernel, stride, conv.out_channels, h, w))
        fcs = [layers["fc%d" % i] for i in range(1, 6)]
        parts.append("-flatten-> %d -FC-> %s" % (
            fcs[0].in_features, " -> ".join(str(fc.out_features) for fc in fcs)))
        parts.append("-reshape + mirrored transposed convolutions-> (%d, %d, %d)"
                     % dcan.reconstruct(model, x).shape[1:])
        block = re.search(r"\n```\n(.*?)```", self.SECTION, re.S).group(1)
        assert " ".join(block.split()) == " ".join(parts)

    def test_parameter_counts(self):
        counts = re.search(r"three-axis model has exactly ([\d,]+) parameters, the\s+"
                           r"single-axis one ([\d,]+)\.", self.SECTION).groups()
        assert [int(c.replace(",", "")) for c in counts] == [
            dcan.parameter_count(dcan.build(dcan.DcanConfig(axes=a), seed=0)) for a in (3, 1)
        ] == [495537, 493489]
