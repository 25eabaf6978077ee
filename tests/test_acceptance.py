"""Acceptance gate: the criteria the whole package is signed off against.

Each class carries a criterion marker; conftest prints one [A*] line per
criterion after the run. A1-A8 are self-contained. A9 replays the public
run-to-failure dataset and is skipped unless VIBANOM_IMS_ROOT points at a
local copy (it trains a full model; expect one to two hours).

Wall-clock budgets are asserted only where the margin is wide; they guard
against accidental algorithmic regressions, not machine speed.
"""

import filecmp
import os
import time
import warnings

import numpy as np
import pytest

from helpers import (
    cast,
    dcan_loss_and_branches,
    direct_dft,
    mse,
    numeric_grad,
    reference_alarm_replay,
    rel_err,
    tiny_config,
)

from vibanom import dcan, nn
from vibanom.errors import AliasingWarning
from vibanom.fleet import (
    FleetConfig,
    PredictorSpec,
    StatusReport,
    calibrate_predictor,
    read_report_log,
    run_fleet,
    write_report_log,
)
from vibanom.ingest import Frame, build_nasa_splits, stack_frames
from vibanom.scoring import AlarmConfig, AlarmLevel, HysteresisState, hysteresis_step
from vibanom.signals import (
    NormalSignalSpec,
    Waveform,
    dominant_frequency,
    fft_complex,
    fft_magnitude,
    inject_sawtooth,
    synth_normal,
    synth_normal_frames,
    time_scale,
)
from vibanom.training import (
    TrainConfig,
    fit_standardization,
    load_checkpoint,
    save_checkpoint,
    standardize,
    train,
)

SAMPLE_RATE = 1024.0
FRAME_LEN = 4096


def total_mses(model, stats, batch) -> np.ndarray:
    """total_mse per frame, computed exactly the way the fleet scores."""
    z = standardize(batch, stats)
    out = []
    for start in range(0, z.shape[0], 64):
        part = z[start : start + 64]
        _, total = dcan.reconstruction_report(part, dcan.reconstruct(model, part))
        out.extend(total.tolist())
    return np.asarray(out)


class TestA1:
    pytestmark = pytest.mark.criterion("A1", "encoder/decoder shape chain")

    def test_shape_chain(self):
        t0 = time.perf_counter()
        model = dcan.build(dcan.DcanConfig(), seed=1)
        x = np.random.default_rng(2).standard_normal((2, 1, 3, 4096)).astype(np.float32)
        slope = model.config.leaky_slope
        h = x
        for name in ("conv1", "conv2", "conv3"):
            h = nn.leaky_relu(model.layers[name].forward(h), slope)
        assert h.shape == (2, 16, 1, 57) and model.config.latent_shape == (16, 1, 57)
        h = h.reshape(2, -1)
        assert h.shape == (2, 912)
        for name in ("fc1", "fc2", "fc3", "fc4", "fc5"):
            h = model.layers[name].forward(h)
            h = h if name == "fc5" else nn.leaky_relu(h, slope)
        assert h.shape == (2, 912)
        h = h.reshape(2, *model.config.latent_shape)
        for name in ("deconv1", "deconv2", "deconv3"):
            h = model.layers[name].forward(h)
            h = h if name == "deconv3" else nn.leaky_relu(h, slope)
        assert h.shape == (2, 1, 3, 4096)
        assert np.array_equal(dcan.reconstruct(model, x), h)
        assert time.perf_counter() - t0 < 1.0


class TestA2:
    pytestmark = pytest.mark.criterion("A2", "analytic gradients match finite differences")

    def test_conv2d_layer_gradients(self):
        rng = np.random.default_rng(30)
        layer = nn.Conv2dLayer.zeros(3, 4, (3, 3), (2, 2), dtype=np.float64)
        layer.weight[:] = rng.standard_normal(layer.weight.shape)
        layer.bias[:] = rng.standard_normal(layer.bias.shape)
        x = rng.standard_normal((2, 3, 3, 9))
        upstream = rng.standard_normal(nn.conv2d_forward(x, layer).shape)

        gx, gw, gb = nn.conv2d_backward(x, layer, upstream)

        def loss_of_x(xx):
            return float(np.sum(nn.conv2d_forward(xx, layer) * upstream))

        def loss_of_w(ww):
            probe = nn.Conv2dLayer(3, 4, (3, 3), (2, 2), ww, layer.bias)
            return float(np.sum(nn.conv2d_forward(x, probe) * upstream))

        def loss_of_b(bb):
            probe = nn.Conv2dLayer(3, 4, (3, 3), (2, 2), layer.weight, bb)
            return float(np.sum(nn.conv2d_forward(x, probe) * upstream))

        assert rel_err(gx, numeric_grad(loss_of_x, x)) <= 1e-4
        assert rel_err(gw, numeric_grad(loss_of_w, layer.weight)) <= 1e-4
        assert rel_err(gb, numeric_grad(loss_of_b, layer.bias)) <= 1e-4

    def test_conv_transpose2d_layer_gradients(self):
        rng = np.random.default_rng(31)
        layer = nn.ConvTranspose2dLayer.zeros(4, 3, (3, 3), (2, 2), dtype=np.float64)
        layer.weight[:] = rng.standard_normal(layer.weight.shape)
        layer.bias[:] = rng.standard_normal(layer.bias.shape)
        x = rng.standard_normal((2, 4, 1, 5))
        upstream = rng.standard_normal(nn.conv_transpose2d_forward(x, layer).shape)

        gx, gw, gb = nn.conv_transpose2d_backward(x, layer, upstream)

        def loss_of_x(xx):
            return float(np.sum(nn.conv_transpose2d_forward(xx, layer) * upstream))

        def loss_of_w(ww):
            probe = nn.ConvTranspose2dLayer(4, 3, (3, 3), (2, 2), ww, layer.bias)
            return float(np.sum(nn.conv_transpose2d_forward(x, probe) * upstream))

        def loss_of_b(bb):
            probe = nn.ConvTranspose2dLayer(4, 3, (3, 3), (2, 2), layer.weight, bb)
            return float(np.sum(nn.conv_transpose2d_forward(x, probe) * upstream))

        assert rel_err(gx, numeric_grad(loss_of_x, x)) <= 1e-4
        assert rel_err(gw, numeric_grad(loss_of_w, layer.weight)) <= 1e-4
        assert rel_err(gb, numeric_grad(loss_of_b, layer.bias)) <= 1e-4

    def test_dense_layer_gradients(self):
        rng = np.random.default_rng(32)
        layer = nn.DenseLayer.zeros(7, 4, dtype=np.float64)
        layer.weight[:] = rng.standard_normal(layer.weight.shape)
        layer.bias[:] = rng.standard_normal(layer.bias.shape)
        x = rng.standard_normal((3, 7))
        upstream = rng.standard_normal((3, 4))

        gx, gw, gb = nn.dense_backward(x, layer, upstream)

        def loss_of_x(xx):
            return float(np.sum(nn.dense_forward(xx, layer) * upstream))

        def loss_of_w(ww):
            probe = nn.DenseLayer(7, 4, ww, layer.bias)
            return float(np.sum(nn.dense_forward(x, probe) * upstream))

        def loss_of_b(bb):
            probe = nn.DenseLayer(7, 4, layer.weight, bb)
            return float(np.sum(nn.dense_forward(x, probe) * upstream))

        assert rel_err(gx, numeric_grad(loss_of_x, x)) <= 1e-4
        assert rel_err(gw, numeric_grad(loss_of_w, layer.weight)) <= 1e-4
        assert rel_err(gb, numeric_grad(loss_of_b, layer.bias)) <= 1e-4

    def test_leaky_relu_gradient(self):
        rng = np.random.default_rng(33)
        # Keep every coordinate a safe distance from the kink at zero so the
        # central difference stays inside one linear branch.
        x = rng.standard_normal((4, 9))
        x += 0.2 * np.sign(x)
        upstream = rng.standard_normal(x.shape)
        analytic = nn.leaky_relu_backward(x, upstream, 0.01)

        def loss(xx):
            return float(np.sum(nn.leaky_relu(xx, 0.01) * upstream))

        assert rel_err(analytic, numeric_grad(loss, x)) <= 1e-4

    def test_mse_gradient(self):
        rng = np.random.default_rng(34)
        a = rng.standard_normal((3, 8))
        b = rng.standard_normal((3, 8))
        analytic = (2.0 / a.size) * (a - b)

        def loss(aa):
            return mse(aa, b)

        assert rel_err(analytic, numeric_grad(loss, a)) <= 1e-4

    def _sweep(self, slope: float, seed: int, filter_branches: bool):
        """Central differences over every parameter coordinate.

        Returns (per-tensor relative errors over trusted coordinates,
        trusted fraction). With slope 1.0 the activation is the identity,
        so every coordinate is trustworthy; with the production slope a
        coordinate is only trusted when both perturbed passes reproduce
        the unperturbed LeakyReLU branch pattern.
        """
        model = cast(dcan.build(tiny_config(slope), seed=seed), np.float64)
        x = np.random.default_rng(seed + 1).standard_normal((2, 1, 3, 64))
        _, grads = dcan.loss_and_gradients(model, x)
        _, base_branches = dcan_loss_and_branches(model, x)
        eps = 1e-5
        errors = {}
        trusted = total = 0
        for name, param in model.named_parameters().items():
            flat = param.ravel()
            fd = np.empty(flat.size)
            ok = np.zeros(flat.size, dtype=bool)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi, hi_branches = dcan_loss_and_branches(model, x)
                flat[i] = orig - eps
                lo, lo_branches = dcan_loss_and_branches(model, x)
                flat[i] = orig
                if filter_branches and not (
                    np.array_equal(hi_branches, base_branches)
                    and np.array_equal(lo_branches, base_branches)
                ):
                    continue
                fd[i] = (hi - lo) / (2 * eps)
                ok[i] = True
            total += flat.size
            trusted += int(ok.sum())
            errors[name] = rel_err(grads[name].ravel()[ok], fd[ok])
        return errors, trusted / total

    def test_end_to_end_sweep_identity_slope(self):
        # slope 1.0 removes the kink entirely: every coordinate is checked.
        t0 = time.perf_counter()
        errors, fraction = self._sweep(slope=1.0, seed=22, filter_branches=False)
        assert fraction == 1.0
        for name, err in errors.items():
            assert err <= 1e-4, name
        assert time.perf_counter() - t0 < 60.0

    def test_end_to_end_sweep_production_slope(self):
        t0 = time.perf_counter()
        errors, fraction = self._sweep(slope=0.01, seed=23, filter_branches=True)
        assert fraction >= 0.98
        for name, err in errors.items():
            assert err <= 1e-4, name
        assert time.perf_counter() - t0 < 60.0


@pytest.fixture(scope="module")
def trained():
    """One full training run shared by A3 and A4."""
    frames = synth_normal_frames(NormalSignalSpec(), count=2000, axes=3, seed=100)
    stats = fit_standardization(frames)
    model = dcan.build(dcan.DcanConfig(), seed=0)
    t0 = time.perf_counter()
    model, history = train(model, frames, stats, TrainConfig(seed=0))
    elapsed = time.perf_counter() - t0
    return model, stats, history, elapsed


class TestA3:
    pytestmark = pytest.mark.criterion("A3", "training convergence on synthetic normal frames")

    def test_final_mse_within_ten_percent_of_epoch_one(self, trained):
        _, _, history, elapsed = trained
        assert history[-1].train_mse <= 0.10 * history[0].train_mse
        assert elapsed < 600.0


def transformed_frames(kind: str, count: int, seed) -> np.ndarray:
    """Anomalous frames: independent normal draws pushed through a generator."""
    spec = NormalSignalSpec()
    children = np.random.SeedSequence(seed).spawn(count * 3)
    out = np.empty((count, 1, 3, FRAME_LEN), dtype=np.float32)
    k = 0
    with warnings.catch_warnings():
        # Compressing the default spec pushes its 408 Hz harmonic past
        # Nyquist; the warning is expected, not a failure.
        warnings.simplefilter("ignore", AliasingWarning)
        for f in range(count):
            for a in range(3):
                wave = synth_normal(spec, children[k])
                k += 1
                if kind == "time-scale-0.5":
                    wave = time_scale(wave, 0.5)
                elif kind == "time-scale-2.0":
                    wave = time_scale(wave, 2.0)
                else:
                    wave = inject_sawtooth(wave, 136.0, 0.04)
                out[f, 0, a] = wave.samples
    return out


@pytest.fixture(scope="module")
def separation(trained):
    model, stats, _, _ = trained
    mses = {"normal": total_mses(
        model, stats, synth_normal_frames(NormalSignalSpec(), count=200, axes=3, seed=200)
    )}
    for seed, kind in ((301, "time-scale-0.5"), (302, "time-scale-2.0"), (303, "sawtooth")):
        mses[kind] = total_mses(model, stats, transformed_frames(kind, 200, seed))
    return mses


class TestA4:
    pytestmark = pytest.mark.criterion("A4", "anomaly reconstruction-error separation")

    @pytest.mark.parametrize("kind", ["time-scale-0.5", "time-scale-2.0", "sawtooth"])
    def test_mean_ratio_and_histogram_disjointness(self, separation, kind):
        normal = separation["normal"]
        anomaly = separation[kind]
        assert len(normal) == 200 and len(anomaly) == 200
        assert anomaly.mean() >= 5.0 * normal.mean()
        assert np.percentile(normal, 99) < np.percentile(anomaly, 1)


def run_stream(flags, config=None):
    config = config or AlarmConfig()
    state = HysteresisState()
    fired = []
    for flag in flags:
        state, f = hysteresis_step(state, bool(flag), config)
        fired.append(f)
    return fired


class TestA5:
    pytestmark = pytest.mark.criterion("A5", "hysteresis truth table and replay equivalence")

    def test_fresh_window_fires_at_17_not_16(self):
        fired = run_stream([True] * 17)
        assert fired == [False] * 16 + [True]

    def test_sensitized_window_fires_at_13_not_12(self):
        # Prior alarm at index 16 stays inside the 30-slot window; the final
        # anomalous sample sees 12 anomalous neighbours (count 13) -> fires.
        fired = run_stream([True] * 17 + [False] * 17 + [True])
        assert fired[-1] is True
        # One extra quiet sample shrinks the count to exactly 12 -> holds.
        fired = run_stream([True] * 17 + [False] * 18 + [True])
        assert fired[-1] is False

    def test_all_normal_never_fires(self):
        assert run_stream([False] * 1000) == [False] * 1000

    def test_replay_equivalence_on_1000_random_streams(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(55)
        streams_with_fire = 0
        for _ in range(1000):
            length = int(rng.integers(1, 121))
            density = rng.uniform(0.1, 0.9)
            flags = [bool(v) for v in rng.random(length) < density]
            fired = run_stream(flags)
            assert fired == reference_alarm_replay(flags)
            streams_with_fire += any(fired)
        # The sample must actually exercise the alarm path, not just idle.
        assert streams_with_fire >= 50
        assert time.perf_counter() - t0 < 10.0


class TestA6:
    pytestmark = pytest.mark.criterion("A6", "fft against direct dft, peak bin, parseval")

    @pytest.mark.parametrize("n", [8, 64, 256, 1024, 4096])
    def test_matches_direct_dft(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        assert rel_err(fft_complex(x), direct_dft(x)) <= 1e-6

    def test_136hz_sine_peaks_at_bin_544(self):
        t = np.arange(FRAME_LEN) / SAMPLE_RATE
        spectrum = fft_magnitude(Waveform(np.sin(2 * np.pi * 136.0 * t)))
        k = 1 + int(np.argmax(spectrum.magnitudes[1:]))
        assert k == 544
        assert spectrum.bin_freqs[k] == 136.0

    @pytest.mark.parametrize("n", [8, 64, 256, 1024, 4096])
    def test_parseval(self, n):
        x = np.random.default_rng(1000 + n).standard_normal(n)
        time_energy = float(np.sum(x * x))
        freq_energy = float(np.sum(np.abs(fft_complex(x)) ** 2) / n)
        assert abs(time_energy - freq_energy) / time_energy <= 1e-6


class TestA7:
    pytestmark = pytest.mark.criterion("A7", "time-scale dominant-frequency claims")

    def test_compress_doubles_dominant_frequency(self):
        wave = synth_normal(NormalSignalSpec(), seed=7)
        assert dominant_frequency(fft_magnitude(wave)) == 136.0
        with pytest.warns(AliasingWarning):
            fast = time_scale(wave, 0.5)
        assert dominant_frequency(fft_magnitude(fast)) == 272.0

    def test_stretch_halves_dominant_frequency(self):
        wave = synth_normal(NormalSignalSpec(), seed=7)
        slow = time_scale(wave, 2.0)
        assert dominant_frequency(fft_magnitude(slow)) == 68.0


def noise_frames(seed, count, start_ts=1000):
    rng = np.random.default_rng(seed)
    return [
        Frame(
            data=rng.standard_normal((3, FRAME_LEN)).astype(np.float32),
            timestamp=start_ts + k,
            source="acceptance",
        )
        for k in range(count)
    ]


class TestA8:
    pytestmark = pytest.mark.criterion("A8", "bit-exact round trips and replay")

    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        t0 = time.perf_counter()
        model = dcan.build(dcan.DcanConfig(), seed=8)
        batch = stack_frames(noise_frames(80, 4))
        stats = fit_standardization(batch)
        first = tmp_path / "model.ckpt"
        save_checkpoint(model, stats, first)
        loaded_model, loaded_stats = load_checkpoint(first)
        for name, param in model.named_parameters().items():
            twin = loaded_model.named_parameters()[name]
            assert param.dtype == twin.dtype
            assert np.array_equal(param, twin), name
        assert np.array_equal(stats.per_axis_mean, loaded_stats.per_axis_mean)
        assert np.array_equal(stats.per_axis_std, loaded_stats.per_axis_std)
        second = tmp_path / "again.ckpt"
        save_checkpoint(loaded_model, loaded_stats, second)
        assert filecmp.cmp(first, second, shallow=False)
        assert time.perf_counter() - t0 < 10.0

    def test_report_log_round_trip_bit_exact(self, tmp_path):
        reports = [
            StatusReport(
                timestamp=1000 + k,
                predictor_id="motor-left",
                location="mill-1/motor/left",
                per_axis_mse=(0.1 + k, 1.0 / 3.0, 1e-17),
                total_mse=(0.1 + k + 1.0 / 3.0 + 1e-17) / 3.0,
                score=-1.25 + k,
                level=AlarmLevel(k % 4),
                alarm_fired=False,
                anomalous_in_window=k,
            )
            for k in range(4)
        ]
        first = tmp_path / "reports.log"
        write_report_log(reports, first)
        parsed = read_report_log(first)
        assert parsed == reports
        second = tmp_path / "again.log"
        write_report_log(parsed, second)
        assert first.read_bytes() == second.read_bytes()

    def test_identical_streams_reproduce_identical_logs(self, tmp_path):
        t0 = time.perf_counter()
        model = dcan.build(dcan.DcanConfig(), seed=88)
        calib = stack_frames(noise_frames(81, 10))
        stats = fit_standardization(calib)
        ckpt = tmp_path / "fleet.ckpt"
        save_checkpoint(model, stats, ckpt)
        fleet = FleetConfig(
            predictors=(
                PredictorSpec(
                    id="motor-left",
                    location="mill-1/motor/left",
                    checkpoint=str(ckpt),
                    normalization=calibrate_predictor(ckpt, noise_frames(81, 10)),
                ),
                PredictorSpec(
                    id="gear-right",
                    location="mill-1/gear/right",
                    checkpoint=str(ckpt),
                    normalization=calibrate_predictor(ckpt, noise_frames(82, 10)),
                ),
            ),
            report_log=str(tmp_path / "unused.log"),
        )
        streams = {
            "motor-left": noise_frames(83, 8),
            "gear-right": noise_frames(84, 8, start_ts=5000),
        }
        log_a = tmp_path / "a.log"
        log_b = tmp_path / "b.log"
        reports_a = run_fleet(fleet, streams, log_path=log_a)
        reports_b = run_fleet(fleet, streams, log_path=log_b)
        assert reports_a == reports_b
        assert log_a.read_bytes() == log_b.read_bytes()
        assert time.perf_counter() - t0 < 10.0


IMS_ROOT = os.environ.get("VIBANOM_IMS_ROOT", "")


class TestA9:
    pytestmark = [
        pytest.mark.criterion("A9", "run-to-failure degradation trend"),
        pytest.mark.skipif(
            not IMS_ROOT,
            reason="VIBANOM_IMS_ROOT not set; place the public run-to-failure "
            "archive locally and export the variable to run A9",
        ),
    ]

    def test_failure_trend_on_held_out_channels(self):
        train_frames, test_sequences = build_nasa_splits(IMS_ROOT, seed=0)
        batch = stack_frames(train_frames)
        stats = fit_standardization(batch)
        model = dcan.build(dcan.DcanConfig(axes=1), seed=0)
        model, _ = train(model, batch, stats, TrainConfig(seed=0))
        for label in ("Set1/Ch5", "Set1/Ch7", "Set2/Ch1"):
            frames = test_sequences[label]
            mses = total_mses(model, stats, stack_frames(frames))
            n = len(mses)
            early = float(mses[: n // 2].mean())
            late = float(mses[int(0.9 * n) :].mean())
            assert late >= 2.0 * early, label
