"""Tests for spectral analysis and synthetic waveform generation.

The FFT is pinned against a definition-level O(N^2) DFT; the generators are
checked through their spectra (dominant lines, harmonic content, aliasing
warnings) and through exact algebraic identities (zero-mean sawtooth,
additivity, tiling periodicity).
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import direct_dft, rel_err

from vibanom import signals
from vibanom.errors import AliasingWarning, DimensionError, ParseError, SignalSpecError
from vibanom.signals import NormalSignalSpec, Spectrum, Waveform


def sine(freq, n=4096, amp=1.0):
    t = np.arange(n) / signals.SAMPLE_RATE
    return Waveform(amp * np.sin(2 * np.pi * freq * t))


class TestFft:
    @pytest.mark.parametrize("n", [8, 64, 4096])
    def test_impulse_is_flat(self, n):
        x = np.zeros(n)
        x[0] = 1.0
        spec = signals.fft_magnitude(Waveform(x))
        assert len(spec.magnitudes) == n // 2 + 1
        assert np.allclose(spec.magnitudes, 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 8, 64, 256, 1000, 1024, 4095, 4096])
    def test_matches_direct_dft(self, n):
        for seed in range(3):
            x = np.random.default_rng(seed).standard_normal(n)
            assert rel_err(signals.fft_complex(x), direct_dft(x)) <= 1e-6

    def test_sine_136_lands_in_bin_544(self):
        spec = signals.fft_magnitude(sine(136.0))
        assert int(np.argmax(spec.magnitudes[1:])) + 1 == 544
        assert spec.bin_freqs[544] == pytest.approx(136.0)

    def test_bin_frequencies(self):
        spec = signals.fft_magnitude(Waveform(np.zeros(8)))
        assert np.allclose(spec.bin_freqs, [0, 128, 256, 384, 512])

    def test_empty_input_raises(self):
        with pytest.raises(DimensionError, match="^fft input is empty$"):
            signals.fft_complex(np.zeros(0))

    @pytest.mark.parametrize("n", [3, 12, 1000, 4095])
    def test_any_length_gives_its_one_sided_bins(self, n):
        spec = signals.fft_magnitude(Waveform(np.ones(n)))
        assert len(spec.magnitudes) == n // 2 + 1
        assert spec.bin_freqs[1] == pytest.approx(1024.0 / n)
        assert spec.magnitudes[0] == pytest.approx(n)

    def test_parseval(self):
        for seed in range(5):
            x = np.random.default_rng(seed).standard_normal(1024)
            m = signals.fft_magnitude(Waveform(x)).magnitudes
            # Rebuild the two-sided energy from the one-sided magnitudes.
            two_sided = m[0] ** 2 + m[-1] ** 2 + 2 * np.sum(m[1:-1] ** 2)
            assert rel_err(np.sum(x * x), two_sided / 1024) <= 1e-6

    def test_single_sample(self):
        assert signals.fft_complex(np.array([3.0]))[0] == pytest.approx(3.0)


class TestDominantFrequency:
    def test_pure_sine(self):
        assert signals.dominant_frequency(signals.fft_magnitude(sine(136.0))) == 136.0

    def test_tie_goes_to_lower_frequency(self):
        spec = Spectrum(np.array([0.0, 10.0, 20.0, 30.0]), np.array([9.0, 2.0, 5.0, 5.0]))
        assert signals.dominant_frequency(spec) == 20.0

    def test_dc_only_returns_lowest_non_dc_bin(self):
        spec = Spectrum(np.array([0.0, 16.0, 32.0]), np.array([5.0, 0.0, 0.0]))
        assert signals.dominant_frequency(spec) == 16.0

    def test_dc_bin_is_excluded(self):
        x = np.random.default_rng(0).standard_normal(256) * 0.01 + 10.0
        spec = signals.fft_magnitude(Waveform(x))
        assert signals.dominant_frequency(spec) > 0.0

    def test_empty_spectrum_raises(self):
        with pytest.raises(DimensionError):
            signals.dominant_frequency(Spectrum(np.array([0.0]), np.array([1.0])))


class TestSynthNormal:
    def test_silent_spec_gives_zero_waveform(self):
        spec = NormalSignalSpec(main=(136.0, 0.0), secondary=(60.0, 0.0), harmonics=(), noise_std=0.0)
        wf = signals.synth_normal(spec, seed=1)
        assert len(wf.samples) == 4096
        assert np.all(wf.samples == 0)

    def test_main_component_only(self):
        spec = NormalSignalSpec(main=(136.0, 0.05), secondary=(60.0, 0.0), harmonics=(), noise_std=0.0)
        wf = signals.synth_normal(spec, seed=2)
        assert signals.dominant_frequency(signals.fft_magnitude(wf)) == 136.0

    def test_default_spec_spectrum_layout(self):
        wf = signals.synth_normal(NormalSignalSpec(), seed=3)
        spec = signals.fft_magnitude(wf)
        mags = spec.magnitudes
        assert signals.dominant_frequency(spec) == 136.0
        noise_floor = float(np.median(mags[1:]))
        assert mags[240] > 10 * noise_floor  # 60 Hz secondary line
        assert 80.0 < mags[544] < 125.0  # 0.05 g line at 136 Hz: about N/2 * amp

    def test_reproducible_per_seed(self):
        spec = NormalSignalSpec()
        a = signals.synth_normal(spec, seed=7).samples
        b = signals.synth_normal(spec, seed=7).samples
        c = signals.synth_normal(spec, seed=8).samples
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_frequency_at_or_above_nyquist_rejected(self):
        with pytest.raises(SignalSpecError):
            signals.synth_normal(NormalSignalSpec(main=(512.0, 0.05)), seed=0)
        with pytest.raises(SignalSpecError):
            signals.synth_normal(NormalSignalSpec(main=(700.0, 0.05)), seed=0)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(SignalSpecError):
            signals.synth_normal(NormalSignalSpec(secondary=(60.0, -0.1)), seed=0)

    def test_negative_noise_rejected(self):
        with pytest.raises(SignalSpecError):
            signals.synth_normal(NormalSignalSpec(noise_std=-1.0), seed=0)

    def test_frames_batch(self):
        frames = signals.synth_normal_frames(NormalSignalSpec(), count=4, axes=3, seed=5)
        assert frames.shape == (4, 1, 3, 4096)
        assert frames.dtype == np.float32
        again = signals.synth_normal_frames(NormalSignalSpec(), count=4, axes=3, seed=5)
        assert np.array_equal(frames, again)
        assert not np.array_equal(frames[0, 0, 0], frames[0, 0, 1])
        assert not np.array_equal(frames[0, 0, 0], frames[1, 0, 0])

    @pytest.mark.parametrize("axes", [1, 3])
    def test_frames_equal_single_draws(self, axes):
        # the reference rebuilds each draw from its definition: the
        # phase-locked sines summed in float64, then the seeded noise
        spec = NormalSignalSpec()
        t = np.arange(4096) / 1024.0

        def draw(seed):
            x = np.zeros(4096)
            for freq, amp in spec.components():
                x += amp * np.sin(2.0 * np.pi * freq * t)
            return x + np.random.default_rng(seed).normal(0.0, spec.noise_std, 4096)

        children = np.random.SeedSequence([4, 2]).spawn(3 * axes)
        draws = np.stack([draw(c) for c in children])
        singles = np.stack([signals.synth_normal(spec, c).samples for c in children])
        assert singles.tobytes() == draws.tobytes()
        frames = signals.synth_normal_frames(spec, count=3, axes=axes, seed=[4, 2])
        want = draws.astype(np.float32).reshape(3, 1, axes, 4096)
        assert frames.tobytes() == want.tobytes()


class TestTimeScale:
    def test_compression_doubles_frequency(self):
        out = signals.time_scale(sine(136.0), 0.5)
        assert len(out.samples) == 4096
        assert signals.dominant_frequency(signals.fft_magnitude(out)) == 272.0

    def test_stretch_halves_frequency(self):
        out = signals.time_scale(sine(136.0), 2.0)
        assert len(out.samples) == 4096
        assert signals.dominant_frequency(signals.fft_magnitude(out)) == 68.0

    def test_factor_one_is_identity(self):
        wf = signals.synth_normal(NormalSignalSpec(), seed=11)
        out = signals.time_scale(wf, 1.0)
        assert np.allclose(out.samples, wf.samples, atol=1e-12)

    def test_round_trip_recovers_dominant_frequency(self):
        wf = sine(136.0)
        back = signals.time_scale(signals.time_scale(wf, 0.5), 2.0)
        assert signals.dominant_frequency(signals.fft_magnitude(back)) == 136.0

    def test_compression_tiling_stays_periodic(self):
        # 2048 compressed samples hold an integer number of 272 Hz periods,
        # so tiling introduces no seam and the energy stays in one bin.
        out = signals.time_scale(sine(136.0), 0.5)
        mags = signals.fft_magnitude(out).magnitudes
        others = np.delete(mags[1:], 1088 - 1)
        assert mags[1088] > 100 * float(others.max())

    def test_aliasing_warning_when_component_crosses_nyquist(self):
        wf = signals.synth_normal(NormalSignalSpec(), seed=13)  # has a 408 Hz line
        with pytest.warns(AliasingWarning):
            signals.time_scale(wf, 0.5)

    def test_aliasing_warning_at_any_length(self):
        # a 400 Hz line in 1,000 samples lands at 800 Hz, past 512
        t = np.arange(1000) / 1024.0
        with pytest.warns(AliasingWarning):
            signals.time_scale(Waveform(np.sin(2 * np.pi * 400.0 * t)), 0.5)

    def test_no_warning_when_components_stay_below_nyquist(self):
        spec = NormalSignalSpec(harmonics=(), noise_std=0.002)
        wf = signals.synth_normal(spec, seed=14)  # 136 and 60 Hz only
        with warnings.catch_warnings():
            warnings.simplefilter("error", AliasingWarning)
            signals.time_scale(wf, 0.5)

    def test_invalid_factor(self):
        with pytest.raises(SignalSpecError):
            signals.time_scale(sine(136.0), 0.0)
        with pytest.raises(SignalSpecError):
            signals.time_scale(sine(136.0), -2.0)

    @pytest.mark.parametrize("factor", [np.nan, np.inf, -np.inf])
    def test_non_finite_factor(self, factor):
        # nan once ended in a ValueError, inf in an OverflowError
        with pytest.raises(SignalSpecError, match="got %s" % factor):
            signals.time_scale(sine(136.0), factor)

    # compressing white noise by 0.5 moves half its spectrum past Nyquist,
    # which warns at this non-power-of-two length too
    @pytest.mark.filterwarnings("ignore::vibanom.errors.AliasingWarning")
    @pytest.mark.parametrize("factor", [0.5, 1.0, 1.5, 2.7])
    def test_same_bits_as_every_position_built(self, factor):
        wave = Waveform(np.random.default_rng(21).standard_normal(1000))
        m = int(np.floor(999 * factor)) + 1
        want = np.resize(np.interp(np.arange(m) / factor, np.arange(1000), wave.samples), 1000)
        assert signals.time_scale(wave, factor).samples.tobytes() == want.tobytes()

    def test_large_stretch_builds_only_the_kept_positions(self):
        # factor 1e3 once built 4.1 M float64 positions, about 33 MB each,
        # of which np.resize kept 4096
        wave = sine(136.0)
        tracemalloc.start()
        try:
            out = signals.time_scale(wave, 1e3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out.samples) == 4096
        assert peak < 1 << 20

    @pytest.mark.parametrize("factor", [1e300, np.finfo(np.float64).max])
    def test_huge_finite_stretch(self, factor):
        # 1e300 once raised "ValueError: Maximum allowed size exceeded"
        wave = sine(136.0)
        out = signals.time_scale(wave, factor)
        # every kept position lies within 4096 / factor of sample 0
        assert np.allclose(out.samples, wave.samples[0], rtol=0.0, atol=1e-200)


class TestInjectSawtooth:
    def test_zero_peak_is_identity(self):
        wf = signals.synth_normal(NormalSignalSpec(), seed=17)
        out = signals.inject_sawtooth(wf, 136.0, 0.0)
        assert np.array_equal(out.samples, wf.samples)

    def test_zero_mean_over_exact_periods(self):
        # 128 Hz at 1024 Hz gives an 8-sample period.
        zero = Waveform(np.zeros(4096))
        out = signals.inject_sawtooth(zero, 128.0, 0.04)
        assert abs(float(out.samples[:8].mean())) <= 1e-9
        assert abs(float(out.samples.mean())) <= 1e-9

    def test_rises_linearly_within_period(self):
        zero = Waveform(np.zeros(4096))
        saw = signals.inject_sawtooth(zero, 128.0, 0.04).samples[:8]
        assert np.all(np.diff(saw) > 0)
        steps = np.diff(saw)
        assert np.allclose(steps, steps[0])
        assert np.allclose(saw, -saw[::-1])
        assert float(np.abs(saw).max()) <= 0.04

    def test_additive_in_peak(self):
        wf = signals.synth_normal(NormalSignalSpec(), seed=19)
        twice = signals.inject_sawtooth(signals.inject_sawtooth(wf, 136.0, 0.02), 136.0, 0.02)
        once = signals.inject_sawtooth(wf, 136.0, 0.04)
        assert np.allclose(twice.samples, once.samples, atol=1e-9)

    def test_harmonic_content(self):
        # An 8-sample-periodic sawtooth concentrates all energy at
        # multiples of 128 Hz.
        zero = Waveform(np.zeros(4096))
        mags = signals.fft_magnitude(signals.inject_sawtooth(zero, 128.0, 0.04)).magnitudes
        harmonic_bins = [512, 1024, 1536]  # 128, 256, 384 Hz
        for b in harmonic_bins:
            assert mags[b] > 10.0
        non_harmonic = np.delete(mags, [0] + harmonic_bins + [2048])
        assert float(non_harmonic.max()) < 1e-6

    def test_main_frequency_bin_shifts(self):
        wf = signals.synth_normal(NormalSignalSpec(), seed=23)
        before = signals.fft_magnitude(wf).magnitudes[544]
        after = signals.fft_magnitude(signals.inject_sawtooth(wf, 136.0, 0.04)).magnitudes[544]
        assert abs(after - before) > 5.0

    def test_frequency_bounds(self):
        wf = Waveform(np.zeros(64))
        with pytest.raises(SignalSpecError):
            signals.inject_sawtooth(wf, 0.0, 0.04)
        with pytest.raises(SignalSpecError):
            signals.inject_sawtooth(wf, 512.0, 0.04)
        with pytest.raises(SignalSpecError):
            signals.inject_sawtooth(wf, 136.0, -0.01)

    @pytest.mark.parametrize("peak", [np.nan, np.inf, -np.inf])
    def test_non_finite_peak(self, peak):
        # a nan peak once gave a waveform of nan samples
        wf = Waveform(np.zeros(64))
        with pytest.raises(SignalSpecError, match="got %s" % peak):
            signals.inject_sawtooth(wf, 136.0, peak)


class TestWaveformCsv:
    def test_round_trip_is_exact(self, tmp_path):
        wf = signals.synth_normal(NormalSignalSpec(), seed=29)
        path = tmp_path / "wave.csv"
        signals.write_waveform_csv(wf, path)
        back = signals.read_waveform_csv(path)
        assert np.array_equal(back.samples, wf.samples)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,amp\n0,1.0\n")
        with pytest.raises(ParseError):
            signals.read_waveform_csv(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,value\n0,1.0\n1,oops\n")
        with pytest.raises(ParseError, match=":3"):
            signals.read_waveform_csv(path)

    def test_out_of_order_index(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,value\n0,1.0\n2,2.0\n")
        with pytest.raises(ParseError):
            signals.read_waveform_csv(path)


def _read_a_row_of_three_fields(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text("index,value\n0,1.0\n1,2.0,3.0\n")
    signals.read_waveform_csv(path)


def _read_a_sample(value):
    def read(tmp_path):
        path = tmp_path / "sample.csv"
        path.write_text("index,value\n0,1.0\n1,%s\n" % value)
        signals.read_waveform_csv(path)
    return read


@pytest.mark.parametrize(
    "call, error, message",
    [(lambda _: Waveform(np.zeros((2, 8))), DimensionError, "waveform samples must be 1-D, got 2-D"),
     (lambda _: signals.fft_complex(np.zeros((2, 8))), DimensionError, "fft input must be 1-D, got 2-D"),
     (lambda _: signals.time_scale(Waveform(np.zeros(1)), 2.0),
      DimensionError, "time_scale needs at least 2 samples"),
     (_read_a_row_of_three_fields, ParseError, "three.csv:3: expected 2 fields, got 3"),
     (_read_a_sample("nan"), ParseError, "sample.csv:3: non-finite value 'nan'"),
     (_read_a_sample("-inf"), ParseError, "sample.csv:3: non-finite value '-inf'")],
    ids=["two-d-waveform", "fft-two-d", "time-scale-one-sample",
         "csv-three-fields", "csv-nan", "csv-inf"],
)
def test_bad_input_is_refused(tmp_path, call, error, message):
    with pytest.raises(error) as raised:
        call(tmp_path)
    assert str(raised.value).endswith(message)
