"""Spectral analysis and synthetic vibration waveform generation.

Provides an FFT of any length with one-sided magnitude spectra, dominant
frequency extraction, and generators for the validation experiments: a
multi-component normal bearing signal, time-scale modification (frequency
shifting) and sawtooth injection. All operations are pure functions.
The generators and the waveform CSV reader work at the paper's one frame
geometry: MODEL_FRAME_LEN (4096) samples at DEFAULT_SAMPLE_RATE (1024 Hz).

The FFT is numpy's (np.fft.fft), at any length of at least 1; its
correctness contract is agreement with a direct DFT within 1e-6 relative
error, which the test suite enforces at lengths from 1 to 4096.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AliasingWarning, DimensionError, ParseError, SignalSpecError

__all__ = [
    "Waveform",
    "Spectrum",
    "NormalSignalSpec",
    "fft_complex",
    "fft_magnitude",
    "dominant_frequency",
    "synth_normal",
    "synth_normal_frames",
    "time_scale",
    "inject_sawtooth",
    "write_waveform_csv",
    "read_waveform_csv",
]

MODEL_FRAME_LEN = 4096
DEFAULT_SAMPLE_RATE = 1024.0

# A spectral line counts as a real component (for aliasing detection) when
# its magnitude reaches this fraction of the strongest non-DC line.
SIGNIFICANT_COMPONENT_FRACTION = 0.01


@dataclass
class Waveform:
    """A single-axis acceleration record in g at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: float = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise DimensionError(f"waveform samples must be 1-D, got {self.samples.ndim}-D")
        if self.sample_rate <= 0:
            raise SignalSpecError(f"sample rate must be positive, got {self.sample_rate}")

    @property
    def nyquist(self) -> float:
        return self.sample_rate / 2.0


@dataclass
class Spectrum:
    """One-sided magnitude spectrum: N/2 + 1 bins at k * sample_rate / N."""

    bin_freqs: np.ndarray
    magnitudes: np.ndarray


@dataclass(frozen=True)
class NormalSignalSpec:
    """Composition of the synthetic healthy signal.

    One main line, one secondary line, optional harmonics, plus white
    Gaussian noise. Frequencies in Hz, amplitudes and noise level in g.
    """

    main: tuple = (136.0, 0.05)
    secondary: tuple = (60.0, 0.02)
    harmonics: tuple = ((272.0, 0.01), (408.0, 0.005))
    noise_std: float = 0.005

    def components(self) -> list:
        """All (frequency, amplitude) pairs, main first."""
        return [tuple(self.main), tuple(self.secondary), *(tuple(h) for h in self.harmonics)]

    def validate(self, nyquist: float) -> None:
        for freq, amp in self.components():
            if amp < 0:
                raise SignalSpecError(f"amplitude for {freq} Hz must be >= 0, got {amp}")
            if not 0 <= freq < nyquist:
                raise SignalSpecError(
                    f"component frequency {freq} Hz outside [0, Nyquist {nyquist} Hz)"
                )
        if self.noise_std < 0:
            raise SignalSpecError(f"noise_std must be >= 0, got {self.noise_std}")


def fft_complex(samples: np.ndarray) -> np.ndarray:
    """Complex DFT of a 1-D sequence of any length >= 1, in complex128."""
    x = np.asarray(samples)
    if x.ndim != 1:
        raise DimensionError(f"fft input must be 1-D, got {x.ndim}-D")
    n = x.shape[0]
    if n < 1:
        raise DimensionError("fft input is empty")
    return np.fft.fft(x.astype(np.complex128))


def fft_magnitude(waveform: Waveform) -> Spectrum:
    """One-sided magnitude spectrum (bins 0 .. N/2, no doubling)."""
    transform = fft_complex(waveform.samples)
    n = len(waveform.samples)
    half = n // 2 + 1 if n > 1 else 1
    freqs = np.arange(half) * (waveform.sample_rate / n)
    return Spectrum(freqs, np.abs(transform[:half]))


def dominant_frequency(spectrum: Spectrum) -> float:
    """Frequency of the strongest non-DC bin; ties go to the lower bin."""
    if len(spectrum.magnitudes) < 2:
        raise DimensionError("spectrum has no non-DC bins")
    k = 1 + int(np.argmax(spectrum.magnitudes[1:]))
    return float(spectrum.bin_freqs[k])


def _component_stack(spec: NormalSignalSpec) -> np.ndarray:
    """The phase-locked deterministic part of every healthy draw."""
    spec.validate(DEFAULT_SAMPLE_RATE / 2.0)
    t = np.arange(MODEL_FRAME_LEN) / DEFAULT_SAMPLE_RATE
    x = np.zeros(MODEL_FRAME_LEN, dtype=np.float64)
    for freq, amp in spec.components():
        if amp > 0:
            x += amp * np.sin(2.0 * np.pi * freq * t)
    return x


def _draw(spec: NormalSignalSpec, stack: np.ndarray, seed) -> np.ndarray:
    """stack plus one seeded noise draw, as a new float64 array."""
    x = stack.copy()
    if spec.noise_std > 0:
        x += np.random.default_rng(seed).normal(0.0, spec.noise_std, MODEL_FRAME_LEN)
    return x


def synth_normal(spec: NormalSignalSpec, seed) -> Waveform:
    """One healthy waveform draw: MODEL_FRAME_LEN samples at DEFAULT_SAMPLE_RATE.

    The deterministic component stack is phase-locked (every draw starts
    at t = 0, as if sampling were synchronized to the machine cycle);
    only the additive Gaussian noise varies between draws. Phase-locked
    frames keep the reconstruction task learnable at the fixed training
    budget, and anomaly generators perturb them the same way they would
    free-running frames. Reproducible per seed.
    """
    return Waveform(_draw(spec, _component_stack(spec), seed))


def synth_normal_frames(spec: NormalSignalSpec, count: int, axes: int, seed) -> np.ndarray:
    """Batch of healthy frames, shape (count, 1, axes, MODEL_FRAME_LEN).

    Every axis of every frame shares the phase-locked component stack
    and gets an independent noise draw, all seeded from one root seed
    for reproducibility. Each waveform equals synth_normal's draw for its
    child seed; the stack is computed once per call.
    """
    stack = _component_stack(spec)
    children = np.random.SeedSequence(seed).spawn(count * axes)
    frames = np.empty((count, 1, axes, MODEL_FRAME_LEN), dtype=np.float32)
    for k, child in enumerate(children):
        frames[k // axes, 0, k % axes] = _draw(spec, stack, child)
    return frames


def time_scale(waveform: Waveform, factor: float) -> Waveform:
    """Resample so every component frequency is multiplied by 1 / factor.

    The scaled signal g(i) = f(i / factor) is rebuilt by linear
    interpolation, then re-fit to the original length: a compressed signal
    (factor < 1) is tiled periodically, a stretched one truncated. Warns
    with AliasingWarning if a significant spectral component would land
    above Nyquist.
    """
    if not 0 < factor < np.inf:
        raise SignalSpecError(f"time-scale factor must be finite and positive, got {factor}")
    n = len(waveform.samples)
    if n < 2:
        raise DimensionError("time_scale needs at least 2 samples")

    if factor < 1:
        spectrum = fft_magnitude(waveform)
        mags = spectrum.magnitudes[1:]
        top = float(mags.max())
        if top > 0:
            significant = spectrum.bin_freqs[1:][mags >= SIGNIFICANT_COMPONENT_FRACTION * top]
            worst = float(significant.max(initial=0.0)) / factor
            if worst > waveform.nyquist:
                warnings.warn(
                    f"time scaling by {factor} moves a {worst * factor:.1f} Hz component to "
                    f"{worst:.1f} Hz, beyond Nyquist {waveform.nyquist:.1f} Hz",
                    AliasingWarning,
                )

    # np.resize keeps n of the positions: a stretch builds only those
    m = n if factor >= 1 else int(np.floor((n - 1) * factor)) + 1
    positions = np.arange(m) / factor
    scaled = np.interp(positions, np.arange(n), waveform.samples)
    return Waveform(np.resize(scaled, n), waveform.sample_rate)


def inject_sawtooth(waveform: Waveform, freq: float, peak: float) -> Waveform:
    """Superimpose a zero-mean sawtooth rising from -peak to +peak.

    Sample phases are offset by half a sample so the discrete wave averages
    to exactly zero over any whole number of periods.
    """
    if not 0 < freq < waveform.nyquist:
        raise SignalSpecError(
            f"sawtooth frequency must lie in (0, Nyquist {waveform.nyquist} Hz), got {freq}"
        )
    if not 0 <= peak < np.inf:
        raise SignalSpecError(f"sawtooth peak must be finite and >= 0, got {peak}")
    n = len(waveform.samples)
    phase = np.mod((np.arange(n) + 0.5) * (freq / waveform.sample_rate), 1.0)
    saw = peak * (2.0 * phase - 1.0)
    return Waveform(waveform.samples + saw, waveform.sample_rate)


def write_waveform_csv(waveform: Waveform, path) -> None:
    """Write `index,value` rows; values keep full float64 precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "value"])
        for i, v in enumerate(waveform.samples):
            writer.writerow([i, repr(float(v))])


def _csv_rows(path, reader):
    """The rows of a csv.reader; a csv.Error (a field over
    csv.field_size_limit(), say) is a ParseError naming the file and line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None


def read_waveform_csv(path) -> Waveform:
    """Read a finite waveform written by write_waveform_csv, at DEFAULT_SAMPLE_RATE."""
    values = []
    # a byte that is not UTF-8 reads as U+FFFD, which fails the header or
    # number checks below with a ParseError naming the file and line
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        rows = _csv_rows(path, csv.reader(fh))
        header = next(rows, None)
        if header != ["index", "value"]:
            raise ParseError(f"{path}: expected header 'index,value', got {header!r}")
        for lineno, row in enumerate(rows, start=2):
            if len(row) != 2:
                raise ParseError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            try:
                idx = int(row[0])
                val = float(row[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if not np.isfinite(val):
                raise ParseError(f"{path}:{lineno}: non-finite value {row[1]!r}")
            if idx != lineno - 2:
                raise ParseError(f"{path}:{lineno}: index {idx} out of order")
            values.append(val)
    return Waveform(np.array(values, dtype=np.float64))
