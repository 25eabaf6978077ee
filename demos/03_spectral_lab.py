#!/usr/bin/env python3
"""Spectral laboratory: FFT oracle checks and the synthetic fault generators.

Shows fft_complex (numpy's FFT) agreeing with a direct DFT, locates the dominant
frequency of the synthetic healthy signal, and demonstrates how each fault
generator moves or enriches the spectrum.
"""

import numpy as np

from vibanom.signals import (
    NormalSignalSpec,
    Waveform,
    dominant_frequency,
    fft_complex,
    fft_magnitude,
    inject_sawtooth,
    synth_normal,
    time_scale,
)

# 1. The FFT against the O(N^2) definition.
rng = np.random.default_rng(0)
x = rng.standard_normal(1024)
direct = np.array([
    np.sum(x * np.exp(-2j * np.pi * k * np.arange(1024) / 1024)) for k in range(1024)
])
fast = fft_complex(x)
err = np.linalg.norm(fast - direct) / np.linalg.norm(direct)
print("fft vs direct dft on 1024 random points: relative error %.2e" % err)

# 2. Parseval: energy is preserved between domains.
time_energy = float(np.sum(x * x))
freq_energy = float(np.sum(np.abs(fast) ** 2) / len(x))
print("parseval check: time %.6f vs freq %.6f" % (time_energy, freq_energy))
print()

# 3. The healthy signal and its strongest spectral lines.
spec = NormalSignalSpec()
wave = synth_normal(spec, seed=1)
spectrum = fft_magnitude(wave)
print("healthy signal components (frequency, amplitude): %s" % spec.components())
order = np.argsort(spectrum.magnitudes[1:])[::-1][:4] + 1
print("four strongest measured lines:")
for k in order:
    print("  %6.2f Hz  magnitude %.4f" % (spectrum.bin_freqs[k], spectrum.magnitudes[k]))
print("dominant frequency: %.1f Hz" % dominant_frequency(spectrum))
print()

# 4. Fault generator one: time-scale compression doubles every frequency.
#    (The 408 Hz harmonic would cross Nyquist, hence the warning.)
import warnings
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    fast_wave = time_scale(wave, 0.5)
print("time-scale 0.5 -> dominant %.1f Hz (doubled)"
      % dominant_frequency(fft_magnitude(fast_wave)))

# 5. Fault generator two: stretching halves every frequency.
slow_wave = time_scale(wave, 2.0)
print("time-scale 2.0 -> dominant %.1f Hz (halved)"
      % dominant_frequency(fft_magnitude(slow_wave)))

# 6. Fault generator three: sawtooth interference at the main frequency.
#    A sawtooth contributes the fundamental plus a full harmonic ladder.
noisy = inject_sawtooth(wave, 136.0, 0.04)
sp = fft_magnitude(noisy)
print("sawtooth at 136 Hz, peak 0.04 g -> harmonic magnitudes:")
for freq in (136.0, 272.0, 408.0):
    k = int(round(freq * 4096 / 1024.0))
    print("  %6.1f Hz  before %.4f  after %.4f"
          % (freq, spectrum.magnitudes[k], sp.magnitudes[k]))
