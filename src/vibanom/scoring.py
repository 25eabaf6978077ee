"""Anomaly scoring and alarm logic.

Reconstruction MSE values are normalized against a calibration set of
normal frames, classified into discrete alarm levels by fixed thresholds,
and smoothed by a windowed hysteresis rule that suppresses isolated
false positives: a fresh window needs more than 16 anomalous samples out
of 30 to fire, while a window that already contains a fired alarm stays
sensitized and refires at more than 12.

The window is two int bit masks, anomalous and fired, with the newest
sample in bit 0, so a step is a shift, a bit count and, when a marked
sample leaves the window, a mask: its cost follows the samples held, not
window_len. All types here are immutable; `hysteresis_step` returns a
new state rather than mutating its argument, so callers can snapshot and
replay alarm histories freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Tuple

import numpy as np

from .errors import CalibrationError, ConfigurationError, _count, _number


class AlarmLevel(IntEnum):
    """Discrete alarm severity; comparisons follow severity order."""

    NONE = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3


@dataclass(frozen=True)
class ScoreNormalization:
    """Location/scale of the calibration MSE distribution."""

    mu: float
    sigma: float

    def __post_init__(self):
        mu, sigma = _number("mu", self.mu), _number("sigma", self.sigma)
        if not (math.isfinite(mu) and math.isfinite(sigma)):
            raise CalibrationError("normalization parameters must be finite")
        if sigma <= 0.0:
            raise CalibrationError("sigma must be positive, got %r" % (sigma,))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)


def calibrate(mse_values: Iterable[float]) -> ScoreNormalization:
    """Fit score normalization from calibration-set MSE values.

    Uses the population standard deviation (divide by N, not N-1).
    Requires at least two values that are not all equal, since a
    zero-spread calibration set cannot define a scale. Values count as
    all equal when their population sigma is within float32 resolution
    of |mu| (sigma <= float32 eps * |mu|): reconstruction MSEs come from
    float32 reconstructions, whose last-bit rounding depends on a
    frame's position in the batch, so identical frames can yield MSEs
    that differ by rounding noise alone.
    """
    values = np.asarray(list(mse_values), dtype=np.float64)
    if values.size < 2:
        raise CalibrationError(
            "calibration needs at least 2 MSE values, got %d" % values.size
        )
    if not np.all(np.isfinite(values)):
        raise CalibrationError("calibration values must be finite")
    mu = float(np.mean(values))
    sigma = float(np.std(values))  # population std
    if sigma <= float(np.finfo(np.float32).eps) * abs(mu):  # in float64
        raise CalibrationError(
            "calibration values are all equal; cannot derive a scale"
        )
    return ScoreNormalization(mu=mu, sigma=sigma)


def score(mse: float, normalization: ScoreNormalization) -> float:
    """Normalize an MSE value to z-score units."""
    return (float(mse) - normalization.mu) / normalization.sigma


@dataclass(frozen=True)
class AlarmConfig:
    """Thresholds and hysteresis parameters.

    level_thresholds are in score (z) units, strictly increasing
    (low, medium, high). A sample is anomalous when its level is at least
    low (see classify). window_len bounds the hysteresis window;
    trigger_fresh / trigger_sensitized are the anomalous-count triggers
    for windows without / with a previously fired alarm.
    """

    level_thresholds: Tuple[float, float, float] = (3.0, 5.0, 8.0)
    window_len: int = 30
    trigger_fresh: int = 16
    trigger_sensitized: int = 12

    def __post_init__(self):
        thresholds = tuple(_number("level_thresholds", t) for t in self.level_thresholds)
        if len(thresholds) != 3:
            raise ConfigurationError(
                "level_thresholds needs exactly 3 values, got %d"
                % len(thresholds)
            )
        if not all(math.isfinite(t) for t in thresholds):
            raise ConfigurationError("level_thresholds must be finite")
        if not (thresholds[0] < thresholds[1] < thresholds[2]):
            raise ConfigurationError(
                "level_thresholds must be strictly increasing, got %r"
                % (thresholds,)
            )
        object.__setattr__(self, "level_thresholds", thresholds)
        for name in ("window_len", "trigger_fresh", "trigger_sensitized"):
            _count(name, getattr(self, name))
        # must allow a fresh trigger to fit in the window, and the
        # sensitized trigger must genuinely lower the bar
        if self.trigger_fresh <= self.trigger_sensitized:
            raise ConfigurationError(
                "trigger_fresh (%d) must exceed trigger_sensitized (%d)"
                % (self.trigger_fresh, self.trigger_sensitized)
            )
        if self.window_len < self.trigger_fresh:
            raise ConfigurationError(
                "window_len (%d) must be >= trigger_fresh (%d)"
                % (self.window_len, self.trigger_fresh)
            )


def classify(score_value: float, config: AlarmConfig) -> AlarmLevel:
    """Map a score to the highest alarm level it strictly exceeds. A NaN
    score, from a frame whose reconstruction overflowed, exceeds nothing
    but is no sign of health: it is HIGH."""
    low, medium, high = config.level_thresholds
    s = float(score_value)
    if not s <= high:
        return AlarmLevel.HIGH
    if s > medium:
        return AlarmLevel.MEDIUM
    if s > low:
        return AlarmLevel.LOW
    return AlarmLevel.NONE


@dataclass(frozen=True)
class HysteresisState:
    """The samples in the window as two bit masks, newest in bit 0: which
    were anomalous, and on which the alarm fired."""

    anomalous: int = 0
    fired: int = 0

    @property
    def anomalous_count(self) -> int:
        return self.anomalous.bit_count()


def hysteresis_step(
    state: HysteresisState, is_anomalous: bool, config: AlarmConfig
) -> Tuple[HysteresisState, bool]:
    """Advance the alarm window by one sample.

    The oldest sample is evicted once the window holds window_len samples.
    The anomalous count includes the current sample; the sensitized path
    applies when any *previous* sample still in the window fired.
    """
    is_anomalous = bool(is_anomalous)
    anomalous, prior_fired = state.anomalous, state.fired
    keep = config.window_len - 1  # the previous samples that stay
    if max(anomalous.bit_length(), prior_fired.bit_length()) > keep:  # one is evicted
        kept = (1 << keep) - 1
        anomalous, prior_fired = anomalous & kept, prior_fired & kept
    count = anomalous.bit_count() + is_anomalous
    trigger = config.trigger_sensitized if prior_fired else config.trigger_fresh
    fired = is_anomalous and count > trigger
    new_state = HysteresisState((anomalous << 1) | is_anomalous, (prior_fired << 1) | fired)
    return new_state, fired


@dataclass(frozen=True)
class AlarmDecision:
    """Outcome of evaluating one reconstruction MSE."""

    score: float
    level: AlarmLevel
    alarm_fired: bool
    anomalous_in_window: int

    def __post_init__(self):
        if self.alarm_fired and self.level < AlarmLevel.LOW:
            raise ConfigurationError(
                "alarm cannot fire on a sample below the low threshold"
            )
        if self.anomalous_in_window < 0:
            raise ConfigurationError("anomalous_in_window must be >= 0")


def evaluate(
    mse: float,
    normalization: ScoreNormalization,
    config: AlarmConfig,
    state: HysteresisState,
) -> Tuple[AlarmDecision, HysteresisState]:
    """Score one MSE, classify it, and advance the hysteresis window."""
    score_value = score(mse, normalization)
    level = classify(score_value, config)
    new_state, fired = hysteresis_step(state, level >= AlarmLevel.LOW, config)
    decision = AlarmDecision(
        score=score_value,
        level=level,
        alarm_fired=fired,
        anomalous_in_window=new_state.anomalous_count,
    )
    return decision, new_state
