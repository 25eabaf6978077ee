"""Scoring and alarm hysteresis tests.

Oracle: reference_alarm_replay in helpers keeps the whole stream history
and recomputes every decision from the rule definition by slicing; the
library's bounded 30-bit state machine must match it step for step.
"""

import dataclasses
import itertools
import math
import re
import tracemalloc
import typing
import warnings

import numpy as np
import pytest

from vibanom import dcan
from vibanom.errors import CalibrationError, ConfigurationError
from vibanom.scoring import (
    AlarmConfig,
    AlarmDecision,
    AlarmLevel,
    HysteresisState,
    ScoreNormalization,
    calibrate,
    classify,
    evaluate,
    hysteresis_step,
    score,
)

from helpers import reference_alarm_replay


def run_stream(flags, config):
    """Feed anomaly flags through the state machine, collect fired bits."""
    state = HysteresisState()
    fired = []
    for flag in flags:
        state, did_fire = hysteresis_step(state, flag, config)
        fired.append(did_fire)
    return fired, state


class TestAlarmLevel:
    def test_severity_order(self):
        assert AlarmLevel.NONE < AlarmLevel.LOW < AlarmLevel.MEDIUM < AlarmLevel.HIGH

    def test_values(self):
        assert [lvl.value for lvl in AlarmLevel] == [0, 1, 2, 3]


class TestScoreNormalization:
    def test_stores_parameters(self):
        norm = ScoreNormalization(mu=1.5, sigma=0.25)
        assert norm.mu == 1.5
        assert norm.sigma == 0.25

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_rejects_nonpositive_sigma(self, sigma):
        with pytest.raises(CalibrationError):
            ScoreNormalization(mu=0.0, sigma=sigma)

    def test_rejects_nonfinite(self):
        with pytest.raises(CalibrationError):
            ScoreNormalization(mu=float("nan"), sigma=1.0)

    @pytest.mark.parametrize("field", ["mu", "sigma"])
    def test_rejects_bools(self, field):
        values = {"mu": 1.0, "sigma": 1.0, field: True}
        with pytest.raises(ConfigurationError, match="^%s must be a number, got True$" % field):
            ScoreNormalization(**values)

    @pytest.mark.parametrize("field", ["mu", "sigma"])
    def test_rejects_an_int_too_large_for_a_float(self, field):
        values = {"mu": 1.0, "sigma": 1.0, field: 10**400}
        with pytest.raises(ConfigurationError, match="^%s is too large for a float$" % field):
            ScoreNormalization(**values)


class TestCalibrate:
    def test_worked_example(self):
        # population std: variance (0.01 + 0 + 0.01) / 3
        norm = calibrate([0.2, 0.3, 0.4])
        assert norm.mu == pytest.approx(0.3, rel=1e-12)
        assert norm.sigma == pytest.approx(math.sqrt(0.02 / 3.0), rel=1e-12)

    def test_population_not_sample_std(self):
        norm = calibrate([0.2, 0.3, 0.4])
        sample_std = 0.1  # what ddof=1 would give
        assert abs(norm.sigma - sample_std) > 0.01

    def test_matches_numpy_on_random_values(self):
        rng = np.random.default_rng(42)
        values = rng.uniform(0.1, 2.0, size=500)
        norm = calibrate(values)
        assert norm.mu == pytest.approx(float(np.mean(values)), rel=1e-12)
        assert norm.sigma == pytest.approx(float(np.std(values)), rel=1e-12)

    def test_all_equal_rejected(self):
        with pytest.raises(CalibrationError, match="all equal"):
            calibrate([0.5, 0.5, 0.5])

    # a spread far below float32 resolution of mu is rounding noise, as
    # when identical frames sit at different batch positions; with mu = 0
    # the rule reduces to sigma == 0
    @pytest.mark.parametrize("values", [[1.0, 1.0 + 1e-12, 1.0], [0.0, 0.0]])
    def test_spread_within_float32_resolution_rejected(self, values):
        with pytest.raises(CalibrationError, match="all equal"):
            calibrate(values)

    def test_spread_above_float32_resolution_accepted(self):
        # relative spread ~1e-5, well above float32 eps (~1.2e-7)
        values = [1.0, 1.0 + 2e-5, 1.0 + 1e-5, 1.0 - 1e-5]
        norm = calibrate(values)
        assert norm.mu == pytest.approx(float(np.mean(values)), rel=1e-12)
        assert norm.sigma == pytest.approx(float(np.std(values)), rel=1e-12)

    def test_values_beyond_float32_range_calibrate(self):
        # the all-equal rule is formed in float64: in float32, eps * |mu|
        # overflows to inf above 3.4e38, which took any spread for none
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = calibrate([1e40, 2e40, 3e40])
            with pytest.raises(CalibrationError, match="all equal"):
                calibrate([1e40, 1e40, 1e40])
        assert norm.mu == pytest.approx(2e40, rel=1e-12)
        assert norm.sigma == pytest.approx(math.sqrt(2 / 3) * 1e40, rel=1e-12)

    @pytest.mark.parametrize("values", [[], [0.3]])
    def test_needs_two_values(self, values):
        with pytest.raises(CalibrationError, match="at least 2"):
            calibrate(values)

    def test_nonfinite_rejected(self):
        with pytest.raises(CalibrationError, match="finite"):
            calibrate([0.2, float("nan"), 0.4])

    @pytest.mark.parametrize("shape", [(2, 3), (3, 1000), (5, 4, 25)])
    def test_nested_values_calibrate_as_flat(self, shape):
        values = np.random.default_rng(7).uniform(0.1, 2.0, size=shape)
        assert calibrate(values.tolist()) == calibrate(values.ravel().tolist())


class TestScore:
    def test_zero_at_mu(self):
        norm = calibrate([0.2, 0.3, 0.4])
        assert score(0.3, norm) == pytest.approx(0.0, abs=1e-15)

    def test_worked_example(self):
        norm = calibrate([0.2, 0.3, 0.4])
        assert score(0.4, norm) == pytest.approx(math.sqrt(1.5), rel=1e-12)

    def test_monotone_in_mse(self):
        norm = calibrate([0.2, 0.3, 0.4])
        values = [score(m, norm) for m in (0.1, 0.3, 0.5, 2.0)]
        assert values == sorted(values)
        assert values[0] < 0 < values[-1]

    @pytest.mark.parametrize("factor", [0.5, 3.0, 1e6])
    def test_scale_invariance(self, factor):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.1, 1.0, size=64)
        probe = 0.77
        base = score(probe, calibrate(values))
        scaled = score(probe * factor, calibrate(values * factor))
        assert scaled == pytest.approx(base, rel=1e-9)


class TestAlarmConfig:
    def test_defaults(self):
        config = AlarmConfig()
        assert config.level_thresholds == (3.0, 5.0, 8.0)
        assert config.window_len == 30
        assert config.trigger_fresh == 16
        assert config.trigger_sensitized == 12

    def test_thresholds_coerced_to_float(self):
        config = AlarmConfig(level_thresholds=(1, 2, 3))
        assert config.level_thresholds == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"level_thresholds": (3.0, 3.0, 8.0)},
            {"level_thresholds": (5.0, 4.0, 8.0)},
            {"level_thresholds": (1.0, 2.0)},
            {"level_thresholds": (1.0, 2.0, float("inf"))},
            {"trigger_sensitized": 0},
            {"trigger_fresh": 12, "trigger_sensitized": 12},
            {"window_len": 15},  # smaller than trigger_fresh
            {"window_len": 30.0},  # counts must be integers
            {"trigger_fresh": "16"},
            {"trigger_sensitized": True},  # a bool is not a count
            {"level_thresholds": (True, 5.0, 8.0)},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AlarmConfig(**kwargs)

    def test_rejects_a_threshold_too_large_for_a_float(self):
        with pytest.raises(
            ConfigurationError, match="^level_thresholds is too large for a float$"
        ):
            AlarmConfig(level_thresholds=(1, 2, 10**400))


class TestNumberRule:
    """Every number and count of the fleet config (AlarmConfig,
    ScoreNormalization) and of a checkpoint (DcanConfig and its ConvSpecs)
    passes one rule: a count is an int of at least 1, a number an int or
    float that fits in a float, as JSON reads them."""

    @pytest.mark.parametrize(
        "make, message",
        [(lambda: ScoreNormalization(mu=np.float32(1.0), sigma=1.0), "mu must be a number"),
         (lambda: AlarmConfig(window_len=np.int64(30)),
          "window_len must be an integer >= 1"),
         (lambda: AlarmConfig(level_thresholds=(3.0, "5", 8.0)),
          "level_thresholds must be a number, got '5'"),
         (lambda: ScoreNormalization(mu="1", sigma=1.0), "mu must be a number, got '1'")],
        ids=["float32-mu", "int64-window-len", "string-threshold", "string-mu"],
    )
    def test_only_json_number_types_are_accepted(self, make, message):
        # numpy scalars were once accepted and then broke the JSON writers;
        # strings raised a bare TypeError or ValueError
        with pytest.raises(ConfigurationError, match="^" + re.escape(message)):
            make()

    def test_numbers_are_stored_as_floats(self):
        norm = ScoreNormalization(mu=np.float64(1.5), sigma=2)
        assert (type(norm.mu), type(norm.sigma)) == (float, float)
        assert (norm.mu, norm.sigma) == (1.5, 2.0)


def _leaves(obj, prefix=""):
    """(name, is_count, path) of every number and count in the dataclass
    obj, a tuple field element by element; path is the field names and
    tuple indices that reach it. DcanConfig's conv_specs are walked as
    ConvSpecs named conv1., conv2., ..."""
    hints = typing.get_type_hints(type(obj))
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if field.name == "conv_specs":
            for i, spec in enumerate(value):
                for name, is_count, path in _leaves(spec, "conv%d." % (i + 1)):
                    yield name, is_count, (field.name, i) + path
            continue
        hint = hints[field.name]
        is_count = (typing.get_args(hint) or (hint,))[0] is int
        if isinstance(value, tuple):
            for i in range(len(value)):
                yield prefix + field.name, is_count, (field.name, i)
        else:
            yield prefix + field.name, is_count, (field.name,)


def _replaced(obj, path, value):
    """obj with the entry at path set to value; a dataclass is rebuilt
    through dataclasses.replace, so its own checks run."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(obj, tuple):
        return obj[:head] + (_replaced(obj[head], rest, value),) + obj[head + 1:]
    return dataclasses.replace(obj, **{head: _replaced(getattr(obj, head), rest, value)})


_VALID = (AlarmConfig(), ScoreNormalization(mu=1.0, sigma=1.0), dcan.DcanConfig())
_RULE_CASES = [
    pytest.param(base, name, is_count, path, value,
                 id="%s.%s-%r" % (type(base).__name__, ".".join(map(str, path)), value))
    for base in _VALID
    for name, is_count, path in _leaves(base)
    for value in ((True, "1", 0) if is_count else (True, "1"))
]


@pytest.mark.parametrize("base, name, is_count, path, value", _RULE_CASES)
def test_every_number_and_count_passes_the_rule(base, name, is_count, path, value):
    with pytest.raises(ConfigurationError) as raised:
        config = _replaced(base, path, value)
        if isinstance(config, dcan.DcanConfig):
            config.validate()
    what = "an integer >= 1" if is_count else "a number"
    index = r"(\[%d\])?" % path[-1] if isinstance(path[-1], int) else ""
    assert re.fullmatch(
        re.escape(name) + index + re.escape(" must be %s, got %r" % (what, value)),
        str(raised.value),
    )


def test_the_rule_walks_every_field():
    names = {name for base in _VALID for name, _, _ in _leaves(base)}
    assert names == {
        "level_thresholds", "window_len", "trigger_fresh", "trigger_sensitized", "mu", "sigma",
        "axes", "frame_len", "leaky_slope", "fc_widths",
        *("conv%d.%s" % (i, f) for i in (1, 2, 3)
          for f in ("in_channels", "out_channels", "kernel", "stride")),
    }


class TestClassify:
    def test_strict_exceedance_at_boundaries(self):
        config = AlarmConfig()
        # sitting exactly on a threshold does not cross it
        assert classify(3.0, config) == AlarmLevel.NONE
        assert classify(3.0 + 1e-9, config) == AlarmLevel.LOW
        assert classify(5.0, config) == AlarmLevel.LOW
        assert classify(5.0 + 1e-9, config) == AlarmLevel.MEDIUM
        assert classify(8.0, config) == AlarmLevel.MEDIUM
        assert classify(8.0 + 1e-9, config) == AlarmLevel.HIGH

    def test_extremes(self):
        config = AlarmConfig()
        assert classify(-100.0, config) == AlarmLevel.NONE
        assert classify(1e9, config) == AlarmLevel.HIGH
        assert classify(float("inf"), config) == AlarmLevel.HIGH
        assert classify(float("-inf"), config) == AlarmLevel.NONE
        # NaN exceeds no threshold, but is no sign of health
        assert classify(float("nan"), config) == AlarmLevel.HIGH

    def test_custom_thresholds(self):
        config = AlarmConfig(level_thresholds=(0.5, 1.0, 1.5))
        assert classify(0.75, config) == AlarmLevel.LOW
        assert classify(1.25, config) == AlarmLevel.MEDIUM
        assert classify(2.0, config) == AlarmLevel.HIGH


class TestHysteresisTruthTable:
    def test_fresh_window_fires_at_17_not_16(self):
        config = AlarmConfig()
        fired, _ = run_stream([True] * 16, config)
        assert not any(fired)
        fired, _ = run_stream([True] * 17, config)
        assert fired[:16] == [False] * 16
        assert fired[16] is True

    def test_sensitized_keeps_firing(self):
        config = AlarmConfig()
        fired, _ = run_stream([True] * 30, config)
        assert fired[:16] == [False] * 16
        assert all(fired[16:])

    def test_sensitized_fires_at_13(self):
        # the fire at step 16 is still inside the window when the count
        # recovers to 13, so the lowered trigger applies
        config = AlarmConfig()
        stream = [True] * 17 + [False] * 17 + [True]
        fired, _ = run_stream(stream, config)
        assert fired[16] is True
        assert not any(fired[17:34])
        assert fired[34] is True

    def test_sensitized_does_not_fire_at_12(self):
        config = AlarmConfig()
        stream = [True] * 17 + [False] * 18 + [True]
        fired, _ = run_stream(stream, config)
        assert fired[16] is True
        assert not any(fired[17:])

    def test_all_normal_never_fires(self):
        config = AlarmConfig()
        fired, state = run_stream([False] * 1000, config)
        assert not any(fired)
        assert state.anomalous_count == 0
        assert state.anomalous == 0 and state.fired == 0  # the window holds no mark

    def test_current_normal_sample_never_fires(self):
        # 20 anomalous in the window, but the current sample is normal
        config = AlarmConfig()
        fired, state = run_stream([True] * 20 + [False], config)
        assert fired[-1] is False
        assert state.anomalous_count == 20

    def test_isolated_anomalies_suppressed(self):
        config = AlarmConfig()
        fired, _ = run_stream([True, False] * 50, config)
        assert not any(fired)

    def test_window_is_bounded(self):
        config = AlarmConfig()
        _, state = run_stream([True] * 100, config)
        assert state.anomalous == (1 << 30) - 1  # exactly the last 30 samples
        assert state.fired.bit_length() <= 30
        assert state.anomalous_count == 30

    def test_step_cost_follows_the_samples_held(self):
        # a window of 10**8 samples, of which 100 are held: no step may
        # build a mask as wide as the window (12.5 MB)
        config = AlarmConfig(window_len=10**8)
        state = HysteresisState()
        tracemalloc.start()
        try:
            for k in range(100):
                state, _ = hysteresis_step(state, k % 3 == 0, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert state.anomalous_count == 34

    def test_newest_sample_is_bit_0(self):
        config = AlarmConfig()
        _, state = run_stream([True] * 17 + [False, False], config)
        assert state.anomalous == ((1 << 17) - 1) << 2
        assert state.fired == 0b100  # the 17th sample fired

    def test_fired_flag_is_state_not_input(self):
        # sensitized behavior cannot be recovered from the last 30 raw
        # inputs alone: the fired flag carries older history
        config = AlarmConfig()
        stream = [True] * 17 + [False] * 17 + [True]
        fired_full, _ = run_stream(stream, config)
        fired_tail, _ = run_stream(stream[-30:], config)
        assert fired_full[-1] is True
        assert fired_tail[-1] is False

    def test_step_does_not_mutate_input_state(self):
        config = AlarmConfig()
        state = HysteresisState(anomalous=0b1, fired=0b0)
        before = (state.anomalous, state.fired)
        hysteresis_step(state, True, config)
        assert (state.anomalous, state.fired) == before

    def test_step_is_deterministic(self):
        config = AlarmConfig()
        _, state = run_stream([True, False, True] * 10, config)
        again_a = hysteresis_step(state, True, config)
        again_b = hysteresis_step(state, True, config)
        assert again_a == again_b


class TestHysteresisReplayEquivalence:
    def test_exhaustive_small_config(self):
        # every length-12 stream against the brute-force reference
        config = AlarmConfig(window_len=5, trigger_fresh=3, trigger_sensitized=1)
        for bits in itertools.product([False, True], repeat=12):
            fired, _ = run_stream(bits, config)
            expected = reference_alarm_replay(
                bits, window_len=5, fresh=3, sensitized=1
            )
            assert fired == expected, bits

    def test_random_streams_default_config(self):
        config = AlarmConfig()
        rng = np.random.default_rng(777)
        fired_anywhere = False
        for case in range(200):
            length = int(rng.integers(1, 121))
            density = (0.3, 0.5, 0.7)[case % 3]
            flags = (rng.random(length) < density).tolist()
            fired, state = run_stream(flags, config)
            assert fired == reference_alarm_replay(flags)
            assert state.anomalous_count == sum(flags[-30:])
            fired_anywhere = fired_anywhere or any(fired)
        assert fired_anywhere  # the comparison must exercise real fires

    def test_window_longer_than_the_stream(self):
        config = AlarmConfig(window_len=10**8)
        flags = (np.random.default_rng(778).random(300) < 0.5).tolist()
        fired, state = run_stream(flags, config)
        assert fired == reference_alarm_replay(flags, window_len=10**8)
        assert state.anomalous_count == sum(flags)
        assert any(fired)


class TestEvaluate:
    def test_wiring(self):
        norm = ScoreNormalization(mu=1.0, sigma=2.0)
        config = AlarmConfig()
        state = HysteresisState()
        decision, state = evaluate(1.0, norm, config, state)
        assert decision.score == pytest.approx(0.0)
        assert decision.level == AlarmLevel.NONE
        assert decision.alarm_fired is False
        assert decision.anomalous_in_window == 0
        decision, state = evaluate(9.0, norm, config, state)
        assert decision.score == pytest.approx(4.0)
        assert decision.level == AlarmLevel.LOW
        assert decision.anomalous_in_window == 1
        decision, state = evaluate(50.0, norm, config, state)
        assert decision.level == AlarmLevel.HIGH
        assert decision.anomalous_in_window == 2

    def test_stream_matches_reference(self):
        norm = ScoreNormalization(mu=0.0, sigma=1.0)
        config = AlarmConfig()
        rng = np.random.default_rng(99)
        # scores hover near 0 with occasional bursts far above the low
        # threshold
        mses = np.where(rng.random(400) < 0.6, rng.normal(0.0, 1.0, 400),
                        rng.uniform(4.0, 12.0, 400))
        flags = [score(m, norm) > config.level_thresholds[0] for m in mses]
        expected_fired = reference_alarm_replay(flags)
        state = HysteresisState()
        for step, mse_value in enumerate(mses):
            decision, state = evaluate(float(mse_value), norm, config, state)
            assert decision.alarm_fired == expected_fired[step]
            window_count = sum(flags[max(0, step - 29):step + 1])
            assert decision.anomalous_in_window == window_count
            if decision.alarm_fired:
                assert decision.level >= AlarmLevel.LOW

    def test_negative_window_count_rejected(self):
        with pytest.raises(ConfigurationError, match="anomalous_in_window must be >= 0"):
            AlarmDecision(score=0.0, level=AlarmLevel.NONE, alarm_fired=False,
                          anomalous_in_window=-1)

    def test_decision_invariant_enforced(self):
        with pytest.raises(ConfigurationError):
            AlarmDecision(
                score=0.0,
                level=AlarmLevel.NONE,
                alarm_fired=True,
                anomalous_in_window=5,
            )
