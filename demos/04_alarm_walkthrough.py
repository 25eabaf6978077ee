#!/usr/bin/env python3
"""Alarm hysteresis walkthrough: scores, levels and the counting window.

Feeds a hand-written MSE story through calibration, scoring, level
classification and the 30-sample hysteresis window, printing the alarm
machinery's view of every step: a healthy phase, a fault burst that trips
the fresh threshold (17 of 30), a brief recovery, and a relapse that
re-fires on the sensitized threshold (13 of 30).
"""

import numpy as np

from vibanom.scoring import AlarmConfig, HysteresisState, calibrate, evaluate

# Calibration: the MSE distribution of known-healthy frames defines "normal".
rng = np.random.default_rng(0)
healthy_mses = 1.0 + 0.05 * rng.standard_normal(100)
norm = calibrate(healthy_mses)
print("calibration: mu %.4f sigma %.4f" % (norm.mu, norm.sigma))
print()

config = AlarmConfig()
print("thresholds: low/medium/high at z > %s, window %d, fire at >%d fresh / >%d sensitized"
      % (config.level_thresholds, config.window_len,
         config.trigger_fresh, config.trigger_sensitized))
print()

# The story: 10 healthy frames, 20 faulty, 17 healthy, then 8 faulty again.
# The 17-frame recovery is chosen so the first relapse frame sees exactly
# 13 anomalous samples in its window: enough for the sensitized trigger,
# far short of the fresh one.
story = (
    [("healthy", 1.0 + 0.05 * v) for v in rng.standard_normal(10)]
    + [("fault", 1.6 + 0.05 * v) for v in rng.standard_normal(20)]
    + [("healthy", 1.0 + 0.05 * v) for v in rng.standard_normal(17)]
    + [("relapse", 1.6 + 0.05 * v) for v in rng.standard_normal(8)]
)

state = HysteresisState()
previous_fired = False
print("  t  phase    mse    score  level   in-window  alarm")
for t, (phase, mse) in enumerate(story):
    decision, state = evaluate(mse, norm, config, state)
    marker = ""
    if decision.alarm_fired and not previous_fired:
        marker = "  <- fires here"
    previous_fired = decision.alarm_fired
    print("%3d  %-7s %.3f  %+6.2f  %-6s  %9d  %s%s"
          % (t, phase, mse, decision.score, decision.level.name.lower(),
             decision.anomalous_in_window, "FIRED" if decision.alarm_fired else "-",
             marker))

print()
print("the first alarm needs 17 anomalous samples in the window; after a")
print("recent alarm the window is sensitized and 13 are enough, so the")
print("relapse is caught sooner. isolated spikes never fire.")
