"""Host-speed probe: a fixed piece of work timed next to every command.

On a shared host the speed of the same code swings by up to 2x between
stretches of a fraction of a second to a minute (other tenants' load on
the same cores).
Every phase of the program slows together, so the swing is shared by all
metrics of a run and does not average out within a 40-second run. The
benchmark times this probe right before and right after each command and
reports each command's time scaled towards the host speed at which the
probe takes ``REFERENCE_S`` seconds (about its time on the reference host):

    normalized = measured * (REFERENCE_S / mean(probe before, probe after)) ** EXPONENT

Phases follow the host's speed to different degrees. In paired samples on
the reference host the log-log slope of command time on probe time was
about 0.9 for ``prepare``, 1.0 for ``score``, 0.8 for ``predict`` and
0.45-0.65 for ``train`` (numpy-heavy, so less hit by a slow host than
interpreted code). ``EXPONENT`` sits between them: at 1.0 ``train`` would
be over-corrected by a third to a half of the host's swing; at 0.75 no
phase is off by more than about a third of it.

The probe is the benchmark's own code and never calls the program, so a
change to the program leaves it as it is; what it mixes (dict and string
work, sorting, JSON, small numpy operations) is the kind of work the
program spends its time on, so it slows when the program does.
"""

import gc
import json
import statistics
import time

import numpy as np

REFERENCE_S = 0.008
EXPONENT = 0.75
BLOCKS = 3
REPEATS = 3

_WORDS = [f"w{(i * 7919) % 1009}x{i % 13}" for i in range(1500)]
_MATRIX = np.linspace(-1.0, 1.0, 16 * 16).reshape(16, 16) / 8.0


def _work() -> float:
    counts = {}
    for word in _WORDS:
        key = word[:4]
        counts[key] = counts.get(key, 0) + len(word)
    ordered = sorted(_WORDS, key=lambda w: (w[-2:], w))
    text = json.dumps({"counts": counts, "ordered": ordered[:200]})
    x = np.ones((4, 16))
    for _ in range(60):
        x = np.tanh(x @ _MATRIX) + 0.5
    return len(text) + float(x.sum())


def seconds() -> float:
    """Median wall time of ``BLOCKS`` blocks of the same fixed work, after
    one untimed pass: a stall that hits one block (seen after a heavy
    command, up to 4x the probe's usual time) does not move the median.
    The cyclic garbage collector is paused meanwhile, so the probe never
    pays for a collection of the program's heap and its time does not
    depend on what the program holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        times = []
        for _ in range(BLOCKS):
            started = time.perf_counter()
            for _ in range(REPEATS):
                _work()
            times.append(time.perf_counter() - started)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()
