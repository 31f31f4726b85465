"""A probe of the host's current speed, used to rescale measured times.

The host is shared: its speed drifts by up to 2x over seconds to minutes,
far more than any useful bound.  The probe is a fixed ~100 us piece of
interpreter work.  A time measured while probes ran is rescaled to a host
on which the probe takes ``PROBE_REF_S``, by ``scale``: the harmonic mean
of the probe times is the host's average speed over the samples.  This
module imports nothing beyond what the interpreter loads at start-up, so the
import it helps to time starts from a bare interpreter.
"""

import signal
import time

PROBE_REF_S = 1e-4
PROBE_INTERVAL_S = 0.005


def probe() -> float:
    """Time one fixed piece of interpreter work."""
    start = time.perf_counter()
    table = {}
    for i in range(400):
        table[i & 31] = table.get(i & 31, 0) + (i << 7)
    return time.perf_counter() - start


def scale(samples: list[float]) -> float:
    """The factor that rescales a time measured during ``samples``."""
    return PROBE_REF_S * sum(1 / t for t in samples) / len(samples)


class SpeedProbe:
    """Runs ``probe`` from a timer signal every PROBE_INTERVAL_S of wall time
    while active."""

    def __init__(self):
        self.samples: list[float] = []

    def __enter__(self):
        signal.signal(signal.SIGALRM, lambda *_: self.samples.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
