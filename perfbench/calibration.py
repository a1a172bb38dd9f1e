"""Host-speed calibration: a fixed unit of pure-Python work and its time.

On a shared VM the host's speed drifts, by up to 1.8x over minutes, and the
drift moves all pure-Python code alike. A run times this unit next to its own
work and scales its times by ``speed_scale``, to the speed at which one unit
takes CALIBRATION_REFERENCE_NS. On a 2-core Xeon VM, over 150 s of fanout_sim
passes, this cut the spread of 30-second totals from 12 % to 2 %.
"""

from __future__ import annotations

import statistics
from time import thread_time_ns

CALIBRATION_REFERENCE_NS = 2_000_000


class _Probe:
    __slots__ = ("a",)

    def __init__(self):
        self.a = 7


_PROBE = _Probe()
_DATA = [(i * 7919) % 256 for i in range(10000)]
_TABLE = {i: (i * 31) % 256 for i in range(256)}


def _step(probe: _Probe, x: int) -> int:
    return (probe.a + x) & 255


def calibration_unit() -> int:
    """Fixed pure-Python work: loop, dict lookup, call, attribute read. It
    touches no conspec code and allocates nothing (every int is a cached small
    int), so the engine's heap cannot leak into its time."""
    acc = 0
    for x in _DATA:
        acc = (acc + _TABLE[x]) & 255
        acc = _step(_PROBE, acc ^ x)
    return acc


def calibrate(units: int) -> list[int]:
    """CPU ns of each of ``units`` calibration units."""
    times = []
    for _ in range(units):
        t0 = thread_time_ns()
        calibration_unit()
        times.append(thread_time_ns() - t0)
    return times


def speed_scale(calibration: list[int]) -> float:
    """Factor that scales this run's times to the reference speed."""
    return CALIBRATION_REFERENCE_NS / statistics.fmean(calibration)
