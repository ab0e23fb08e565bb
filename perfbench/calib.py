"""Host-speed calibration: scale every timed span to one reference speed.

On a shared host the same work runs at different speeds from one few
seconds to the next (see the README: the same day replay took 0.63 s to
1.29 s within one process, in two states that last 5-30 s each).  A
:class:`Ticker` runs a short, fixed loop of the kind of Python work the
program does (small objects, tuple keys, dict probes, calls, list
appends) every 0.1 s from a ``SIGALRM`` handler.  Every measured time
has the ticks that ran inside it taken out, and is scaled by
``REFERENCE_S`` over the loop's time at that moment: a reported time is
the time the work would take on a host where the loop takes exactly
``REFERENCE_S``.  The loop is the benchmark's own code, so a change to
the program moves a scaled time exactly as much as the raw one.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import List, Tuple

import numpy as np

#: Time of one calibration loop at the reference speed, seconds.
REFERENCE_S = 0.0025
#: Iterations of one calibration loop.
ITERATIONS = 6_000
#: Seconds between two calibration loops.
INTERVAL_S = 0.1


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _probe(item: _Item, table: dict):
    key = (item.key, item.value & 63)
    found = table.get(key)
    if found is None:
        table[key] = item.key
    return found


def calibration_loop() -> float:
    """Time one calibration loop, seconds."""
    started = perf_counter()
    table: dict = {}
    out = []
    for i in range(ITERATIONS):
        out.append(_probe(_Item(i & 255, i), table))
    return perf_counter() - started


class Ticker:
    """Runs :func:`calibration_loop` every ``INTERVAL_S`` from a ``SIGALRM`` handler.

    Signal handlers run between bytecodes of the main thread, so the
    run stays on one thread.  Use as a context manager around
    everything timed; read the ticks afterwards.
    """

    def __init__(self) -> None:
        #: (start, end, loop time) of every tick
        self.ticks: List[Tuple[float, float, float]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        started = perf_counter()
        loop = calibration_loop()
        self.ticks.append((started, perf_counter(), loop))

    def __enter__(self) -> "Ticker":
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def loop_times(self) -> np.ndarray:
        """Every measured loop time, seconds."""
        return np.asarray([tick[2] for tick in self.ticks], dtype=np.float64)

    def scaled(self, starts, ends) -> np.ndarray:
        """Times of the intervals ``[starts, ends]`` at the reference speed.

        The ticks inside an interval are taken out of it; what is left
        is scaled by the loop time interpolated at the interval's middle.
        """
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        ticks = np.asarray(self.ticks, dtype=np.float64).reshape(-1, 3)
        spent = np.concatenate(([0.0], np.cumsum(ticks[:, 1] - ticks[:, 0])))
        # Ticks never straddle a clock read of the main thread, so the
        # tick time inside [a, b] is what ended by b minus what ended by a.
        inside = (
            spent[np.searchsorted(ticks[:, 1], ends, side="right")]
            - spent[np.searchsorted(ticks[:, 1], starts, side="right")]
        )
        middle = (ticks[:, 0] + ticks[:, 1]) / 2.0
        loop = np.interp((starts + ends) / 2.0, middle, ticks[:, 2])
        return (ends - starts - inside) * (REFERENCE_S / loop)

    def scaled_span(self, start: float, end: float) -> float:
        """A long span at the reference speed, scaled piece by piece between ticks."""
        ticks = np.asarray(self.ticks, dtype=np.float64).reshape(-1, 3)
        within = ticks[(ticks[:, 0] >= start) & (ticks[:, 1] <= end)]
        pieces_from = np.concatenate(([start], within[:, 1]))
        pieces_to = np.concatenate((within[:, 0], [end]))
        return float(self.scaled(pieces_from, pieces_to).sum())
