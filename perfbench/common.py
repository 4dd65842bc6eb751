"""Helpers shared by the benchmark's stages."""

from __future__ import annotations

import gc
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np


class Tally:
    """Operations attempted and failed; a failed check is a failed op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of pooled samples."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, min(len(ordered), -(-len(ordered) * q // 100)))
    return ordered[int(rank) - 1]


#: Seconds the calibration kernel takes at the reference host speed.
#: Reported times are scaled to it; see :class:`Speed`.
REF_CAL_S = 0.010
#: A reading this fresh also serves as the next operation's "before".
REUSE_S = 0.1
_CAL_KEYS = np.random.default_rng(0).integers(0, 1 << 30, 200_000)


def calibrate(reps: int = 2) -> float:
    """Fastest of ``reps`` runs of a fixed kernel, in seconds.

    The kernel mixes interpreted dict work with a numpy sort, like the
    pipeline.  It calls no code of the program under test.
    """
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(60_000):
            counts[i % 977] = counts.get(i % 977, 0) + i
        np.sort(_CAL_KEYS)
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """Scales measured times to the reference host speed.

    On small virtual machines each vCPU can change speed by up to a
    half, in phases of several seconds, and two vCPUs drift
    independently of each other (``/proc/stat`` shows no steal).  So the
    benchmark process is pinned to one CPU (``home``) and the daemons to
    the others (``away``), and every timed operation is bracketed by
    calibration readings on the CPUs it runs on.  The operation's time
    times ``REF_CAL_S / mean(readings)`` is what it would take at the
    reference speed.
    """

    def __init__(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        self.home = {cpus[-1]}
        self.away = set(cpus[:-1]) or self.home
        os.sched_setaffinity(0, self.home)
        #: (with_away, taken at, readings) of the latest calibration.
        self._last: tuple[bool, float, list[float]] | None = None

    def _readings(self, with_away: bool) -> list[float]:
        readings = [calibrate()]
        if with_away and self.away != self.home:
            for cpu in sorted(self.away):
                os.sched_setaffinity(0, {cpu})
                readings.append(calibrate())
            os.sched_setaffinity(0, self.home)
        return readings

    def timed(self, fn, *, with_away: bool = False):
        """``(seconds, factor, result)`` of one call of ``fn``.

        ``with_away`` also calibrates the daemons' CPUs, for operations
        whose time is spent there too.  Each operation starts from a
        collected heap, so a collection the previous one left pending
        is not charged to it.
        """
        gc.collect()
        last = self._last
        if (last is not None and last[0] == with_away
                and time.perf_counter() - last[1] < REUSE_S):
            before = last[2]
        else:
            before = self._readings(with_away)
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        after = self._readings(with_away)
        self._last = (with_away, time.perf_counter(), after)
        return dt, REF_CAL_S / statistics.mean(before + after), result


class Rounds:
    """Raw samples tagged by round, each with its speed factor."""

    def __init__(self, speed: Speed) -> None:
        self.speed = speed
        self.round = 0
        self._rows: dict[str, list[tuple[int, float, float]]] = defaultdict(list)

    def clear(self) -> None:
        self._rows.clear()

    def add(self, key: str, value: float, factor: float) -> None:
        self._rows[key].append((self.round, value, factor))

    def timed(self, key: str, fn, *, with_away: bool = False):
        """Time ``fn()`` under ``key``; returns its result."""
        dt, factor, result = self.speed.timed(fn, with_away=with_away)
        self.add(key, dt, factor)
        return result

    def keys(self) -> list[str]:
        return list(self._rows)

    def raw(self, key: str) -> list[float]:
        return [v for _, v, _ in self._rows[key]]

    def factors(self, key: str) -> list[float]:
        return [f for _, _, f in self._rows[key]]

    def norm(self, key: str) -> list[float]:
        """Samples scaled to the reference host speed."""
        return [v * f for _, v, f in self._rows[key]]

    def batch(self, key: str) -> float:
        """The batch timing of ``key``: the median of its scaled samples.
        What scaling leaves varies from round to round, so a median over
        more rounds steadies it, while a minimum follows the luckiest
        round."""
        return median(self.norm(key))

    def round_factors(self) -> dict[int, list[float]]:
        out: dict[int, list[float]] = defaultdict(list)
        for rows in self._rows.values():
            for r, _, f in rows:
                out[r].append(f)
        return dict(out)

    def round_sum(self, keys) -> dict[int, float]:
        """Scaled total of ``keys`` per round."""
        out: dict[int, float] = defaultdict(float)
        for key in keys:
            for r, v, f in self._rows[key]:
                out[r] += v * f
        return dict(out)
