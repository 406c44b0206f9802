"""A fixed reference computation, timed alongside the jobs.

The machine the benchmark runs on changes speed while it runs: on a shared
2-vCPU VM the same pure-Python loop moves between two speeds about 1.4x
apart, in spells of a few seconds to a few minutes, and CPU time moves with
wall time. A run of jobs therefore lands in a fast or a slow spell, and the
median of ten runs jumps with the share of slow ones.

To take the machine's speed out of the figures, a timed run samples the
machine's speed while its jobs run: a ``Sampler`` interrupts the run every
``SAMPLE_INTERVAL_S`` (SIGALRM) and times this short probe, and each job's
wall time, minus the time spent in the sampler, is scaled by
``(REFERENCE_S / p) ** exponent``, where ``p`` is the mean probe time
sampled during the job or within ``WINDOW_S`` of it, its highest and lowest
tenth left out, and ``exponent`` is how steeply the workload's jobs follow
the probe (``workloads.SPEED_EXPONENT``). Times are thus reported in
reference seconds: seconds on a machine that runs the probe in
``REFERENCE_S``. Probes taken only between jobs could not follow the
machine, whose speed also swings within a second. The probe uses numpy and
the standard library only, never trustgate, so no change to the program can
move it; what the program does faster or slower still shows in full.

The probe mixes the kinds of work the workloads do: scalar Python around
small numpy vectors (the ``verify`` and ``landscape`` path), row-wise numpy
kernels over a table (the trainer path), plain float loops, function calls,
and building, encoding and sorting small records. Each kind alone follows
the machine's drift more or less steeply than the jobs do; their sum follows
it most closely (measured against series of ``verify``, ``landscape`` and
``train-large`` jobs, see README.md).
"""

from __future__ import annotations

import json
import math
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Probe time in the fast spells of the 2-vCPU VM described in README.md.
REFERENCE_S = 0.0035
SAMPLE_INTERVAL_S = 0.1
WINDOW_S = 0.5

_VECTOR = np.linspace(0.01, 1.0, 32)
_TABLE = np.random.default_rng(0).random((96, 1024))


@dataclass
class _Record:
    name: str
    value: float
    passed: bool


def _vector_part() -> None:
    total = 0.0
    for step in range(1, 220):
        dist = _VECTOR ** (1.0 + step * 1e-3)
        dist = dist / dist.sum()
        total += float(-(dist * np.log(dist)).sum()) + math.log1p(step) / step


def _table_part() -> None:
    shifted = _TABLE - _TABLE.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)


def _float_part() -> None:
    total = 0.0
    for step in range(1, 2500):
        x = step * 1e-3
        total += math.log(x) * x if x < 0.5 else -x


def _call_part() -> None:
    def update(value: float, rate: float = 1.0) -> float:
        return value * rate + 1.0

    value = 0.0
    for _ in range(4000):
        value = update(value * 0.5, rate=0.9)


def _record_part() -> None:
    rows = []
    for index in range(400):
        record = _Record(f"r{index % 50}", index * 0.5, index % 3 == 0)
        rows.append({"name": record.name, "value": record.value, "passed": record.passed})
    json.dumps(rows[:130])
    sorted(rows[:200], key=lambda row: (row["name"], row["value"]))


def probe() -> float:
    """Wall time of one fixed probe, in seconds."""
    start = time.perf_counter()
    _vector_part()
    _table_part()
    _float_part()
    _call_part()
    _record_part()
    return time.perf_counter() - start


class Sampler:
    """Times the probe every SAMPLE_INTERVAL_S of wall time while started."""

    def __init__(self, exponent: float) -> None:
        self.exponent = exponent
        self.samples: list[tuple[float, float]] = []  # (when, probe time)
        self.spent = 0.0  # wall time spent inside the sampler

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        taken = probe()
        self.samples.append((start, taken))
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """(REFERENCE_S / trimmed mean probe time within WINDOW_S of [start, end]) ** exponent.

        A job's time adds up the machine's speed over the whole job, so the
        mean follows it; the trim drops probes that a page fault or a
        garbage collection hit. Falls back to every sample of the run.
        """
        near = [taken for when, taken in self.samples if start - WINDOW_S <= when <= end + WINDOW_S]
        near = sorted(near or [taken for _, taken in self.samples])
        cut = len(near) // 10
        return (REFERENCE_S / statistics.fmean(near[cut : len(near) - cut])) ** self.exponent
