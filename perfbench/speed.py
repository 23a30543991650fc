"""Host-speed calibration for the benchmark's timings.

On a host whose cores are shared with other tenants, the speed of the same
Python code drifts by tens of percent within seconds.  So every timing is
taken with a fixed calibration snippet running before, after and, every
``SAMPLE_EVERY_S`` on a SIGALRM timer, during the timed call; the time the
snippets take inside the call is subtracted, and the rest is scaled to the
speed at which one snippet takes ``REFERENCE_SNIPPET_S`` (about an
uncontended 2-vCPU Xeon).  Result files keep the raw host seconds next to
the scaled ones.  This module imports nothing from aoisched, so set-up
probes can calibrate before the import they time.
"""

from __future__ import annotations

import resource
import signal
import time

SNIPPET_STEPS = 4000
REFERENCE_SNIPPET_S = 0.0005
SAMPLE_EVERY_S = 0.05
END_SAMPLES = 5


class _Cell:
    __slots__ = ("total", "last")

    def __init__(self) -> None:
        self.total = 0
        self.last = 0

    def add(self, x: int) -> int:
        self.total += x
        return self.total


def snippet_s() -> float:
    """CPU seconds of a fixed loop made of what the slot loop is made of
    (dict lookups, slot attributes, method calls, list appends).  CPU time,
    not wall time, so that waiting for a core does not count as slowness."""
    t0 = time.thread_time()
    cells = {i: _Cell() for i in range(64)}
    seen = []
    for i in range(SNIPPET_STEPS):
        cell = cells[i & 63]
        if cell.add(i) > i:
            seen.append(cell.last)
        cell.last = i - cell.total
    return time.thread_time() - t0


def cpu_s() -> float:
    """User+sys seconds of this process and its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def timed(fn, sample_during: bool = True):
    """Run ``fn()`` under calibration; must be called from the main thread.

    Returns (result, wall s, cpu s, scale): host seconds of the call with
    the in-call snippets taken out, and the factor that turns them into
    seconds at the reference speed (the time average of the speed the
    snippets saw).  ``sample_during=False`` calibrates before and after
    only, for calls whose inner timings must not include snippets.
    """
    samples = [snippet_s() for _ in range(END_SAMPLES)]
    stolen = 0.0

    def on_alarm(signum, frame):
        nonlocal stolen
        t0 = time.perf_counter()
        samples.append(snippet_s())
        stolen += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, on_alarm)
    if sample_during:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        c0, t0 = cpu_s(), time.perf_counter()
        out = fn()
        wall, cpu = time.perf_counter() - t0, cpu_s() - c0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    samples += [snippet_s() for _ in range(END_SAMPLES)]
    scale = sum(REFERENCE_SNIPPET_S / s for s in samples) / len(samples)
    return out, wall - stolen, cpu - stolen, scale
