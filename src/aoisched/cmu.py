"""The weighted-rate rule (``cmu``), served a segment of slots at a time.

``CmuPolicy`` is a strict priority over first-in-first-out latency queues,
so unlike the two-tier policies it needs no per-slot call: one compiled
pass (``kernel.cmu_serve``) serves all queues over a whole segment and
sums each queue's delivery statistics.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

from . import kernel
from .metrics import UeMetrics
from .model import Scenario, ScenarioError, Variant


class CmuPolicy:
    """Weighted-rate rule over latency UEs only: in every slot, serve the
    nonempty queue with the largest rho*p/q (ties toward the lower
    position), oldest packet first.  ``update_index`` enqueues a block's
    arrival slots, ``select`` serves slots [a, b) and ``on_outcome`` adds
    each queue's sums over them to its UE's metrics.
    """

    name = "cmu"

    def __init__(self, scenario: Scenario):
        lat = scenario.latency_ues
        if len(lat) != len(scenario.ues):
            raise ScenarioError("weighted-rate rule runs on latency-only scenarios")
        if scenario.variant is not Variant.LATENCY_WEIGHTED:
            raise ScenarioError("weighted-rate rule needs latency weights (rho)")
        ues = sorted(lat, key=lambda u: u.id)
        n = len(ues)
        self.order = sorted(range(n), key=lambda i: (-(ues[i].rho * ues[i].p / ues[i].q), i))
        # the arrival slots of each queue's undelivered packets, ascending:
        # queue i's are queue[head[i]:end[i]], and those after the segment
        # being served have not arrived yet
        self.queue = np.empty(0, np.int64)
        self.head, self.end = np.zeros(n, np.int64), np.zeros(n, np.int64)
        # each queue's last delivered arrival slot (-1: none since the run or
        # the warm-up began), and its sums over the last segment served
        self.g_prev = np.full(n, -1, np.int64)
        self.sums = np.zeros((n, 6), np.int64)
        # the kernel's arguments after the queue, passed by address
        self._buffers = (np.array(self.order, np.int64), np.array([u.p for u in ues]),
                         self.head, self.end, self.g_prev, self.sums, np.zeros(n, np.int64))
        self._addresses = [x.ctypes.data for x in self._buffers]
        self._queue_at = self.queue.ctypes.data

    def update_index(self, arrived: Sequence[np.ndarray]) -> None:
        """Enqueue a block's arrivals: ``arrived[i]`` holds position i's
        arrival slots, ascending int64."""
        parts = [x for h, e, slots in zip(self.head.tolist(), self.end.tolist(), arrived)
                 for x in (self.queue[h:e], slots)]
        queue = np.concatenate(parts)
        if queue.dtype != np.int64:
            raise TypeError(f"the queues would hold {queue.dtype} arrival slots, not int64")
        bounds = list(accumulate(map(len, parts), initial=0))
        self.head[:], self.end[:] = bounds[:-1:2], bounds[2::2]
        self.queue, self._queue_at = queue, queue.ctypes.data

    def select(self, a: int, b: int, u: np.ndarray) -> None:
        """Serve slots [a, b), whose success uniforms are ``u``, leaving
        each position's sums over them in its row of ``sums``."""
        u = np.ascontiguousarray(u, np.float64)
        if u.shape != (b - a,):
            raise ValueError(f"slots [{a}, {b}) need {b - a} success uniforms, got {u.shape}")
        kernel.cmu_serve(a, b - a, u.ctypes.data, len(self.order), self._queue_at,
                         *self._addresses)

    def on_outcome(self, metrics: Sequence[UeMetrics]) -> None:
        """Add each position's sums over the last segment to its metrics:
        the integers ``UeMetrics.on_delivery`` adds, so floats round alike."""
        for m, (attempts, n, latency, samples, spacing, spacing_sq) in zip(
                metrics, self.sums.tolist()):
            m.attempts += attempts
            if n:
                m.deliveries += n
                m.latency_sum_delivered += latency
                m.n_samples += samples
                m.sample_sum += spacing
                m.sample_sumsq += spacing_sq

    def backlog(self) -> list[tuple[int, int]]:
        """Each queue's count and sum of arrival slots of undelivered packets."""
        return [(e - h, int(self.queue[h:e].sum()))
                for h, e in zip(self.head.tolist(), self.end.tolist())]
