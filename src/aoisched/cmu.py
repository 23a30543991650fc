"""The weighted-rate rule (``cmu``), served a block of slots at a time.

``CmuPolicy`` is a strict priority over first-in-first-out latency queues,
so unlike the two-tier policies it needs no per-slot call.  In each block,
one compiled call per queue (``kernel.QueueStore.enqueue``) appends its
arrival slots, and one compiled pass per segment (``kernel.cmu_serve``)
serves all queues and sums each queue's arrivals and delivery statistics.
A queue's storage grows by doubling and is compacted in place whenever its
head has passed the midpoint, so enqueueing a block costs its arrivals,
not the backlog.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import kernel
from .metrics import UeMetrics, add_sums
from .model import Scenario, ScenarioError, Variant


class CmuPolicy:
    """Weighted-rate rule over latency UEs only: in every slot, serve the
    nonempty queue with the largest rho*p/q (ties toward the lower
    position), oldest packet first.  ``update_index`` draws and enqueues a
    block's arrivals, ``select`` serves slots [a, b) and ``on_outcome`` adds
    each queue's sums over them, its arrivals included, to its UE's metrics.
    """

    name = "cmu"
    needs_draw = False

    def __init__(self, scenario: Scenario):
        lat = scenario.latency_ues
        if len(lat) != len(scenario.ues):
            raise ScenarioError("weighted-rate rule runs on latency-only scenarios")
        if scenario.variant is not Variant.LATENCY_WEIGHTED:
            raise ScenarioError("weighted-rate rule needs latency weights (rho)")
        ues = sorted(lat, key=lambda u: u.id)
        n = len(ues)
        self.q = [u.q for u in ues]
        self.order = sorted(range(n), key=lambda i: (-(ues[i].rho * ues[i].p / ues[i].q), i))
        # the arrival slots of each queue's undelivered packets, of which
        # those after the segment being served have not arrived yet
        self.store = kernel.QueueStore(n)
        # each queue's last delivered arrival slot (-1: none since the run or
        # the warm-up began), and its sums over the last segment served
        self.g_prev = np.full(n, -1, np.int64)
        self.sums = np.zeros((n, kernel.NSUMS), np.int64)
        # the kernel's arguments after the block's, passed by address
        store = self.store
        self._buffers = (np.array(self.order, np.int64), np.array([u.p for u in ues]),
                         store.head, store.end, self.g_prev, self.sums, np.zeros(n, np.int64))
        self._serve_args = [x.ctypes.data for x in (store.at, *self._buffers)]

    def update_index(self, start: int, u: np.ndarray, gens: Sequence[np.random.Generator]) -> None:
        """Enqueue a block's arrivals, drawing each stream's in turn into
        ``u``: position i has an arrival in slot start + k, for k < len(u),
        iff draw k of ``gens[i]`` is below its q (slot 0 has none)."""
        self.store.enqueue(start, u, zip(range(len(self.q)), gens, self.q))

    def select(self, a: int, b: int, u: np.ndarray) -> None:
        """Serve slots [a, b), whose success uniforms are ``u``, leaving
        each position's sums over them in its row of ``sums``."""
        u = np.ascontiguousarray(u, np.float64)
        if u.shape != (b - a,):
            raise ValueError(f"slots [{a}, {b}) need {b - a} success uniforms, got {u.shape}")
        kernel.cmu_serve(a, b - a, u.ctypes.data, len(self.order), *self._serve_args)

    def on_outcome(self, metrics: Sequence[UeMetrics]) -> None:
        """Add each position's sums over the last segment to its metrics."""
        add_sums(metrics, self.sums.tolist())

    def backlog(self) -> list[tuple[int, int]]:
        """Each queue's count and sum of arrival slots of undelivered packets."""
        store = self.store
        return [(e - h, int(queue[h:e].sum()))
                for queue, h, e in zip(store.queues, store.head.tolist(), store.end.tolist())]
