"""The weighted-rate rule (``cmu``), served a segment of slots at a time.

``CmuPolicy`` is a strict priority over first-in-first-out latency queues,
so unlike the two-tier policies it needs no per-slot call: one compiled
pass (``kernel.cmu_serve``) serves all queues over a whole segment.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import kernel
from .model import Scenario, ScenarioError, Variant

_EMPTY = np.empty(0, np.int64)


class CmuPolicy:
    """Weighted-rate rule over latency UEs only: in every slot, serve the
    nonempty queue with the largest rho*p/q (ties toward the lower
    position), oldest packet first.

    The rule is a strict priority over FIFO queues, so it is served a
    segment of slots at a time, not slot by slot.  ``update_index``
    enqueues a block's arrival slots, ``select`` serves slots [a, b) and
    ``on_outcome`` pops the packets delivered there.  In each slot of a
    segment the queues are taken in priority order; the first that is
    nonempty after the slot's arrivals attempts, and succeeds when the
    slot's success uniform is below its p.  FIFO order means the k
    successes of a segment deliver the k oldest packets.
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
        # arrival slots of each queue's packets not yet delivered, ascending,
        # from index head[i] on; those at or after the current segment have
        # not arrived yet
        self.queues = [_EMPTY] * n
        self._head = [0] * n
        self._queue_at, self._len = np.zeros(n, np.intp), np.zeros(n, np.int64)
        self._attempts, self._end = np.zeros(n, np.int64), np.zeros(n, np.int64)
        # the kernel's arguments that live as long as the policy: priority
        # order, p, the four arrays above and scratch; passed by address
        self._buffers = (np.array(self.order, np.int64), np.array([u.p for u in ues]),
                         self._queue_at, self._len, self._attempts, self._end,
                         np.zeros(n, np.int64))
        self._addresses = [x.ctypes.data for x in self._buffers]

    def update_index(self, arrived: Sequence[np.ndarray]) -> None:
        """Enqueue a block's arrivals: ``arrived[i]`` holds position i's
        arrival slots, ascending."""
        for i, slots in enumerate(arrived):
            if len(slots):
                self.queues[i] = np.concatenate((self.queues[i][self._head[i]:], slots))
                self._head[i] = 0

    def select(self, a: int, b: int, u: np.ndarray) -> tuple[list[int], list[np.ndarray]]:
        """Serve slots [a, b), whose success uniforms are ``u``.  Returns
        each position's attempts and its success slots, ascending."""
        u = np.ascontiguousarray(u, np.float64)
        if u.shape != (b - a,):
            raise ValueError(f"slots [{a}, {b}) need {b - a} success uniforms, got {u.shape}")
        for i, (queue, head) in enumerate(zip(self.queues, self._head)):
            if queue.dtype != np.int64:
                raise TypeError(f"queue {i} holds {queue.dtype} arrival slots, not int64")
            self._queue_at[i] = queue.ctypes.data + head * queue.itemsize
            self._len[i] = len(queue) - head
        who, out = np.empty(b - a, np.int32), np.empty(b - a, np.int64)
        kernel.cmu_serve(a, b - a, u.ctypes.data, len(self.queues), *self._addresses,
                         who.ctypes.data, out.ctypes.data)
        bounds = [0, *self._end.tolist()]
        return self._attempts.tolist(), [out[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def on_outcome(self, successes: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Pop as many packets from each queue as it had successes; return
        their arrival slots, oldest first."""
        delivered = []
        for i, slots in enumerate(successes):
            head = self._head[i]
            self._head[i] = head + len(slots)
            delivered.append(self.queues[i][head:head + len(slots)])
        return delivered

    def pending_aoi_packets(self) -> dict[int, int]:
        return {}

