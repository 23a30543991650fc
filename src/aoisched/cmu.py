"""The weighted-rate rule (``cmu``), served a segment of slots at a time.

``CmuPolicy`` is a strict priority over first-in-first-out latency queues,
so unlike the two-tier policies it needs no per-slot call: a Lindley
recursion in numpy serves a whole segment of slots queue by queue.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import Scenario, ScenarioError, Variant

_EMPTY = np.empty(0, np.int64)


def _serve(arrivals: np.ndarray, waiting: int, c: np.ndarray,
           free: np.ndarray) -> tuple[int, np.ndarray]:
    """Serve one FIFO queue in the ``free`` slots of a segment, given the
    offsets of its arrivals there, the packets ``waiting`` at its start and
    ``c``, whether each slot's success uniform is below its p.  Returns its
    attempts and success offsets, and takes the slots it was nonempty in
    out of ``free``."""
    arrived = np.zeros(len(free), bool)
    arrived[arrivals] = True
    c &= free
    length = np.subtract(arrived, c, dtype=np.int64)
    np.cumsum(length, out=length)
    length += waiting
    floor = np.minimum.accumulate(length)
    np.minimum(floor, 0, out=floor)
    length -= floor
    # nonempty after the slot's arrivals: L[t-1] + A[t] > 0.  As L >= 0, a
    # cast to bool reads L > 0; numpy's first comparison of an int64 array
    # with a scalar takes 128 KB of scratch memory, which would raise the
    # process's peak RSS
    busy = arrived
    busy[0] |= waiting > 0
    busy[1:] |= length[:-1].astype(bool)
    attempts = int(np.count_nonzero(busy & free))
    c &= busy
    free &= ~busy
    return attempts, np.flatnonzero(c)


class CmuPolicy:
    """Weighted-rate rule over latency UEs only: in every slot, serve the
    nonempty queue with the largest rho*p/q (ties toward the lower
    position), oldest packet first.

    The rule is a strict priority over FIFO queues, so it is served a
    segment of slots at a time, not slot by slot.  ``update_index``
    enqueues a block's arrival slots, ``select`` serves slots [a, b) and
    ``on_outcome`` pops the packets delivered there.  Queues are taken in
    priority order.  Queue i may use the slots ``free`` of every higher
    queue; it attempts in such a slot when it is nonempty after the slot's
    arrivals, and succeeds when the slot's success uniform is also below
    its p.  Its length then follows the Lindley recursion
    L[t] = max(0, L[t-1] + A[t] - c[t]), with A its arrivals and c the free
    slots whose uniform is below p, which cumulative sums solve exactly:
    with X = L[a-1] + cumsum(A - c), L = X - min(0, cummin X).  FIFO order
    means the k successes of a segment deliver the k oldest packets.
    """

    name = "cmu"

    def __init__(self, scenario: Scenario):
        lat = scenario.latency_ues
        if len(lat) != len(scenario.ues):
            raise ScenarioError("weighted-rate rule runs on latency-only scenarios")
        if scenario.variant is not Variant.LATENCY_WEIGHTED:
            raise ScenarioError("weighted-rate rule needs latency weights (rho)")
        ues = sorted(lat, key=lambda u: u.id)
        self.order = sorted(range(len(ues)), key=lambda i: (-(ues[i].rho * ues[i].p / ues[i].q), i))
        self._p = [u.p for u in ues]
        # arrival slots of each queue's packets not yet delivered, ascending,
        # from index head[i] on; those at or after the current segment have
        # not arrived yet
        self.queues = [_EMPTY] * len(ues)
        self._head = [0] * len(ues)

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
        attempts = [0] * len(self.queues)
        successes = [_EMPTY] * len(self.queues)
        free = np.ones(b - a, bool)
        for i in self.order:
            queue = self.queues[i][self._head[i]:]
            waiting, end = queue.searchsorted((a, b))
            if end:  # else empty all segment: it takes no slot
                attempts[i], successes[i] = _serve(queue[waiting:end] - a, int(waiting),
                                                   u < self._p[i], free)
                successes[i] += a
        return attempts, successes

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

