"""The kernels that list a block's arrivals, called directly.

``kernel.cmu_enqueue`` compares a block's uniforms with ``q`` two at a time
and appends the slots below it to a queue; the engine tests reach it only
through whole runs.  Here it must list exactly ``np.flatnonzero(u < q)``
(from slot 1 on when the block starts at slot 0): at uniforms equal to
``q``, at ``q`` = 0 and 1, on either side of 1/32 (where it switches from
appending every pair to skipping runs of eight without an arrival), for
lengths that are not a multiple of eight, and through the grow-and-retry
protocol, which ``kernel.QueueStore`` runs with ``kernel.grown``'s rule
for ``cmu``'s queues and ``rd``'s arrival lists alike.  ``kernel.rd_list``
merges the streams' lists into one, slot by slot, in stream order within a
slot.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoisched import kernel

SKIP_BELOW = 1.0 / 32
QS = [0.0, 1.0, np.nextafter(SKIP_BELOW, 0.0), SKIP_BELOW, np.nextafter(SKIP_BELOW, 1.0), 0.01, 0.5]


def ptrs(*arrays):
    return [a.ctypes.data for a in arrays]


def enqueue(u, q, start, queue, head=0, end=0):
    """One ``cmu_enqueue`` call on a queue holding ``queue[head:end]``:
    its return value, and the queue's end and contents after it."""
    u = np.ascontiguousarray(u, np.float64)
    state = [np.array([x], dtype) for x, dtype in (
        (queue.ctypes.data, np.uintp), (len(queue), np.int64), (head, np.int64), (end, np.int64))]
    need = kernel.cmu_enqueue(u.ctypes.data, len(u), q, start, 0, *ptrs(*state))
    head, end = int(state[2][0]), int(state[3][0])
    return need, queue[head:end]


def expected(u, q, start):
    slots = np.flatnonzero(np.asarray(u) < q) + start
    return slots[slots > 0]


@pytest.mark.parametrize("q", QS, ids=lambda q: repr(float(q)))
@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 17, 8191])
@pytest.mark.parametrize("start", [0, 8192])
def test_enqueue_lists_the_uniforms_below_q(q, n, start):
    rng = np.random.default_rng(n)
    u = rng.random(n)
    # runs of uniforms at q, just below and just above it, at every offset
    u[::3] = q
    u[1::5] = np.nextafter(q, 0.0)
    u[2::7] = min(np.nextafter(q, 1.0), np.nextafter(1.0, 0.0))
    queue = np.empty(n, np.int64)
    need, listed = enqueue(u, q, start, queue)
    assert need == 0
    assert listed.tolist() == expected(u, q, start).tolist()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from(QS) | st.floats(0.0, 1.0), data=st.data())
def test_enqueue_matches_numpy_on_any_block(q, data):
    below = float(np.nextafter(q, 0.0))
    u = data.draw(st.lists(st.sampled_from([q, below]) | st.floats(0.0, 1.0, exclude_max=True),
                           max_size=40))
    start = data.draw(st.sampled_from([0, 1, 8192]))
    need, listed = enqueue(u, q, start, np.empty(len(u), np.int64))
    assert need == 0
    assert listed.tolist() == expected(u, q, start).tolist()


@pytest.mark.parametrize("q", [0.01, 0.5, 1.0])
def test_enqueue_returns_the_length_it_needs_then_fits(q):
    # the queue holds slots 3 and 4 of six elements (head 1), so the block's
    # arrivals fit only when there are at most four of them
    u = np.random.default_rng(3).random(64)
    u[[10, 20, 30, 40, 50]] = 0.0
    queue = np.array([-1, 3, 4, -1, -1, -1], np.int64)
    arrivals = expected(u, q, 100).tolist()
    assert len(arrivals) > 4
    need, kept = enqueue(u, q, 100, queue, head=1, end=3)
    assert need == 2 + len(arrivals)
    assert kept.tolist() == [3, 4]  # end left as it was
    grown = np.empty(need, np.int64)
    grown[:2] = [3, 4]
    need, listed = enqueue(u, q, 100, grown, head=0, end=2)
    assert need == 0
    assert listed.tolist() == [3, 4] + arrivals


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(start=st.sampled_from([0, 8192]), n=st.integers(2, 64), data=st.data())
def test_rd_list_orders_arrivals_by_slot_then_stream(start, n, data):
    streams = data.draw(st.lists(st.sets(st.integers(max(start, 1), start + n - 1)), max_size=6))
    ns = len(streams)
    # stream k belongs to position members[k]; positions are not in stream order
    members = np.array(data.draw(st.permutations(range(ns))), np.int64)
    arrived = [np.empty(0, np.int64)] * ns
    end = np.zeros(ns, np.int64)
    for k, slots in enumerate(streams):
        arrived[members[k]] = np.array(sorted(slots), np.int64)
        end[members[k]] = len(slots)
    at = np.array([a.ctypes.data for a in arrived], np.uintp)
    total = int(end.sum())
    count, arrivals = np.empty(n, np.int64), np.full(total + 2, -1, np.int64)
    kernel.rd_list(start, n, ns, *ptrs(members, at, end, arrivals, count))
    want = sorted((t, k) for k, slots in enumerate(streams) for t in slots)
    assert arrivals[:total].tolist() == [t * ns + k for t, k in want]
    assert arrivals[total] == np.iinfo(np.int64).max and arrivals[total + 1] == -1


class Draws:
    """Stands in for an arrival generator whose next draws are ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        out[:] = self.u
        return out


def test_store_grows_a_queue_whose_head_sits_at_the_midpoint():
    # head 4 of 8: 2 * head == cap, so cmu_enqueue does not compact; the
    # four live packets and the block's one arrival need 5 <= 8 elements
    # but do not fit after the head, so the queue moves to storage twice as
    # large, packets first, and keeps every packet
    store = kernel.QueueStore(1)
    store.queues[0] = queue = np.array([-1, -1, -1, -1, 5, 6, 7, 8], np.int64)
    store.at[0], store.cap[0], store.head[0], store.end[0] = queue.ctypes.data, 8, 4, 8
    store.enqueue(100, np.empty(4), [(0, Draws([1.0, 1.0, 0.0, 1.0]), 0.5)])
    assert store.cap.tolist() == [16] and len(store.queues[0]) == 16
    assert store.at[0] == store.queues[0].ctypes.data
    assert (store.head[0], store.end[0]) == (0, 5)
    assert store.queues[0][:5].tolist() == [5, 6, 7, 8, 102]


@pytest.mark.parametrize("cap, need, size", [(0, 1, 1), (0, 5, 8), (8, 5, 16), (8, 9, 16),
                                             (8, 17, 32), (16, 16, 32)])
def test_growth_is_the_least_power_of_two_at_least_need_and_twice_the_storage(cap, need, size):
    buffer = np.arange(cap, dtype=np.int64)
    grown = kernel.grown(buffer, need, cap // 2, cap)
    assert len(grown) == size
    assert grown[:cap - cap // 2].tolist() == buffer[cap // 2:].tolist()
