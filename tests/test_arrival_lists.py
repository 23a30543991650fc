"""The kernel that lists a block's arrivals, called on one block, and the
queue protocol that ``rd`` and ``cmu`` share.

``kernel.cmu_enqueue`` compares a block's uniforms with ``q`` two at a time
and appends the slots below it to a queue; the engine tests reach it only
through whole runs.  Here it is called directly on a
``kernel.QueueStore`` whose buffer holds the uniforms, and must list
exactly ``np.flatnonzero(u < q)`` (from slot 1 on when the block starts
at slot 0): at uniforms equal to ``q``, at ``q`` = 0 and 1, on either side
of 1/32 (where it switches from appending every pair to skipping runs of
eight without an arrival), for lengths that are not a multiple of eight,
and through the grow-and-retry protocol, which ``kernel.QueueStore`` runs
with ``kernel.grown``'s rule for every queue.  ``kernel.rd_serve`` reads
``rd``'s queues first-in-first-out, as ``kernel.cmu_serve`` reads
``cmu``'s: serving a whole block leaves every queue's head at its end, so
the next block's arrivals are appended to the same storage.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoisched import kernel
from aoisched.model import Scenario, UeClass, UeConfig, Variant
from aoisched.policies import RandomizedPolicy
from test_policies import Arrivals

SKIP_BELOW = 1.0 / 32
QS = [0.0, 1.0, np.nextafter(SKIP_BELOW, 0.0), SKIP_BELOW, np.nextafter(SKIP_BELOW, 1.0), 0.01, 0.5]


def enqueue(u, q, start, queue, head=0, end=0):
    """One ``cmu_enqueue`` call, through a ``QueueStore`` whose buffer holds
    ``u``, on a queue holding ``queue[head:end]``: its return value, and
    the queue's contents after it."""
    store = kernel.QueueStore(1, np.array(u, np.float64))
    store.queues[0] = queue
    store.at[0], store.cap[0] = queue.ctypes.data, len(queue)
    store.head[0], store.end[0] = head, end
    store.frame.start, store.frame.n = start, len(u)
    need = kernel.cmu_enqueue(store.frame, 0, q)
    return need, queue[store.head[0]:store.end[0]]


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
def test_rd_serves_its_queues_to_the_end_and_the_next_block_reuses_them(start, n, data):
    # stream k belongs to the k-th AoI, then latency, position; the classes
    # interleave by id, so positions are not in stream order
    classes = data.draw(st.lists(st.sampled_from([UeClass.AOI, UeClass.LATENCY]), max_size=6))
    ues = [UeConfig(id=i, cls=c, q=0.5, p=0.5, rho=1.0, beta=30.0) if c is UeClass.AOI else
           UeConfig(id=i, cls=c, q=0.5, p=0.5, beta=30.0) for i, c in enumerate(classes, 1)]
    ues.append(UeConfig(id=len(ues) + 1, cls=UeClass.THROUGHPUT, p=0.5, alpha=0.1))
    scenario = Scenario(ues=tuple(ues), variant=Variant.LATENCY_CONSTRAINED)
    policy = RandomizedPolicy(scenario, {u.id: 1 for u in scenario.aoi_ues})
    arriving = list(range(len(classes)))
    offsets = [data.draw(st.sets(st.integers(0, n - 1))) for _ in arriving]
    store, sums = policy.store, policy.sums
    # blocks of n slots with arrivals at the same offsets (slot 0 has none):
    # after the second, the queues neither grow nor move
    for block in range(4):
        first = start + block * n
        slots = [sorted(first + d for d in offset if first + d > 0) for offset in offsets]
        policy.update_index(first, n, [Arrivals(first, *s) for s in slots])
        assert [store.queues[i][store.head[i]:store.end[i]].tolist() for i in arriving] == slots
        if block <= 1:
            cap, at = store.cap.copy(), store.at.copy()
        assert store.cap.tolist() == cap.tolist() and store.at.tolist() == at.tolist()
        policy.block[:, :n] = [[0.0] * n, [0.5] * n]
        policy.select(max(first, 1), first + n)
        assert store.head.tolist() == store.end.tolist()
        assert sums[arriving, 0].tolist() == [len(s) for s in slots]
        sums.fill(0)


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
    store = kernel.QueueStore(1, np.empty(4))
    store.queues[0] = queue = np.array([-1, -1, -1, -1, 5, 6, 7, 8], np.int64)
    store.at[0], store.cap[0], store.head[0], store.end[0] = queue.ctypes.data, 8, 4, 8
    store.enqueue(100, 4, [(0, 0.5)], [Draws([1.0, 1.0, 0.0, 1.0])])
    assert store.cap.tolist() == [16] and len(store.queues[0]) == 16
    assert store.at[0] == store.queues[0].ctypes.data
    assert (store.head[0], store.end[0]) == (0, 5)
    assert store.queues[0][:5].tolist() == [5, 6, 7, 8, 102]


def test_store_takes_one_contiguous_float64_buffer_and_blocks_that_fit_it():
    for u in np.zeros(2, np.float32), np.zeros(4)[::2]:
        with pytest.raises(TypeError, match="contiguous float64"):
            kernel.QueueStore(1, u)
    store = kernel.QueueStore(1, np.empty(4))
    for n in -1, 5:
        with pytest.raises(ValueError, match=f"a block of {n} slots does not fit 4"):
            store.enqueue(0, n, [(0, 0.5)], [Draws([0.0] * 4)])
    assert store.end.tolist() == [0]


@pytest.mark.parametrize("cap, need, size", [(0, 1, 1), (0, 5, 8), (8, 5, 16), (8, 9, 16),
                                             (8, 17, 32), (16, 16, 32)])
def test_growth_is_the_least_power_of_two_at_least_need_and_twice_the_storage(cap, need, size):
    buffer = np.arange(cap, dtype=np.int64)
    grown = kernel.grown(buffer, need, cap // 2, cap)
    assert len(grown) == size
    assert grown[:cap - cap // 2].tolist() == buffer[cap // 2:].tolist()
