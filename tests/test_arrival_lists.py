"""The kernel that draws a block and lists its arrivals, called on one
block, and the queue protocol that ``rd`` and ``cmu`` share.

``kernel.seed_streams`` seeds a run's streams from its seed, and
``rng.stream_states`` must give the state and increment numpy's ``PCG64``
starts from for each child ``SeedSequence([seed]).spawn`` gives, bit for
bit: for seeds of one to more than a thousand 32-bit words, 0 to 40
arrival streams and 0 to 2 rows.

``kernel.draw_block`` steps each stream's PCG64 state in the compiled
kernel and appends the slots whose draw is below ``q`` to a queue; the
engine tests reach it only through whole runs.  Here it is called on a
``kernel.QueueStore`` with states read from fresh generators
(``state_row``), and must list exactly ``np.flatnonzero(u < q)`` of
the numbers ``Generator.random`` draws from the same seed (from slot 1 on
when the block starts at slot 0), leave each state where ``random`` leaves
it, and fill each row of uniforms with the draws ``random`` returns, bit
for bit: at ``q`` equal to a draw and one float either side, at ``q`` = 0
and 1, for 1 to 9 streams (every remainder of the kernel's lanes), for
blocks of 1, ``CHUNK`` - 1 and ``CHUNK`` slots, from slot 0 and from a
later block, and through the grow-and-retry protocol, which
``kernel.QueueStore`` runs with ``kernel.grown``'s rule for every queue.
``kernel.address``, which binds every buffer a kernel takes, must give
each buffer's ``ctypes.data``.
``kernel.rd_serve`` reads ``rd``'s queues first-in-first-out, as
``kernel.cmu_serve`` reads ``cmu``'s: serving a whole block leaves every
queue's head at its end, so the next block's arrivals are appended to the
same storage.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoisched import kernel
from aoisched.model import Scenario, UeClass, UeConfig, Variant
from aoisched.policies import RandomizedPolicy
from aoisched.rng import derive_seed, stream_states

QS = [0.0, 1.0, np.nextafter(1.0 / 32, 0.0), 1.0 / 32, np.nextafter(1.0 / 32, 1.0), 0.01, 0.5]
EDGE_QS = [0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53, 1.0]
SEEDS = [0, 1, 7, 2 ** 63]
NO_ROWS = np.empty((0, kernel.CHUNK))


def generators(seed, k):
    """k fresh generators seeded from ``seed``'s SeedSequence, as rng.py spawns them."""
    return [np.random.Generator(np.random.PCG64(c))
            for c in np.random.SeedSequence(seed).spawn(k)]


def expected(u, q, start):
    slots = np.flatnonzero(np.asarray(u) < q) + start
    return slots[slots > 0]


def state_row(gen):
    """``gen``'s state as ``rng.stream_states`` lays it out (read from any
    generator, or PCG64 bit generator)."""
    state = getattr(gen, "bit_generator", gen).state["state"]
    s, inc = state["state"], state["inc"]
    return [s & (2 ** 64 - 1), s >> 64, inc & (2 ** 64 - 1), inc >> 64]


def pcg_rows(gens):
    """The kernel's rows of ``gens``' states, one per generator."""
    return np.array([state_row(gen) for gen in gens], np.uint64).reshape(-1, 4)


def listed(store, j):
    return store.queues[j][store.head[j]:store.end[j]].tolist()


@pytest.mark.parametrize("q", QS, ids=lambda q: repr(float(q)))
@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 17, 8191])
@pytest.mark.parametrize("start", [0, 8192])
def test_enqueue_lists_the_uniforms_below_q(q, n, start):
    (gen,), (ref,) = generators(n, 1), generators(n, 1)
    states = pcg_rows([gen])
    store = kernel.QueueStore([q], NO_ROWS)
    store.draw(start, n, states)
    assert listed(store, 0) == expected(ref.random(n), q, start).tolist()
    assert states[0].tolist() == state_row(ref)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.sampled_from(SEEDS), n=st.integers(0, 40), data=st.data())
def test_enqueue_matches_numpy_on_any_block(seed, n, data):
    (ref,) = generators(seed, 1)
    u = ref.random(n)
    start = data.draw(st.sampled_from([0, 1, 8192]))
    # q equal to one of the block's draws, or one float either side of it
    drawn = st.sampled_from(u.tolist()) if n else st.just(0.5)
    q = data.draw(drawn.flatmap(lambda x: st.sampled_from(
        [x, float(np.nextafter(x, 0.0)), float(np.nextafter(x, 1.0))]))
        | st.sampled_from(EDGE_QS) | st.floats(0.0, 1.0))
    states = pcg_rows(generators(seed, 1))
    store = kernel.QueueStore([q], NO_ROWS)
    store.draw(start, n, states)
    assert listed(store, 0) == expected(u, q, start).tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("streams", range(1, 10))
def test_draws_equal_generator_random_bit_for_bit(seed, streams):
    # every arrival stream but the last two is listed, at a q of its own;
    # the last two fill the rows, as rd's success and policy streams do (the
    # last one alone, as cmu's success stream does, with fewer than three
    # streams); three blocks, each from where the one before left every state
    rows = min(2, streams - 1) if streams > 1 else 1
    arrivals = streams - rows if streams > 1 else 0
    qs = [EDGE_QS[k % len(EDGE_QS)] for k in range(arrivals)]
    block = np.empty((rows, kernel.CHUNK))
    store = kernel.QueueStore(qs, block)
    states = pcg_rows(generators(seed, arrivals + rows))
    refs = generators(seed, arrivals + rows)
    for start, n in (0, kernel.CHUNK), (kernel.CHUNK, kernel.CHUNK - 1), (2 * kernel.CHUNK - 1, 1):
        store.end[:] = store.head[:] = 0
        store.draw(start, n, states)
        for k, (q, ref) in enumerate(zip(qs, refs)):
            assert listed(store, k) == expected(ref.random(n), q, start).tolist()
        for r in range(rows):
            u = refs[arrivals + r].random(n)
            assert block[r, :n].view(np.uint64).tolist() == u.view(np.uint64).tolist()
        assert states.tolist() == [state_row(ref) for ref in refs]


def spawned_rows(seed, n_arrival):
    """Rows of numpy's PCG64 seeded as ``rng.substreams`` spawns the run's
    streams: the arrival streams, then the success and policy streams."""
    arrivals, policy, success = np.random.SeedSequence([seed]).spawn(3)
    return pcg_rows([np.random.PCG64(c) for c in [*arrivals.spawn(n_arrival), success, policy]])


@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 5, 2 ** 64 - 1,
                                  2 ** 200 + 3, *(derive_seed(1, i, r) for i in (0, 6)
                                                  for r in (0, 3))])
def test_stream_states_equal_numpy_pcg64_seeding(seed):
    expected = spawned_rows(seed, 40).tolist()
    for n in range(41):
        for rows in range(3):
            assert stream_states(seed, n, rows).tolist() == expected[:n] + expected[40:40 + rows]


@pytest.mark.parametrize("words", [5, 1000, 4097])
def test_a_seed_of_many_words_is_read_to_its_last_word(words):
    # the kernel reads the seed's words where Python holds them: a seed
    # longer than any fixed buffer must seed exactly, and (under ASan) read
    # nothing past its bytes; the top word changes every stream
    seed = (1 << 32 * words) - 12345
    expected = spawned_rows(seed, 3)
    assert stream_states(seed, 3, 2).tolist() == expected.tolist()
    assert (stream_states(seed ^ (1 << 32 * words - 1), 3, 2) != expected).any(axis=1).all()


@pytest.mark.parametrize("args", [(-1, 1, 0), (1, -1, 0), (1, 1, 3), (1, 1, -1)])
def test_stream_states_refuse_what_no_run_reads(args):
    with pytest.raises(ValueError, match="no streams for seed"):
        stream_states(*args)


@pytest.mark.parametrize("q", [0.01, 0.5, 1.0])
def test_enqueue_returns_the_length_it_needs_then_fits(q):
    # the queue holds slots 3 and 4 of six elements (head 1, so more are
    # live than have left it and it is not moved), so the block's arrivals
    # fit only when there are at most four of them
    n = 2000
    (ref,) = generators(5, 1)
    arrivals = expected(ref.random(n), q, 100).tolist()
    assert len(arrivals) > 4
    store = kernel.QueueStore([q], NO_ROWS)
    store.queues[0] = queue = np.array([-1, 3, 4, -1, -1, -1], np.int64)
    store.at[0], store.cap[0], store.head[0], store.end[0] = queue.ctypes.data, 6, 1, 3
    states = pcg_rows(generators(5, 1))
    before = states.copy()
    frame = store.frame
    frame.pcg, frame.start, frame.n = states.ctypes.data, 100, n
    assert kernel.draw_block(frame, 0) == 1
    assert frame.need == 2 + len(arrivals)
    assert listed(store, 0) == [3, 4]  # end left as it was
    assert states.tolist() == before.tolist()  # and the state
    store.queues[0] = grown = np.empty(frame.need, np.int64)
    grown[:2] = [3, 4]
    store.at[0], store.cap[0], store.head[0], store.end[0] = grown.ctypes.data, len(grown), 0, 2
    assert kernel.draw_block(frame, 0) == 0
    assert listed(store, 0) == [3, 4] + arrivals
    assert states.tolist() == [state_row(ref)]


def test_a_queue_that_overflows_is_drawn_again_with_its_lane():
    # streams 0 and 1 share a lane group; stream 1's queue is full, so the
    # group is drawn again once it has grown, and stream 0's arrivals and
    # both states come out as in one pass
    store = kernel.QueueStore([0.5, 1.0], NO_ROWS)
    store.queues = [np.empty(8, np.int64), np.array([1, 2], np.int64)]
    store.at[:] = [queue.ctypes.data for queue in store.queues]
    store.cap[:], store.end[1] = [8, 2], 2
    states = pcg_rows(generators(9, 2))
    refs = generators(9, 2)
    store.draw(8, 8, states)
    assert listed(store, 0) == expected(refs[0].random(8), 0.5, 8).tolist()
    refs[1].random(8)
    assert listed(store, 1) == [1, 2, *range(8, 16)] and store.cap[1] == 16
    assert states.tolist() == [state_row(ref) for ref in refs]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(start=st.sampled_from([0, 8192]), n=st.integers(2, 64), data=st.data())
def test_rd_serves_its_queues_to_the_end_and_the_next_block_reuses_them(start, n, data):
    # stream k belongs to the k-th AoI, then latency, position; the classes
    # interleave by id, so positions are not in stream order.  Each stream
    # arrives in every slot or in none (q 1 or 0)
    classes = data.draw(st.lists(st.sampled_from([UeClass.AOI, UeClass.LATENCY]), max_size=6))
    qs = [data.draw(st.sampled_from([0.0, 1.0])) for _ in classes]
    ues = [UeConfig(id=i, cls=c, q=q or 0.5, p=0.5, rho=1.0, beta=30.0) if c is UeClass.AOI
           else UeConfig(id=i, cls=c, q=q or 0.5, p=0.5, beta=30.0)
           for i, (c, q) in enumerate(zip(classes, qs), 1)]
    ues.append(UeConfig(id=len(ues) + 1, cls=UeClass.THROUGHPUT, p=0.5, alpha=0.1))
    scenario = Scenario(ues=tuple(ues), variant=Variant.LATENCY_CONSTRAINED)
    policy = RandomizedPolicy(scenario, {u.id: 1 for u in scenario.aoi_ues})
    policy.store.q[:] = qs
    arriving = list(range(len(classes)))
    states = pcg_rows(generators(start + n, len(classes) + 2))
    store, sums = policy.store, policy.sums
    # blocks of n slots with the same arrivals (slot 0 has none): after the
    # second, a queue neither grows nor moves unless the stack below its
    # arrivals grew, as a starved latency UE's does with its backlog
    for block in range(4):
        first = start + block * n
        slots = [list(range(max(first, 1), first + n)) if q else [] for q in qs]
        policy.update_index(first, n, states)
        assert [listed(store, i) for i in arriving] == slots
        if block <= 1:
            cap, at, depth = store.cap.copy(), store.at.copy(), store.depth.copy()
        same = store.depth == depth
        assert store.cap[same].tolist() == cap[same].tolist()
        assert store.at[same].tolist() == at[same].tolist()
        policy.block[:, :n] = [[0.0] * n, [0.5] * n]
        policy.select(max(first, 1), first + n)
        assert store.head.tolist() == store.end.tolist()
        assert sums[arriving, 0].tolist() == [len(s) for s in slots]
        sums.fill(0)


def store_holding(cap, head, end, q=1.0):
    """A one-queue store whose queue of ``cap`` elements holds slots 1, 2, ...
    in [head, end), drawing with ``q``."""
    store = kernel.QueueStore([q], NO_ROWS)
    store.queues[0] = queue = np.full(cap, -1, np.int64)
    queue[head:end] = range(1, end - head + 1)
    store.at[0], store.cap[0], store.head[0], store.end[0] = queue.ctypes.data, cap, head, end
    return store, queue


def test_store_compacts_a_queue_whose_head_sits_at_the_midpoint():
    # head 4 of 8: the four live packets are no more than the four that
    # left, so they move to the front, and with the block's one arrival
    # they fit the same storage
    store, queue = store_holding(8, 4, 8)
    store.draw(100, 1, pcg_rows(generators(1, 1)))
    assert store.cap.tolist() == [8] and store.queues[0] is queue
    assert (store.head[0], store.end[0]) == (0, 5)
    assert listed(store, 0) == [1, 2, 3, 4, 100]


def test_an_emptied_queue_keeps_its_storage_for_a_block_that_fits_it():
    # 16 elements, every packet served (head == end == 7), then a block of
    # ten arrivals: they fit the storage once it is empty, so it does not grow
    store, queue = store_holding(16, 7, 7)
    store.draw(100, 10, pcg_rows(generators(1, 1)))
    assert store.cap.tolist() == [16] and store.queues[0] is queue
    assert listed(store, 0) == list(range(100, 110))


def test_a_queue_grows_when_moving_it_would_cost_more_than_it_frees():
    # head 2 of 16 with ten live packets: moving them would free two
    # elements for ten moves, so the queue grows (its packets first) and
    # keeps every packet
    store, queue = store_holding(16, 2, 12)
    store.draw(100, 6, pcg_rows(generators(1, 1)))
    assert store.cap.tolist() == [32] and store.queues[0] is not queue
    assert store.at[0] == store.queues[0].ctypes.data
    assert listed(store, 0) == [*range(1, 11), *range(100, 106)]


def test_store_takes_one_contiguous_float64_buffer_and_blocks_that_fit_it():
    for rows in np.zeros((1, 2), np.float32), np.zeros((1, 4))[:, ::2], np.zeros(4):
        with pytest.raises(TypeError, match="contiguous float64"):
            kernel.QueueStore([0.5], rows)
    store = kernel.QueueStore([0.5], np.empty((1, 4)))
    states = pcg_rows(generators(1, 2))
    for n in -1, 5:
        with pytest.raises(ValueError, match=f"a block of {n} slots does not fit 4"):
            store.draw(0, n, states)
    for bad in states[:1], states.astype(np.int64), np.asfortranarray(np.zeros((4, 4), np.uint64)):
        with pytest.raises(ValueError, match="at least 2 rows of 4"):
            store.draw(0, 4, bad)
    assert store.end.tolist() == [0]


@pytest.mark.parametrize("cap, need, depth, size", [
    (0, 1, 0, 1), (0, 5, 0, 8), (8, 5, 0, 16), (8, 9, 0, 16), (8, 17, 0, 32), (16, 16, 0, 32),
    (8, 20, 3, 32)])
def test_growth_is_the_least_power_of_two_at_least_need_and_twice_the_storage(cap, need, depth,
                                                                             size):
    # the stack buffer[:depth] stays where it is, and the live packets
    # buffer[cap // 2:] follow it
    buffer = np.arange(cap, dtype=np.int64)
    grown = kernel.grown(buffer, need, depth, cap // 2, cap)
    assert len(grown) == size
    kept = depth + cap - cap // 2
    assert grown[:kept].tolist() == buffer[:depth].tolist() + buffer[cap // 2:].tolist()


def test_address_is_the_buffers_data_pointer():
    # every buffer a kernel takes is bound through kernel.address, the
    # empty ones rd binds for an absent class included
    block = np.zeros((2, 8))
    for buffer in (np.arange(5, dtype=np.int64), np.zeros(3), np.zeros((2, 4), np.uint64),
                   block[1], np.empty(0, np.int64)):
        assert kernel.address(buffer) == buffer.ctypes.data
