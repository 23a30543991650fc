"""Randomness plumbing: one seeded sequence per run, split into substreams.

This is the one statement of the engine's layout; the other modules point
here.  It is normative for reproducibility:

* a UE's *position* is its index among the scenario's UEs by ascending id
  (``Scenario.positions``), and every engine's and policy's per-UE state
  is indexed by it;
* every stream is a numpy ``PCG64`` seeded from a child of
  ``numpy.random.SeedSequence([seed])``: policy under spawn key ``(1,)``,
  success under ``(2,)``, and arrival stream k under ``(0, k)``;
* arrival stream k belongs to the k-th position with a q (an AoI or
  latency UE; a throughput UE is perpetually backlogged and draws none),
  ``kernel.QueueStore.pos[k]``: the UE has an arrival in slot t when draw
  t of its stream is below its q, so arrivals never depend on the policy;
* the success stream yields exactly one uniform per slot, compared against
  the served UE's success probability only when a transmission happens;
* the policy stream yields one uniform per slot and is consumed only by
  the randomised policy (every slot, even when no latency queue is
  occupied, so draws stay aligned across runs);
* every stream starts with a draw for slot 0, which is never used, so slot
  t reads draw t.  The engine takes the draws in fixed blocks of slots; the
  concatenated blocks of a stream equal one draw of the whole horizon, so
  the block size changes no result.

The kernel seeds each stream a run reads from the run seed
(:func:`stream_states`): the arrival streams, then the rows of the
policy's block of uniforms, success and, under ``rd``, policy.
``kernel.QueueStore.draw`` computes from those states every arrival draw,
and under ``rd`` and ``cmu`` every draw: the numbers ``Generator.random``
returns, in the same layout.  Only ``hier`` and ``vw`` build generators
(:func:`substreams`), to draw success.

Sweep replicates derive their run seed as
``SeedSequence([base_seed, point_index, replicate_index])`` reduced to one
64-bit word; see :func:`derive_seed`.
"""

from __future__ import annotations

import numpy as np

from . import kernel


def derive_seed(base_seed: int, point_index: int, replicate: int) -> int:
    """Mix (base seed, grid point, replicate) into a fresh 64-bit run seed."""
    ss = np.random.SeedSequence([int(base_seed), int(point_index), int(replicate)])
    return int(ss.generate_state(1, np.uint64)[0])


def substreams(seed: int, n_arrival_streams: int):
    """Return (per-UE arrival generators, policy generator, success generator)."""
    root = np.random.SeedSequence([int(seed)])
    arr_parent, policy_child, success_child = root.spawn(3)
    arrival_gens = [np.random.Generator(np.random.PCG64(c))
                    for c in arr_parent.spawn(n_arrival_streams)]
    return (arrival_gens,
            np.random.Generator(np.random.PCG64(policy_child)),
            np.random.Generator(np.random.PCG64(success_child)))


def stream_states(seed: int, n_arrival: int, rows: int) -> np.ndarray:
    """The PCG64 state and increment that :func:`substreams`' generators
    start from, a row of four uint64 (state low, high, increment low, high)
    per stream: the ``n_arrival`` arrival streams, then ``rows`` <= 2 of the
    success and policy streams, seeded in the kernel from the seed's words."""
    seed = int(seed)
    if seed < 0 or n_arrival < 0 or not 0 <= rows <= 2:
        raise ValueError(f"no streams for seed {seed}, {n_arrival} arrivals, {rows} rows")
    words = max(1, -(-seed.bit_length() // 32))
    states = np.empty((n_arrival + rows, 4), np.uint64)
    kernel.seed_streams(kernel.address(states), seed.to_bytes(4 * words, "little"), words,
                        n_arrival, rows)
    return states
