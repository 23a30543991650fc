"""Randomness plumbing: one seeded generator per run, split into substreams.

The draw layout is normative for reproducibility:

* the run seed feeds ``numpy.random.SeedSequence([seed])``, which is split
  into three children: arrivals, policy, success;
* the arrivals child is split again into one stream per non-throughput UE,
  in ascending UE id order; each stream yields one uniform per slot, and
  the UE has an arrival in slot t when draw t is below its q, so arrivals
  never depend on the policy;
* the success stream yields exactly one uniform per slot, compared against
  the served UE's success probability only when a transmission happens;
* the policy stream yields one uniform per slot and is consumed only by
  the randomised policy (every slot, even when no latency queue is
  occupied, so draws stay aligned across runs);
* every stream starts with a draw for slot 0, which is never used, so slot
  t reads draw t.  The engine takes the draws in fixed blocks of slots; the
  concatenated blocks of a stream equal one draw of the whole horizon, so
  the block size changes no result.

The compiled kernel (``kernel.QueueStore.draw``) computes every arrival
draw, and under ``rd`` and ``cmu`` the success and policy draws too, from
each stream's PCG64 state and increment, which :func:`pcg64_states` reads
once per run: the same numbers ``Generator.random`` returns, in the same
layout.  Under ``hier`` and ``vw`` the engine draws the success stream
with ``Generator.random``.

Sweep replicates derive their run seed as
``SeedSequence([base_seed, point_index, replicate_index])`` reduced to one
64-bit word; see :func:`derive_seed`.
"""

from __future__ import annotations

import numpy as np

_LOW = (1 << 64) - 1  # the low 64 bits of a 128-bit word


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


def pcg64_states(gens) -> np.ndarray:
    """Each generator's PCG64 state and increment, as a row of four uint64:
    the state's low and high 64 bits, then the increment's.

    Only a generator that has drawn nothing since its ``PCG64`` was seeded
    is read, so its draws in the kernel start where its ``random`` would;
    anything else raises ValueError."""
    rows = []
    for gen in gens:
        bits = gen.bit_generator
        if not isinstance(bits, np.random.PCG64):
            raise ValueError(f"the kernel draws only from PCG64 streams, not "
                             f"{type(bits).__name__}")
        state = bits.state
        if state != np.random.PCG64(bits.seed_seq).state:
            raise ValueError("the kernel draws only from a PCG64 stream that has not drawn")
        s, inc = state["state"]["state"], state["state"]["inc"]
        rows.append((s & _LOW, s >> 64, inc & _LOW, inc >> 64))
    return np.array(rows, np.uint64).reshape(-1, 4)
