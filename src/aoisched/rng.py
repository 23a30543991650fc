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

Sweep replicates derive their run seed as
``SeedSequence([base_seed, point_index, replicate_index])`` reduced to one
64-bit word; see :func:`derive_seed`.
"""

from __future__ import annotations

import numpy as np


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
