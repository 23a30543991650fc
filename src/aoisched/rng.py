"""Randomness plumbing: one seeded sequence per run, split into substreams.

This is the one statement of the engine's layout; the other modules point
here.  It is normative for reproducibility:

* a UE's *position* is its index among the scenario's UEs by ascending id
  (``Scenario.positions``), and every engine's and policy's per-UE state
  is indexed by it;
* every stream is a ``PCG64`` stream, seeded as numpy seeds one from a
  child of ``SeedSequence([seed])``: policy under spawn key ``(1,)``,
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

The kernel seeds every stream a run reads from the run seed
(:func:`stream_states`): the arrival streams, then the rows of the
policy's block of uniforms, success and, under ``rd``, policy.  It draws
them as ``Generator.random`` does, bit for bit, in the same layout:
``kernel.QueueStore.draw`` every arrival draw, and under ``rd`` and ``cmu``
every draw; under ``hier`` and ``vw`` the success stream of
:func:`substreams` draws success, a block at a time, in
``kernel.uniforms``.  No run loads numpy's random module.

Sweep replicates derive their run seed as
``SeedSequence([base_seed, point_index, replicate_index])`` reduced to one
64-bit word, through the kernel's same port of ``SeedSequence``; see
:func:`derive_seed`.
"""

from __future__ import annotations

import numpy as np

from . import kernel


def _words(value: int) -> bytes:
    """``value``'s 32-bit words, little-endian, as numpy splits a
    nonnegative int into a seed's words: at least one."""
    return value.to_bytes(4 * max(1, -(-value.bit_length() // 32)), "little")


def derive_seed(base_seed: int, point_index: int, replicate: int) -> int:
    """Mix (base seed, grid point, replicate) into a fresh 64-bit run seed:
    the first word of ``SeedSequence([base_seed, point_index, replicate])``'s
    ``generate_state(1, np.uint64)``."""
    values = [int(base_seed), int(point_index), int(replicate)]
    if min(values) < 0:
        raise ValueError(f"no run seed for negative entropy {values}")
    words = b"".join(map(_words, values))
    return kernel.seed_word(words, len(words) // 4)


class Stream:
    """One stream, drawn as ``Generator.random`` draws it, from and
    advancing its row of :func:`stream_states`."""

    __slots__ = ("_state", "_at")

    def __init__(self, state: np.ndarray):
        self._state, self._at = state, kernel.address(state)

    def random(self, *, out: np.ndarray) -> np.ndarray:
        """Fill ``out``, a writable, contiguous float64 buffer, with the
        stream's next draws, and return it."""
        if (not isinstance(out, np.ndarray) or out.dtype != np.float64
                or not out.flags.c_contiguous or not out.flags.writeable):
            raise TypeError("random draws into a writable, contiguous float64 array")
        kernel.uniforms(self._at, kernel.address(out), out.size)
        return out


def substreams(seed: int, n_arrival_streams: int):
    """Return (per-UE arrival streams, policy stream, success stream), each
    a :class:`Stream` over its row of :func:`stream_states`."""
    states = stream_states(seed, n_arrival_streams, 2)
    arrivals = [Stream(row) for row in states[:n_arrival_streams]]
    return arrivals, Stream(states[n_arrival_streams + 1]), Stream(states[n_arrival_streams])


def stream_states(seed: int, n_arrival: int, rows: int) -> np.ndarray:
    """The PCG64 state and increment that numpy's generators of the run's
    streams start from, a row of four uint64 (state low, high, increment
    low, high) per stream: the ``n_arrival`` arrival streams, then
    ``rows`` <= 2 of the success and policy streams, seeded in the kernel
    from the seed's words."""
    seed = int(seed)
    if seed < 0 or n_arrival < 0 or not 0 <= rows <= 2:
        raise ValueError(f"no streams for seed {seed}, {n_arrival} arrivals, {rows} rows")
    words = _words(seed)
    states = np.empty((n_arrival + rows, 4), np.uint64)
    kernel.seed_streams(kernel.address(states), words, len(words) // 4, n_arrival, rows)
    return states
