"""The compiled kernels of ``_kernel.c``, built on first import and loaded
with ctypes.

The source is compiled with the C compiler Python was built with
(sysconfig's ``CC``) into ``__pycache__/_kernel.<tag>-<key>.so`` next to
this module, where ``<tag>`` is the interpreter's cache tag and ``<key>``
the CRC-32 of the source and the compiler flags; a later import with the
same key loads that file without building.  The build writes a temporary
file and renames it into place, so processes importing at once never load
a partial library, and then deletes the tag's libraries of other keys and
the untagged ``_kernel-<key>.so`` of older builds (a process that has
loaded one keeps its mapping).
There is no pure-Python fallback: without a working compiler, importing
this module raises ``ImportError``.

Each kernel takes its state as one struct (``Store``, ``Cmu``, ``Rd``),
which its owner fills once with the addresses of the buffers it keeps,
each read through ``address``, so a call converts a pointer and at most
two numbers; ``UE_STATE`` lays out ``rd``'s per-UE state as the C
``struct ue`` does.  Every C layout is
mirrored here.  ``QueueStore``, every policy's arrival lister, decides
which positions draw an arrival stream, and holds the queues of arrival
slots that ``draw_block`` appends to and that ``cmu_serve`` and
``rd_serve`` read first-in-first-out, and below each latency UE's
queue under ``rd`` the newest-first stack of packets ``rd_serve`` has
taken from it; ``grown``, which ``QueueStore.draw`` alone calls, is the
one growth rule of every buffer the kernels write.

``seed_streams`` seeds each stream as numpy's ``SeedSequence`` and
``PCG64`` do, and ``draw_block`` steps its state as ``PCG64`` does and
converts the output as ``Generator.random`` does, so every draw is
numpy's, bit for bit, in ``rng``'s layout.  It appends each arrival slot
to its queue as it is drawn, and under ``rd`` and ``cmu`` writes the
success and policy uniforms into the policy's rows, two streams side by
side.  A queue that lacks room leaves its group of streams undrawn, their
states as they were, for ``QueueStore.draw`` to grow it and draw the
group again.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
import sysconfig
import tempfile
import zlib
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernel.c")
# no -ffast-math, and no fused multiply-add: arithmetic rounds as in Python
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _build() -> Path:
    """Path of the built library, compiling ``SOURCE`` if it is not cached."""
    tag = sys.implementation.cache_tag
    key = zlib.crc32(SOURCE.read_bytes() + b"\0" + " ".join(FLAGS).encode())
    target = SOURCE.parent / "__pycache__" / f"_kernel.{tag}-{key:08x}.so"
    if target.exists():
        return target
    # read only to build: loading sysconfig's data would cost every import ~2 ms
    command = [*(sysconfig.get_config_var("CC") or "cc").split(), *FLAGS]
    target.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{target.stem}.", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        try:
            proc = subprocess.run([*command, "-o", tmp, str(SOURCE)],
                                  capture_output=True, text=True)
        except OSError as exc:
            raise ImportError(f"aoisched compiles {SOURCE.name} on first import and needs "
                              f"a C compiler; running {command[0]!r} failed: {exc}") from None
        if proc.returncode:
            raise ImportError(f"aoisched could not compile {SOURCE.name} with "
                              f"{' '.join(command)}:\n{proc.stderr}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for old in [*target.parent.glob(f"_kernel.{tag}-*.so"), *target.parent.glob("_kernel-*.so")]:
        if old != target:
            old.unlink(missing_ok=True)
    return target


_lib = ctypes.CDLL(str(_build()))

# Slots per block: the kernels read a block's uniforms from buffers of
# this many, so it sets the working set.
CHUNK = 2 ** 13

# The structs of _kernel.c, in its order; their pointers are set to numpy
# buffers that the structs' owners keep.
_P, _I = ctypes.c_void_p, ctypes.c_int64


class Store(ctypes.Structure):
    _fields_ = [("pcg", _P), ("narr", _I), ("nrows", _I), ("pos", _P), ("q", _P),
                ("rows", _P), ("width", _I), ("start", _I), ("n", _I), ("need", _I),
                ("queues", _P), ("cap", _P), ("head", _P), ("end", _P), ("depth", _P)]


class Cmu(ctypes.Structure):
    _fields_ = [("store", ctypes.POINTER(Store)), ("u", _P), ("nq", _I),
                ("order", _P), ("p", _P), ("g_prev", _P), ("sums", _P), ("tree", _P)]


class Rd(ctypes.Structure):
    _fields_ = [("store", ctypes.POINTER(Store)), ("u", _P), ("draws", _P),
                ("naoi", _I), ("nlat", _I),
                ("ngroups", _I), *[(f, _P) for f in ("members", "groups", "ue", "sums", "queued",
                                                    "cum", "pool", "turn", "wheel", "link",
                                                    "cursor")],
                ("nq", _I), ("np", _I), ("best", _I)]


# One UE's state under rd, _kernel.c's struct ue: the AoI gate, the
# throughput tier's tries, then the doubles.  A latency UE's stack is in
# its queue of the store.
UE_STATE = np.dtype([(name, np.int64) for name in ("threshold", "bump", "counter", "delivered",
                                                   "packet", "lam", "aged", "g_prev", "tries")]
                    + [(name, np.float64) for name in ("p", "weight", "index")])


def address(buffer: np.ndarray) -> int:
    """The address of a writable, contiguous ``buffer``, ``buffer.ctypes.data``,
    read in a third of that attribute's time."""
    if not buffer.nbytes:  # from_buffer takes no empty buffer
        return buffer.ctypes.data
    return ctypes.addressof(ctypes.c_char.from_buffer(buffer))


def _bind(name: str, frame, *args):
    function = getattr(_lib, name)
    function.restype, function.argtypes = _I, [ctypes.POINTER(frame), *args]
    return function


draw_block = _bind("draw_block", Store, _I)
cmu_serve = _bind("cmu_serve", Cmu, _I, _I)
rd_serve = _bind("rd_serve", Rd, _I, _I)
seed_streams = _lib.seed_streams
seed_streams.restype, seed_streams.argtypes = None, [_P, ctypes.c_char_p, _I, _I, _I]

# columns of a UE's row of sums: the enum of _kernel.c, unpacked by
# metrics.add_sums
NSUMS = 9


def grown(buffer: np.ndarray, need: int, depth: int, h: int, e: int) -> np.ndarray:
    """Storage of the least power of two >= max(``need``, 2 * len(``buffer``))
    elements, starting with ``buffer[:depth]`` and then ``buffer[h:e]``."""
    grown = np.empty(1 << (max(need, 2 * len(buffer)) - 1).bit_length(), np.int64)
    grown[:depth] = buffer[:depth]
    grown[depth:depth + e - h] = buffer[h:e]
    return grown


class QueueStore:
    """Queues of arrival slots, ascending: queue j's are ``queues[j][head[j]:end[j]]``
    of ``cap[j]`` elements, at address ``at[j]`` (0 until it first holds one),
    and the streams that fill them and the block's rows of uniforms, all
    bound with every address in ``frame``, ``_kernel.c``'s ``struct store``.
    Below a queue's head, ``queues[j][:depth[j]]`` is the stack of packets
    that ``rd_serve`` took from a latency UE's queue, newest last, and
    ``[depth[j], head[j])`` is free: ``depth[j] <= head[j]``, and ``depth``
    stays 0 for every queue read first-in-first-out.

    ``qs`` gives each position's q, or None for a position without an
    arrival stream; the positions with one, ascending, are ``pos``, and
    ``pos[k]`` is ``rng``'s arrival stream k: queue ``pos[k]`` has an
    arrival in slot t when the stream's draw t is below ``q[k]``.  Row r
    of ``rows`` takes the draws of stream ``len(pos) + r``."""

    def __init__(self, qs, rows: np.ndarray):
        if rows.dtype != np.float64 or rows.ndim != 2 or not rows.flags.c_contiguous:
            raise TypeError("the block's rows of uniforms must be one contiguous float64 "
                            "array of rows")
        n = len(qs)
        self.queues = [np.empty(0, np.int64)] * n
        self.head, self.end, self.cap, self.depth = (np.zeros(n, np.int64) for _ in range(4))
        self.at = np.zeros(n, np.uintp)
        self.pos = np.array([j for j, q in enumerate(qs) if q is not None], np.int64)
        self.q = np.array([q for q in qs if q is not None], np.float64)
        self.width = rows.shape[1]
        self._rows, self._states = rows, None
        self.frame = Store(None, len(self.pos), len(rows), address(self.pos), address(self.q),
                           address(rows), self.width, 0, 0, 0,
                           *map(address, (self.at, self.cap, self.head, self.end, self.depth)))

    def draw(self, start: int, n: int, states: np.ndarray) -> None:
        """Draw the block of ``n`` slots from ``start`` of every stream, in
        ``draw_block``, from and advancing its row of ``states``
        (``rng.stream_states``): the arrival streams' rows first, then the
        rows' streams.  Slot 0 takes no arrival.  The ``states`` array is
        bound at its first block.  Before a queue's arrivals are drawn, its
        live packets move down onto its stack if the free gap below them
        holds them all; a queue whose arrivals still do not fit moves, stack
        and packets first, to ``grown`` storage, and its group of streams is
        drawn again, from the same states."""
        if not 0 <= n <= self.width:
            raise ValueError(f"a block of {n} slots does not fit {self.width} uniforms")
        frame = self.frame
        if states is not self._states:
            need = len(self.pos) + len(self._rows)
            if (states.dtype != np.uint64 or states.ndim != 2 or states.shape[1] != 4
                    or len(states) < need or not states.flags.c_contiguous):
                raise ValueError(f"states must be a contiguous uint64 array of at least "
                                 f"{need} rows of 4 (rng.stream_states)")
            self._states, frame.pcg = states, address(states)
        frame.start, frame.n = start, n
        k = 0
        while r := draw_block(frame, k):
            k = r - 1
            j = int(self.pos[k])
            d, h, e = int(self.depth[j]), int(self.head[j]), int(self.end[j])
            self.queues[j] = queue = grown(self.queues[j], frame.need, d, h, e)
            self.at[j], self.cap[j], self.head[j], self.end[j] = (
                address(queue), len(queue), d, d + e - h)
