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

``QueueStore``, every policy's arrival lister, holds the queues of
arrival slots that ``cmu_enqueue`` appends to, and ``grown`` is the one
growth rule of every buffer the kernels write.
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

cmu_enqueue = _lib.cmu_enqueue
cmu_enqueue.restype = ctypes.c_int64
cmu_enqueue.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_int64,
                        ctypes.c_int64, *[ctypes.c_void_p] * 4]

cmu_serve = _lib.cmu_serve
cmu_serve.restype = None
cmu_serve.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                      *[ctypes.c_void_p] * 8]

rd_list = _lib.rd_list
rd_list.restype = None
rd_list.argtypes = [*[ctypes.c_int64] * 3, *[ctypes.c_void_p] * 5]

rd_serve = _lib.rd_serve
rd_serve.restype = None
rd_serve.argtypes = [ctypes.c_int64, ctypes.c_int64, *[ctypes.c_void_p] * 2,
                     *[ctypes.c_int64] * 3, *[ctypes.c_void_p] * 10]

# columns of a UE's row of sums: the enum of _kernel.c, unpacked by
# metrics.add_sums
NSUMS = 9


def grown(buffer: np.ndarray, need: int, h: int = 0, e: int = 0) -> np.ndarray:
    """Storage of the least power of two >= max(``need``, 2 * len(``buffer``))
    elements, starting with ``buffer[h:e]``."""
    grown = np.empty(1 << (max(need, 2 * len(buffer)) - 1).bit_length(), np.int64)
    grown[:e - h] = buffer[h:e]
    return grown


class QueueStore:
    """Queues of arrival slots, ascending: queue j's are ``queues[j][head[j]:end[j]]``
    of ``cap[j]`` elements, at address ``at[j]`` (0 until it first holds one)."""

    def __init__(self, n: int):
        self.queues = [np.empty(0, np.int64)] * n
        self.head, self.end, self.cap = (np.zeros(n, np.int64) for _ in range(3))
        self.at = np.zeros(n, np.uintp)
        self._args = [x.ctypes.data for x in (self.at, self.cap, self.head, self.end)]

    def enqueue(self, start: int, u: np.ndarray, streams) -> None:
        """Append a block's arrivals, drawing each stream's in turn into
        ``u``: for each ``(j, gen, q)`` of ``streams``, queue j has an
        arrival in slot start + k, for k < len(u), iff draw k of ``gen`` is
        below q (slot 0 has none).  A queue they do not fit in moves,
        packets first, to ``grown`` storage, and ``cmu_enqueue`` runs again."""
        if u.dtype != np.float64 or not u.flags.c_contiguous:
            raise TypeError("arrival uniforms must be one contiguous float64 buffer")
        n, at = len(u), u.ctypes.data
        for j, gen, q in streams:
            gen.random(out=u)
            need = cmu_enqueue(at, n, q, start, j, *self._args)
            if need:
                h, e = int(self.head[j]), int(self.end[j])
                self.queues[j] = queue = grown(self.queues[j], need, h, e)
                self.at[j], self.cap[j], self.head[j], self.end[j] = (
                    queue.ctypes.data, len(queue), 0, e - h)
                cmu_enqueue(at, n, q, start, j, *self._args)
