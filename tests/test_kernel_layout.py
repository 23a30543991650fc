"""The layouts ``_kernel.c`` shares with Python, read from its source.

ctypes and numpy address the kernels' structs by offset, and nothing
checks an offset at run time: a field added to a C struct and not to its
mirror, or in another place, shifts every field after it, and the kernels
then read and write the wrong memory without an error.  So each struct's
fields, in order and by kind (pointer, 64-bit integer, double), must be
those of its mirror in ``kernel``, and each column of a UE's row of sums
must reach the ``UeMetrics`` field it names through ``metrics.add_sums``.
"""

import ctypes
import re

import numpy as np
import pytest

from aoisched import kernel
from aoisched.metrics import UeMetrics, add_sums
from aoisched.model import UeClass

SOURCE = re.sub(r"/\*.*?\*/", "", kernel.SOURCE.read_text(), flags=re.S)

# the UeMetrics field each column of the sums enum adds to
SUMS_FIELD = {"ARRIVALS": "arrivals", "ATTEMPTS": "attempts", "DELIVERIES": "deliveries",
              "LATENCY": "latency_sum_delivered", "SAMPLES": "n_samples",
              "SPACING": "sample_sum", "SPACING_SQ": "sample_sumsq",
              "SPACING_WAIT": "sum_spacing_wait", "AGE": "aoi_sum"}


def c_fields(struct: str) -> list[tuple[str, str]]:
    """Each field of ``struct`` in ``_kernel.c``, in order: its name and its
    kind, ``ptr``, ``i64`` or ``f64``."""
    (body,) = re.findall(rf"^struct {struct} {{(.*?)^}};", SOURCE, re.S | re.M)
    fields = []
    for declaration in filter(str.strip, body.split(";")):
        # [const] type, then declarators such as ``*const *queues`` or ``depth``
        base, declarators = re.fullmatch(r"\s*(?:const\s+)?(struct \w+|\w+)(.*)", declaration,
                                   re.S).groups()
        for declarator in declarators.split(","):
            name = re.search(r"(\w+)\s*$", declarator).group(1)
            kind = "ptr" if "*" in declarator else {"int64_t": "i64", "double": "f64"}[base]
            fields.append((name, kind))
    return fields


def ctypes_kind(t) -> str:
    if t is ctypes.c_void_p or issubclass(t, ctypes._Pointer):
        return "ptr"
    return {ctypes.c_int64: "i64", ctypes.c_double: "f64"}[t]


@pytest.mark.parametrize("struct, frame", [("store", kernel.Store), ("cmu", kernel.Cmu),
                                           ("rd", kernel.Rd)])
def test_each_struct_has_the_fields_of_its_ctypes_mirror(struct, frame):
    assert c_fields(struct) == [(name, ctypes_kind(t)) for name, t in frame._fields_]
    assert ctypes.sizeof(frame) == 8 * len(frame._fields_)  # so neither side pads


def test_struct_ue_is_laid_out_as_ue_state():
    kinds = {np.dtype(np.uintp): "ptr", np.dtype(np.int64): "i64", np.dtype(np.float64): "f64"}
    state = kernel.UE_STATE
    assert c_fields("ue") == [(name, kinds[state.fields[name][0]]) for name in state.names]
    assert state.itemsize == 8 * len(state.names)


def test_each_sums_column_reaches_the_metrics_field_it_names():
    (body,) = re.findall(r"enum \{([^}]*\bNSUMS\b[^}]*)\}", SOURCE)
    *columns, last = [name.strip() for name in body.split(",")]
    assert last == "NSUMS" and len(columns) == kernel.NSUMS
    assert sorted(columns) == sorted(SUMS_FIELD)
    # a row of 1..NSUMS added to fresh metrics: column k's field gains k + 1,
    # and no other field changes
    m = UeMetrics(1, UeClass.AOI)
    before = {name: getattr(m, name) for name in UeMetrics.__slots__}
    row = np.arange(1, kernel.NSUMS + 1, dtype=np.int64).reshape(1, -1)
    add_sums([m], row)
    gained = {name: getattr(m, name) - before[name] for name in UeMetrics.__slots__
              if getattr(m, name) is not before[name] and getattr(m, name) != before[name]}
    assert gained == {SUMS_FIELD[column]: k + 1 for k, column in enumerate(columns)}
    assert not row.any()
