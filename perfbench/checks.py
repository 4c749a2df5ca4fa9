"""Output checks: every remote answer must equal the in-process answer, bit for bit.

Values are reduced to a canonical byte string and hashed, so a run keeps
one small digest per distinct spec instead of every answer. Floats are
packed as IEEE-754 doubles, so a 1-ulp difference is a mismatch.

Networks compare by their node names, threshold, upper-triangle edge list
and edge weights: the v2 wire format ships exactly those and mirrors them,
while an in-process network keeps the full (possibly 1-ulp asymmetric)
weight matrix.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro.core.matrix import CorrelationMatrix
from repro.core.network import ClimateNetwork


def _feed(h, value) -> None:
    if isinstance(value, CorrelationMatrix):
        h.update(b"M")
        _feed(h, list(value.names))
        h.update(np.ascontiguousarray(value.values, dtype="<f8").tobytes())
    elif isinstance(value, ClimateNetwork):
        rows, cols = np.nonzero(np.triu(value.adjacency, k=1))
        h.update(b"N")
        _feed(h, list(value.names))
        _feed(h, float(value.threshold))
        h.update(rows.astype("<i8").tobytes())
        h.update(cols.astype("<i8").tobytes())
        h.update(np.ascontiguousarray(value.weights[rows, cols],
                                      dtype="<f8").tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(b"L%d:" % len(value))
        for item in value:
            _feed(h, item)
    elif isinstance(value, dict):
        h.update(b"D%d:" % len(value))
        for key, item in value.items():
            _feed(h, key)
            _feed(h, item)
    elif isinstance(value, bool):
        h.update(b"B1" if value else b"B0")
    elif isinstance(value, (int, np.integer)):
        h.update(b"I%d;" % int(value))
    elif isinstance(value, (float, np.floating)):
        h.update(b"F" + struct.pack("<d", float(value)))
    elif isinstance(value, str):
        raw = value.encode()
        h.update(b"S%d:" % len(raw) + raw)
    else:
        raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    _feed(h, value)
    return h.digest()
