"""In-memory sketch store (the paper's in-memory configuration, §4.2)."""

from __future__ import annotations

import sys

import numpy as np

from repro.exceptions import StorageError
from repro.storage.base import SketchStore, StoreMetadata, WindowRecord

__all__ = ["MemorySketchStore"]


class MemorySketchStore(SketchStore):
    """Dictionary-backed store used for in-memory experiments and tests."""

    def __init__(self) -> None:
        self._metadata: StoreMetadata | None = None
        self._records: dict[int, WindowRecord] = {}

    def write_metadata(self, metadata: StoreMetadata) -> None:
        self._metadata = metadata

    def read_metadata(self) -> StoreMetadata:
        if self._metadata is None:
            raise StorageError("no metadata written to this store")
        return self._metadata

    def write_windows(self, records: list[WindowRecord]) -> None:
        for record in records:
            self._records[record.index] = record

    def read_windows(self, indices: list[int]) -> list[WindowRecord]:
        missing = [i for i in indices if i not in self._records]
        if missing:
            raise StorageError(f"window records missing from store: {missing}")
        return [self._records[i] for i in indices]

    def window_count(self) -> int:
        return len(self._records)

    def next_index(self) -> int:
        return max(self._records, default=-1) + 1

    def size_bytes(self) -> int:
        total = 0
        for record in self._records.values():
            total += record.means.nbytes + record.stds.nbytes + record.pairs.nbytes
            total += sys.getsizeof(record.index) + sys.getsizeof(record.size)
        return total
