"""Durable real-time operation: persist sketches as the stream flows.

The paper's architecture (Fig. 3) sketches newly ingested basic windows "on
the fly"; a production deployment also needs those sketches *persisted* so
that (a) a crashed consumer can warm-start from disk and (b) historical
queries over the already-streamed past stay answerable. This module couples
a :class:`~repro.core.realtime.TsubasaRealtime` engine with a
:class:`~repro.storage.base.SketchStore`: every completed basic window is
appended to the store as it is folded into the sliding network.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.realtime import TsubasaRealtime

if TYPE_CHECKING:
    from repro.core.matrix import CorrelationMatrix
    from repro.core.network import ClimateNetwork
from repro.core.sketch import build_sketch
from repro.exceptions import StreamError
from repro.storage.base import SketchStore, StoreMetadata, WindowRecord
from repro.storage.serialize import save_sketch

__all__ = ["PersistentRealtime"]


class PersistentRealtime:
    """A real-time engine whose sketches are durably appended to a store.

    Args:
        engine: The wrapped real-time engine.
        store: Open sketch store; receives the initial window's sketch on
            construction and one record per completed basic window after.
    """

    def __init__(self, engine: TsubasaRealtime, store: SketchStore) -> None:
        self._engine = engine
        self._store = store
        self._next_index = self._bootstrap()

    def _bootstrap(self) -> int:
        """Ensure store metadata exists and matches; return the next index.

        The next index is one past the highest committed window, not the
        record count: on a store with holes the count points below a
        committed record, and appending there would overwrite it.
        """
        from repro.exceptions import StorageError

        try:
            metadata = self._store.read_metadata()
        except StorageError:
            self._store.write_metadata(
                StoreMetadata(
                    names=tuple(self._engine.names),
                    window_size=self._engine.window_size,
                    kind="exact",
                )
            )
        else:
            if list(metadata.names) != list(self._engine.names):
                raise StreamError(
                    "store metadata names do not match the engine's series"
                )
            if metadata.window_size != self._engine.window_size:
                raise StreamError(
                    f"store window size {metadata.window_size} != engine's "
                    f"{self._engine.window_size}"
                )
        return self._store.next_index()

    @property
    def engine(self) -> TsubasaRealtime:
        """The wrapped real-time engine."""
        return self._engine

    @property
    def windows_persisted(self) -> int:
        """Number of window records currently in the store."""
        return self._store.window_count()

    @classmethod
    def bootstrap(
        cls,
        initial_data: np.ndarray,
        window_size: int,
        store: SketchStore,
        names: list[str] | None = None,
    ) -> "PersistentRealtime":
        """Create engine + store together, persisting the seed windows.

        Args:
            initial_data: ``(n, m)`` seed matrix (``m`` a multiple of ``B``).
            window_size: Basic window size ``B``.
            store: Open, *empty* sketch store.
            names: Optional series identifiers.

        Returns:
            A ready :class:`PersistentRealtime` with the seed persisted.
        """
        engine = TsubasaRealtime(initial_data, window_size, names=names)
        seed = build_sketch(initial_data, window_size, names=names)
        save_sketch(store, seed)
        return cls(engine, store)

    @classmethod
    def resume(cls, store: SketchStore, query_windows: int) -> "PersistentRealtime":
        """Warm-start from a store written by a previous process.

        Only the trailing ``query_windows`` records are read back — resuming
        off a store holding a long history stays cheap.

        Args:
            store: Store holding the persisted sketches.
            query_windows: Query window length in basic windows; the engine
                resumes over the store's trailing ``query_windows`` records.

        Returns:
            A :class:`PersistentRealtime` whose network state equals the one
            the previous process would have had (tested).
        """
        from repro.engine.providers import StoreProvider

        provider = StoreProvider(store, cache_windows=0)
        if query_windows > provider.n_windows:
            raise StreamError(
                f"store holds {provider.n_windows} windows, cannot resume a "
                f"{query_windows}-window query"
            )
        engine = TsubasaRealtime.from_provider(provider, query_windows)
        return cls(engine, store)

    def ingest(self, values: np.ndarray) -> int:
        """Ingest a batch; every completed window is persisted then slid.

        The batch is validated and its windows sketched once, before
        anything is written: a rejected batch (wrong shape, NaN or
        infinite values) leaves both the store and the engine untouched,
        and the engine slides with exactly the statistics persisted.

        Returns:
            Number of basic windows completed by this batch.
        """
        sketched = self._engine.sketch_batch(values)
        if sketched.windows:
            window_size = self._engine.window_size
            self._store.write_windows([
                WindowRecord(
                    index=self._next_index + j,
                    means=mean,
                    stds=std,
                    pairs=cov,
                    size=window_size,
                )
                for j, (mean, std, cov) in enumerate(sketched.windows)
            ])
            self._next_index += len(sketched.windows)
        return self._engine.ingest(sketched)

    def network(self, theta: float) -> "ClimateNetwork":
        """Current climate network (delegates to the engine)."""
        return self._engine.network(theta)

    def correlation_matrix(self) -> "CorrelationMatrix":
        """Current correlation matrix (delegates to the engine)."""
        return self._engine.correlation_matrix()
