"""Network-Construct-RealTime (Algorithm 3): streaming network maintenance.

The real-time engine answers the standing query ``w = ("now", m)``: the
network over the most recent ``m`` observed points. Data is ingested in
arbitrary-sized batches; the engine buffers until a full basic window of
``B`` points has accumulated (Algorithm 3, lines 5–6), sketches that window
on the fly, and advances the all-pairs correlation state with one Lemma 2
step — never recomputing from scratch.

Edge *churn* between consecutive network snapshots (appearing/disappearing
edges, the "blinking links" of the climate literature) is exposed through
:meth:`TsubasaRealtime.diff_network`, which downstream dynamics analysis
(:mod:`repro.analysis.dynamics`) builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.lemma2 import SlidingCorrelationState
from repro.core.matrix import CorrelationMatrix
from repro.core.network import ClimateNetwork
from repro.core.sketch import Sketch, build_sketch
from repro.core.stats import block_stats
from repro.exceptions import DataError, StreamError

if TYPE_CHECKING:
    from repro.engine.providers import SketchProvider

__all__ = ["SketchedBatch", "TsubasaRealtime"]


@dataclass(frozen=True)
class SketchedBatch:
    """An ingest batch, validated, with its completed basic windows sketched.

    Made by :meth:`TsubasaRealtime.sketch_batch` without touching the
    engine's state; :meth:`TsubasaRealtime.ingest` folds it in. The split
    lets a durable wrapper persist exactly the statistics the engine will
    slide with, before the engine changes.

    Attributes:
        windows: ``(means, stds, covs)`` of each basic window the batch
            completes, oldest first (see :func:`~repro.core.stats.block_stats`).
        remainder: Points left buffered after those windows.
        base: The engine's ``(now, pending)`` when the batch was sketched;
            folding it into any other state is refused.
    """

    windows: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    remainder: np.ndarray
    base: tuple[int, int]


class TsubasaRealtime:
    """Maintain an exact climate network over a sliding real-time window.

    Args:
        initial_data: ``(n, m)`` matrix seeding the query window. ``m`` must
            be a multiple of ``window_size`` (the real-time path processes
            whole basic windows, per §3.1.2).
        window_size: Basic window size ``B``.
        names: Optional series identifiers.
        coordinates: Optional ``name -> (lat, lon)`` positions for networks.
    """

    def __init__(
        self,
        initial_data: np.ndarray,
        window_size: int,
        names: list[str] | None = None,
        coordinates: dict[str, tuple[float, float]] | None = None,
    ) -> None:
        matrix = np.asarray(initial_data, dtype=np.float64)
        if matrix.ndim != 2:
            raise DataError(f"expected a 2-D series matrix, got shape {matrix.shape}")
        if matrix.shape[1] % window_size != 0:
            raise StreamError(
                f"initial window length {matrix.shape[1]} must be a multiple of "
                f"the basic window size {window_size}"
            )
        sketch = build_sketch(matrix, window_size, names=names)
        self._init_state(sketch, window_size, coordinates, matrix.shape[1])

    def _init_state(
        self,
        sketch: Sketch,
        window_size: int,
        coordinates: dict[str, tuple[float, float]] | None,
        timestamp: int,
    ) -> None:
        self._window_size = window_size
        self._state = SlidingCorrelationState(sketch, sketch.n_windows)
        self._buffer = np.empty((sketch.n_series, 0), dtype=np.float64)
        self._coordinates = coordinates
        self._timestamp = timestamp
        self._windows_processed = 0

    @classmethod
    def from_provider(
        cls,
        provider: "SketchProvider",
        query_windows: int | None = None,
        coordinates: dict[str, tuple[float, float]] | None = None,
    ) -> "TsubasaRealtime":
        """Warm-start the sliding state from any sketch backend.

        Seeds the standing query over the provider's trailing basic windows
        without touching raw data — only the ``query_windows`` needed window
        records are materialized, so resuming off a large store stays cheap.

        Args:
            provider: Any :class:`~repro.engine.providers.SketchProvider`
                holding the already-sketched past.
            query_windows: Standing query length in basic windows; defaults
                to every window the provider holds.
            coordinates: Optional ``name -> (lat, lon)`` node positions.

        Returns:
            A ready engine whose network state equals one that had streamed
            the provider's trailing windows itself (tested).
        """
        n_windows = provider.n_windows if query_windows is None else query_windows
        if n_windows <= 0:
            raise StreamError("query_windows must be positive")
        if n_windows > provider.n_windows:
            raise StreamError(
                f"provider holds {provider.n_windows} windows, cannot seed a "
                f"{n_windows}-window query"
            )
        indices = np.arange(provider.n_windows - n_windows, provider.n_windows)
        sizes = provider.sizes[indices]
        if np.any(sizes != provider.window_size):
            raise StreamError(
                "real-time seeding requires whole basic windows; the provider's "
                f"trailing windows have sizes {sizes.tolist()} for B="
                f"{provider.window_size}"
            )
        sketch = provider.materialize(indices)
        engine = cls.__new__(cls)
        engine._init_state(
            sketch, provider.window_size, coordinates, provider.length
        )
        return engine

    @property
    def names(self) -> list[str]:
        """Series identifiers, in matrix order."""
        return self._state.names

    @property
    def window_size(self) -> int:
        """Basic window size ``B``."""
        return self._window_size

    @property
    def query_windows(self) -> int:
        """Length of the standing query window, in basic windows."""
        return self._state.n_windows

    @property
    def now(self) -> int:
        """Offset of the most recent point folded into the network."""
        return self._timestamp

    @property
    def pending(self) -> int:
        """Number of buffered points not yet forming a full basic window."""
        return self._buffer.shape[1]

    @property
    def windows_processed(self) -> int:
        """Number of Lemma 2 slides performed since construction."""
        return self._windows_processed

    def sketch_batch(self, values: np.ndarray) -> SketchedBatch:
        """Validate a batch and sketch the basic windows it completes.

        The engine's state is not changed; pass the result to
        :meth:`ingest` to fold it in.

        Args:
            values: ``(n, k)`` batch of new synchronized points, ``k >= 0``.
                A 1-D array of length ``n`` is accepted as a single tick.

        Raises:
            StreamError: On a batch of the wrong shape.
            DataError: On NaN or infinite values.
        """
        batch = np.asarray(values, dtype=np.float64)
        if batch.ndim == 1:
            batch = batch[:, None]
        if batch.ndim != 2 or batch.shape[0] != self._state.n_series:
            raise StreamError(
                f"expected a ({self._state.n_series}, k) batch, got shape "
                f"{batch.shape}"
            )
        if not np.all(np.isfinite(batch)):
            raise DataError("ingested batch contains NaN or infinite values")

        pending = np.concatenate([self._buffer, batch], axis=1)
        size = self._window_size
        complete = pending.shape[1] // size
        return SketchedBatch(
            windows=tuple(
                block_stats(pending[:, j * size : (j + 1) * size])
                for j in range(complete)
            ),
            remainder=pending[:, complete * size :],
            base=(self._timestamp, self.pending),
        )

    def ingest(self, values: "np.ndarray | SketchedBatch") -> int:
        """Ingest a batch of new observations (Algorithm 3, lines 4–9).

        Args:
            values: ``(n, k)`` batch of new synchronized points, ``k >= 0``
                (a 1-D array of length ``n`` is a single tick), or a batch
                already sketched by :meth:`sketch_batch` against the
                current state.

        Returns:
            The number of basic windows completed (and Lemma 2 slides
            performed) by this batch.
        """
        if isinstance(values, SketchedBatch):
            sketched = values
            if sketched.base != (self._timestamp, self.pending):
                raise StreamError(
                    "batch was sketched against an earlier engine state"
                )
        else:
            sketched = self.sketch_batch(values)
        for mean, std, cov in sketched.windows:
            self._state.slide(mean, std, cov, self._window_size)
            self._timestamp += self._window_size
            self._windows_processed += 1
        self._buffer = sketched.remainder
        return len(sketched.windows)

    def correlation_matrix(self) -> CorrelationMatrix:
        """Exact correlation matrix over the current query window."""
        return CorrelationMatrix(
            names=list(self._state.names),
            values=self._state.correlation_matrix(),
        )

    def network(self, theta: float) -> ClimateNetwork:
        """Current climate network for threshold ``theta``."""
        return ClimateNetwork.from_matrix(
            self.correlation_matrix(), theta, self._coordinates
        )

    def diff_network(
        self, previous: ClimateNetwork, theta: float
    ) -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
        """Edge churn between a previous snapshot and the current network.

        Args:
            previous: An earlier network over the same node set.
            theta: Threshold for the current snapshot.

        Returns:
            ``(appeared, disappeared)`` sets of undirected edges.
        """
        current = self.network(theta)
        if previous.names != current.names:
            raise StreamError("cannot diff networks over different node sets")
        old_edges = previous.edge_set()
        new_edges = current.edge_set()
        return new_edges - old_edges, old_edges - new_edges
