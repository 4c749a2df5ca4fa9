"""Climate network objects (the graph ``N = (G, V)`` of §2.1).

A :class:`ClimateNetwork` couples the thresholded adjacency structure with
node metadata (geographic coordinates, when available) and the edge weights
(correlations). It exports to ``networkx`` for downstream network science
(visualization, community detection, topology analysis — see
:mod:`repro.analysis`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.matrix import CorrelationMatrix, count_edges
from repro.exceptions import DataError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["ClimateNetwork"]


@dataclass
class ClimateNetwork:
    """A thresholded climate network with correlation edge weights.

    Attributes:
        names: Node identifiers (geo-labeled series), in matrix order.
        adjacency: ``(n, n)`` boolean adjacency (no self-loops).
        weights: ``(n, n)`` correlation values backing the edges.
        threshold: The correlation threshold ``theta`` that produced it.
        coordinates: Optional ``name -> (lat, lon)`` node positions.
    """

    names: list[str]
    adjacency: np.ndarray
    weights: np.ndarray
    threshold: float
    coordinates: dict[str, tuple[float, float]] | None = None
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.adjacency = np.asarray(self.adjacency, dtype=bool)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        n = len(self.names)
        if self.adjacency.shape != (n, n):
            raise DataError(
                f"adjacency shape {self.adjacency.shape} does not match {n} names"
            )
        if self.weights.shape != (n, n):
            raise DataError(
                f"weights shape {self.weights.shape} does not match {n} names"
            )
        self._index = {name: i for i, name in enumerate(self.names)}

    @classmethod
    def from_matrix(
        cls,
        matrix: CorrelationMatrix,
        theta: float,
        coordinates: dict[str, tuple[float, float]] | None = None,
    ) -> "ClimateNetwork":
        """Threshold a correlation matrix into a climate network."""
        return cls(
            names=list(matrix.names),
            adjacency=matrix.threshold(theta),
            weights=matrix.values.copy(),
            threshold=theta,
            coordinates=coordinates,
        )

    @property
    def n_nodes(self) -> int:
        """Number of nodes (series/locations)."""
        return len(self.names)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return count_edges(self.adjacency)

    def degree(self, name: str) -> int:
        """Degree of node ``name``."""
        return int(self.adjacency[self._index[name]].sum())

    def degrees(self) -> np.ndarray:
        """Degree of every node, in ``names`` order."""
        return self.adjacency.sum(axis=1).astype(np.int64)

    def has_edge(self, a: str, b: str) -> bool:
        """Whether nodes ``a`` and ``b`` are connected."""
        return bool(self.adjacency[self._index[a], self._index[b]])

    def edge_weight(self, a: str, b: str) -> float:
        """Correlation weight between nodes ``a`` and ``b``."""
        return float(self.weights[self._index[a], self._index[b]])

    def edge_set(self) -> set[tuple[str, str]]:
        """Set of undirected edges as sorted name pairs."""
        rows, cols = np.nonzero(np.triu(self.adjacency, k=1))
        return {
            (self.names[i], self.names[j])
            for i, j in zip(rows.tolist(), cols.tolist())
        }

    def to_networkx(self) -> nx.Graph:
        """Export to a ``networkx.Graph`` with correlation edge weights.

        Node attributes include ``lat``/``lon`` when coordinates are known.
        """
        import networkx as nx

        graph = nx.Graph()
        for name in self.names:
            attrs = {}
            if self.coordinates and name in self.coordinates:
                attrs["lat"], attrs["lon"] = self.coordinates[name]
            graph.add_node(name, **attrs)
        rows, cols = np.nonzero(np.triu(self.adjacency, k=1))
        for i, j in zip(rows.tolist(), cols.tolist()):
            graph.add_edge(
                self.names[i], self.names[j], weight=float(self.weights[i, j])
            )
        return graph
