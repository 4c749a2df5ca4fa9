"""The TSUBASA sketch (Algorithm 1: ``Preprocessing``).

A :class:`Sketch` holds, for a collection of ``n`` synchronized series
segmented by a :class:`~repro.core.segmentation.BasicWindowPlan`:

* per-series, per-window means and population standard deviations
  (``2 * n * ns`` floats), and
* per-pair, per-window covariance matrices (``ns * n * n`` floats; the
  paper stores the per-window correlation ``c_j``, which is recoverable as
  ``cov_j / (sigma_xj * sigma_yj)`` — we store the covariance because it is
  the quantity Lemma 1 consumes and it is well-defined for constant windows).

This matches the paper's space complexity ``O(L * N^2 / B)``. Sketching is a
single pass over the data (``O(L * N^2)`` time, dominated by the per-window
pair products), performed at ingestion time; queries never touch raw data
except for the partial head/tail fragments of arbitrary (non-aligned) query
windows.

Sketches are append-only: real-time ingestion extends them one basic window
at a time via :meth:`Sketch.append_window`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.segmentation import BasicWindowPlan
from repro.core.stats import (
    block_stats,
    pairwise_window_covariances,
    series_window_stats,
)
from repro.exceptions import DataError, SketchError

__all__ = ["Sketch", "build_sketch"]


@dataclass
class Sketch:
    """Pre-computed basic-window statistics for a series collection.

    Attributes:
        names: Series identifiers, in row order.
        window_size: The basic window size ``B`` used for segmentation.
        means: Per-series per-window means, shape ``(n, ns)``.
        stds: Per-series per-window population stds, shape ``(n, ns)``.
        covs: Per-window all-pair covariance matrices, shape ``(ns, n, n)``.
        sizes: Per-window sizes ``B_j``, shape ``(ns,)``.
    """

    names: list[str]
    window_size: int
    means: np.ndarray
    stds: np.ndarray
    covs: np.ndarray
    sizes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n, ns = self.means.shape
        if len(self.names) != n:
            raise SketchError(f"{len(self.names)} names for {n} sketched series")
        if self.stds.shape != (n, ns):
            raise SketchError(f"stds shape {self.stds.shape} != ({n}, {ns})")
        if self.covs.shape != (ns, n, n):
            raise SketchError(f"covs shape {self.covs.shape} != ({ns}, {n}, {n})")
        if self.sizes.shape != (ns,):
            raise SketchError(f"sizes shape {self.sizes.shape} != ({ns},)")

    @property
    def n_series(self) -> int:
        """Number of sketched series."""
        return self.means.shape[0]

    @property
    def n_windows(self) -> int:
        """Number of sketched basic windows."""
        return self.means.shape[1]

    @property
    def length(self) -> int:
        """Total number of sketched data points per series."""
        return int(self.sizes.sum())

    def correlations(self) -> np.ndarray:
        """Per-window all-pair Pearson correlations ``c_j`` (paper's form).

        Returns:
            Array of shape ``(ns, n, n)``; entries with a constant window on
            either side are 0.
        """
        corrs = np.zeros_like(self.covs)
        for j in range(self.n_windows):
            denom = np.outer(self.stds[:, j], self.stds[:, j])
            np.divide(self.covs[j], denom, out=corrs[j], where=denom > 0.0)
        return corrs

    def select(self, window_indices: np.ndarray) -> "Sketch":
        """Restrict the sketch to a subset of basic windows (query alignment)."""
        idx = np.asarray(window_indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_windows):
            raise SketchError(
                f"window indices out of range [0, {self.n_windows}): {idx}"
            )
        return Sketch(
            names=self.names,
            window_size=self.window_size,
            means=self.means[:, idx],
            stds=self.stds[:, idx],
            covs=self.covs[idx],
            sizes=self.sizes[idx],
        )

    def append_window(self, block: np.ndarray) -> None:
        """Sketch one newly arrived basic window and append it (real-time path).

        Args:
            block: ``(n, B*)`` matrix of the newest basic window's raw values;
                ``B*`` may differ from ``window_size`` (variable-size support).
        """
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[0] != self.n_series:
            raise DataError(
                f"expected a ({self.n_series}, B) block, got shape {block.shape}"
            )
        if block.shape[1] == 0:
            raise DataError("cannot append an empty basic window")
        mean, std, cov = block_stats(block)

        self.means = np.concatenate([self.means, mean[:, None]], axis=1)
        self.stds = np.concatenate([self.stds, std[:, None]], axis=1)
        self.covs = np.concatenate([self.covs, cov[None]], axis=0)
        self.sizes = np.append(self.sizes, np.int64(block.shape[1]))

    def drop_leading_windows(self, count: int) -> None:
        """Discard the ``count`` oldest basic windows (sliding retention)."""
        if count < 0 or count > self.n_windows:
            raise SketchError(
                f"cannot drop {count} of {self.n_windows} sketched windows"
            )
        self.means = self.means[:, count:]
        self.stds = self.stds[:, count:]
        self.covs = self.covs[count:]
        self.sizes = self.sizes[count:]


def build_sketch(
    data: np.ndarray,
    window_size: int,
    names: list[str] | None = None,
) -> Sketch:
    """Algorithm 1: sketch a series collection in one pass.

    Args:
        data: ``(n, L)`` matrix of synchronized series.
        window_size: Basic window size ``B``.
        names: Optional series identifiers; defaults to ``s0000 ...``.

    Returns:
        The complete :class:`Sketch` (series stats + pairwise window stats).
    """
    matrix = np.asarray(data, dtype=np.float64)
    if matrix.ndim != 2:
        raise DataError(f"expected a 2-D series matrix, got shape {matrix.shape}")
    plan = BasicWindowPlan(length=matrix.shape[1], window_size=window_size)
    boundaries = plan.boundaries
    means, stds, sizes = series_window_stats(matrix, boundaries)
    covs = pairwise_window_covariances(matrix, boundaries)
    if names is None:
        names = [f"s{i:04d}" for i in range(matrix.shape[0])]
    return Sketch(
        names=list(names),
        window_size=window_size,
        means=means,
        stds=stds,
        covs=covs,
        sizes=sizes,
    )
