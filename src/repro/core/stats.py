"""Basic-window statistics (the TSUBASA "sketch" primitives).

TSUBASA sketches every basic window of every series with two numbers (mean and
population standard deviation) and every aligned basic window of every *pair*
of series with one number (the Pearson correlation inside that window).
Lemma 1 of the paper recombines exactly these quantities into the exact
Pearson correlation over any union of basic windows.

This module provides:

* :class:`WindowStats` — (mean, std, size) of one basic window of one series.
* :class:`PairWindowStats` — per-window pair statistics (correlation and the
  equivalent covariance).
* Vectorized helpers that compute the per-window statistics for a whole
  ``(n_series, length)`` matrix in one pass (`Algorithm 1` of the paper).
* A numerically careful streaming accumulator (:class:`RunningWindowStats`,
  Welford's algorithm extended with a co-moment) used by the real-time
  ingestion path where data arrives value by value.

All standard deviations are *population* (``ddof=0``) ones: the algebra of
Lemma 1 (pooled variance / covariance decompositions) only closes with the
biased estimator. Tests assert exact agreement with ``numpy.corrcoef``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataError

__all__ = [
    "WindowStats",
    "PairWindowStats",
    "window_stats",
    "pair_window_stats",
    "block_stats",
    "series_window_stats",
    "pairwise_window_covariances",
    "pairwise_window_correlations",
    "RunningWindowStats",
    "RunningPairStats",
]


@dataclass(frozen=True)
class WindowStats:
    """Sufficient statistics of one basic window of one series.

    Attributes:
        mean: Arithmetic mean of the window values.
        std: Population standard deviation (``ddof=0``).
        size: Number of data points in the window.
    """

    mean: float
    std: float
    size: int

    @property
    def var(self) -> float:
        """Population variance of the window."""
        return self.std * self.std

    @property
    def total(self) -> float:
        """Sum of the window values (``size * mean``)."""
        return self.size * self.mean

    @property
    def sum_sq(self) -> float:
        """Sum of squared values, recovered from mean/std/size."""
        return self.size * (self.var + self.mean * self.mean)


@dataclass(frozen=True)
class PairWindowStats:
    """Pair statistics of one aligned basic window of two series.

    The paper's sketch stores the per-window Pearson correlation ``c_j``.
    We additionally carry the per-window covariance, which is what Lemma 1
    actually consumes (``sigma_xj * sigma_yj * c_j``); keeping it explicit
    sidesteps the 0/0 ambiguity of ``c_j`` when a window is constant.

    Attributes:
        corr: Pearson correlation of the two windows (0.0 when either window
            is constant — the covariance is 0 in that case, so Lemma 1 is
            unaffected by this convention).
        cov: Population covariance of the two windows.
        size: Number of data points in the window.
    """

    corr: float
    cov: float
    size: int


def _as_window(values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DataError(f"expected a 1-D window, got shape {arr.shape}")
    if arr.size == 0:
        raise DataError("cannot compute statistics of an empty window")
    if not np.all(np.isfinite(arr)):
        raise DataError("window contains NaN or infinite values")
    return arr


def window_stats(values: np.ndarray) -> WindowStats:
    """Compute :class:`WindowStats` for a single 1-D window.

    Args:
        values: Window values; must be 1-D, non-empty, and finite.

    Returns:
        The (mean, population std, size) triple of the window.
    """
    arr = _as_window(values)
    return WindowStats(mean=float(arr.mean()), std=float(arr.std()), size=arr.size)


def block_stats(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sketch one basic window of every series at once.

    Args:
        block: ``(n, B)`` float64 matrix of one basic window (validated by
            the caller: non-empty and finite).

    Returns:
        ``(means, stds, covs)``: per-series means and population stds of
        shape ``(n,)``, and the all-pair population covariance matrix of
        shape ``(n, n)`` — one window's column of a sketch.
    """
    mean = block.mean(axis=1)
    centered = block - mean[:, None]
    return mean, block.std(axis=1), centered @ centered.T / block.shape[1]


def pair_window_stats(x: np.ndarray, y: np.ndarray) -> PairWindowStats:
    """Compute :class:`PairWindowStats` for an aligned pair of 1-D windows.

    Args:
        x: First window.
        y: Second window; must have the same length as ``x``.

    Returns:
        Per-window correlation and covariance of the pair.
    """
    ax = _as_window(x)
    ay = _as_window(y)
    if ax.size != ay.size:
        raise DataError(
            f"aligned windows must have equal length ({ax.size} != {ay.size})"
        )
    cov = float(np.mean((ax - ax.mean()) * (ay - ay.mean())))
    denom = float(ax.std() * ay.std())
    corr = cov / denom if denom > 0.0 else 0.0
    return PairWindowStats(corr=corr, cov=cov, size=ax.size)


def series_window_stats(
    data: np.ndarray, boundaries: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-basic-window mean and std for a whole series matrix in one pass.

    Args:
        data: ``(n_series, length)`` matrix of synchronized series.
        boundaries: Window boundary offsets, shape ``(ns + 1,)``; window ``j``
            covers columns ``boundaries[j]:boundaries[j + 1]``.

    Returns:
        ``(means, stds, sizes)`` where ``means`` and ``stds`` have shape
        ``(n_series, ns)`` and ``sizes`` has shape ``(ns,)``.
    """
    matrix = np.asarray(data, dtype=np.float64)
    if matrix.ndim != 2:
        raise DataError(f"expected a 2-D series matrix, got shape {matrix.shape}")
    bounds = np.asarray(boundaries, dtype=np.int64)
    sizes = np.diff(bounds)
    if sizes.size == 0 or np.any(sizes <= 0):
        raise DataError("window boundaries must be strictly increasing")
    if bounds[0] != 0 or bounds[-1] > matrix.shape[1]:
        raise DataError("window boundaries fall outside the series matrix")

    n_windows = sizes.size
    means = np.empty((matrix.shape[0], n_windows), dtype=np.float64)
    stds = np.empty_like(means)
    for j in range(n_windows):
        block = matrix[:, bounds[j] : bounds[j + 1]]
        means[:, j] = block.mean(axis=1)
        stds[:, j] = block.std(axis=1)
    return means, stds, sizes


def pairwise_window_covariances(
    data: np.ndarray, boundaries: np.ndarray
) -> np.ndarray:
    """All-pair per-window population covariances.

    For each basic window ``j`` this computes the full ``n x n`` covariance
    matrix of the series restricted to that window, which is the pairwise part
    of the TSUBASA sketch (``sigma_xj * sigma_yj * c_j`` for every pair).

    Args:
        data: ``(n_series, length)`` matrix.
        boundaries: Window boundary offsets, shape ``(ns + 1,)``.

    Returns:
        Array of shape ``(ns, n_series, n_series)``; slice ``j`` is the
        covariance matrix of window ``j``.
    """
    matrix = np.asarray(data, dtype=np.float64)
    bounds = np.asarray(boundaries, dtype=np.int64)
    sizes = np.diff(bounds)
    n_series = matrix.shape[0]
    covs = np.empty((sizes.size, n_series, n_series), dtype=np.float64)
    for j in range(sizes.size):
        block = matrix[:, bounds[j] : bounds[j + 1]]
        centered = block - block.mean(axis=1, keepdims=True)
        covs[j] = centered @ centered.T / sizes[j]
    return covs


def pairwise_window_correlations(
    data: np.ndarray, boundaries: np.ndarray
) -> np.ndarray:
    """All-pair per-window Pearson correlations (the paper's ``c_j``).

    Constant windows (zero std) yield correlation 0 for the pairs involving
    them, matching the :func:`pair_window_stats` convention.

    Args:
        data: ``(n_series, length)`` matrix.
        boundaries: Window boundary offsets.

    Returns:
        Array of shape ``(ns, n_series, n_series)``.
    """
    covs = pairwise_window_covariances(data, boundaries)
    _, stds, __ = series_window_stats(data, boundaries)
    corrs = np.zeros_like(covs)
    for j in range(covs.shape[0]):
        denom = np.outer(stds[:, j], stds[:, j])
        np.divide(covs[j], denom, out=corrs[j], where=denom > 0.0)
    return corrs


class RunningWindowStats:
    """Streaming mean/variance accumulator (Welford's algorithm).

    Used by the ingestion path to sketch a basic window while its values
    arrive one at a time, without buffering more than is needed.
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def push(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        if not np.isfinite(value):
            raise DataError("cannot push a NaN or infinite value")
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    @property
    def count(self) -> int:
        """Number of observations pushed so far."""
        return self._count

    def snapshot(self) -> WindowStats:
        """Freeze the accumulator into a :class:`WindowStats`."""
        if self._count == 0:
            raise DataError("no observations pushed yet")
        return WindowStats(
            mean=self._mean,
            std=float(np.sqrt(max(self._m2, 0.0) / self._count)),
            size=self._count,
        )


class RunningPairStats:
    """Streaming pair accumulator: two Welford states plus a co-moment.

    Produces the per-window pair covariance/correlation incrementally, so the
    real-time path can sketch the newest basic window with a single pass and
    O(1) memory per pair.
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean_x = 0.0
        self._mean_y = 0.0
        self._m2_x = 0.0
        self._m2_y = 0.0
        self._cmom = 0.0

    def push(self, x: float, y: float) -> None:
        """Fold one aligned observation pair into the accumulator."""
        if not (np.isfinite(x) and np.isfinite(y)):
            raise DataError("cannot push a NaN or infinite value")
        self._count += 1
        dx = x - self._mean_x
        self._mean_x += dx / self._count
        self._m2_x += dx * (x - self._mean_x)
        dy = y - self._mean_y
        self._mean_y += dy / self._count
        dy_new = y - self._mean_y
        self._m2_y += dy * dy_new
        self._cmom += dx * dy_new

    @property
    def count(self) -> int:
        """Number of observation pairs pushed so far."""
        return self._count

    def snapshot(self) -> PairWindowStats:
        """Freeze the accumulator into a :class:`PairWindowStats`."""
        if self._count == 0:
            raise DataError("no observations pushed yet")
        cov = self._cmom / self._count
        std_x = np.sqrt(max(self._m2_x, 0.0) / self._count)
        std_y = np.sqrt(max(self._m2_y, 0.0) / self._count)
        denom = std_x * std_y
        corr = cov / denom if denom > 0.0 else 0.0
        return PairWindowStats(corr=float(corr), cov=float(cov), size=self._count)
