"""Lemma 2: incremental correlation update for real-time sliding windows.

For a real-time query ``w = ("now", m)`` the query window slides forward by
one basic window whenever ``B`` new points arrive: the newest basic window
enters, the oldest leaves. Lemma 2 expresses the new correlation in terms of
the previous correlation plus the statistics of just the entering and leaving
windows — no pass over the query window is needed.

This module provides both forms:

* :func:`lemma2_update_pair` — the paper's closed-form update for one pair,
  stated in the lemma's own quantities (previous correlation, previous query
  window stds and means, first/last window stats). Used in tests to validate
  the printed formula and by callers tracking exactly those quantities.
* :class:`SlidingCorrelationState` — the production all-pairs engine. It
  maintains the pooled sufficient statistics of the current query window
  (``T``, per-series sums and sums of squares, all-pair cross sums), each as
  a sum of per-window contributions kept in a deque. Sliding subtracts the
  leaving window's stored contribution and adds the entering one's — an
  algebraically identical, numerically safer restatement of Lemma 2 (the
  stored contributions make subtraction the exact inverse of addition).
  Aggregates are rebuilt from the deque every ``rebuild_every`` slides to
  bound floating-point cancellation drift over long streams.

Both are validated against full Lemma 1 recomputation and the raw baseline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.sketch import Sketch
from repro.core.stats import block_stats
from repro.exceptions import SketchError, StreamError

__all__ = ["PairWindowSnapshot", "PairSlideResult", "lemma2_update_pair",
           "SlidingCorrelationState"]


@dataclass(frozen=True)
class PairWindowSnapshot:
    """Statistics of one basic window for one pair, as Lemma 2 consumes them.

    Attributes:
        size: Window size ``B_j``.
        mean_x: Window mean of ``x``.
        mean_y: Window mean of ``y``.
        var_x: Window population variance of ``x`` (``sigma_xj ** 2``).
        var_y: Window population variance of ``y``.
        cov: Window covariance ``sigma_xj * sigma_yj * c_j``.
    """

    size: float
    mean_x: float
    mean_y: float
    var_x: float
    var_y: float
    cov: float


@dataclass(frozen=True)
class PairSlideResult:
    """Output of one :func:`lemma2_update_pair` step.

    Carries the updated correlation together with the refreshed query-window
    statistics that the *next* step will need as inputs.
    """

    corr: float
    std_x: float
    std_y: float
    grand_x: float
    grand_y: float
    total: float


def lemma2_update_pair(
    corr_t: float,
    std_x: float,
    std_y: float,
    grand_x: float,
    grand_y: float,
    total: float,
    leaving: PairWindowSnapshot,
    entering: PairWindowSnapshot,
) -> PairSlideResult:
    """One Lemma 2 step for a single pair, in the paper's own quantities.

    Args:
        corr_t: ``Corr_t(x, y)`` over the current query window.
        std_x: Population std of ``x`` over the current query window.
        std_y: Population std of ``y`` over the current query window.
        grand_x: Mean of ``x`` over the current query window (``x_{1:ns}``).
        grand_y: Mean of ``y`` over the current query window.
        total: ``T``, number of points in the current query window.
        leaving: Stats of the oldest (dropped) basic window.
        entering: Stats of the newest (added) basic window.

    Returns:
        The updated correlation and query-window statistics.
    """
    total_new = total - leaving.size + entering.size

    # Deltas of the leaving/entering windows relative to the *old* grand mean
    # (the lemma's delta_x1 and delta_x_{ns+1}).
    dx1, dy1 = leaving.mean_x - grand_x, leaving.mean_y - grand_y
    dxn, dyn = entering.mean_x - grand_x, entering.mean_y - grand_y

    # alpha: shift of the grand mean caused by the slide.
    alpha_x = (entering.size * dxn - leaving.size * dx1) / total_new
    alpha_y = (entering.size * dyn - leaving.size * dy1) / total_new

    # New pooled second moments (the C and D terms of the lemma).
    var_x_new = (
        total * std_x**2
        + entering.size * (entering.var_x + dxn**2)
        - leaving.size * (leaving.var_x + dx1**2)
    ) / total_new - alpha_x**2
    var_y_new = (
        total * std_y**2
        + entering.size * (entering.var_y + dyn**2)
        - leaving.size * (leaving.var_y + dy1**2)
    ) / total_new - alpha_y**2
    var_x_new = max(var_x_new, 0.0)
    var_y_new = max(var_y_new, 0.0)

    # New pooled co-moment (the s' term of the lemma).
    comoment = (
        total * std_x * std_y * corr_t
        + entering.size * (entering.cov + dxn * dyn)
        - leaving.size * (leaving.cov + dx1 * dy1)
        - total_new * alpha_x * alpha_y
    )

    std_x_new = float(np.sqrt(var_x_new))
    std_y_new = float(np.sqrt(var_y_new))
    denom = total_new * std_x_new * std_y_new
    corr_new = float(np.clip(comoment / denom, -1.0, 1.0)) if denom > 0.0 else 0.0
    return PairSlideResult(
        corr=corr_new,
        std_x=std_x_new,
        std_y=std_y_new,
        grand_x=grand_x + alpha_x,
        grand_y=grand_y + alpha_y,
        total=total_new,
    )


class SlidingCorrelationState:
    """All-pairs sliding-window correlation state (Lemma 2, vectorized).

    The state tracks the current query window as a FIFO of basic windows.
    Each window contributes three pooled aggregates:

    * ``S`` — per-series sums (``B_j * mean_j``), shape ``(n,)``
    * ``Q`` — per-series sums of squares (``B_j * (std_j^2 + mean_j^2)``)
    * ``P`` — all-pair cross sums (``B_j * (cov_j + mean_j mean_j^T)``)

    from which the exact all-pairs Pearson matrix is
    ``(T*P - S S^T) / (sqrt(T*Q - S^2) outer sqrt(T*Q - S^2))`` — the textbook
    identity that Lemma 1/2 decompose per window.

    Args:
        sketch: Sketch whose trailing windows seed the query window.
        n_windows: How many trailing basic windows form the query window.
        rebuild_every: Rebuild aggregates from stored contributions after this
            many slides, bounding floating-point drift (default 256).
    """

    def __init__(
        self, sketch: Sketch, n_windows: int, rebuild_every: int = 256
    ) -> None:
        if n_windows <= 0:
            raise StreamError("query window must cover at least one basic window")
        if n_windows > sketch.n_windows:
            raise SketchError(
                f"query window of {n_windows} windows exceeds sketched "
                f"{sketch.n_windows}"
            )
        if rebuild_every <= 0:
            raise StreamError("rebuild_every must be positive")
        self._n = sketch.n_series
        self._names = list(sketch.names)
        self._rebuild_every = rebuild_every
        self._slides_since_rebuild = 0
        self._contribs: deque[tuple[np.ndarray, np.ndarray, np.ndarray, int]] = deque()

        start = sketch.n_windows - n_windows
        for j in range(start, sketch.n_windows):
            self._contribs.append(
                self._contribution(
                    sketch.means[:, j],
                    sketch.stds[:, j],
                    sketch.covs[j],
                    int(sketch.sizes[j]),
                )
            )
        self._rebuild_aggregates()

    @staticmethod
    def _contribution(
        mean: np.ndarray, std: np.ndarray, cov: np.ndarray, size: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        s = size * mean
        q = size * (std**2 + mean**2)
        p = size * (cov + np.outer(mean, mean))
        return s, q, p, size

    def _rebuild_aggregates(self) -> None:
        self._sum = np.zeros(self._n)
        self._sumsq = np.zeros(self._n)
        self._cross = np.zeros((self._n, self._n))
        self._total = 0
        for s, q, p, size in self._contribs:
            self._sum += s
            self._sumsq += q
            self._cross += p
            self._total += size
        self._slides_since_rebuild = 0

    @property
    def names(self) -> list[str]:
        """Series identifiers, in matrix row order."""
        return self._names

    @property
    def n_series(self) -> int:
        """Number of tracked series."""
        return self._n

    @property
    def n_windows(self) -> int:
        """Number of basic windows currently inside the query window."""
        return len(self._contribs)

    @property
    def total_points(self) -> int:
        """Number of data points currently inside the query window (``T``)."""
        return self._total

    def slide(
        self,
        mean: np.ndarray,
        std: np.ndarray,
        cov: np.ndarray,
        size: int,
    ) -> None:
        """Advance the query window by one basic window (Lemma 2 step).

        Args:
            mean: Entering window's per-series means, shape ``(n,)``.
            std: Entering window's per-series population stds.
            cov: Entering window's all-pair covariance matrix, shape ``(n, n)``.
            size: Entering window's size ``B*``.
        """
        mean = np.asarray(mean, dtype=np.float64)
        std = np.asarray(std, dtype=np.float64)
        cov = np.asarray(cov, dtype=np.float64)
        if mean.shape != (self._n,) or std.shape != (self._n,):
            raise StreamError(
                f"expected per-series vectors of shape ({self._n},), got "
                f"{mean.shape} and {std.shape}"
            )
        if cov.shape != (self._n, self._n):
            raise StreamError(f"expected covariance of shape ({self._n}, {self._n})")
        if size <= 0:
            raise StreamError("entering window size must be positive")

        old_s, old_q, old_p, old_size = self._contribs.popleft()
        new = self._contribution(mean, std, cov, size)
        self._contribs.append(new)

        self._sum += new[0] - old_s
        self._sumsq += new[1] - old_q
        self._cross += new[2] - old_p
        self._total += size - old_size

        self._slides_since_rebuild += 1
        if self._slides_since_rebuild >= self._rebuild_every:
            self._rebuild_aggregates()

    def slide_raw(self, block: np.ndarray) -> None:
        """Sketch a raw ``(n, B*)`` block on the fly and slide with it."""
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[0] != self._n:
            raise StreamError(
                f"expected a ({self._n}, B) raw block, got shape {block.shape}"
            )
        if block.shape[1] == 0:
            raise StreamError("cannot slide with an empty block")
        self.slide(*block_stats(block), block.shape[1])

    def correlation_matrix(self) -> np.ndarray:
        """Exact all-pairs Pearson matrix of the current query window."""
        t = float(self._total)
        numer = t * self._cross - np.outer(self._sum, self._sum)
        var = np.maximum(t * self._sumsq - self._sum**2, 0.0)
        scale = np.sqrt(var)
        denom = np.outer(scale, scale)
        corr = np.zeros((self._n, self._n))
        np.divide(numer, denom, out=corr, where=denom > 0.0)
        np.clip(corr, -1.0, 1.0, out=corr)
        np.fill_diagonal(corr, 1.0)
        return corr
