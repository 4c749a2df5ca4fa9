"""Statistical significance of correlation thresholds.

The paper leaves the threshold ``theta`` to the user ("a user-provided
correlation threshold"). Climate-network practice often derives it from a
significance level instead: an edge is kept when the correlation is unlikely
under the null hypothesis of independence. For Pearson's correlation on
``m`` samples the test statistic

    t = r * sqrt((m - 2) / (1 - r^2))

follows a Student-t distribution with ``m - 2`` degrees of freedom under the
null, which gives closed forms both ways:

* :func:`critical_correlation` — the threshold ``theta`` equivalent to a
  two-sided significance level ``alpha`` (optionally Bonferroni-corrected
  for the ``N * (N - 1) / 2`` simultaneous pair tests).
* :func:`correlation_pvalues` — two-sided p-values for a whole matrix.
* :func:`significant_adjacency` — adjacency of statistically significant
  *positive* edges, the drop-in replacement for a fixed-θ threshold.

Because TSUBASA returns the complete correlation matrix, significance
filtering is a query-time decision — no re-sketching needed, exactly the
flexibility argument of the paper's introduction.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError

__all__ = [
    "critical_correlation",
    "correlation_pvalues",
    "significant_adjacency",
]


def critical_correlation(
    n_samples: int, alpha: float = 0.05, n_comparisons: int | None = None
) -> float:
    """Smallest ``|r|`` significant at level ``alpha`` (two-sided).

    Args:
        n_samples: Number of points ``m`` the correlation was computed over
            (the query window length); must be > 2.
        alpha: Two-sided significance level.
        n_comparisons: Applies a Bonferroni correction for this many
            simultaneous tests (pass ``N * (N - 1) // 2`` for an all-pairs
            network); ``None`` means no correction.

    Returns:
        The critical correlation in ``(0, 1)``.
    """
    if n_samples <= 2:
        raise DataError(f"need more than 2 samples, got {n_samples}")
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must be in (0, 1), got {alpha}")
    if n_comparisons is not None:
        if n_comparisons <= 0:
            raise DataError("n_comparisons must be positive")
        alpha = alpha / n_comparisons
    from scipy import stats

    dof = n_samples - 2
    t_crit = float(stats.t.ppf(1.0 - alpha / 2.0, dof))
    return t_crit / np.sqrt(dof + t_crit * t_crit)


def correlation_pvalues(corr: np.ndarray, n_samples: int) -> np.ndarray:
    """Two-sided p-values of every entry of a correlation matrix.

    Args:
        corr: ``(n, n)`` correlation matrix.
        n_samples: Number of points each correlation was computed over.

    Returns:
        ``(n, n)`` p-values; the diagonal is 0 (a series is trivially
        correlated with itself). Entries at exactly ``|r| = 1`` get p = 0.
    """
    matrix = np.asarray(corr, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DataError(f"expected a square matrix, got shape {matrix.shape}")
    if n_samples <= 2:
        raise DataError(f"need more than 2 samples, got {n_samples}")
    from scipy import stats

    dof = n_samples - 2
    clipped = np.clip(matrix, -1.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stat = clipped * np.sqrt(dof / np.maximum(1.0 - clipped**2, 0.0))
    pvals = np.where(
        np.abs(clipped) >= 1.0,
        0.0,
        2.0 * stats.t.sf(np.abs(t_stat), dof),
    )
    np.fill_diagonal(pvals, 0.0)
    return pvals


def significant_adjacency(
    corr: np.ndarray,
    n_samples: int,
    alpha: float = 0.05,
    correction: str = "bonferroni",
) -> np.ndarray:
    """Adjacency of significantly *positive* correlations.

    Args:
        corr: ``(n, n)`` correlation matrix.
        n_samples: Number of points each correlation was computed over.
        alpha: Two-sided significance level.
        correction: ``"bonferroni"`` (over all unordered pairs) or
            ``"none"``.

    Returns:
        Boolean ``(n, n)`` adjacency (no self-loops). Equivalent to
        thresholding at :func:`critical_correlation`.
    """
    matrix = np.asarray(corr, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DataError(f"expected a square matrix, got shape {matrix.shape}")
    if correction == "bonferroni":
        n = matrix.shape[0]
        comparisons = max(n * (n - 1) // 2, 1)
    elif correction == "none":
        comparisons = None
    else:
        raise DataError(f"unknown correction {correction!r}")
    theta = critical_correlation(n_samples, alpha, comparisons)
    adjacency = matrix > theta
    np.fill_diagonal(adjacency, False)
    return adjacency
