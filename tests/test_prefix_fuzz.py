"""Bit-accuracy fuzz: combine_matrix_prefix vs the direct Lemma 1 kernel.

The prefix kernel's accuracy contract (:mod:`repro.core.prefix`) promises
agreement with :func:`~repro.core.lemma1.combine_matrix` within
:data:`~repro.core.prefix.PREFIX_ATOL` on every correlation entry, across
the regimes a deployment actually hits: random sizes and ranges, long
histories (``ns >= 5000``), huge mean offsets (the naive-variance
cancellation trap), near-constant series, and drifting means. Every case is
generated from a seed printed on failure, so a red run is reproducible with
``_run_case(seed)``.

Arbitrary (non-aligned) windows fold their raw head/tail fragments into the
range moments; the fragmented cases hold that fold to the same tolerance
against the direct streaming path
(:func:`~repro.core.exact.query_correlation_matrix` over an in-memory
provider, which has no prefix tables).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exact import fragment_stats, query_correlation_matrix
from repro.core.lemma1 import combine_matrix
from repro.core.prefix import (
    PREFIX_ATOL,
    build_prefix_aggregates,
    combine_matrix_prefix,
)
from repro.core.segmentation import QueryWindow
from repro.core.sketch import build_sketch
from repro.engine.providers import InMemoryProvider

#: Random fuzz seeds (kept small enough for CI; bump locally to fuzz wider).
FUZZ_SEEDS = tuple(range(24))

#: Ranges compared per generated sketch.
RANGES_PER_CASE = 8


def _generate_data(rng: np.random.Generator) -> np.ndarray:
    """One random series collection spanning the contract's regimes."""
    n = int(rng.integers(2, 9))
    n_windows = int(rng.integers(3, 400))
    window = int(rng.integers(2, 9))
    length = n_windows * window + int(rng.integers(0, window))  # short tail
    regime = int(rng.integers(0, 4))
    base = rng.standard_normal((n, length))
    if regime == 0:  # plain standardized noise
        data = base
    elif regime == 1:  # huge per-series offsets: the cancellation trap
        data = base + rng.uniform(-1e6, 1e6, (n, 1))
    elif regime == 2:  # near-constant series (tiny genuine variance)
        data = 1e-6 * base + rng.uniform(-10, 10, (n, 1))
    else:  # slow mean drift across the history
        drift = np.linspace(0, 1, length) * rng.uniform(-50, 50, (n, 1))
        data = base + drift
    # Mix in cross-series correlation so the matrices are not near-diagonal.
    shared = rng.standard_normal(length)
    return data + rng.uniform(0.0, 2.0, (n, 1)) * shared


def _compare_ranges(sketch, rng: np.random.Generator, seed: int) -> None:
    aggregates = build_prefix_aggregates(
        sketch.means, sketch.stds, sketch.covs, sketch.sizes
    )
    ns = sketch.n_windows
    for _ in range(RANGES_PER_CASE):
        lo = int(rng.integers(0, ns))
        hi = int(rng.integers(lo + 1, ns + 1))
        idx = np.arange(lo, hi)
        direct = combine_matrix(
            sketch.means[:, idx],
            sketch.stds[:, idx],
            sketch.covs[idx],
            sketch.sizes[idx].astype(np.float64),
        )
        prefix = combine_matrix_prefix(aggregates, lo, hi)
        worst = float(np.max(np.abs(prefix - direct)))
        assert worst <= PREFIX_ATOL, (
            f"prefix kernel diverged from the direct kernel: seed={seed}, "
            f"range=[{lo}, {hi}), n={sketch.n_series}, ns={ns}, "
            f"B={sketch.window_size}, max|diff|={worst:.3e} > {PREFIX_ATOL}"
        )


def _run_case(seed: int) -> None:
    rng = np.random.default_rng(seed)
    data = _generate_data(rng)
    window = int(rng.integers(2, 9))
    sketch = build_sketch(data, window)
    _compare_ranges(sketch, rng, seed)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_random_sizes_and_ranges(seed):
    _run_case(seed)


@pytest.mark.parametrize("seed", (1001, 1002))
def test_fuzz_long_history(seed):
    """ns >= 5000: the regime where naive running sums lose digits."""
    rng = np.random.default_rng(seed)
    n, window, n_windows = 4, 3, 5200
    data = rng.standard_normal((n, n_windows * window)) + rng.uniform(
        -1e4, 1e4, (n, 1)
    )
    sketch = build_sketch(data, window)
    assert sketch.n_windows >= 5000
    _compare_ranges(sketch, rng, seed)


def test_fuzz_near_constant_long_history():
    """Near-constant series over a long history: centering must keep the
    pooled-variance subtraction conditioned (sigma tiny but genuine)."""
    seed = 2001
    rng = np.random.default_rng(seed)
    n, window, n_windows = 3, 3, 5000
    data = 1e-9 * rng.standard_normal((n, n_windows * window)) + rng.uniform(
        -5, 5, (n, 1)
    )
    sketch = build_sketch(data, window)
    _compare_ranges(sketch, rng, seed)


def test_fuzz_short_ranges_deep_in_long_history():
    """Short windows at the far end of a long prefix: the subtraction of two
    huge nearly-equal prefix rows is the classic failure mode."""
    seed = 3001
    rng = np.random.default_rng(seed)
    n, window, n_windows = 5, 4, 6000
    data = rng.standard_normal((n, n_windows * window)) + 1e5
    sketch = build_sketch(data, window)
    aggregates = build_prefix_aggregates(
        sketch.means, sketch.stds, sketch.covs, sketch.sizes
    )
    for lo in (5900, 5990, 5998):
        hi = min(lo + int(rng.integers(1, 8)), n_windows)
        idx = np.arange(lo, hi)
        direct = combine_matrix(
            sketch.means[:, idx],
            sketch.stds[:, idx],
            sketch.covs[idx],
            sketch.sizes[idx].astype(np.float64),
        )
        prefix = combine_matrix_prefix(aggregates, lo, hi)
        worst = float(np.max(np.abs(prefix - direct)))
        assert worst <= PREFIX_ATOL, (
            f"seed={seed}, range=[{lo}, {hi}), max|diff|={worst:.3e}"
        )


def _compare_fragmented(data, sketch, spans, seed, aggregates=None):
    """Fold each raw ``[start, stop)`` span's fragments; compare to direct.

    Returns the folded matrices, in ``spans`` order.
    """
    if aggregates is None:
        aggregates = build_prefix_aggregates(
            sketch.means, sketch.stds, sketch.covs, sketch.sizes
        )
    provider = InMemoryProvider(sketch, data=data)
    folded_all = []
    for start, stop in spans:
        selection = provider.plan.align(
            QueryWindow(end=stop - 1, length=stop - start)
        )
        idx = selection.full_windows
        if idx.size == 0:
            continue  # no full window: direct path only, nothing to fold
        fragments = [
            fragment_stats(data, *fragment)
            for fragment in (selection.head, selection.tail)
            if fragment is not None
        ]
        folded = combine_matrix_prefix(
            aggregates, int(idx[0]), int(idx[-1]) + 1, fragments=fragments
        )
        direct = query_correlation_matrix(provider, selection)
        worst = float(np.max(np.abs(folded - direct)))
        assert worst <= PREFIX_ATOL, (
            f"fragment fold diverged from the direct path: seed={seed}, "
            f"span=[{start}, {stop}), windows=[{idx[0]}, {idx[-1] + 1}), "
            f"fragments={len(fragments)}, max|diff|={worst:.3e} > "
            f"{PREFIX_ATOL}"
        )
        folded_all.append(folded)
    return folded_all


def _random_spans(rng, length, count):
    spans = []
    for _ in range(count):
        start = int(rng.integers(0, length - 1))
        stop = int(rng.integers(start + 1, length + 1))
        spans.append((start, stop))
    return spans


@pytest.mark.parametrize("seed", FUZZ_SEEDS[:12])
def test_fuzz_fragmented_random_windows(seed):
    """Random non-aligned windows over every regime of the generator."""
    rng = np.random.default_rng(10_000 + seed)
    data = _generate_data(rng)
    sketch = build_sketch(data, int(rng.integers(2, 9)))
    spans = _random_spans(rng, data.shape[1], RANGES_PER_CASE)
    _compare_fragmented(data, sketch, spans, seed)


def test_fuzz_fragmented_drifting_means():
    """Means drifting far from the build-time offsets, plus fragments cut
    from the most drifted ends of the history."""
    seed = 4001
    rng = np.random.default_rng(seed)
    n, window, n_windows = 5, 7, 3000
    length = n_windows * window + 3  # short trailing window
    drift = np.linspace(-1, 1, length) * rng.uniform(-500, 500, (n, 1))
    data = rng.standard_normal((n, length)) + drift
    data += rng.uniform(0.0, 2.0, (n, 1)) * rng.standard_normal(length)
    sketch = build_sketch(data, window)
    spans = _random_spans(rng, length, 6) + [
        (3, 400), (length - 397, length), (1, length - 1),
    ]
    _compare_fragmented(data, sketch, spans, seed)


def test_fuzz_fragmented_short_ranges_deep_in_long_history():
    """A few basic windows plus fragments at the far end of a long prefix:
    two huge nearly-equal rows differenced, then small fragments added."""
    seed = 4002
    rng = np.random.default_rng(seed)
    n, window, n_windows = 5, 4, 6000
    data = rng.standard_normal((n, n_windows * window)) + 1e5
    sketch = build_sketch(data, window)
    spans = []
    for lo in (5900, 5990, 5995):
        start = lo * window + int(rng.integers(1, window))
        stop = start + int(rng.integers(window + 1, 8 * window))
        spans.append((start, min(stop, n_windows * window)))
    assert len(_compare_fragmented(data, sketch, spans, seed)) == len(spans)


def test_fuzz_fragmented_constant_series():
    """An exactly constant series stays constant (correlation 0) through
    the fold, as on the direct path."""
    seed = 4003
    rng = np.random.default_rng(seed)
    n, window, n_windows = 4, 5, 400
    data = rng.standard_normal((n, n_windows * window))
    data[1] = 3.25
    sketch = build_sketch(data, window)
    spans = [(3, 1998), (17, 213), (1001, 1999)] + _random_spans(
        rng, data.shape[1], 5
    )
    for folded in _compare_fragmented(data, sketch, spans, seed):
        off_diagonal = np.delete(folded[1], 1)
        assert np.all(off_diagonal == 0.0)
        assert folded[1, 1] == 1.0
