"""Tests for repro.core.realtime (Algorithm 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.realtime import TsubasaRealtime
from repro.exceptions import DataError, StreamError


@pytest.fixture()
def stream_data(rng):
    """12 correlated series x 900 points (300 initial + 600 streamed)."""
    base = rng.normal(size=(3, 900))
    mix = rng.normal(size=(12, 3))
    return mix @ base + 0.5 * rng.normal(size=(12, 900))


class TestConstruction:
    def test_initial_matrix_matches_numpy(self, stream_data):
        engine = TsubasaRealtime(stream_data[:, :300], window_size=50)
        ref = np.corrcoef(stream_data[:, :300])
        np.testing.assert_allclose(
            engine.correlation_matrix().values, ref, atol=1e-10
        )

    def test_rejects_non_multiple_initial_window(self, stream_data):
        with pytest.raises(StreamError):
            TsubasaRealtime(stream_data[:, :310], window_size=50)

    def test_rejects_1d(self, rng):
        with pytest.raises(DataError):
            TsubasaRealtime(rng.normal(size=100), window_size=10)


class TestIngest:
    def test_exact_after_each_window(self, stream_data):
        engine = TsubasaRealtime(stream_data[:, :300], window_size=50)
        for step in range(6):
            lo = 300 + step * 50
            slides = engine.ingest(stream_data[:, lo : lo + 50])
            assert slides == 1
            ref = np.corrcoef(stream_data[:, lo + 50 - 300 : lo + 50])
            np.testing.assert_allclose(
                engine.correlation_matrix().values, ref, atol=1e-9
            )

    def test_partial_batches_buffer(self, stream_data):
        engine = TsubasaRealtime(stream_data[:, :300], window_size=50)
        assert engine.ingest(stream_data[:, 300:330]) == 0
        assert engine.pending == 30
        assert engine.ingest(stream_data[:, 330:350]) == 1
        assert engine.pending == 0
        ref = np.corrcoef(stream_data[:, 50:350])
        np.testing.assert_allclose(
            engine.correlation_matrix().values, ref, atol=1e-9
        )

    def test_large_batch_multiple_windows(self, stream_data):
        engine = TsubasaRealtime(stream_data[:, :300], window_size=50)
        slides = engine.ingest(stream_data[:, 300:470])
        assert slides == 3
        assert engine.pending == 20
        assert engine.windows_processed == 3
        ref = np.corrcoef(stream_data[:, 150:450])
        np.testing.assert_allclose(
            engine.correlation_matrix().values, ref, atol=1e-9
        )

    def test_single_tick_vector(self, stream_data):
        engine = TsubasaRealtime(stream_data[:, :300], window_size=50)
        engine.ingest(stream_data[:, 300])
        assert engine.pending == 1

    def test_now_advances_per_window(self, stream_data):
        engine = TsubasaRealtime(stream_data[:, :300], window_size=50)
        assert engine.now == 300
        engine.ingest(stream_data[:, 300:360])
        assert engine.now == 350  # one full window folded, 10 pending

    def test_rejects_wrong_series_count(self, stream_data):
        engine = TsubasaRealtime(stream_data[:, :300], window_size=50)
        with pytest.raises(StreamError):
            engine.ingest(np.zeros((5, 10)))

    def test_rejects_nan(self, stream_data):
        engine = TsubasaRealtime(stream_data[:, :300], window_size=50)
        batch = np.full((12, 5), np.nan)
        with pytest.raises(DataError):
            engine.ingest(batch)

    def test_sketched_batch_folds_like_raw_ingest(self, stream_data):
        raw = TsubasaRealtime(stream_data[:, :300], window_size=50)
        split = TsubasaRealtime(stream_data[:, :300], window_size=50)
        split.ingest(stream_data[:, 300:330])
        raw.ingest(stream_data[:, 300:330])
        sketched = split.sketch_batch(stream_data[:, 330:460])
        assert len(sketched.windows) == 3
        assert (split.now, split.pending) == (300, 30)  # nothing folded yet
        assert split.ingest(sketched) == raw.ingest(stream_data[:, 330:460])
        assert (split.now, split.pending) == (raw.now, raw.pending)
        np.testing.assert_array_equal(
            split.correlation_matrix().values, raw.correlation_matrix().values
        )

    def test_stale_sketched_batch_rejected(self, stream_data):
        engine = TsubasaRealtime(stream_data[:, :300], window_size=50)
        sketched = engine.sketch_batch(stream_data[:, 300:350])
        engine.ingest(stream_data[:, 300:310])
        with pytest.raises(StreamError, match="earlier engine state"):
            engine.ingest(sketched)


class TestNetworkUpdates:
    def test_network_matches_matrix(self, stream_data):
        engine = TsubasaRealtime(stream_data[:, :300], window_size=50)
        engine.ingest(stream_data[:, 300:400])
        matrix = engine.correlation_matrix()
        network = engine.network(theta=0.4)
        assert network.n_edges == matrix.n_edges(0.4)

    def test_diff_network(self, stream_data):
        engine = TsubasaRealtime(stream_data[:, :300], window_size=50)
        before = engine.network(theta=0.4)
        engine.ingest(stream_data[:, 300:600])
        appeared, disappeared = engine.diff_network(before, theta=0.4)
        after_edges = engine.network(theta=0.4).edge_set()
        assert appeared == after_edges - before.edge_set()
        assert disappeared == before.edge_set() - after_edges

    def test_diff_rejects_different_nodes(self, stream_data, rng):
        engine = TsubasaRealtime(stream_data[:, :300], window_size=50)
        other = TsubasaRealtime(
            rng.normal(size=(3, 100)), window_size=50
        ).network(theta=0.5)
        with pytest.raises(StreamError):
            engine.diff_network(other, theta=0.5)


class TestLongStream:
    def test_equivalence_with_historical_engine(self, stream_data):
        """After draining the stream, real-time == batch over the suffix."""
        engine = TsubasaRealtime(stream_data[:, :300], window_size=50)
        engine.ingest(stream_data[:, 300:900])
        ref = np.corrcoef(stream_data[:, 600:900])
        np.testing.assert_allclose(
            engine.correlation_matrix().values, ref, atol=1e-9
        )
        assert engine.windows_processed == 12
