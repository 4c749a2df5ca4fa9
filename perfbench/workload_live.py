"""``live``: the real-time path, in process, on one thread.

A round bootstraps ``PersistentRealtime`` over a fresh ``MmapStore`` with
the first 30 basic windows, then ingests the rest of the data one basic
window per call. Each update is followed by ``network(0.75)`` and the edge
churn against the previous update. Rounds repeat until the timed budget is
spent (``measure.enough``); every round ends at the same store size, so
``store_mb`` does not depend on speed. After each round, off the clock, the
final matrix must match an exact recomputation over the trailing 30
windows, and the store, reopened read-only, must hold every window.
"""

from __future__ import annotations

import os
import shutil
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from measure import Slice, cpu_ticks, dir_mb, enough, peak_rss_mb, steal_share
from tracing import SpanRecorder, self_times

SEED_WINDOWS = 30
THETA = 0.75
WARMUP_UPDATES = 10
# A round's timed updates are cut into slices of about this many, each a
# sample of the per-run medians. The loop is one thread, so a slice's busy
# time is the sum of its latencies. Slices keep one stalled fsync from
# moving the run's throughput.
UPDATES_PER_SLICE = 100
# Pearson values from the Lemma-2 slide against np.corrcoef on raw points.
MATRIX_ATOL = 1e-9

LIVE_LAYERS = {
    "live_ingest": "storage.live.ingest_self_us",
    "write": "storage.mmap_store.write_us",
    "slide": "core.realtime.slide_us",
    "matrix": "core.realtime.matrix_us",
}
BUILD_SPANS = ("build", "diff")


@dataclass
class Rounds:
    latencies: list[float] = field(default_factory=list)
    slices: list[Slice] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    churn: int = 0
    fsyncs: int = 0
    failed: int = 0  # an update that raises ends the run instead
    mismatches: int = 0


def install(recorder: SpanRecorder) -> None:
    from repro.core.network import ClimateNetwork
    from repro.core.realtime import TsubasaRealtime
    from repro.storage.live import PersistentRealtime
    from repro.storage.mmap_store import MmapStore

    recorder.wrap(PersistentRealtime, "ingest", "live_ingest")
    recorder.wrap(MmapStore, "write_windows", "write")
    recorder.wrap(TsubasaRealtime, "ingest", "slide")
    recorder.wrap(TsubasaRealtime, "correlation_matrix", "matrix")
    recorder.wrap(ClimateNetwork, "from_matrix", "build")
    recorder.count(os, "fsync", "fsync")


class LiveWorkload:
    def __init__(self, cfg, work: Path, dataset: dict) -> None:
        self.cfg = cfg
        self.work = work
        self.values = dataset["values"]
        self.names = dataset["names"]
        self.window_size = cfg.window_size
        self.n_windows = cfg.points // cfg.window_size
        self.store_path = work / "live.mm"
        self.setup_times: list[float] = []
        self.errors: list[str] = []
        self.store_mb = 0.0

    def _bootstrap(self):
        from repro.storage.live import PersistentRealtime
        from repro.storage.mmap_store import MmapStore

        shutil.rmtree(self.store_path, ignore_errors=True)
        seed = self.values[:, : SEED_WINDOWS * self.window_size]
        start = time.perf_counter()
        store = MmapStore(self.store_path)
        live = PersistentRealtime.bootstrap(seed, self.window_size, store,
                                            names=self.names)
        self.setup_times.append(time.perf_counter() - start)
        return live, store

    def _round(self, rounds: Rounds, recorder: SpanRecorder | None,
               skip: int) -> None:
        live, store = self._bootstrap()
        B = self.window_size
        previous = live.network(THETA).edge_set()
        latencies: list[float] = []
        updates = self.n_windows - SEED_WINDOWS
        count = max(1, (updates - skip) // UPDATES_PER_SLICE)
        ends = {skip + (updates - skip) * (k + 1) // count for k in range(count)}
        first = skip
        fsyncs = recorder.counts["fsync"] if recorder is not None else 0
        clock = time.perf_counter
        start = clock()
        try:
            for i, w in enumerate(range(SEED_WINDOWS, self.n_windows)):
                if i == skip:
                    ticks = cpu_ticks()
                block = self.values[:, w * B:(w + 1) * B]
                t0 = clock()
                live.ingest(block)
                network = live.network(THETA)
                with recorder.span("diff") if recorder is not None else nullcontext():
                    edges = network.edge_set()
                    churn = len(edges ^ previous)
                latencies.append(clock() - t0)
                previous = edges
                if i >= skip:
                    rounds.churn += churn
                if i + 1 in ends:
                    now = cpu_ticks()
                    part = latencies[first:]
                    rounds.slices.append(Slice(part, sum(part),
                                               steal_share(ticks, now)))
                    ticks, first = now, i + 1
            stop = clock()
            final = live.correlation_matrix().values
        finally:
            store.close()
        if recorder is not None:
            rounds.fsyncs += recorder.counts["fsync"] - fsyncs
        rounds.latencies += latencies[skip:]
        rounds.windows.append((start, stop))
        self._check_round(rounds, final)

    def _check_round(self, rounds: Rounds, final: np.ndarray) -> None:
        from repro.storage.mmap_store import MmapStore

        end = self.n_windows * self.window_size
        begin = end - SEED_WINDOWS * self.window_size
        exact = np.corrcoef(self.values[:, begin:end])
        if not np.allclose(final, exact, rtol=0.0, atol=MATRIX_ATOL):
            rounds.mismatches += 1
            self.errors.append("live matrix differs from the exact matrix over "
                               "the trailing windows by "
                               f"{np.max(np.abs(final - exact)):.3g}")
        reopened = MmapStore(self.store_path, mode="r")
        try:
            held = reopened.window_count()
        finally:
            reopened.close()
        if held != self.n_windows:
            rounds.mismatches += 1
            self.errors.append(f"live store holds {held} windows, expected "
                               f"{self.n_windows}")
        self.store_mb = dir_mb(self.store_path)

    def run_rounds(self, seconds: float, skip: int,
                   recorder: SpanRecorder | None = None) -> Rounds:
        rounds = Rounds()
        while not enough(rounds.slices, seconds):
            self._round(rounds, recorder, skip)
            skip = 0
        return rounds

    def alloc_profile(self) -> dict[str, float]:
        """Peak traced-memory growth per ``MmapStore.write_windows`` call."""
        from repro.storage.mmap_store import MmapStore

        original = MmapStore.write_windows
        growth: list[int] = []

        def measured(store, records):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            original(store, records)
            growth.append(tracemalloc.get_traced_memory()[1] - base)

        live, store = self._bootstrap()
        B = self.window_size
        MmapStore.write_windows = measured
        tracemalloc.start()
        try:
            for w in range(SEED_WINDOWS, min(SEED_WINDOWS + 20, self.n_windows)):
                live.ingest(self.values[:, w * B:(w + 1) * B])
        finally:
            tracemalloc.stop()
            MmapStore.write_windows = original
            store.close()
        return {"storage.mmap_store.write_alloc_kb":
                sum(growth) / len(growth) / 1024.0}

    def run(self) -> dict:
        cfg = self.cfg
        seconds = cfg.seconds / 2 if cfg.trace else cfg.seconds
        timed = self.run_rounds(seconds, skip=WARMUP_UPDATES)
        out = {"timed": timed, "errors": self.errors,
               "setup_times": list(self.setup_times),
               "store_mb": self.store_mb, "phases": [timed]}
        if cfg.trace:
            recorder = SpanRecorder()
            install(recorder)
            try:
                # Already warm: every traced update counts, so the spans
                # and the latencies cover the same updates.
                traced = self.run_rounds(seconds, skip=0, recorder=recorder)
            finally:
                recorder.restore()
            out["traced"] = traced
            out["phases"].append(traced)
            out["layers"], out["calls"] = self._layers(traced, recorder)
            out["alloc"] = self.alloc_profile()
        out["peak_rss_mb"] = peak_rss_mb()
        shutil.rmtree(self.store_path, ignore_errors=True)
        return out

    def _layers(self, traced: Rounds, recorder: SpanRecorder) -> dict:
        ops = len(traced.latencies)
        per = self_times(recorder.spans, traced.windows)
        layers = {metric: per[name]["self_s"] / ops * 1e6
                  for name, metric in LIVE_LAYERS.items()}
        layers["core.network.build_us"] = sum(
            per[name]["self_s"] for name in BUILD_SPANS) / ops * 1e6
        layers["storage.mmap_store.fsyncs_per_update"] = traced.fsyncs / ops
        calls = {name: entry["calls"] for name, entry in per.items()}
        calls["fsync"] = traced.fsyncs
        return layers, calls
