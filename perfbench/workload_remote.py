"""``dashboard`` and ``explore``: a ``tsubasa serve --http`` subprocess under a closed-loop client.

This process is the client: one closed loop on one thread, which sends its
next query only after the previous answer arrived. On ``dashboard`` it
holds two persistent v2 connections, HTTP and WebSocket, and sends the ops
to them in turn; on ``explore`` one, over HTTP. One query is in flight at
a time: with a client thread per connection, the client's GIL and the
scheduler set p90, which spread by up to 26% between sets of runs. The
timed phase runs in short segments;
between segments every answer is checked against an in-process
``TsubasaClient`` over the same store and raw data, off the clock, so the
client never holds more than a segment's answers in memory.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from measure import Slice, cpu_ticks, dir_mb, enough, peak_rss_mb, steal_share
from tracing import SpanRecorder, load, self_times

# Answers are checked between segments of a phase, and each segment is one
# sample of the per-run medians: long enough for 100+ ops (ten beyond p90),
# short enough that a segment's answers fit in memory and that a burst of
# steal spoils few of them.
SEGMENT_S = {"dashboard": 0.25, "explore": 1.0}
RESULT_CACHE = 64
THETA = 0.75
EXPLORE_THETA = 0.9
TOP_K = 10
POOL_WINDOWS = 256
POOL_SKEW = 0.8
GOLDEN = (5 ** 0.5 - 1) / 2
ALLOC_SAMPLE = 48
# Set-ups per untraced run; setup_s is their median.
SETUP_REPS = 3
# Flags beyond --store/--http/--data; everything else is the CLI default
# (one acceptor process, one executor thread, --max-batch 64,
# --max-inflight 64, --send-buffer 64).
SERVER_FLAGS = ["--backend", "mmap", "--result-cache", str(RESULT_CACHE)]

# The server is on the loopback interface: never route through a proxy.
LOCAL = urllib.request.build_opener(urllib.request.ProxyHandler({}))

# Server-side span names and the per-layer metric each one's self time feeds.
SERVER_LAYERS = {
    "parse": "api.protocol.parse_us",
    "submit": "api.service.self_us",
    "compute": "api.client.compute_self_us",
    "combine": "core.prefix.combine_us",
    "direct": "core.exact.direct_us",
    "finish": "api.client.finish_us",
    "encode": "api.frames.encode_us",
}
CLIENT_LAYERS = {"decode": "api.remote.decode_us"}


class DashboardMix:
    """Dashboard views: a skewed draw from a fixed pool of aligned windows.

    A view asks for all four panels (matrix, network, top_k, degree) of one
    window, in random order. The pool (256 windows) is four times the
    server's result cache, so repeat views hit it only as often as the
    Zipf(0.8) skew makes them recur.

    Pool entry ``i`` spans a fixed length (a golden-ratio sequence over
    7..120 basic windows); the seed places the windows and draws the views.
    Drawn lengths made the few hot entries, and with them the payload
    sizes, differ from seed to seed.
    """

    OPS = ("matrix", "network", "top_k", "degree")

    def __init__(self, seed: int, stream: int, n_windows: int) -> None:
        from repro.api.spec import QuerySpec, WindowSpec

        pool_rng = np.random.default_rng([seed, 0])
        lo, hi = min(7, n_windows - 1), min(120, n_windows - 1)
        spread = np.modf(np.arange(POOL_WINDOWS) * GOLDEN)[0]
        lengths = lo + (spread * (hi - lo + 1)).astype(int)
        firsts = [int(pool_rng.integers(0, n_windows - n + 1)) for n in lengths]
        self.windows = [WindowSpec(first_window=f, n_windows=int(n))
                        for f, n in zip(firsts, lengths)]
        weights = 1.0 / np.arange(1, POOL_WINDOWS + 1) ** POOL_SKEW
        self._p = weights / weights.sum()
        self._rng = np.random.default_rng([seed, 1, stream])
        self._pending: list = []
        self._spec = QuerySpec

    def _make(self, op: str, window):
        extra = {"network": {"theta": THETA}, "top_k": {"k": TOP_K},
                 "degree": {"theta": THETA}}.get(op, {})
        return self._spec(op=op, window=window, **extra)

    def next(self):
        if not self._pending:
            index = int(self._rng.choice(POOL_WINDOWS, p=self._p))
            order = self._rng.permutation(len(self.OPS))
            self._pending = [((index, self.OPS[i]),
                              self._make(self.OPS[i], self.windows[index]))
                             for i in order[::-1]]
        return self._pending.pop()


class ExploreMix:
    """One analyst: every query over a fresh non-aligned raw window."""

    def __init__(self, seed: int, stream: int, n_points: int,
                 window_size: int, names: list[str]) -> None:
        from repro.api.spec import QuerySpec, WindowSpec

        self._rng = np.random.default_rng([seed, 2, stream])
        self._lo = min(2000, n_points // 4)
        self._hi = min(8000, n_points - window_size)
        self._n_points = n_points
        self._window_size = window_size
        self._names = names
        self._spec = QuerySpec
        self._window = WindowSpec
        self._seen: set[tuple[int, int]] = set()

    def next(self):
        rng = self._rng
        while True:
            length = int(rng.integers(self._lo, self._hi + 1))
            end = int(rng.integers(length - 1, self._n_points))
            if (end + 1) % self._window_size == 0:
                # Keep the right edge off a basic-window boundary, so the
                # window is never aligned.
                end = end - 1 if end > length - 1 else end + 1
            if (end, length) not in self._seen:
                break
        self._seen.add((end, length))
        window = self._window(end=end, length=length)
        op = ("top_k", "degree", "neighbors", "network")[int(rng.integers(4))]
        if op == "top_k":
            spec = self._spec(op=op, window=window, k=TOP_K)
        elif op == "neighbors":
            node = self._names[int(rng.integers(len(self._names)))]
            spec = self._spec(op=op, window=window, node=node, theta=THETA)
        elif op == "degree":
            spec = self._spec(op=op, window=window, theta=THETA)
        else:
            spec = self._spec(op=op, window=window, theta=EXPLORE_THETA)
        return None, spec


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)  # seconds, inf = failed
    slices: list[Slice] = field(default_factory=list)  # one per segment
    windows: list[tuple[float, float]] = field(default_factory=list)
    failed: int = 0
    mismatches: int = 0
    aligned: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


class Server:
    """One ``tsubasa serve --http`` subprocess (stderr goes to a log file)."""

    def __init__(self, argv: list[str], env: dict, log: Path) -> None:
        self._log_path = log
        self._log = open(log, "w")
        self.proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                     stderr=self._log)
        try:
            self.address = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, timeout: float = 120.0) -> str:
        deadline = time.monotonic() + timeout
        address = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited during start-up:\n"
                                   + self._log_path.read_text()[-2000:])
            if address is None:
                found = re.search(r"serving on http://(\S+:\d+)",
                                  self._log_path.read_text())
                address = found.group(1) if found else None
            if address is not None:
                try:
                    with LOCAL.open(f"http://{address}/healthz",
                                    timeout=5) as response:
                        if response.status == 200:
                            return address
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("server did not answer /healthz in time")

    def stats(self) -> dict:
        with LOCAL.open(f"http://{self.address}/v1/stats",
                        timeout=30) as response:
            return json.load(response)["service"]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class RemoteWorkload:
    def __init__(self, name: str, cfg, root: Path, work: Path,
                 dataset: dict) -> None:
        self.name = name
        self.cfg = cfg
        self.root = root
        self.work = work
        self.dataset = dataset
        self.data_path = work / "data.npz"
        self.store = work / "sketch.mm"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.transports = ("http", "ws") if name == "dashboard" else ("http",)
        self._expected: dict = {}
        self._aligned: dict = {}
        self.server_calls = 0

    # -- system under test ---------------------------------------------------

    def _serve_argv(self, spans: Path | None) -> list[str]:
        args = ["serve", "--store", str(self.store), *SERVER_FLAGS,
                "--http", "127.0.0.1:0"]
        if self.name == "explore":
            args += ["--data", str(self.data_path)]
        if spans is None:
            return [sys.executable, "-m", "repro.cli", *args]
        return [sys.executable, str(self.root / "perfbench" / "traced_server.py"),
                str(spans), *args]

    def _start_server(self, spans: Path | None = None) -> Server:
        self.server_calls += 1
        return Server(self._serve_argv(spans), self.env,
                      self.work / f"server{self.server_calls}.log")

    def set_up(self) -> tuple[Server, float]:
        """Sketch the data into an mmap store with prefix tables, then serve."""
        shutil.rmtree(self.store, ignore_errors=True)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "sketch", "--data",
             str(self.data_path), "--window-size", str(self.cfg.window_size),
             "--store", str(self.store), "--store-backend", "mmap", "--prefix"],
            env=self.env, check=True, stdout=subprocess.DEVNULL,
        )
        server = self._start_server()
        return server, time.perf_counter() - start

    # -- clients -------------------------------------------------------------

    def _mix(self, stream: int):
        cfg = self.cfg
        if self.name == "dashboard":
            return DashboardMix(cfg.seed, stream, cfg.points // cfg.window_size)
        return ExploreMix(cfg.seed, stream, cfg.points, cfg.window_size,
                          self.dataset["names"])

    def _clients(self, address: str) -> list:
        from repro.api.remote import TsubasaRemoteClient

        return [TsubasaRemoteClient(address, transport=t, protocol=2,
                                    timeout=60.0) for t in self.transports]

    @staticmethod
    def _loop(clients, mix, deadline: float, out: list) -> None:
        clock = time.perf_counter
        while clock() < deadline:
            client = clients[len(out) % len(clients)]
            key, spec = mix.next()
            start = clock()
            try:
                value = client.execute(spec).value
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                value = exc
            out.append((key, spec, clock() - start, value))

    def run_phase(self, clients, mix, seconds: float, local,
                  errors: list) -> Phase:
        phase = Phase()
        segment = min(seconds, SEGMENT_S[self.name])
        while not enough(phase.slices, seconds):
            out: list = []
            ticks = cpu_ticks()
            start = time.perf_counter()
            self._loop(clients, mix, start + segment, out)
            stop = time.perf_counter()
            steal = steal_share(ticks, cpu_ticks())
            phase.windows.append((start, stop))
            latencies = [self._check(phase, local, key, spec, seconds_taken,
                                     value, errors)
                         for key, spec, seconds_taken, value in out]
            phase.latencies += latencies
            phase.slices.append(Slice(latencies, stop - start, steal))
        return phase

    def _check(self, phase: Phase, local, key, spec, seconds_taken, value,
               errors: list) -> float:
        """Check one answer off the clock; return its latency (inf = failed)."""
        if isinstance(value, Exception):
            phase.failed += 1
            if len(errors) < 5:
                errors.append(f"{spec.op}: {value!r}")
            return float("inf")
        if key is None or key not in self._expected:
            want = checks.digest(local.execute(spec).value)
            aligned = local.selection_for(spec.window).is_aligned
            if key is not None:
                self._expected[key] = want
                self._aligned[key] = aligned
        else:
            want, aligned = self._expected[key], self._aligned[key]
        phase.aligned += bool(aligned)
        if checks.digest(value) != want:
            phase.mismatches += 1
            if len(errors) < 5:
                errors.append(f"{spec.op} over {spec.window}: remote answer "
                              "differs from the in-process answer")
        return seconds_taken

    # -- allocation replay ---------------------------------------------------

    def alloc_profile(self, local) -> dict[str, float]:
        """Peak traced-memory growth per call of each layer, in KiB.

        Replays a sample of the workload's queries single-threaded in this
        process, outside every timed phase, so calls never overlap.
        """
        from repro.api.frames import (
            decode_frame,
            encode_response_v2,
            value_from_payload_v2,
        )
        from repro.api.spec import QueryResult

        def measured(fn, *args):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1] - base

        def decode(frame, spec):
            meta, buffers, _end = decode_frame(frame)
            return value_from_payload_v2(spec, meta["result"], buffers)

        totals = {"compute": 0, "finish": 0, "encode": 0, "decode": 0}
        mix = self._mix(stream=100)
        tracemalloc.start()
        try:
            for i in range(ALLOC_SAMPLE):
                _key, spec = mix.next()
                execution, nbytes = measured(local.compute_matrix, spec,
                                             spec.windows[0])
                totals["compute"] += nbytes
                value, nbytes = measured(local.finish, spec, execution.matrix)
                totals["finish"] += nbytes
                result = QueryResult(spec=spec, value=value,
                                     timings={"total": 0.0})
                frame, nbytes = measured(encode_response_v2, result, i)
                totals["encode"] += nbytes
                _value, nbytes = measured(decode, frame, spec)
                totals["decode"] += nbytes
        finally:
            tracemalloc.stop()
        names = {"compute": "api.client.compute_alloc_kb",
                 "finish": "api.client.finish_alloc_kb",
                 "encode": "api.frames.encode_alloc_kb",
                 "decode": "api.remote.decode_alloc_kb"}
        return {names[k]: v / ALLOC_SAMPLE / 1024.0 for k, v in totals.items()}

    # -- the run -------------------------------------------------------------

    def _local_client(self):
        from repro.api.client import TsubasaClient
        from repro.engine.providers import MmapProvider
        from repro.storage.mmap_store import MmapStore

        data = self.dataset["values"] if self.name == "explore" else None
        return TsubasaClient(provider=MmapProvider(MmapStore(self.store, mode="r"),
                                                   data=data))

    def _serve_phase(self, server: Server, seconds: float, local, errors: list,
                     stream: int, recorder: SpanRecorder | None = None):
        clients = self._clients(server.address)
        mix = self._mix(stream)
        try:
            warm = self.run_phase(clients, mix, self.cfg.warmup_s, local,
                                  errors)
            before = server.stats()
            if recorder is not None:
                install_client(recorder)
            try:
                timed = self.run_phase(clients, mix, seconds, local, errors)
            finally:
                if recorder is not None:
                    recorder.restore()
            after = server.stats()
        finally:
            for client in clients:
                client.close()
        return warm, timed, before, after

    def run(self) -> dict:
        from datagen import save_npz

        cfg = self.cfg
        save_npz(self.data_path, self.dataset)
        errors: list[str] = []
        out: dict = {"errors": errors}
        setup_times = []
        server = None
        try:
            for _ in range(1 if cfg.trace else SETUP_REPS):
                if server is not None:
                    server.stop()
                server, seconds = self.set_up()
                setup_times.append(seconds)
            local = self._local_client()
            seconds = cfg.seconds / 2 if cfg.trace else cfg.seconds
            warm, timed, before, after = self._serve_phase(
                server, seconds, local, errors, stream=0)
            out["peak_rss_mb"] = peak_rss_mb(server.proc.pid)
            server.stop()
            server = None
            out["store_mb"] = dir_mb(self.store)
            out["setup_times"] = setup_times
            out["phases"] = [warm, timed]
            out["timed"] = timed
            out["stats"] = stats_delta(before, after)
            if cfg.trace:
                spans_path = self.work / "server_spans.json"
                server = self._start_server(spans=spans_path)
                recorder = SpanRecorder()
                twarm, traced, _b, _a = self._serve_phase(
                    server, seconds, local, errors, stream=10,
                    recorder=recorder)
                server.stop()
                server = None
                out["phases"] += [twarm, traced]
                out["traced"] = traced
                out["layers"], out["calls"] = self._layers(
                    traced, load(str(spans_path)), recorder)
                out["alloc"] = self.alloc_profile(local)
        finally:
            if server is not None:
                server.stop()
        return out

    def _layers(self, traced: Phase, server_spans, recorder: SpanRecorder):
        ops = traced.attempted
        server_side = self_times(server_spans, traced.windows)
        client_side = self_times(recorder.spans, traced.windows)
        layers = {}
        for table, side in ((SERVER_LAYERS, server_side),
                            (CLIENT_LAYERS, client_side)):
            for span_name, metric in table.items():
                layers[metric] = side[span_name]["self_s"] / ops * 1e6
        encode = server_side["encode"]
        layers["api.frames.response_kb"] = (
            encode["bytes"] / encode["calls"] / 1024.0 if encode["calls"] else 0.0
        )
        calls = {name: entry["calls"]
                 for side in (server_side, client_side)
                 for name, entry in side.items()}
        return layers, calls


def install_client(recorder: SpanRecorder) -> None:
    """Client-side decode spans: frame parse plus value rebuild."""
    import repro.api.remote as remote_module

    recorder.wrap(remote_module, "decode_frame", "decode")
    recorder.wrap(remote_module, "value_from_payload_v2", "decode")


def stats_delta(before: dict, after: dict) -> dict:
    def delta(key: str) -> int:
        return after[key] - before[key]

    demands = delta("result_cache_hits") + delta("result_cache_misses")
    matrix_demands = delta("matrices_computed") + delta("coalesced")
    submitted = delta("submitted")
    return {
        "api.service.result_cache_hit_rate":
            delta("result_cache_hits") / demands if demands else 0.0,
        "api.service.coalesce_rate":
            delta("coalesced") / matrix_demands if matrix_demands else 0.0,
        "api.service.matrices_per_query":
            delta("matrices_computed") / submitted if submitted else 0.0,
        "api.service.max_queue_depth": after["max_queue_depth"],
    }

