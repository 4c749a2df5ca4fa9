"""End-to-end benchmark of the TSUBASA reproduction: one command per run.

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory for why each exists):

* ``dashboard`` -- 1 closed-loop v2 client over HTTP and WebSocket in turn,
  against ``tsubasa serve --http``, all four panels of skewed aligned
  windows.
* ``explore``   -- 1 closed-loop HTTP v2 client, distinct non-aligned
  windows, server started with ``--data``.
* ``live``      -- ``PersistentRealtime`` over an ``MmapStore``, in process.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a separate
traced run and prints the per-layer table. The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. A wrong
answer prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

from measure import STEAL_LIMIT, cpu_ticks, quiet, steal_share

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dashboard", "explore", "live")
WINDOW_SIZE = 24

E2E_UNITS = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "ok_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "store_mb": "MiB",
}

LAYER_UNITS = {
    "trace.op_mean_us": "us",
    "api.protocol.parse_us": "us",
    "api.service.self_us": "us",
    "api.client.compute_self_us": "us",
    "core.prefix.combine_us": "us",
    "core.exact.direct_us": "us",
    "api.client.finish_us": "us",
    "api.frames.encode_us": "us",
    "api.remote.decode_us": "us",
    "api.server.other_us": "us",
    "api.frames.response_kb": "KiB",
    "api.service.result_cache_hit_rate": "ratio",
    "api.service.coalesce_rate": "ratio",
    "api.service.matrices_per_query": "ratio",
    "api.service.max_queue_depth": "count",
    "api.remote.op_p99_ms": "ms",
    "storage.live.ingest_self_us": "us",
    "storage.mmap_store.write_us": "us",
    "core.realtime.slide_us": "us",
    "core.realtime.matrix_us": "us",
    "core.network.build_us": "us",
    "storage.live.other_us": "us",
    "storage.mmap_store.fsyncs_per_update": "count",
    "core.network.edges_changed": "count",
    "workload.aligned_share": "ratio",
    "host.steal_pct": "%",
    "host.quiet_share": "ratio",
    "trace.overhead_pct": "%",
    "api.client.compute_alloc_kb": "KiB",
    "api.client.finish_alloc_kb": "KiB",
    "api.frames.encode_alloc_kb": "KiB",
    "api.remote.decode_alloc_kb": "KiB",
    "storage.mmap_store.write_alloc_kb": "KiB",
}

# Spans that must fire in a traced run. A wrapper that stopped firing
# (say, because a module rebound the wrapped name) would move its layer's
# time into the ``other`` residual and read 0.
REQUIRED_SPANS = {
    "dashboard": ("parse", "submit", "compute", "combine", "finish", "encode",
                  "decode"),
    "explore": ("parse", "submit", "compute", "direct", "finish", "encode",
                "decode"),
    "live": ("live_ingest", "write", "slide", "matrix", "build", "fsync"),
}
# The per-op time no span covers: the mean latency minus every layer's.
RESIDUAL = {"dashboard": "api.server.other_us", "explore": "api.server.other_us",
            "live": "storage.live.other_us"}
# A failed op misses every latency limit; JSON has no infinity.
FAILED_LATENCY_MS = 1e9


@dataclass
class Config:
    workload: str
    seed: int
    seconds: float
    trace: bool
    stations: int
    points: int
    window_size: int = WINDOW_SIZE

    @property
    def warmup_s(self) -> float:
        return min(1.0, self.seconds / 4)


def parse_args(argv: list[str] | None) -> Config:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Sizes: the defaults are the benchmark; smaller ones are for its test.
    parser.add_argument("--stations", type=int, default=157)
    parser.add_argument("--points", type=int, default=8760)
    args = parser.parse_args(argv)
    return Config(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), stations=args.stations,
                  points=args.points)


def percentile_ms(latencies: list[float], q: float) -> float:
    ordered = sorted(latencies)
    value = ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]
    return FAILED_LATENCY_MS if math.isinf(value) else value * 1e3


def end_to_end(out: dict) -> dict[str, float]:
    """The user-visible metrics of the untraced timed phase.

    Latency percentiles and throughput are medians over the quietest half
    of the phase's slices (segments of the remote workloads, runs of about
    100 updates in ``live``; see ``measure.quiet``), so one burst of outside
    load or one slow fsync moves a single slice, not the run.
    """
    timed = out["timed"]
    attempted = len(timed.latencies)
    failed = timed.failed
    slices = [(s.latencies, s.wall) for s in quiet(timed.slices)]
    return {
        "op_p50_ms": statistics.median(percentile_ms(lat, 0.50)
                                       for lat, _wall in slices),
        "op_p90_ms": statistics.median(percentile_ms(lat, 0.90)
                                       for lat, _wall in slices),
        "ops_per_s": statistics.median(
            sum(not math.isinf(x) for x in lat) / wall for lat, wall in slices),
        "ok_rate": (attempted - failed) / attempted,
        "setup_s": statistics.median(out["setup_times"]),
        "peak_rss_mb": out["peak_rss_mb"],
        "store_mb": out["store_mb"],
    }


def properties(workload: str, out: dict) -> dict[str, float]:
    """Workload properties a later change can cite as measured shares.

    ``host.steal_pct`` is the share of this machine's CPU time that the
    hypervisor gave to other guests during the run, and
    ``host.quiet_share`` the share of the timed slices during which at
    most ``measure.STEAL_LIMIT`` of it was.
    """
    timed = out["timed"]
    props = {"host.steal_pct": out["steal_pct"],
             "host.quiet_share":
                 sum(s.steal <= STEAL_LIMIT for s in timed.slices)
                 / len(timed.slices)}
    if workload == "live":
        props["core.network.edges_changed"] = timed.churn / len(timed.latencies)
        return props
    ok = len(timed.latencies) - timed.failed
    props["workload.aligned_share"] = timed.aligned / ok if ok else 0.0
    props.update(out["stats"])
    return props


def per_layer(workload: str, out: dict) -> dict[str, float]:
    metrics = dict.fromkeys(LAYER_UNITS, 0.0)
    metrics.update(properties(workload, out))
    metrics.update(out["layers"])
    metrics.update(out["alloc"])
    untraced = [x for x in out["timed"].latencies if not math.isinf(x)]
    traced = [x for x in out["traced"].latencies if not math.isinf(x)]
    mean_us = statistics.fmean(traced) * 1e6
    metrics[RESIDUAL[workload]] = mean_us - sum(
        value for name, value in out["layers"].items() if name.endswith("_us"))
    metrics["trace.op_mean_us"] = mean_us
    metrics["api.remote.op_p99_ms"] = percentile_ms(out["timed"].latencies, 0.99)
    metrics["trace.overhead_pct"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0
    return metrics


def trace_problems(workload: str, calls: dict[str, int],
                   other_us: float) -> list[str]:
    """Why a traced run's layer table cannot be trusted, if it cannot."""
    problems = [f"span {name!r} never fired in the traced phase"
                for name in REQUIRED_SPANS[workload] if not calls.get(name)]
    if other_us < 0:
        problems.append(f"the spans add up to {-other_us:.1f} us more than "
                        "the client-observed mean latency")
    return problems


def pin_to_one_cpu() -> None:
    """Run this process, and the sketch and server it starts, on one CPU.

    On ``dashboard`` and ``explore`` each op is handed from client to
    server and back, one at a time. Left to two vCPUs of a shared host, the
    two processes woke each other across vCPUs and the hypervisor stole up
    to 18% of the machine's time while both were busy; in interleaved runs
    on such a host, runs on one CPU agreed more closely (README.md,
    "Noise"). OpenBLAS sizes its thread pool from this mask when numpy is
    imported, so this must run before that: the answers checked against
    the server's are bit-identical only when both pools have one size.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _exit_on_sigterm(signum, _frame) -> None:
    # Unwind through the finally blocks that stop the server and remove
    # the work directory.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    cfg = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "cli.py").is_file():
        print(f"error: no TSUBASA sources under {src}", file=sys.stderr)
        return 2
    if cfg.workload != "live":
        pin_to_one_cpu()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import datagen

    work = ROOT / ".perfbench_work" / f"{cfg.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ticks = cpu_ticks()
    try:
        dataset = datagen.make_dataset(cfg.seed, cfg.stations, cfg.points)
        if cfg.workload == "live":
            from workload_live import LiveWorkload

            out = LiveWorkload(cfg, work, dataset).run()
        else:
            from workload_remote import RemoteWorkload

            out = RemoteWorkload(cfg.workload, cfg, ROOT, work, dataset).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    out["steal_pct"] = 100.0 * steal_share(ticks, cpu_ticks())
    attempted = sum(len(p.latencies) for p in out["phases"])
    failed = sum(p.failed for p in out["phases"])
    mismatches = sum(p.mismatches for p in out["phases"])
    correct = mismatches == 0
    for message in out["errors"]:
        print(f"check: {message}", file=sys.stderr)
    props = properties(cfg.workload, out)
    print(f"{cfg.workload} seed={cfg.seed} properties: "
          + json.dumps({k: round(v, 4) for k, v in props.items()}))
    if cfg.trace:
        values = per_layer(cfg.workload, out)
        units = LAYER_UNITS
        problems = trace_problems(cfg.workload, out["calls"],
                                  values[RESIDUAL[cfg.workload]])
        if problems:
            for problem in problems:
                print(f"trace: {problem}", file=sys.stderr)
            return 3
    else:
        values = end_to_end(out)
        units = E2E_UNITS
    for name, value in values.items():
        print(f"  {name:40s} {value:14.4f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.exit(main())
