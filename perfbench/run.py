"""Wall-clock TPC-W benchmark of the MTCache reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload browsing_cache --seed 1 --seconds 30 --trace 0

Each run repeats episodes (fresh deployment, warm-up, a fixed sequence of
measured interactions, transparency check) until ``--seconds`` is spent.
Timings are measured on the wall clock and scaled by the host CPU speed
measured in the same episode (``harness.reference_unit_s``), so that a
shared machine's speed swings do not read as program changes.
``--trace 0`` measures the end-to-end metrics with no benchmark spans
installed; ``--trace 1`` alternates untraced and traced episodes on the
same episode seeds and reports the per-layer budget. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _bootstrap() -> None:
    """Import the program from this checkout's sources, or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


def _pin_to_one_cpu() -> int:
    """Confine this process, and every thread it starts later, to one CPU.

    The program runs Python on one thread at a time (the interpreter
    lock), so a second CPU adds no capacity. It does add cost and noise:
    on a shared 2-vCPU machine, handing the lock between threads on
    different vCPUs cut WIPS by 15-40% and doubled run-to-run spread.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered) - 1e-9)) - 1]


def _ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when nothing was measured."""
    return part / whole if whole else 0.0


def end_to_end(episodes, rss_mb: float):
    """(metrics, sample counts) over a run's untraced episodes.

    Each percentile is taken within every episode and the run reports the
    median over episodes, so one episode hit by a burst of host load moves
    the result no further than any other episode does.
    """
    from repro.tpcw.workload import BROWSE_INTERACTIONS

    from harness import REFERENCE_UNIT_S

    classes = {
        "all": lambda name: True,
        "browse": lambda name: name in BROWSE_INTERACTIONS,
        "order": lambda name: name not in BROWSE_INTERACTIONS,
    }
    samples = {cls: [] for cls in classes}  # per class: one list of latencies per episode
    for episode in episodes:
        for cls, member in classes.items():
            samples[cls].append(
                [latency * episode.scale for name, latency, _ in episode.records if member(name)]
            )
    lags = [episode.repl_lags_s for episode in episodes]

    def ms(per_episode, fraction):
        values = [percentile(v, fraction) for v in per_episode if v]
        return 1000 * statistics.median(values) if values else 0.0

    def n(per_episode):
        return sum(len(v) for v in per_episode)

    attempted = sum(episode.attempted for episode in episodes)
    failed = sum(episode.failed for episode in episodes)
    backend_statements = sum(episode.counters.backend_statements for episode in episodes)
    metrics = {
        "setup_s": statistics.median(
            episode.setup_s * REFERENCE_UNIT_S / episode.setup_unit_s for episode in episodes
        ),
        "wips": statistics.median(episode.wips for episode in episodes),
        "p50_ms": ms(samples["all"], 0.50),
        "p99_ms": ms(samples["all"], 0.99),
        "browse_p90_ms": ms(samples["browse"], 0.90),
        "order_p90_ms": ms(samples["order"], 0.90),
        "error_frac": failed / attempted,
        "backend_stmts_per_wi": backend_statements / attempted,
        "repl_lag_p50_ms": ms(lags, 0.50),
        "rss_mb": rss_mb,
    }
    counts = {
        "setup_s": len(episodes),
        "wips": len(episodes),
        "p50_ms": attempted,
        "p99_ms": attempted,
        "browse_p90_ms": n(samples["browse"]),
        "order_p90_ms": n(samples["order"]),
        "error_frac": attempted,
        "backend_stmts_per_wi": attempted,
        "repl_lag_p50_ms": n(lags),
        "rss_mb": 1,
    }
    return metrics, counts


def per_layer(traced, untraced):
    """(metrics, sample counts) of the layer budget over traced episodes."""
    from repro.tpcw.workload import INTERACTIONS

    from harness import Counters
    from layers import LayerStats

    layers = {}
    for episode in traced:
        for name, stats in episode.layers.items():
            layers.setdefault(name, LayerStats()).merge(stats, episode.scale)
    wi = sum(episode.attempted for episode in traced)
    c = functools.reduce(Counters.plus, (episode.counters for episode in traced))

    def layer(name):
        return layers.get(name) or LayerStats()

    def ms_per_wi(seconds):
        return 1000 * _ratio(seconds, wi)

    metrics, counts = {}, {}
    for interaction in INTERACTIONS:
        samples = layer("tpcw." + interaction).samples or []
        metrics[f"tpcw.{interaction}.p50_ms"] = 1000 * statistics.median(samples) if samples else 0.0
        counts[f"tpcw.{interaction}.p50_ms"] = len(samples)
    cache_layer = layer("mtcache.execute")
    tpcw_total = sum(layer("tpcw." + name).total_s for name in INTERACTIONS)
    tpcw_self = sum(layer("tpcw." + name).self_s for name in INTERACTIONS)
    overheads = [1 - t.wips / u.wips for t, u in zip(traced, untraced)]
    metrics.update({
        "client.cursor.self_ms_per_wi": ms_per_wi(layer("client.cursor").self_s),
        "net.client.roundtrips_per_wi": _ratio(c.net_roundtrips, wi),
        "net.client.bytes_per_wi": _ratio(c.net_bytes, wi),
        "net.overhead_ms_per_wi": ms_per_wi(layer("net.wire").total_s - cache_layer.root_s),
        "mtcache.execute.self_ms_per_wi": ms_per_wi(cache_layer.self_s),
        "mtcache.local_frac": _ratio(cache_layer.local, cache_layer.calls),
        "engine.cache.statements_per_wi": _ratio(c.cache_statements, wi),
        "engine.cache.self_ms_per_wi": ms_per_wi(layer("engine.cache").self_s),
        "engine.backend.ms_per_wi": ms_per_wi(layer("engine.backend").outer_s),
        "engine.lock_plan_ms_per_wi": ms_per_wi(layer("engine.lock_plan").total_s),
        "engine.procedure.self_ms_per_wi": ms_per_wi(layer("engine.procedure").self_s),
        "sql.parse_ms_per_wi": ms_per_wi(layer("sql.parse").total_s),
        "sql.parses_per_wi.cache": _ratio(c.parses["cache"], wi),
        "sql.parses_per_wi.backend": _ratio(c.parses["backend"], wi),
        "sql.parse_cache_hit_ratio.cache": _ratio(
            c.parse_hits["cache"], c.parse_hits["cache"] + c.parses["cache"]),
        "sql.parse_cache_hit_ratio.backend": _ratio(
            c.parse_hits["backend"], c.parse_hits["backend"] + c.parses["backend"]),
        "optimizer.plan_ms_per_wi": ms_per_wi(layer("optimizer.plan").self_s),
        "optimizer.plan_cache_hit_ratio": _ratio(c.plan_hits, c.plan_hits + c.plan_misses),
        "exec.ms_per_wi": ms_per_wi(layer("exec").self_s),
        "exec.rows_examined_per_row_returned": _ratio(c.rows_processed, layer("exec").items),
        "distributed.link_calls_per_wi": _ratio(layer("distributed.link").calls, wi),
        "distributed.prepares_per_wi": _ratio(c.link_prepares, wi),
        "distributed.link.self_ms_per_wi": ms_per_wi(layer("distributed.link").self_s),
        "replication.logreader_ms_per_wi": ms_per_wi(layer("replication.logreader").total_s),
        "replication.apply_ms_per_wi": ms_per_wi(layer("replication.apply").total_s),
        "replication.tick_ms_per_wi": ms_per_wi(layer("replication.tick").total_s),
        "replication.txns_per_round_trip": _ratio(c.txns_applied, c.round_trips),
        "storage.wal_records_per_wi": _ratio(c.wal_lsn, wi),
        "trace.overhead_frac": statistics.median(overheads),
        "trace.coverage_frac": _ratio(tpcw_total - tpcw_self, tpcw_total),
    })
    for name in metrics:
        counts.setdefault(name, wi)
    counts["trace.overhead_frac"] = len(overheads)
    return metrics, counts


def _print_metrics(metrics, counts, units) -> None:
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6f} {units[name]:9s} (n={counts[name]})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()

    from repro.tpcw.workload import BROWSE_INTERACTIONS, INTERACTIONS

    from harness import REFERENCE_UNIT_S, run_episode
    from layers import assert_unwrapped
    from workloads import (
        CLIENTS, END_TO_END, MEASURED_PER_CLIENT, MODELED_NOTE, PER_LAYER, PREDICTIONS,
        UNGATED, WARMUP_PER_CLIENT, WORKLOADS,
    )

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    cpus = sorted(os.sched_getaffinity(0))
    cpu = _pin_to_one_cpu()
    deadline = time.perf_counter() + args.seconds
    untraced, traced = [], []
    longest = 0.0
    while True:
        begun = time.perf_counter()
        key = f"{args.seed}:{workload.name}:{len(untraced)}"
        untraced.append(run_episode(workload, key, traced=False))
        if args.trace:
            traced.append(run_episode(workload, key, traced=True))
        longest = max(longest, time.perf_counter() - begun)
        if time.perf_counter() + longest > deadline:
            break
    assert_unwrapped()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    episodes = untraced + traced

    print(f"perfbench workload={workload.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print(f"  scale: mix={workload.mix} items={workload.items} ebs={workload.ebs} "
          f"bestseller_window={workload.bestseller_window} transport={workload.transport}")
    print(f"  load: closed loop, {CLIENTS} clients (one thread and connection each), zero "
          f"think time; nproc={os.cpu_count()} python={platform.python_version()}; "
          f"process pinned to CPU {cpu} of {cpus}")
    print(f"  episodes: {len(untraced)} untraced, {len(traced)} traced; "
          f"{CLIENTS * MEASURED_PER_CLIENT} measured interactions each after "
          f"{WARMUP_PER_CLIENT} warm-up per client")
    print(f"  why: {workload.why}")
    print(f"  note: {MODELED_NOTE}")
    samples = collections.Counter(name for episode in untraced for name, _, _ in episode.records)
    browse = sum(samples[name] for name in BROWSE_INTERACTIONS)
    print(f"  class samples: browse={browse} order={sum(samples.values()) - browse}; "
          + " ".join(f"{name}={samples[name]}" for name in INTERACTIONS))

    units_ms = sorted(1000 * episode.unit_s for episode in episodes)
    print(f"  host speed: reference unit {statistics.median(units_ms):.3f} ms median "
          f"({units_ms[0]:.3f}-{units_ms[-1]:.3f}) over {len(episodes)} episodes; "
          f"timings below are scaled to {1000 * REFERENCE_UNIT_S:g} ms per unit")
    print(f"  unscaled wall clock: median episode wips "
          f"{statistics.median(e.wips * e.scale for e in untraced):.2f} 1/s, "
          f"setup {statistics.median(e.setup_s for e in untraced):.4f} s")
    e2e, e2e_counts = end_to_end(untraced, rss_mb)
    print("end-to-end (untraced episodes):")
    _print_metrics(e2e, e2e_counts, dict(END_TO_END))
    if traced:
        layer_metrics, layer_counts = per_layer(traced, untraced)
        print("per-layer (traced episodes, per interaction = per WI):")
        _print_metrics(layer_metrics, layer_counts, dict(PER_LAYER))
        print("predictions (layer metric -> end-to-end metric -> workload):")
        for layer, moves, where in PREDICTIONS:
            print(f"  {layer} -> {moves} -> {where}")

    mismatches = [line for episode in episodes for line in episode.mismatches]
    print(f"transparency: {'ok' if not mismatches else 'FAILED'} "
          f"({len(mismatches)} mismatches over {len(episodes)} episodes)")
    for line in mismatches[:20]:
        print(f"  {line}")
    for episode in episodes:
        for sample in episode.error_samples:
            print(sample, file=sys.stderr)

    if args.trace:
        reported = layer_metrics
        units = dict(PER_LAYER)
    else:
        reported = {name: e2e[name] for name, _ in END_TO_END if name not in UNGATED}
        units = dict(END_TO_END)
    summary = {
        "correct": not mismatches,
        "attempted": sum(episode.attempted for episode in episodes),
        "failed": sum(episode.failed for episode in episodes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }
    print(json.dumps(summary))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
