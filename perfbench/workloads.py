"""The benchmark's workloads, metric catalogue and layer predictions.

Every workload builds a TPC-W backend plus one MTCache server with the
paper's four cached views and copied read procedures, then drives a
fixed sequence of interactions from two closed-loop emulated browsers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.tpcw.workload import INTERACTIONS


@dataclass(frozen=True)
class Workload:
    """One traffic mix at one scale over one transport."""

    name: str
    mix: str  # key of repro.tpcw.workload.MIXES
    items: int
    ebs: int  # TPC-W scale: emulated browsers the data is sized for
    bestseller_window: int
    transport: str  # "inproc" or "tcp"
    why: str


#: Closed-loop clients (TPC-W emulated browsers that wait for each reply),
#: one thread and one connection each, zero think time: WIPS is capacity.
CLIENTS = 2
#: Measured interactions per client in one episode.
MEASURED_PER_CLIENT = 1000
#: Untimed interactions per client before the measured window.
WARMUP_PER_CLIENT = 100

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="browsing_cache",
            mix="Browsing",
            items=1000,
            ebs=100,
            bestseller_window=200,
            transport="inproc",
            why=(
                "Browsing mix (95% browse) at 1000 items: reads served from cached "
                "views, cache exec and optimizer bound; link and replication nearly idle"
            ),
        ),
        Workload(
            name="ordering_cache",
            mix="Ordering",
            items=200,
            ebs=40,
            bestseller_window=100,
            transport="inproc",
            why=(
                "Ordering mix (50% order) at 200 items: forwarded EXEC and DML cross the "
                "link to the backend and replicate back; catches read gains that cost writes"
            ),
        ),
        Workload(
            name="shopping_tcp",
            mix="Shopping",
            items=200,
            ebs=40,
            bestseller_window=100,
            transport="tcp",
            why=(
                "Shopping mix, the paper's primary one, over tcp:// to a ReproServer: the "
                "only workload paying the frame codec, socket round trips and executor hop"
            ),
        ),
    )
}

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("wips", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("browse_p90_ms", "ms"),
    ("order_p90_ms", "ms"),
    ("error_frac", "frac"),
    ("backend_stmts_per_wi", "count/wi"),
    ("repl_lag_p50_ms", "ms"),
    ("rss_mb", "MB"),
]
#: Printed but left out of the result line. ``error_frac`` is 0 on working
#: code, so no relative bound can be set on it; failures are reported in
#: the result's ``failed`` count and counted as latency-limit misses in
#: every percentile instead.
UNGATED = {"error_frac"}

#: (name, unit) of every per-layer metric of a traced run.
PER_LAYER: List[Tuple[str, str]] = [(f"tpcw.{name}.p50_ms", "ms") for name in INTERACTIONS] + [
    ("client.cursor.self_ms_per_wi", "ms/wi"),
    ("net.client.roundtrips_per_wi", "count/wi"),
    ("net.client.bytes_per_wi", "B/wi"),
    ("net.overhead_ms_per_wi", "ms/wi"),
    ("mtcache.execute.self_ms_per_wi", "ms/wi"),
    ("mtcache.local_frac", "frac"),
    ("engine.cache.statements_per_wi", "count/wi"),
    ("engine.cache.self_ms_per_wi", "ms/wi"),
    ("engine.backend.ms_per_wi", "ms/wi"),
    ("engine.lock_plan_ms_per_wi", "ms/wi"),
    ("engine.procedure.self_ms_per_wi", "ms/wi"),
    ("sql.parse_ms_per_wi", "ms/wi"),
    ("sql.parses_per_wi.cache", "count/wi"),
    ("sql.parses_per_wi.backend", "count/wi"),
    ("sql.parse_cache_hit_ratio.cache", "frac"),
    ("sql.parse_cache_hit_ratio.backend", "frac"),
    ("optimizer.plan_ms_per_wi", "ms/wi"),
    ("optimizer.plan_cache_hit_ratio", "frac"),
    ("exec.ms_per_wi", "ms/wi"),
    ("exec.rows_examined_per_row_returned", "ratio"),
    ("distributed.link_calls_per_wi", "count/wi"),
    ("distributed.prepares_per_wi", "count/wi"),
    ("distributed.link.self_ms_per_wi", "ms/wi"),
    ("replication.logreader_ms_per_wi", "ms/wi"),
    ("replication.apply_ms_per_wi", "ms/wi"),
    ("replication.tick_ms_per_wi", "ms/wi"),
    ("replication.txns_per_round_trip", "count"),
    ("storage.wal_records_per_wi", "count/wi"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage_frac", "frac"),
]

#: Layer metric prefix -> (end-to-end metrics it should move, workloads).
#: Written down before measuring; a change to one layer is judged by
#: whether its end-to-end metric moved where this map says it should, and
#: nowhere else.
PREDICTIONS: List[Tuple[str, str, str]] = [
    ("tpcw.<interaction>.p50_ms", "browse_p90_ms, order_p90_ms", "all workloads"),
    ("client.cursor.self_ms_per_wi", "p50_ms", "ordering_cache, shopping_tcp"),
    (
        "net.client.roundtrips_per_wi, net.client.bytes_per_wi, net.overhead_ms_per_wi",
        "wips, p50_ms",
        "shopping_tcp; no change on ordering_cache",
    ),
    (
        "mtcache.execute.self_ms_per_wi, mtcache.local_frac",
        "backend_stmts_per_wi, wips",
        "shopping_tcp, ordering_cache",
    ),
    (
        "engine.cache.statements_per_wi, engine.cache.self_ms_per_wi, "
        "engine.backend.ms_per_wi, engine.lock_plan_ms_per_wi, "
        "engine.procedure.self_ms_per_wi",
        "order_p90_ms",
        "ordering_cache",
    ),
    (
        "sql.parse_ms_per_wi, sql.parses_per_wi.*, sql.parse_cache_hit_ratio.*",
        "order_p90_ms",
        "ordering_cache",
    ),
    (
        "optimizer.plan_ms_per_wi, optimizer.plan_cache_hit_ratio",
        "p50_ms",
        "ordering_cache, shopping_tcp",
    ),
    (
        "exec.ms_per_wi, exec.rows_examined_per_row_returned",
        "browse_p90_ms, wips",
        "shopping_tcp",
    ),
    (
        "distributed.link_calls_per_wi, distributed.prepares_per_wi, "
        "distributed.link.self_ms_per_wi",
        "order_p90_ms",
        "ordering_cache",
    ),
    (
        "replication.logreader_ms_per_wi, replication.apply_ms_per_wi, "
        "replication.tick_ms_per_wi, replication.txns_per_round_trip",
        "repl_lag_p50_ms, wips",
        "ordering_cache",
    ),
    ("storage.wal_records_per_wi", "wips", "ordering_cache"),
    ("trace.overhead_frac, trace.coverage_frac", "(tracing quality)", "all workloads"),
]

MODELED_NOTE = (
    "BENCH_pr*.json figures are modeled (DES and rows_processed counters), "
    "not wall-clock, and are not comparable with this benchmark."
)
