"""E7 — vectorized batch execution vs a frozen row-at-a-time comparator.

Two gates for the engine's batch execution protocol:

* the scan+filter+aggregate microbenchmark (bestseller/search-shaped:
  one big table, a selective predicate with a LIKE, GROUP BY with
  COUNT/SUM/AVG) must run **at least 2x faster** through the engine's
  batch operators than through a row-at-a-time comparator, with
  identical result rows. The comparator lives in this file: it drives
  the *same* plan's compiled scalar closures one row per generator step
  (a storage scan, the filter predicate, the projections, then
  ``_AggState.add``) — the Volcano iteration batch execution replaced.
  Both sides run through ``Server.execute`` (same parse, plan and lock
  path); only the plan drain differs;
* the **full TPC-W mix** (Browsing, Shopping, Ordering) with checked
  plans on: every SELECT the backend executes must return what the
  reference evaluator (``repro.exec.reference``) computes over the
  backend database at that moment — so the batch kernels are held to
  scalar semantics by the actual workload, not just by unit tests.

Timing uses best-of-N-rounds wall time on a warmed plan cache, so the
comparison isolates execution.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from benchmarks.conftest import emit
from repro.engine import Server
from repro.exec.operators import AggregateOp, FilterOp, ProjectOp, SeqScanOp, _AggState
from repro.exec.reference import evaluate_select
from repro.mtcache.odbc import OdbcSourceRegistry
from repro.sql.formatter import format_statement
from repro.tpcw import MIXES, TPCWApplication, TPCWConfig, build_backend, enable_caching

#: Microbench scale: enough rows that per-row interpretation dominates.
MICRO_ROWS = 24_000

MICRO_QUERY = (
    "SELECT status, COUNT(*), SUM(total), AVG(total) "
    "FROM orders WHERE total > @t AND status LIKE 'OP%' GROUP BY status"
)
MICRO_PARAMS = {"t": 100.0}


def _build_micro_server() -> Server:
    server = Server("vecbench", observability=False, checked_plans=True)
    server.create_database("shop")
    server.execute(
        "CREATE TABLE orders (oid INT PRIMARY KEY, o_cid INT, "
        "total FLOAT, status VARCHAR(10))"
    )
    database = server.database("shop")
    database.bulk_load(
        "orders",
        [
            (i, i % 997, round(i * 1.5, 2), "OPEN" if i % 3 else "SHIPPED")
            for i in range(1, MICRO_ROWS + 1)
        ],
    )
    database.analyze_all()
    return server


def _rows(op, ctx) -> Iterator[Tuple]:
    """Frozen row-at-a-time drain of the micro plan's operators.

    One row per generator step through the plan's compiled scalar
    closures, counting ``rows_processed`` per input row like the batch
    operators do. Covers exactly the operator kinds the micro plan uses.
    """
    if isinstance(op, SeqScanOp):
        for _, row in ctx.database.storage_table(op.table_name).scan():
            ctx.work.rows_processed += 1
            yield row
    elif isinstance(op, FilterOp):
        for row in _rows(op.children[0], ctx):
            ctx.work.rows_processed += 1
            if op.predicate(row, ctx) is True:
                yield row
    elif isinstance(op, ProjectOp):
        for row in _rows(op.children[0], ctx):
            ctx.work.rows_processed += 1
            yield tuple(maker(row, ctx) for maker in op.makers)
    elif isinstance(op, AggregateOp):
        groups: Dict[Tuple, List[_AggState]] = {}
        for row in _rows(op.children[0], ctx):
            ctx.work.rows_processed += 1
            key = tuple(maker(row, ctx) for maker in op.group_makers)
            states = groups.get(key)
            if states is None:
                states = groups[key] = [_AggState(spec) for spec in op.aggregates]
            for state in states:
                state.add(row, ctx)
        for key, states in groups.items():
            yield key + tuple(state.result() for state in states)
    else:
        raise AssertionError(f"row comparator does not cover {op.describe()}")


def _time_statement(server: Server, repetitions: int = 15, rounds: int = 3) -> float:
    """Best-of-rounds mean seconds per micro statement."""
    server.execute(MICRO_QUERY, params=MICRO_PARAMS)  # warm plan + kernels
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(repetitions):
            server.execute(MICRO_QUERY, params=MICRO_PARAMS)
        best = min(best, time.perf_counter() - started)
    return best / repetitions


@contextmanager
def _row_at_a_time(server: Server):
    """Drain ``server``'s plans through the frozen comparator inside the block."""
    server._run_plan = lambda root, ctx: list(_rows(root, ctx))
    try:
        yield
    finally:
        del server._run_plan


def _run_micro(server: Server) -> Tuple[List[Tuple], int]:
    """(result rows, rows_processed) of one micro statement."""
    server.reset_work()
    rows = server.execute(MICRO_QUERY, params=MICRO_PARAMS).rows
    return rows, server.total_work.rows_processed


def test_bench_vectorized_speedup(benchmark, capsys, bench_recorder):
    server = _build_micro_server()
    batch_rows, batch_work = _run_micro(server)
    with _row_at_a_time(server):
        row_rows, row_work = _run_micro(server)
        row_seconds = _time_statement(server)
    assert batch_rows == row_rows, "batch execution must return identical rows"
    assert row_rows, "microbench query must produce rows"
    assert batch_work == row_work, "both drains must touch the same rows"

    batch_seconds = _time_statement(server)
    speedup = row_seconds / batch_seconds

    emit(
        capsys,
        "E7: vectorized batch execution (scan+filter+aggregate)",
        [
            f"rows scanned        {MICRO_ROWS:10,d}",
            f"row-at-a-time       {row_seconds * 1e3:10.2f} ms/stmt  (frozen comparator)",
            f"batch execution     {batch_seconds * 1e3:10.2f} ms/stmt",
            f"speedup             {speedup:10.2f}x  (gate: >= 2.0x)",
        ],
    )
    bench_recorder.record(
        "vectorized_micro",
        rows=MICRO_ROWS,
        row_ms_per_stmt=round(row_seconds * 1e3, 3),
        batch_ms_per_stmt=round(batch_seconds * 1e3, 3),
        speedup=round(speedup, 3),
    )
    assert speedup >= 2.0, (
        f"batch execution must be at least 2x faster than row-at-a-time "
        f"iteration on the scan+filter+aggregate microbench, measured {speedup:.2f}x"
    )

    benchmark(lambda: server.execute(MICRO_QUERY, params=MICRO_PARAMS))


# -- full TPC-W mix against the reference evaluator ----------------------------

_MIX_NAMES = ("Browsing", "Shopping", "Ordering")
_INTERACTIONS_PER_MIX = 60
#: (application target, TPC-W scale). Through the cache the backend sees
#: the forwarded and remote work; straight to the backend it runs every
#: read. The direct run has four items per subject, so subject listings
#: return several ordered rows, but few browsers and hence few orders,
#: which keeps the reference evaluator's cross products (best sellers)
#: cheap.
_MIX_RUNS = (
    ("via_cache", dict(num_items=60, num_ebs=10)),
    ("direct", dict(num_items=96, num_ebs=2)),
)


def _normalized(rows, ordered: bool):
    rows = [tuple(row) for row in rows]
    return rows if ordered else Counter(rows)


def test_bench_tpcw_mix_matches_reference(capsys, bench_recorder, monkeypatch):
    """Every backend SELECT of the three mixes equals the reference evaluator.

    The check hooks ``Server._execute_select`` at class level and runs
    :func:`evaluate_select` right after each backend SELECT, still under
    the statement's locks, so the oracle sees the database the statement
    saw. That covers procedure bodies, remote queries and forwarded
    statements shipped from the cache, and UNION branches.
    """
    monkeypatch.setenv("REPRO_CHECKED_PLANS", "1")
    checked: List[str] = []
    original = Server._execute_select

    def checking(self, statement, params, database, session):
        result = original(self, statement, params, database, session)
        if self.name == "backend":
            ordered = bool(statement.order_by)
            _, expected = evaluate_select(database, statement, params)
            assert _normalized(result.rows, ordered) == _normalized(expected, ordered), (
                f"backend SELECT differs from the reference evaluator: "
                f"{format_statement(statement)}"
            )
            checked.append(format_statement(statement))
        return result

    monkeypatch.setattr(Server, "_execute_select", checking)
    lines = []
    for target, scale in _MIX_RUNS:
        backend, config = build_backend(TPCWConfig(**scale))
        deployment, caches = enable_caching(backend, ["cache1"], config)
        assert backend.checked_plans and caches[0].server.checked_plans
        registry = OdbcSourceRegistry()
        registry.register("tpcw", caches[0].server if target == "via_cache" else backend, "tpcw")
        application = TPCWApplication(registry.connect("tpcw"), config)
        for seed, mix_name in enumerate(_MIX_NAMES, start=11):
            rng = random.Random(seed)
            sessions = [application.new_session() for _ in range(4)]
            start = len(checked)
            mix = MIXES[mix_name]
            for step in range(_INTERACTIONS_PER_MIX):
                application.run(mix.sample(rng), sessions[step % 4])
                deployment.tick(0.02)
            deployment.sync()
            statements = len(checked) - start
            assert statements > 0, f"{mix_name} {target}: the backend ran no SELECT"
            lines.append(
                f"{mix_name:10s} {target:9s} {statements:5d} backend SELECTs "
                f"({len(set(checked[start:])):3d} distinct) — equal to the reference"
            )
            bench_recorder.record(
                "tpcw_mix_reference",
                **{f"{mix_name.lower()}_{target}_backend_selects": statements},
            )
    emit(capsys, "E7: TPC-W mix against the reference evaluator", lines)
