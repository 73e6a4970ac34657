"""Batch execution: chunking, work counters, kernel caching, metrics.

Operators move chunks of rows (``PhysicalOperator.execute_batches``);
anything not answerable from these tests lives next to the
expression-level checks in ``test_expressions.py``, and result
correctness against the reference evaluator lives in
``tests/integration/test_differential.py``. The invariant checked here:
chunk boundaries are invisible — a plan drained one row per chunk returns
the same rows, and counts the same work, as one drained in default-size
chunks.
"""

import pytest

from repro.common.schema import Column, Schema
from repro.common.types import INT
from repro.catalog.objects import TableDef
from repro.engine.database import Database
from repro.exec.context import DEFAULT_BATCH_ROWS, ExecutionContext
from repro.exec.expressions import ExpressionCompiler, compiled_like_pattern
from repro.exec.operators import (
    BatchCursor,
    FilterOp,
    IndexLookupJoinOp,
    IndexRangeScanOp,
    NestedLoopJoinOp,
    SeqScanOp,
    TopOp,
    ValuesOp,
)
from repro.exec.reference import evaluate_select
from repro.sql import parse, parse_expression
from tests.conftest import drain, make_shop_backend
from tests.integration.test_differential import NULL_HEAVY_CASES, OPERATOR_CASES


@pytest.fixture
def server():
    return make_shop_backend()


def run_chunked(server, query, params=None, batch_rows=DEFAULT_BATCH_ROWS):
    """Execute ``query`` with plans chunked at ``batch_rows`` rows.

    Returns the result rows and the ``rows_processed`` the execution
    counted.
    """
    make_context = server._make_context

    def chunked_context(*args):
        ctx = make_context(*args)
        ctx.batch_rows = batch_rows
        return ctx

    server._make_context = chunked_context
    try:
        server.reset_work()
        rows = server.execute(query, params=params).rows
        return rows, server.total_work.rows_processed
    finally:
        del server._make_context


def run_both_modes(server, query, params=None):
    """(one-row-chunk run, default-chunk run) of ``query``."""
    return (
        run_chunked(server, query, params, batch_rows=1),
        run_chunked(server, query, params),
    )


class TestModeEquivalence:
    """Row-at-a-time chunks (``batch_rows=1``) against default chunks.

    One-row chunks make every operator flush after each row, so these
    cases walk every chunk-boundary path (join output flushes, TOP
    slicing, filtered-out chunks) that default-size chunks over these
    small tables never reach.
    """

    @pytest.mark.parametrize("query", OPERATOR_CASES)
    def test_same_rows_in_both_modes(self, server, query):
        (single_rows, _), (batch_rows, _) = run_both_modes(server, query)
        assert batch_rows == single_rows

    def test_parameters_hoisted_per_batch(self, server):
        (single_rows, _), (batch_rows, _) = run_both_modes(
            server,
            "SELECT cname FROM customer WHERE cid <= @limit AND segment = @seg",
            params={"limit": 60, "seg": "gold"},
        )
        assert batch_rows == single_rows
        assert single_rows  # the query must actually select something

    def test_null_heavy_rows(self, server):
        server.execute("INSERT INTO customer VALUES (998, 'nully', NULL, NULL)")
        server.execute("INSERT INTO orders VALUES (9001, 998, NULL, NULL)")
        for query in NULL_HEAVY_CASES:
            (single_rows, _), (batch_rows, _) = run_both_modes(server, query)
            assert batch_rows == single_rows

    def test_work_counters_identical_across_modes(self, server):
        query = "SELECT status, COUNT(*) FROM orders WHERE total > 100 GROUP BY status"
        (_, single_work), (_, batch_work) = run_both_modes(server, query)
        assert batch_work == single_work
        assert single_work >= 400  # the scan really counted its input


class TestWorkCounters:
    """Exact work counts for fixed queries on the default shop backend."""

    @pytest.mark.parametrize(
        "query, rows_processed, index_seeks",
        [
            ("SELECT status, COUNT(*) FROM orders WHERE total > 100 GROUP BY status", 1470, 0),
            ("SELECT cname FROM customer WHERE cid = 17", 4, 1),
            ("SELECT MAX(cid) FROM customer", 1, 1),
            ("SELECT c.cname, o.total FROM customer c, orders o "
             "WHERE c.cid < 3 AND o.oid < 3", 20, 2),
            # TOP over an index range scan.
            ("SELECT TOP 3 cid FROM customer WHERE cid <= 20", 80, 1),
            # TOP over an index-lookup join whose input fits one chunk.
            ("SELECT TOP 5 c.cname, o.total FROM customer c "
             "JOIN orders o ON c.cid = o.o_cid WHERE c.cid <= 20", 140, 21),
            # TOP over an index-lookup join that stops mid-input: the join
            # flushes after 256 output rows (128 probes), while its scan
            # input has already counted its whole 200-row chunk.
            ("SELECT TOP 5 c.cname, o.total FROM orders o "
             "JOIN customer c ON c.cid = o.o_cid", 912, 128),
        ],
    )
    def test_exact_counts(self, server, query, rows_processed, index_seeks):
        server.reset_work()
        server.execute(query)
        assert server.total_work.rows_processed == rows_processed
        assert server.total_work.index_seeks == index_seeks

    def test_top_stops_after_first_chunk(self):
        database = Database("t")
        schema = Schema([Column("id", INT, nullable=False, qualifier="t")])
        database.create_storage(TableDef("t", schema, primary_key=("id",)))
        table = database.storage_table("t")
        for i in range(1, 101):
            table.insert((i,))
        index_name = next(iter(table.indexes))
        blank = ExpressionCompiler(Schema(()))
        two = blank.compile(parse_expression("2"))
        key = ExpressionCompiler(schema).compile(parse_expression("t.id"))

        scan = IndexRangeScanOp(schema, "t", index_name)
        ctx = ExecutionContext(database=database, batch_rows=8)
        assert drain(TopOp(scan, two), ctx) == [(1,), (2,)]
        assert (ctx.work.rows_processed, ctx.work.index_seeks) == (8, 1)

        join = IndexLookupJoinOp(
            SeqScanOp(schema, "t"), schema, "t", index_name, [key], [0]
        )
        ctx = ExecutionContext(database=database, batch_rows=8)
        assert drain(TopOp(join, two), ctx) == [(1, 1), (2, 2)]
        # The scan counts its 8-row chunk; the join probes until its
        # output chunk is full.
        assert (ctx.work.rows_processed, ctx.work.index_seeks) == (16, 8)


class TestBatchProtocol:
    def _scan(self):
        database = Database("t")
        schema = Schema([Column("id", INT, nullable=False, qualifier="t")])
        database.create_storage(TableDef("t", schema, primary_key=("id",)))
        table = database.storage_table("t")
        for i in range(1, 1001):
            table.insert((i,))
        return database, SeqScanOp(schema, "t")

    def test_scan_yields_fixed_size_chunks(self):
        database, scan = self._scan()
        ctx = ExecutionContext(database=database, batch_rows=64)
        chunks = list(scan.execute_batches(ctx))
        assert [len(chunk) for chunk in chunks] == [64] * 15 + [40]
        assert [row for chunk in chunks for row in chunk] == [
            (i,) for i in range(1, 1001)
        ]

    def test_batches_are_never_empty(self):
        database, scan = self._scan()
        predicate = ExpressionCompiler(scan.schema).compile(
            parse_expression("id = 77")
        )
        op = FilterOp(scan, predicate)
        ctx = ExecutionContext(database=database, batch_rows=50)
        chunks = list(op.execute_batches(ctx))
        # 19 of the 20 input chunks filter to nothing and must be elided.
        assert chunks == [[(77,)]]

    def test_join_output_flushes_at_batch_rows(self):
        # 3 x 4 cross join: the output is cut into batch_rows-sized
        # chunks regardless of where the input chunks end.
        database = Database("t")
        schema = Schema([Column("n", INT, qualifier="v")])

        def values(count):
            return ValuesOp(
                schema, [[lambda row, ctx, v=i: v] for i in range(count)]
            )

        join = NestedLoopJoinOp(values(3), values(4))
        ctx = ExecutionContext(database=database, batch_rows=5)
        chunks = list(join.execute_batches(ctx))
        assert [len(chunk) for chunk in chunks] == [5, 5, 2]
        assert sum(len(chunk) for chunk in chunks) == 12

    def test_batch_cursor(self):
        database, scan = self._scan()
        cursor = BatchCursor(scan, ExecutionContext(database=database, batch_rows=400))
        sizes = []
        while (chunk := cursor.next_batch()) is not None:
            sizes.append(len(chunk))
        assert sizes == [400, 400, 200]
        assert cursor.next_batch() is None  # exhausted stays exhausted
        cursor.close()

    def test_kernel_cache_counts_hits_and_misses(self):
        database, scan = self._scan()
        predicate = ExpressionCompiler(scan.schema).compile(
            parse_expression("id > 500")
        )
        op = FilterOp(scan, predicate)
        ctx = ExecutionContext(database=database, batch_rows=100)
        assert len(list(op.execute_batches(ctx))) == 5
        assert ctx.compiled_cache_misses == 1
        assert ctx.compiled_cache_hits == 0
        # Re-executing the same operator instance reuses the built kernel.
        list(op.execute_batches(ctx))
        assert ctx.compiled_cache_misses == 1
        assert ctx.compiled_cache_hits == 1


class TestModeSelection:
    """The execution settings a context takes from its server."""

    def test_context_inherits_server_settings(self):
        from repro.engine import Server
        from repro.engine.session import Session

        server = Server("s", statement_fastpath=False)
        server.create_database("d")
        ctx = server._make_context({}, server.database("d"), Session())
        assert ctx.fastpath is False
        assert ctx.batch_rows == server.batch_rows == DEFAULT_BATCH_ROWS


class TestObservability:
    def test_exec_metrics_exported(self, server):
        server.execute("SELECT status, COUNT(*) FROM orders GROUP BY status")
        counters = server.metrics.snapshot()["counters"]
        assert counters["exec.batches"] > 0
        assert counters["exec.compiled_cache_misses"] > 0
        histogram = server.metrics.snapshot()["histograms"]["exec.batch_rows"]
        assert histogram["count"] == counters["exec.batches"]
        assert 0 < histogram["mean"] <= DEFAULT_BATCH_ROWS

    def test_profile_counts_batches(self, server):
        server.profile_statements = True
        result = server.execute("SELECT cname FROM customer WHERE cid <= 150")
        profile = result.profile
        assert profile is not None
        assert profile.root.actual_rows == 150
        assert profile.root.actual_batches >= 1
        assert "batches=" in profile.render()
        assert profile.to_dict()["actual_batches"] == profile.root.actual_batches


class TestLikeMemo:
    def test_pattern_compiled_once(self):
        first = compiled_like_pattern("abc%")
        assert compiled_like_pattern("abc%") is first

    def test_memo_is_bounded(self):
        from repro.exec import expressions

        for i in range(expressions._like_pattern_memo.capacity + 50):
            compiled_like_pattern(f"p{i}%")
        assert (
            len(expressions._like_pattern_memo)
            <= expressions._like_pattern_memo.capacity
        )

    def test_dynamic_like_matches_scalar(self, server):
        # Pattern comes from a parameter: compiled per chunk, not per row.
        # The reference evaluator applies the scalar LIKE row by row.
        query = "SELECT cname FROM customer WHERE cname LIKE @pat"
        params = {"pat": "cust1_"}
        batch_result = server.execute(query, params=params).rows
        _, scalar_result = evaluate_select(
            server.database("shop"), parse(query), params
        )
        assert sorted(batch_result) == sorted(scalar_result)
        assert len(batch_result) == 10
