"""Statement-level work happens once per statement, not once per execution.

Forwarded ``EXEC`` calls ship one parameterized text per call shape (by
prepared handle, or as text with the fast path off), lock plans are
memoized per statement and catalog version, and procedure expressions
compile once per definition. Each shortcut must stay invisible: same
rows, same Python types, same locks, same loop semantics.
"""

import datetime

import pytest

from repro import MTCacheDeployment, Server
from repro.engine import server as engine_server
from repro.engine.locks import LockMode

from tests.conftest import make_shop_backend

ECHO = """
CREATE PROCEDURE echo @d DATETIME, @f FLOAT, @b INT, @n INT, @s VARCHAR(40) AS
BEGIN
    SELECT @d AS d, @f AS f, @b AS b, @n AS n, @s AS s
END
"""

ECHO_PARAMS = {
    "d": datetime.datetime(2003, 6, 9, 12, 0, 0, 123456),
    "f": 0.1 + 0.2,
    "b": True,
    "n": None,
    "s": "O'Brien",
}

ECHO_CALL = "EXEC echo @d = @d, @f = @f, @b = @b, @n = @n, @s = @s"


def _cache_deployment(fastpath: bool):
    backend = make_shop_backend(customers=20, orders=20)
    backend.execute(ECHO, database="shop")
    deployment = MTCacheDeployment(backend, "shop")
    server = Server("cache1", clock=deployment.clock, statement_fastpath=fastpath)
    cache = deployment.attach_cache_server(server)
    return backend, cache


def _typed(rows):
    return [tuple((type(value), value) for value in row) for row in rows]


class TestForwardedExec:
    @pytest.mark.parametrize("fastpath", [True, False], ids=["fastpath", "text"])
    def test_forwarded_call_keeps_values_and_types(self, fastpath):
        backend, cache = _cache_deployment(fastpath)
        direct = backend.execute(ECHO_CALL, params=ECHO_PARAMS, database="shop")
        through_cache = cache.execute(ECHO_CALL, params=ECHO_PARAMS)
        assert through_cache.rows == direct.rows
        assert _typed(through_cache.rows) == _typed(direct.rows)
        assert type(through_cache.rows[0][0]) is datetime.datetime
        assert through_cache.rows[0][2] is True

    def test_positional_call_forwards(self):
        backend, cache = _cache_deployment(True)
        call = "EXEC echo @d, @f, @b, @n, @s"
        rows = cache.execute(call, params=ECHO_PARAMS).rows
        assert rows == [tuple(ECHO_PARAMS.values())]
        assert rows == backend.execute(call, params=ECHO_PARAMS, database="shop").rows

    def test_one_handle_per_call_shape(self):
        backend, cache = _cache_deployment(True)
        link = cache.server.linked_servers.get("backend")
        parses = backend.parses
        for offset in range(5):
            params = dict(ECHO_PARAMS, f=float(offset))
            assert cache.execute(ECHO_CALL, params=params).rows[0][1] == float(offset)
        # One prepare, one parse on the backend for five calls.
        assert link.prepares == 1
        assert link.prepared_executions == 5
        assert backend.parses - parses == 1

    def test_text_path_ships_parameterized_text(self):
        backend, cache = _cache_deployment(False)
        link = cache.server.linked_servers.get("backend")
        for offset in range(3):
            cache.execute(ECHO_CALL, params=dict(ECHO_PARAMS, f=float(offset)))
        assert link.prepares == 0
        assert link.statements_shipped == 3
        # The same text each time: the backend's parse cache serves the
        # second and third call.
        stats = backend.statement_cache_stats()["parse_cache"]
        assert stats["hits"] >= 2


class TestLockPlanMemo:
    @pytest.fixture
    def server(self):
        server = Server("s")
        server.create_database("db")
        server.execute(
            """
            CREATE TABLE t (id INT PRIMARY KEY, v INT);
            CREATE TABLE u (id INT PRIMARY KEY, v INT);
            INSERT INTO t VALUES (1, 10);
            INSERT INTO u VALUES (1, 20);
            """
        )
        return server

    @pytest.fixture
    def lock_plan_calls(self, monkeypatch):
        """Statements ``statement_lock_plan`` classified from now on."""
        calls = []
        original = engine_server.statement_lock_plan

        def counting(statement, catalog=None):
            calls.append(statement)
            return original(statement, catalog)

        monkeypatch.setattr(engine_server, "statement_lock_plan", counting)
        return calls

    @staticmethod
    def _record_locks(server, monkeypatch):
        """Record (latch mode, table modes) for every locked dispatch."""
        database = server.database("db")
        seen = []
        exclusive = database.latch.exclusive
        locking = database.lock_manager.locking

        def record_exclusive():
            seen.append(("latch", LockMode.EXCLUSIVE))
            return exclusive()

        def record_locking(pairs):
            seen.append(("tables", tuple(pairs)))
            return locking(pairs)

        monkeypatch.setattr(database.latch, "exclusive", record_exclusive)
        monkeypatch.setattr(database.lock_manager, "locking", record_locking)
        return seen

    def test_redefined_procedure_takes_latch_exclusive(self, server, monkeypatch):
        server.execute("CREATE PROCEDURE p AS BEGIN SELECT v FROM t END")
        call = "EXEC p"
        assert server.execute(call).rows == [(10,)]
        seen = self._record_locks(server, monkeypatch)
        server.execute(call)
        assert ("latch", LockMode.EXCLUSIVE) not in seen
        server.execute("DROP PROCEDURE p")
        server.execute("CREATE PROCEDURE p AS BEGIN UPDATE t SET v = v + 1 END")
        seen.clear()
        server.execute(call)
        assert seen[0] == ("latch", LockMode.EXCLUSIVE)
        assert server.execute("SELECT v FROM t").rows == [(11,)]

    def test_repointed_view_locks_new_base_table(self, server, monkeypatch):
        server.execute("CREATE VIEW vw AS SELECT id, v FROM t")
        query = "SELECT v FROM vw"
        assert server.execute(query).rows == [(10,)]
        seen = self._record_locks(server, monkeypatch)
        server.execute(query)
        assert seen == [("tables", (("t", LockMode.SHARED),))]
        server.execute("DROP VIEW vw")
        server.execute("CREATE VIEW vw AS SELECT id, v FROM u")
        seen.clear()
        assert server.execute(query).rows == [(20,)]
        assert seen == [("tables", (("u", LockMode.SHARED),))]

    def test_repeated_statement_plans_locks_once(self, server, lock_plan_calls):
        for _ in range(5):
            server.execute("SELECT v FROM t WHERE id = 1")
        assert len(lock_plan_calls) == 1
        # A schema change re-plans the same statement once more.
        server.execute("CREATE INDEX ix_t_v ON t (v)")
        lock_plan_calls.clear()
        for _ in range(3):
            server.execute("SELECT v FROM t WHERE id = 1")
        assert len(lock_plan_calls) == 1

    def test_procedure_body_plans_locks_once(self, server, lock_plan_calls):
        server.execute("CREATE PROCEDURE get @id INT AS BEGIN SELECT v FROM t WHERE id = @id END")
        server.execute("EXEC get 1")
        lock_plan_calls.clear()
        for _ in range(4):
            assert server.execute("EXEC get 1").rows == [(10,)]
        assert lock_plan_calls == []


class TestProcedureCompileOnce:
    @pytest.fixture
    def server(self):
        server = Server("s")
        server.create_database("db")
        server.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        return server

    def test_while_subquery_condition_sees_each_insert(self, server):
        # The condition's subquery result must not be reused across
        # iterations: a stale COUNT(*) would never reach 5, and the loop
        # would run on to the @i guard.
        server.execute(
            """
            CREATE PROCEDURE fill AS
            BEGIN
                DECLARE @i INT = 0
                WHILE (SELECT COUNT(*) FROM t) < 5 AND @i < 50
                BEGIN
                    SET @i = @i + 1
                    INSERT INTO t (id) VALUES (@i)
                END
                SELECT COUNT(*) FROM t
            END
            """
        )
        assert server.execute("EXEC fill").scalar == 5
        assert server.execute("SELECT COUNT(*) FROM t").scalar == 5
        # A second call re-reads the (now full) table and inserts nothing.
        assert server.execute("EXEC fill").scalar == 5

    def test_expressions_compile_once_per_definition(self, server):
        server.execute(
            """
            CREATE PROCEDURE addup @n INT, @step INT = 2 AS
            BEGIN
                DECLARE @total INT = 0
                DECLARE @i INT = 0
                WHILE @i < @n
                BEGIN
                    SET @total = @total + @step
                    SET @i = @i + 1
                END
                RETURN @total
            END
            """
        )
        assert server.execute("EXEC addup 3").return_value == 6
        procedure = server.database("db").catalog.get_procedure("addup")
        compiled = dict(procedure.compiled)
        assert compiled
        assert server.execute("EXEC addup 10").return_value == 20
        assert server.execute("EXEC addup 4, 5").return_value == 20
        # Same closures, nothing new: every node compiled on the first call.
        assert procedure.compiled == compiled

    def test_redefinition_starts_a_new_memo(self, server):
        server.execute("CREATE PROCEDURE f AS BEGIN RETURN 1 + 1 END")
        assert server.execute("EXEC f").return_value == 2
        server.execute("DROP PROCEDURE f")
        server.execute("CREATE PROCEDURE f AS BEGIN RETURN 2 * 5 END")
        assert server.execute("EXEC f").return_value == 10
