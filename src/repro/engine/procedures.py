"""Stored procedure interpreter (T-SQL control-flow subset).

Procedures are the primary source of parameterized queries (paper §5.2).
The interpreter maintains a variable frame seeded from the call arguments;
every embedded query executes through the server's plan cache with the
frame as its parameter bindings — so a procedure body compiled once keeps
reusing its (possibly dynamic) plans across calls with different
arguments, which is precisely the scenario dynamic plans exist for.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.catalog.objects import ProcedureDef
from repro.common.schema import Schema
from repro.engine.results import Result
from repro.errors import ExecutionError
from repro.exec.context import ExecutionContext
from repro.exec.expressions import ExpressionCompiler, Scalar
from repro.sql import ast


class _ReturnSignal(Exception):
    """Internal control-flow signal for RETURN."""

    def __init__(self, value: Any):
        self.value = value


#: Safety bound on WHILE iterations (runaway-loop protection).
MAX_LOOP_ITERATIONS = 1_000_000


class ProcedureInterpreter:
    """Executes one procedure invocation."""

    def __init__(self, server, database, session):
        from repro.engine.session import Session

        self.server = server
        self.database = database
        # Ownership chaining: once the caller holds EXECUTE, the body runs
        # under the procedure owner's authority (as in T-SQL), so embedded
        # statements do not re-check the caller's table permissions.
        self.session = Session(principal="dbo", database=session.database)
        self.session.in_transaction = session.in_transaction
        self.session.transaction = getattr(session, "transaction", None)
        self._caller_session = session
        self._blank = ExpressionCompiler(Schema(()))
        self._compiled: Dict[int, Scalar] = {}

    def call(
        self,
        procedure: ProcedureDef,
        arguments: List[Tuple[Optional[str], ast.Expression]],
        outer_params: Optional[Dict[str, Any]] = None,
    ) -> Result:
        self._compiled = procedure.compiled
        frame = self._bind_arguments(procedure, arguments, outer_params or {})
        result = Result()
        try:
            self._run_block(procedure.body, frame, result)
        except _ReturnSignal as signal:
            result.return_value = signal.value
        if result.resultsets:
            schema, rows = result.resultsets[-1]
            result.schema = schema
            result.rows = rows
        return result

    def _bind_arguments(
        self,
        procedure: ProcedureDef,
        arguments: List[Tuple[Optional[str], ast.Expression]],
        outer_params: Dict[str, Any],
    ) -> Dict[str, Any]:
        ctx = self._context(outer_params)
        frame: Dict[str, Any] = {}
        positional = [value for name, value in arguments if name is None]
        named = {name: value for name, value in arguments if name is not None}

        for position, param in enumerate(procedure.params):
            # Caller arguments are not nodes of the definition: compile
            # them per call. Defaults are, and compile once.
            if param.name in named:
                compiled = self._blank.compile(named.pop(param.name))
            elif position < len(positional):
                compiled = self._blank.compile(positional[position])
            elif param.default is not None:
                compiled = self._compile(param.default)
            else:
                raise ExecutionError(
                    f"missing argument @{param.name} for procedure {procedure.name}"
                )
            frame[param.name] = compiled((), ctx)
        if named:
            unknown = ", ".join(f"@{name}" for name in named)
            raise ExecutionError(
                f"unknown argument(s) {unknown} for procedure {procedure.name}"
            )
        return frame

    def _context(self, params: Dict[str, Any]) -> ExecutionContext:
        return ExecutionContext(
            database=self.database,
            params=params,
            linked_servers=self.server.linked_servers,
            clock=self.server.clock,
        )

    # -- statement dispatch -------------------------------------------------

    def _run_block(
        self, statements, frame: Dict[str, Any], result: Result
    ) -> None:
        for statement in statements:
            self._run_statement(statement, frame, result)

    def _run_statement(self, statement, frame: Dict[str, Any], result: Result) -> None:
        if isinstance(statement, ast.Declare):
            value = None
            if statement.initial is not None:
                value = self._evaluate(statement.initial, frame)
            frame[statement.name] = value
            return
        if isinstance(statement, ast.SetVariable):
            frame[statement.name] = self._evaluate(statement.value, frame)
            return
        if isinstance(statement, ast.IfStatement):
            condition = self._evaluate(statement.condition, frame)
            if self._truthy(condition):
                self._run_block(statement.then_body, frame, result)
            else:
                self._run_block(statement.else_body, frame, result)
            return
        if isinstance(statement, ast.WhileStatement):
            iterations = 0
            while self._truthy(self._evaluate(statement.condition, frame)):
                iterations += 1
                if iterations > MAX_LOOP_ITERATIONS:
                    raise ExecutionError("WHILE loop exceeded iteration bound")
                self._run_block(statement.body, frame, result)
            return
        if isinstance(statement, ast.ReturnStatement):
            value = (
                self._evaluate(statement.value, frame)
                if statement.value is not None
                else 0
            )
            raise _ReturnSignal(value)
        if isinstance(statement, ast.PrintStatement):
            result.messages.append(str(self._evaluate(statement.value, frame)))
            return
        if isinstance(statement, ast.Select):
            self._run_select(statement, frame, result)
            return
        # Everything else (DML, EXEC, transactions) goes through the
        # server's dispatcher with the frame as parameter bindings.
        inner = self.server.execute_statement(
            statement, params=frame, session=self.session, database=self.database
        )
        result.messages.extend(inner.messages)
        result.rowcount += inner.rowcount
        if inner.resultsets:
            result.resultsets.extend(inner.resultsets)
        elif inner.schema is not None:
            result.resultsets.append((inner.schema, inner.rows))

    def _run_select(self, statement: ast.Select, frame: Dict[str, Any], result: Result) -> None:
        targets = [item.target_parameter for item in statement.items]
        inner = self.server.execute_statement(
            statement, params=frame, session=self.session, database=self.database
        )
        if any(targets):
            # SELECT @x = expr: assignment form. T-SQL applies the select
            # list to each row; the final values come from the last row.
            # With no rows, variables keep their prior values.
            for row in inner.rows:
                for position, target in enumerate(targets):
                    if target is not None:
                        frame[target] = row[position]
            return
        result.resultsets.append((inner.schema, inner.rows))

    # -- helpers -------------------------------------------------------------

    def _compile(self, expression: ast.Expression) -> Scalar:
        """The closure for an expression node of the running procedure,
        compiled once per definition."""
        compiled = self._compiled.get(id(expression))
        if compiled is None:
            compiled = self._compiled[id(expression)] = self._blank.compile(expression)
        return compiled

    def _evaluate(self, expression: ast.Expression, frame: Dict[str, Any]) -> Any:
        # A fresh context per evaluation: it snapshots the frame and caches
        # uncorrelated subquery results, which a later evaluation (the next
        # WHILE test, say) must not see.
        ctx = self._context(frame)
        ctx.subquery_executor = lambda select, params: self.server.run_subquery(
            select, params, self.database, self.session
        )
        return self._compile(expression)((), ctx)

    @staticmethod
    def _truthy(value: Any) -> bool:
        if value is None:
            return False
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)):
            return value != 0
        return bool(value)
