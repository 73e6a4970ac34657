"""Benchmark-side layer tracing: spans around each layer's entry points.

The wrappers live here, in the benchmark, not in ``src/``: ``install``
swaps each entry point for a timing wrapper, ``restore`` puts the exact
original objects back and asserts it did. Spans nest per thread; a
span's self time is its duration minus the time its child spans cover.
Spans are folded into per-thread aggregates as they close, so a traced
run keeps a few numbers per layer in memory instead of every span.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Union

_perf = time.perf_counter

#: Layer whose spans mark the enclosing cache statement as non-local.
LINK_LAYER = "distributed.link"
CACHE_LAYER = "mtcache.execute"


class LayerStats:
    """What the spans of one layer added up to."""

    __slots__ = ("calls", "total_s", "self_s", "outer_s", "root_s", "local", "items", "samples")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0  # summed durations, nested spans of the layer included
        self.self_s = 0.0  # minus the time child spans cover
        self.outer_s = 0.0  # only spans with no span of the same layer above them
        self.root_s = 0.0  # only spans that opened with an empty stack on their thread
        self.local = 0  # cache statements that made no link call
        self.items = 0  # rows returned (plan drain)
        self.samples: Optional[List[float]] = None  # per-span durations, when kept

    def merge(self, other: "LayerStats", scale: float = 1.0) -> None:
        """Add ``other`` in, its times multiplied by ``scale``."""
        self.calls += other.calls
        self.total_s += other.total_s * scale
        self.self_s += other.self_s * scale
        self.outer_s += other.outer_s * scale
        self.root_s += other.root_s * scale
        self.local += other.local
        self.items += other.items
        if other.samples is not None:
            self.samples = (self.samples or []) + [s * scale for s in other.samples]


Layer = Union[str, Callable[[tuple], str]]


class LayerTracer:
    """Installs, aggregates and removes the benchmark's layer spans."""

    def __init__(self):
        self._local = threading.local()
        self._tables: List[Dict[str, LayerStats]] = []
        self._tables_lock = threading.Lock()
        self._installed: List[tuple] = []

    # -- per-thread state --------------------------------------------------

    def _state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []
            state.depth = {}
            state.table = {}
            with self._tables_lock:
                self._tables.append(state.table)
        return state

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, layer: Layer, keep_samples: bool = False,
             count_rows: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args)
            state = tracer._state()
            stack = state.stack
            depth = state.depth
            outermost = not depth.get(name)
            root = not stack
            if name == LINK_LAYER:
                for frame in reversed(stack):
                    if frame[0] == CACHE_LAYER:
                        frame[2] = True
                        break
            frame = [name, 0.0, False]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            started = _perf()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                elapsed = _perf() - started
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][1] += elapsed
                stats = state.table.get(name)
                if stats is None:
                    stats = state.table[name] = LayerStats()
                    if keep_samples:
                        stats.samples = []
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
                if outermost:
                    stats.outer_s += elapsed
                if root:
                    stats.root_s += elapsed
                if name == CACHE_LAYER and not frame[2]:
                    stats.local += 1
                if count_rows and result is not None:
                    stats.items += len(result)
                if keep_samples:
                    stats.samples.append(elapsed)

        wrapper.layer_span = True
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def install_all(self) -> None:
        """Wrap the public entry point of every layer the benchmark reports."""
        for owner, attr, layer, options in _entry_points():
            self.wrap(owner, attr, layer, **options)

    def restore(self) -> None:
        """Put every original back, newest first, and check that it took."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"layer wrapper on {owner!r}.{attr} was not removed")

    # -- results -----------------------------------------------------------

    def collect(self) -> Dict[str, LayerStats]:
        """Merge every thread's aggregates (call after the spans closed)."""
        merged: Dict[str, LayerStats] = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for name, stats in table.items():
                merged.setdefault(name, LayerStats()).merge(stats)
        return merged


def _entry_points():
    """(owner, attribute, layer name or namer, wrap options) per layer."""
    from repro.client.connection import Cursor
    from repro.distributed.linked_server import RemoteStatementHandle, ServerLink
    from repro.engine import server as engine_server
    from repro.engine.procedures import ProcedureInterpreter
    from repro.exec.operators import BatchCursor
    from repro.mtcache.cache_server import CacheServer
    from repro.mtcache.deployment import MTCacheDeployment
    from repro.net.wire import WireConnection
    from repro.optimizer.planner import Optimizer
    from repro.replication.logreader import LogReader
    from repro.replication.subscription import Subscription
    from repro.tpcw.application import TPCWApplication

    def engine_role(args) -> str:
        return "engine.backend" if args[0].name == "backend" else "engine.cache"

    Server = engine_server.Server
    return [
        (TPCWApplication, "run", lambda args: "tpcw." + args[1], {"keep_samples": True}),
        (Cursor, "execute", "client.cursor", {}),
        (WireConnection, "execute", "net.wire", {}),
        (WireConnection, "prepare_sql", "net.wire", {}),
        (WireConnection, "execute_prepared", "net.wire", {}),
        (CacheServer, "execute", CACHE_LAYER, {}),
        (Server, "execute", engine_role, {}),
        (Server, "execute_statement", engine_role, {}),
        (Server, "execute_prepared", engine_role, {}),
        (engine_server, "statement_lock_plan", "engine.lock_plan", {}),
        (engine_server, "parse_statements", "sql.parse", {}),
        (ProcedureInterpreter, "call", "engine.procedure", {}),
        (Optimizer, "plan_select", "optimizer.plan", {}),
        (BatchCursor, "next_batch", "exec", {"count_rows": True}),
        (ServerLink, "execute_remote_sql", LINK_LAYER, {}),
        (ServerLink, "execute_statement_text", LINK_LAYER, {}),
        (RemoteStatementHandle, "execute", LINK_LAYER, {}),
        (LogReader, "poll", "replication.logreader", {}),
        (Subscription, "apply_batch", "replication.apply", {}),
        (MTCacheDeployment, "tick", "replication.tick", {}),
    ]


def assert_unwrapped() -> None:
    """Fail loudly if any layer entry point still carries a span wrapper."""
    for owner, attr, _, _ in _entry_points():
        if getattr(owner.__dict__[attr], "layer_span", False):
            raise RuntimeError(f"{owner!r}.{attr} is still wrapped by a layer span")
