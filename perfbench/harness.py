"""One benchmark episode: set up a deployment, drive it, measure, check.

An episode builds a fresh backend and cache server from a seed, runs a
fixed sequence of TPC-W interactions from closed-loop clients through
``repro.client.connect(dsn)``, and tears everything down. A fixed count
rather than a fixed time keeps the database a run ends on independent of
how fast the run was (the Ordering mix inserts orders as it goes).

The host's CPU speed is measured inside the episode, with a fixed unit of
benchmark-side Python work run while every client is paused between
interactions, so that timings can be scaled to one reference speed.
"""

from __future__ import annotations

import gc
import operator
import random
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from layers import LayerStats, LayerTracer, assert_unwrapped
from transparency import check_transparency
from workloads import CLIENTS, MEASURED_PER_CLIENT, WARMUP_PER_CLIENT, Workload

#: TPC-W 90th-percentile response-time limits per interaction (seconds).
#: A failed interaction is recorded as its limit plus the time it took,
#: so it misses every latency limit and can never shorten the tail.
RESPONSE_LIMIT_S = {
    "home": 3.0,
    "new_products": 5.0,
    "best_sellers": 5.0,
    "product_detail": 3.0,
    "search_request": 3.0,
    "search_results": 10.0,
    "shopping_cart": 3.0,
    "customer_registration": 3.0,
    "buy_request": 3.0,
    "buy_confirm": 5.0,
    "order_inquiry": 3.0,
    "order_display": 3.0,
    "admin_request": 3.0,
    "admin_confirm": 20.0,
}

INPROC_CACHE = "perfbench/cache"
INPROC_BACKEND = "perfbench/backend"
JOIN_TIMEOUT_S = 60.0

#: Timings are reported scaled to a host on which one reference unit
#: (see :func:`reference_unit_s`) takes this long.
REFERENCE_UNIT_S = 0.001
#: Measured interactions per client between two speed samples.
SAMPLE_EVERY = 50
#: Reference units per speed sample (one unit is about 1 ms of work).
SAMPLE_UNITS = 4


#: The reference unit's working set. A few MB, like the program's tables
#: and indexes, so that it meets the host's cache and memory contention as
#: the program does; a 512-entry table tracked the program's speed less
#: closely.
_REFERENCE_TABLE = dict.fromkeys(range(50000), 0)


def reference_unit_s(units: int = SAMPLE_UNITS) -> float:
    """Seconds per unit of a fixed piece of pure-Python work.

    The unit touches no program code, so no program change can speed it
    up; its time follows only the host CPU's speed. On a shared machine
    that speed swings by up to 2x within seconds, and the interpreter's
    work slows with it.
    """
    table = _REFERENCE_TABLE
    started = time.perf_counter()
    for _ in range(units):
        total = 0
        for i in range(3000):
            key = (i * 7919) % 50000
            total += table[key]
            table[key] = total & 1023
    return (time.perf_counter() - started) / units


def _wall_clock():
    """A deployment clock that follows the wall clock.

    Commit and apply timestamps then both read wall time, so replication
    lag includes the time the program spends reading the log,
    distributing and applying, not only the polling intervals.
    """
    from repro.common.clock import SimulatedClock

    class WallClock(SimulatedClock):
        def __init__(self):
            super().__init__(0.0)
            self._origin = time.perf_counter()

        def now(self) -> float:
            return self._now + (time.perf_counter() - self._origin)

        def advance_to(self, timestamp: float) -> float:
            return self.advance(max(0.0, timestamp - self.now()))

    return WallClock()


@dataclass
class Stack:
    """A running deployment: backend, one cache server, maybe a TCP front end."""

    config: object
    backend: object
    deployment: object
    cache: object
    dsn: str
    server: Optional[object] = None
    cache_dsn = f"inproc://{INPROC_CACHE}"
    backend_dsn = f"inproc://{INPROC_BACKEND}"

    def close(self) -> None:
        from repro.net import unregister_inproc

        if self.server is not None:
            self.server.stop()
        unregister_inproc(INPROC_CACHE)
        unregister_inproc(INPROC_BACKEND)


def build_stack(workload: Workload, data_seed: int) -> Stack:
    """Empty process state to ready-to-serve: the timed set-up."""
    from repro.engine import Server
    from repro.net import ReproServer, register_inproc
    from repro.tpcw import TPCWConfig, enable_caching
    from repro.tpcw.datagen import populate
    from repro.tpcw.procedures import install_procedures
    from repro.tpcw.schema import create_schema
    from repro.tpcw.setup import DATABASE_NAME

    config = TPCWConfig(
        num_items=workload.items,
        num_ebs=workload.ebs,
        seed=data_seed,
        bestseller_window=workload.bestseller_window,
    )
    # tpcw.setup.build_backend, on a wall clock.
    backend = Server("backend", clock=_wall_clock())
    backend.create_database(DATABASE_NAME)
    create_schema(backend, DATABASE_NAME)
    populate(backend, DATABASE_NAME, config)
    install_procedures(backend, DATABASE_NAME, config)
    deployment, caches = enable_caching(backend, ["cache0"], config)
    cache = caches[0]
    register_inproc(INPROC_CACHE, cache, "tpcw")
    register_inproc(INPROC_BACKEND, backend, "tpcw")
    stack = Stack(config, backend, deployment, cache, dsn=Stack.cache_dsn)
    if workload.transport == "tcp":
        stack.server = ReproServer.serve(cache)
        stack.dsn = stack.server.dsn
    return stack


@dataclass
class Counters:
    """Program counters read at the edges of the measured window."""

    backend_statements: int
    cache_statements: int
    parses: Dict[str, int]
    parse_hits: Dict[str, int]
    plan_hits: int
    plan_misses: int
    rows_processed: int
    link_prepares: int
    txns_applied: int
    round_trips: int
    wal_lsn: int
    net_roundtrips: int
    net_bytes: int

    @classmethod
    def read(cls, stack: Stack) -> "Counters":
        from repro.obs.metrics import global_registry

        servers = {"cache": stack.cache.server, "backend": stack.backend}
        stats = {role: server.statement_cache_stats() for role, server in servers.items()}
        net = global_registry()
        agents = stack.deployment.distributor.agents
        return cls(
            backend_statements=stack.backend.statements_executed,
            cache_statements=stack.cache.server.statements_executed,
            parses={role: s["parses"] for role, s in stats.items()},
            parse_hits={role: s["parse_cache_hits"] for role, s in stats.items()},
            plan_hits=sum(s["plan_cache"]["hits"] for s in stats.values()),
            plan_misses=sum(s["plan_cache"]["misses"] for s in stats.values()),
            rows_processed=sum(
                server.total_work.rows_processed for server in servers.values()
            ),
            link_prepares=sum(
                server.linked_servers.get(name).prepares
                for server in servers.values()
                for name in server.linked_servers.names()
            ),
            txns_applied=sum(agent.transactions_applied for agent in agents),
            round_trips=sum(agent.round_trips for agent in agents),
            wal_lsn=stack.deployment.backend_database.wal.last_lsn,
            net_roundtrips=net.counter("net.client.roundtrips").value,
            net_bytes=net.counter("net.client.bytes_in").value
            + net.counter("net.client.bytes_out").value,
        )

    def _combine(self, other: "Counters", op) -> "Counters":
        def apply(a, b):
            if isinstance(a, dict):
                return {key: op(a[key], b[key]) for key in a}
            return op(a, b)

        return Counters(**{
            name: apply(getattr(self, name), getattr(other, name))
            for name in self.__dataclass_fields__
        })

    def minus(self, earlier: "Counters") -> "Counters":
        return self._combine(earlier, operator.sub)

    def plus(self, other: "Counters") -> "Counters":
        return self._combine(other, operator.add)


@dataclass
class EpisodeResult:
    setup_s: float
    setup_unit_s: float  # reference unit time around set-up
    window_s: float  # measured window, speed samples excluded
    unit_s: float  # reference unit time over the speed samples in the window
    records: List[Tuple[str, float, bool]]  # (interaction, latency s, ok)
    counters: Counters
    repl_lags_s: List[float]
    layers: Optional[Dict[str, LayerStats]]
    mismatches: List[str]
    error_samples: List[str]

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for _, _, ok in self.records if not ok)

    @property
    def wips(self) -> float:
        """Completed interactions per second, at the reference speed."""
        return (self.attempted - self.failed) / (self.window_s * self.scale)

    @property
    def scale(self) -> float:
        """Factor from this episode's wall seconds to reference seconds."""
        return REFERENCE_UNIT_S / self.unit_s


def _deck(weights: Dict[str, float], count: int) -> List[str]:
    """``count`` interaction names in exactly the mix's proportions.

    Largest-remainder rounding. Drawing the measured interactions one by
    one would let each class's share wander from episode to episode, and a
    percentile that falls on the edge of a rare slow class (Shopping's
    ``buy_confirm`` is 1.2% of interactions, right at p99) would jump with
    it.
    """
    quotas = {name: weight * count for name, weight in weights.items()}
    counts = {name: int(quota) for name, quota in quotas.items()}
    by_remainder = sorted(quotas, key=lambda name: counts[name] - quotas[name])
    for name in by_remainder[: count - sum(counts.values())]:
        counts[name] += 1
    return [name for name, n in counts.items() for _ in range(n)]


def _client_plan(workload: Workload, key: str, client: int) -> Tuple[List[str], random.Random]:
    """The interaction sequence and application RNG of one client: warm-up
    drawn from the mix, then the measured interactions as a shuffled deck."""
    from repro.tpcw.workload import MIXES

    mix = MIXES[workload.mix]
    draw = random.Random(f"{key}:mix:{client}")
    measured = _deck(mix.weights, MEASURED_PER_CLIENT)
    draw.shuffle(measured)
    names = [mix.sample(draw) for _ in range(WARMUP_PER_CLIENT)] + measured
    return names, random.Random(f"{key}:app:{client}")


def run_episode(workload: Workload, key: str, traced: bool) -> EpisodeResult:
    """Set up, warm up, run the measured window, check transparency, tear down."""
    from repro.client import connect
    from repro.tpcw import TPCWApplication

    assert_unwrapped()
    gc.collect()
    before_setup = reference_unit_s()
    started = time.perf_counter()
    stack = build_stack(workload, data_seed=random.Random(f"{key}:data").randrange(2**31))
    setup_s = time.perf_counter() - started
    setup_unit_s = (before_setup + reference_unit_s()) / 2
    apps = []
    try:
        deployment = stack.deployment
        tick_lock = threading.Lock()
        tracer = LayerTracer() if traced else None
        window: Dict[str, object] = {}
        speed = {"paused_s": 0.0, "unit_s": 0.0, "units": 0}

        def sample_speed() -> None:
            begun = time.perf_counter()
            speed["unit_s"] += reference_unit_s() * SAMPLE_UNITS
            speed["units"] += SAMPLE_UNITS
            speed["paused_s"] += time.perf_counter() - begun

        def pause() -> None:
            # Runs in one client while every client waits at the barrier,
            # so nothing but the speed sample runs. The first pause, at the
            # end of warm-up, also opens the measured window.
            sample_speed()
            if "start" in window:
                return
            speed["paused_s"] = 0.0
            window["before"] = Counters.read(stack)
            window["lag_marks"] = [
                len(sub.latency_samples) for sub in deployment.distributor.subscriptions
            ]
            if tracer is not None:
                tracer.install_all()
            window["start"] = time.perf_counter()

        barrier = threading.Barrier(CLIENTS, action=pause)
        records: List[List[Tuple[str, float, bool]]] = [[] for _ in range(CLIENTS)]
        errors: List[List[str]] = [[] for _ in range(CLIENTS)]
        crashes: List[BaseException] = []
        plans = [_client_plan(workload, key, client) for client in range(CLIENTS)]
        apps = [
            TPCWApplication(connect(stack.dsn), stack.config, rng)
            for _, rng in plans
        ]

        def client_loop(client: int) -> None:
            names, _ = plans[client]
            app = apps[client]
            session = app.new_session()
            out = records[client]
            for position, name in enumerate(names):
                measured = position - WARMUP_PER_CLIENT
                if measured >= 0 and measured % SAMPLE_EVERY == 0:
                    barrier.wait(timeout=JOIN_TIMEOUT_S)
                    if measured == 0:
                        out.clear()
                begun = time.perf_counter()
                ok = True
                try:
                    app.run(name, session)
                except Exception:  # a failed or shed interaction is counted, not fatal
                    ok = False
                    if len(errors[client]) < 3:
                        errors[client].append(traceback.format_exc())
                latency = time.perf_counter() - begun
                if not ok:
                    latency += RESPONSE_LIMIT_S[name]
                out.append((name, latency, ok))
                with tick_lock:
                    deployment.tick()

        def guarded(client: int) -> None:
            try:
                client_loop(client)
            except BaseException as exc:  # re-raised by the episode below
                crashes.append(exc)
                barrier.abort()

        threads = [
            threading.Thread(target=guarded, args=(client,), name=f"perfbench-eb{client}",
                             daemon=True)
            for client in range(CLIENTS)
        ]
        try:
            for thread in threads:
                thread.start()
            limit = time.perf_counter() + JOIN_TIMEOUT_S
            for thread in threads:
                thread.join(timeout=max(0.0, limit - time.perf_counter()))
                if thread.is_alive():
                    raise RuntimeError(f"{thread.name} did not finish within {JOIN_TIMEOUT_S} s")
            if crashes:
                raise crashes[0]
            window_s = time.perf_counter() - window["start"] - speed["paused_s"]
        finally:
            if tracer is not None:
                tracer.restore()
        assert_unwrapped()
        for client, done in enumerate(records):
            if len(done) != MEASURED_PER_CLIENT:
                raise RuntimeError(
                    f"client {client} ran {len(done)} of {MEASURED_PER_CLIENT} interactions"
                )
        layers = tracer.collect() if tracer is not None else None
        counters = Counters.read(stack).minus(window["before"])
        lags = [
            applied - committed
            for sub, mark in zip(deployment.distributor.subscriptions, window["lag_marks"])
            for committed, applied in sub.latency_samples[mark:]
        ]
        mismatches = check_transparency(stack)
        return EpisodeResult(
            setup_s=setup_s,
            setup_unit_s=setup_unit_s,
            window_s=window_s,
            unit_s=speed["unit_s"] / speed["units"],
            records=[record for per_client in records for record in per_client],
            counters=counters,
            repl_lags_s=lags,
            layers=layers,
            mismatches=mismatches,
            error_samples=[sample for per_client in errors for sample in per_client],
        )
    finally:
        for app in apps:
            app.connection.close()
        stack.close()
