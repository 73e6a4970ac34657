"""The transparency check run after every episode.

The paper's promise is that the cache is invisible: after replication
drains, every cached view holds exactly its backend projection, and a
query returns the same rows whether the cache or the backend answers it
(and, over the network, whichever transport carries it).
"""

from __future__ import annotations

from collections import Counter
from typing import List, Tuple


def _probes(config) -> List[Tuple[str, dict]]:
    """The fixed probe set: book detail, title and author search, and the
    best sellers of every subject."""
    from repro.tpcw.config import SUBJECTS, TITLE_WORDS

    step = max(1, config.num_items // 25)
    probes = [("EXEC getBook @i_id = @i_id", {"i_id": i}) for i in range(1, config.num_items + 1, step)]
    probes += [("EXEC doTitleSearch @title = @title", {"title": f"%{w}%"}) for w in TITLE_WORDS]
    probes += [
        ("EXEC doAuthorSearch @lname = @lname", {"lname": f"Last{k}%"}) for k in range(0, 41, 4)
    ]
    probes += [("EXEC getBestSellers @subject = @subject", {"subject": s}) for s in SUBJECTS]
    return probes


def _rows(connection, sql: str, params: dict) -> list:
    return connection.cursor().execute(sql, params).fetchall()


def check_transparency(stack) -> List[str]:
    """Drain replication, then compare; returns one line per mismatch."""
    from repro.client import connect
    from repro.tpcw.setup import CACHED_VIEW_DDL

    stack.deployment.sync()
    mismatches: List[str] = []
    cache = connect(stack.cache_dsn)
    backend = connect(stack.backend_dsn)
    for ddl in CACHED_VIEW_DDL:
        head, select = ddl.split(" AS ", 1)
        view = head.split()[-1]
        cached = Counter(_rows(cache, f"SELECT * FROM {view}", {}))
        projected = Counter(_rows(backend, select, {}))
        if cached != projected:
            mismatches.append(
                f"view {view}: {sum((cached - projected).values())} rows only in the cache, "
                f"{sum((projected - cached).values())} only on the backend"
            )
    remote = connect(stack.dsn) if stack.dsn != stack.cache_dsn else None
    try:
        for sql, params in _probes(stack.config):
            local_rows = _rows(cache, sql, params)
            if local_rows != _rows(backend, sql, params):
                mismatches.append(f"cache != backend: {sql} {params}")
            if remote is not None and _rows(remote, sql, params) != local_rows:
                mismatches.append(f"tcp != inproc: {sql} {params}")
    finally:
        if remote is not None:
            remote.close()
    return mismatches
