"""Measured operations: run a system step and capture wall time + blocks.

Every measurement is also recorded as a span on a benchmark-session
tracer (label, wall seconds, blocks), so the per-phase
numbers behind ``bench_results/*.txt`` are available machine-readably;
``benchmarks/conftest.py`` writes them to ``bench_results/trace.jsonl``
at session end.  The session tracer is *not* installed as the current
tracer — the code under measurement runs with tracing disabled, exactly
as in production, so recording costs one span per measured phase.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.obs import Tracer
from repro.storage.database import Database

from benchmarks.existdb import ExistStore

#: Collects one span per measured phase across the whole bench session.
_SESSION_TRACER = Tracer()


def session_tracer() -> Tracer:
    """The tracer holding every phase measured so far this session."""
    return _SESSION_TRACER


@dataclass(frozen=True, slots=True)
class Measurement:
    """Measured wall time and counted block I/O of one operation."""

    wall_seconds: float
    blocks: int
    result: object = None

    def throughput(self, units: int) -> float:
        """Units per wall second (Figure 15's y-axis)."""
        if self.wall_seconds == 0:
            return float("inf")
        return units / self.wall_seconds


def _measure(stats, operation, label: str = "operation", **attrs) -> Measurement:
    wall_start = time.perf_counter()
    blocks_start = stats.cumulative_blocks
    with _SESSION_TRACER.span(label, **attrs) as phase:
        result = operation()
    measurement = Measurement(
        wall_seconds=time.perf_counter() - wall_start,
        blocks=stats.cumulative_blocks - blocks_start,
        result=result,
    )
    phase.annotate(blocks=measurement.blocks)
    return measurement


def measured_transform(db: Database, name: str, guard: str, cold: bool = True) -> Measurement:
    """An XMorph transformation over the store (cold cache by default,
    matching the paper's methodology)."""
    if cold:
        db.drop_cache()

    def transform():
        result = db.transform(name, guard)
        result.rendered  # noqa: B018 - the measured transformation builds its output
        return result

    return _measure(
        db.stats,
        transform,
        label=f"transform:{name}",
        guard=guard,
        cold=cold,
    )


def measured_compile(db: Database, name: str, guard: str, cold: bool = True) -> Measurement:
    if cold:
        db.drop_cache()
        db.index(name)  # shape load is part of a cold compile
    return _measure(
        db.stats,
        lambda: db.transform(name, guard),  # left unread: plans, renders nothing
        label=f"compile:{name}",
        guard=guard,
        cold=cold,
    )


def measured_dump(store: ExistStore, name: str, cold: bool = True) -> Measurement:
    if cold:
        store.drop_cache()
    return _measure(store.stats, lambda: store.dump(name), label=f"dump:{name}", cold=cold)


def measured_query(store: ExistStore, name: str, query: str, cold: bool = True) -> Measurement:
    if cold:
        store.drop_cache()
    return _measure(
        store.stats,
        lambda: store.query(name, query),
        label=f"query:{name}",
        query=query,
        cold=cold,
    )
