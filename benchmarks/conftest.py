"""Shared fixtures for the benchmark suite (one per paper table/figure).

Databases are session-scoped: each workload is generated and shredded
once, then every benchmark runs cold-cache transformations against it —
the paper's methodology (shredding is reported separately, Section IX).

Every bench registers its paper-style series table here; the tables are
printed and written to ``bench_results/`` at session end, so they
survive ``--benchmark-only`` runs and feed EXPERIMENTS.md.  Alongside
the tables, every measured phase (one span per ``measured_*`` call,
with wall seconds and blocks) is written to ``bench_results/trace.jsonl``
so the perf trajectory is machine-readable.

Each bench asserts its paper shape on deterministic counts (blocks,
nodes, pairs evaluated) or on a wall-clock ratio with a wide margin;
the wall-clock columns of the tables drift from run to run.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest

from repro.obs import write_json_lines
from repro.storage import Database, StoredDocumentIndex
from repro.workloads import generate_dblp, generate_nasa, generate_xmark

from benchmarks.existdb import ExistStore
from benchmarks.harness import session_tracer
from benchmarks.reporting import SeriesTable, write_report

#: Paper factors 0.1–0.5 scaled by 1/50 to keep a pure-Python run short;
#: document size remains linear in the factor, which is what Figure 10
#: plots.
XMARK_FACTORS = [0.002, 0.004, 0.006, 0.008, 0.010, 0.020]

#: Paper slices 134/268/402/518 MB ~ 350k–1.4M records, scaled to
#: record counts a pure-Python run can shred in seconds.
DBLP_SLICES = [800, 1600, 2400, 3200]

_TABLES: dict[str, SeriesTable] = {}
_CHARTS: dict[str, "object"] = {}


def register_table(key: str, table: SeriesTable) -> SeriesTable:
    return _TABLES.setdefault(key, table)


def register_chart(key: str, chart) -> None:
    _CHARTS[key] = chart


@contextmanager
def sampling_loads(db: Database):
    """Sample ``db``'s cumulative block I/O after every type-sequence load.

    Wraps :meth:`StoredDocumentIndex.nodes_of` for the duration of the
    block and yields the list it fills with ``(dotted type, blocks in +
    out)`` pairs, one per sequence loaded from ``db`` — the progress
    points of Figure 11's time series.
    """
    samples: list[tuple[str, int]] = []
    loaded: set[tuple[int, int]] = set()
    real = StoredDocumentIndex.nodes_of

    def sampled(index, data_type):
        sequence = real(index, data_type)
        key = (id(index), data_type.type_id)
        if index.database is db and key not in loaded:
            loaded.add(key)
            samples.append((data_type.dotted, db.stats.cumulative_blocks))
        return sequence

    StoredDocumentIndex.nodes_of = sampled
    try:
        yield samples
    finally:
        StoredDocumentIndex.nodes_of = real


def pytest_sessionfinish(session, exitstatus):
    tracer = session_tracer()
    if tracer.roots:
        os.makedirs("bench_results", exist_ok=True)
        path = write_json_lines(tracer, os.path.join("bench_results", "trace.jsonl"))
        print(f"\nper-phase trace: {path} ({len(tracer.roots)} phases)")
    if not _TABLES and not _CHARTS:
        return
    print("\n")
    for key in sorted(_TABLES):
        table = _TABLES[key]
        table.show()
        content = table.render()
        if key in _CHARTS:
            chart_text = _CHARTS[key].render()
            print(chart_text + "\n")
            content += "\n\n" + chart_text
        write_report(key, content)
    for key in sorted(set(_CHARTS) - set(_TABLES)):
        chart_text = _CHARTS[key].render()
        print(chart_text + "\n")
        write_report(key, chart_text)


@pytest.fixture(scope="session")
def xmark_dbs(tmp_path_factory):
    """factor -> Database with the XMark document stored."""
    base = tmp_path_factory.mktemp("xmark")
    dbs: dict[float, Database] = {}
    for factor in XMARK_FACTORS:
        db = Database(str(base / f"xmark_{factor}.db"), cache_pages=4096)
        db.store_document("xmark", generate_xmark(factor))
        dbs[factor] = db
    yield dbs
    for db in dbs.values():
        db.close()


@pytest.fixture(scope="session")
def xmark_exist(tmp_path_factory):
    """factor -> ExistStore with the same XMark document."""
    base = tmp_path_factory.mktemp("xmark_exist")
    stores: dict[float, ExistStore] = {}
    for factor in XMARK_FACTORS:
        store = ExistStore(str(base / f"xmark_{factor}.db"), cache_pages=4096)
        store.store_document("xmark", generate_xmark(factor))
        stores[factor] = store
    yield stores
    for store in stores.values():
        store.close()


@pytest.fixture(scope="session")
def dblp_dbs(tmp_path_factory):
    base = tmp_path_factory.mktemp("dblp")
    dbs: dict[int, Database] = {}
    for publications in DBLP_SLICES:
        db = Database(str(base / f"dblp_{publications}.db"), cache_pages=4096)
        db.store_document("dblp", generate_dblp(publications))
        dbs[publications] = db
    yield dbs
    for db in dbs.values():
        db.close()


@pytest.fixture(scope="session")
def dblp_exist(tmp_path_factory):
    base = tmp_path_factory.mktemp("dblp_exist")
    stores: dict[int, ExistStore] = {}
    for publications in DBLP_SLICES:
        store = ExistStore(str(base / f"dblp_{publications}.db"), cache_pages=4096)
        store.store_document("dblp", generate_dblp(publications))
        stores[publications] = store
    yield stores
    for store in stores.values():
        store.close()


@pytest.fixture(scope="session")
def fig15_dbs(tmp_path_factory):
    """The three Figure 15 datasets, stored."""
    base = tmp_path_factory.mktemp("fig15")
    specs = {
        "nasa": generate_nasa(120),
        "dblp": generate_dblp(1200),
        "xmark": generate_xmark(0.005),
    }
    dbs: dict[str, Database] = {}
    for name, forest in specs.items():
        db = Database(str(base / f"{name}.db"), cache_pages=4096)
        db.store_document(name, forest)
        dbs[name] = db
    yield dbs
    for db in dbs.values():
        db.close()
