"""Ablation: buffer pool capacity vs transformation I/O.

The render path scans type sequences stored contiguously in the B+tree,
so it should degrade gracefully as the buffer pool shrinks (sequential
scans don't thrash an LRU pool); a tiny pool mainly hurts the shredder
and repeated metadata access.
"""

import pytest

from repro.storage import Database
from repro.workloads import generate_xmark

from benchmarks.conftest import register_table
from benchmarks.harness import measured_transform
from benchmarks.reporting import SeriesTable

POOL_SIZES = [16, 64, 256, 2048]

_rows: dict[int, int] = {}


def _table():
    return register_table(
        "ablation_buffer",
        SeriesTable(
            "Ablation: buffer pool size (XMark factor 0.004, MUTATE site)",
            "pool pages",
            ["blocks"],
        ),
    )


@pytest.fixture(scope="module")
def forest():
    return generate_xmark(0.004)


@pytest.mark.parametrize("pool_pages", POOL_SIZES)
def test_pool_size(benchmark, pool_pages, forest, tmp_path):
    db = Database(str(tmp_path / f"pool{pool_pages}.db"), cache_pages=pool_pages)
    db.store_document("xmark", forest)
    try:
        measurement = benchmark.pedantic(
            lambda: measured_transform(db, "xmark", "MUTATE site"),
            rounds=1,
            iterations=1,
        )
    finally:
        db.close()
    _rows[pool_pages] = measurement.blocks

    if len(_rows) == len(POOL_SIZES):
        for pages in sorted(_rows):
            _table().add_row(pages, _rows[pages])
        # Shrinking the pool must not blow I/O up disproportionately:
        # sequential scans stay sequential.
        small = _rows[POOL_SIZES[0]]
        large = _rows[POOL_SIZES[-1]]
        _table().note(f"I/O ratio tiny-pool/big-pool = {small / max(large, 1):.2f}")
        assert small <= 5 * max(large, 1)
