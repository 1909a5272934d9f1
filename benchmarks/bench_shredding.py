"""Shredding cost vs document size (Section IX prose: 20–115 s).

The paper reports shred times separately from transformation times
because shredding is a one-time cost.  Expected shape: shred time grows
roughly linearly with the benchmark factor.
"""

import pytest

from repro.storage import Database
from repro.workloads import generate_xmark

from benchmarks.conftest import XMARK_FACTORS, register_table
from benchmarks.reporting import SeriesTable

_times: dict[float, tuple[int, float]] = {}


def _table():
    return register_table(
        "shredding",
        SeriesTable(
            "Shredding cost vs XMark factor (paper 20-115s at factors 0.1-0.5)",
            "factor",
            ["nodes", "shred wall s"],
        ),
    )


@pytest.mark.parametrize("factor", XMARK_FACTORS)
def test_shred_time(benchmark, factor, tmp_path):
    forest = generate_xmark(factor)

    counter = iter(range(100))

    def shred_once():
        db = Database(str(tmp_path / f"s{factor}_{next(counter)}.db"), cache_pages=4096)
        descriptor = db.store_document("xmark", forest)
        db.close()
        return descriptor

    descriptor = benchmark.pedantic(shred_once, rounds=1, iterations=1)
    _times[factor] = (descriptor["nodes"], descriptor["shred_seconds"])
    _table().add_row(factor, descriptor["nodes"], round(descriptor["shred_seconds"], 3))

    if len(_times) == len(XMARK_FACTORS):
        smallest = _times[XMARK_FACTORS[0]]
        largest = _times[XMARK_FACTORS[-1]]
        size_ratio = largest[0] / smallest[0]
        time_ratio = largest[1] / max(smallest[1], 1e-9)
        _table().note(f"size x{size_ratio:.1f} -> time x{time_ratio:.1f} (roughly linear)")
        assert time_ratio > 1.5
