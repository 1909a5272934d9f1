"""Figure 16: cost of each kind of XMorph operation.

Paper setup: different operations COMPOSE'd with a single fixed MORPH
on the XMark dataset (same MORPH everywhere, so output sizes match).
Operations compile into the target shape before any data is touched, so
"the cost of each operation is effectively the same, and operations
like translating a label or adding a new label add little to the
run-time cost".  Costs are measured wall seconds of cold runs; the
clustering test compares best-of-3 times against the bare MORPH.
"""

import pytest

from benchmarks.conftest import register_table
from benchmarks.harness import measured_transform
from benchmarks.reporting import SeriesTable

BASE = "MORPH person [ name emailaddress phone ]"

VARIANTS = {
    "morph only": f"CAST {BASE}",
    "+ mutate": f"CAST ({BASE} | MUTATE emailaddress [ phone ])",
    "+ translate": f"CAST ({BASE} | TRANSLATE name -> label)",
    "+ new": f"CAST ({BASE} | MUTATE (NEW contact) [ emailaddress ])",
    "+ drop": f"CAST ({BASE} | MUTATE (DROP phone))",
    "+ clone": f"CAST ({BASE} | MUTATE person [ CLONE name ])",
    "+ restrict": f"CAST MORPH (RESTRICT person [ name ]) [ name emailaddress phone ]",
}

_costs: dict[str, float] = {}


def _table():
    return register_table(
        "fig16_ops",
        SeriesTable(
            "Figure 16: cost of XMorph operations composed with one MORPH (XMark)",
            "operation",
            ["wall ms", "output nodes"],
        ),
    )


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_fig16_point(benchmark, variant, fig15_dbs):
    db = fig15_dbs["xmark"]
    measurement = benchmark.pedantic(
        lambda: measured_transform(db, "xmark", VARIANTS[variant]),
        rounds=1,
        iterations=1,
    )
    _costs[variant] = measurement.wall_seconds
    _table().add_row(
        variant,
        round(1e3 * measurement.wall_seconds, 2),
        measurement.result.rendered.nodes_written,
    )
    if len(_costs) == len(VARIANTS):
        _table().note("operations compile into the shape; costs cluster together")


def test_fig16_costs_cluster(fig15_dbs, benchmark):
    """Every operation costs about the same as the bare MORPH."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    db = fig15_dbs["xmark"]
    costs = {
        variant: min(measured_transform(db, "xmark", guard).wall_seconds for _ in range(3))
        for variant, guard in VARIANTS.items()
    }
    base = costs["morph only"]
    for variant, cost in costs.items():
        assert cost < 3 * base + 0.01, (variant, cost, base)
