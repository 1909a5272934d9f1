"""Figure 15: effect of the target shape on throughput.

Paper setup: three datasets (NASA astronomy, DBLP, XMark), target
shapes ranging from a deep (skinny) tree to a bushy tree, small (4–6
labels) and large (10–12 labels).  Because output sizes differ, the
y-axis is *throughput* (elements processed per second).

Expected shape: throughput is steady across target shapes for a given
dataset; differences *between* datasets track element text size (NASA's
long abstracts process fewer elements per second).  Throughput here is
output elements per measured wall second of a cold transformation (the
steadiness check takes each point's best of 3 runs); the steadiness is
asserted, the between-dataset ordering is only reported
(EXPERIMENTS.md: it is not reproduced on wall time).
"""

import pytest

from benchmarks.conftest import register_table
from benchmarks.harness import measured_transform
from benchmarks.reporting import SeriesTable

#: dataset -> shape kind -> guard.  Deep = one chain; bushy = flat fan.
GUARDS = {
    "nasa": {
        "deep-small": "CAST MORPH dataset [ title [ keyword [ para ] ] ]",
        "bushy-small": "CAST MORPH dataset [ title keyword para ]",
        "deep-large": (
            "CAST MORPH dataset [ title [ keyword [ para [ details "
            "[ lastName [ publisher [ city [ year [ units [ definition ] ] ] ] ] ] ] ] ] ]"
        ),
        "bushy-large": (
            "CAST MORPH dataset [ title keyword para details lastName "
            "publisher city year units definition ]"
        ),
    },
    "dblp": {
        "deep-small": "CAST MORPH author [ title [ year [ pages ] ] ]",
        "bushy-small": "CAST MORPH author [ title year pages ]",
        "deep-large": (
            "CAST MORPH dblp [ author [ title [ year [ pages [ url "
            "[ ee [ journal [ volume [ booktitle ] ] ] ] ] ] ] ] ]"
        ),
        "bushy-large": (
            "CAST MORPH dblp [ author title year pages url ee journal "
            "volume booktitle school ]"
        ),
    },
    "xmark": {
        "deep-small": "CAST MORPH person [ name [ emailaddress [ phone ] ] ]",
        "bushy-small": "CAST MORPH person [ name emailaddress phone ]",
        "deep-large": (
            "CAST MORPH person [ name [ emailaddress [ phone [ street "
            "[ city [ country [ zipcode [ education [ gender [ age ] ] ] ] ] ] ] ] ] ]"
        ),
        "bushy-large": (
            "CAST MORPH person [ name emailaddress phone street city "
            "country zipcode education gender age ]"
        ),
    },
}

_throughputs: dict[str, dict[str, float]] = {name: {} for name in GUARDS}


def _table():
    return register_table(
        "fig15_shape",
        SeriesTable(
            "Figure 15: throughput by target shape (elements/wall second)",
            "dataset",
            ["deep-small", "bushy-small", "deep-large", "bushy-large"],
        ),
    )


@pytest.mark.parametrize("dataset", list(GUARDS))
@pytest.mark.parametrize("shape_kind", ["deep-small", "bushy-small", "deep-large", "bushy-large"])
def test_fig15_point(benchmark, dataset, shape_kind, fig15_dbs):
    db = fig15_dbs[dataset]
    measurement = benchmark.pedantic(
        lambda: measured_transform(db, dataset, GUARDS[dataset][shape_kind]),
        rounds=1,
        iterations=1,
    )
    produced = measurement.result.rendered.nodes_written
    assert produced > 0, "every Figure 15 guard must produce output"
    _throughputs[dataset][shape_kind] = measurement.throughput(produced)

    row = _throughputs[dataset]
    if len(row) == 4:
        _table().add_row(
            dataset,
            round(row["deep-small"]),
            round(row["bushy-small"]),
            round(row["deep-large"]),
            round(row["bushy-large"]),
        )


def test_fig15_steady_across_shapes(fig15_dbs, benchmark):
    """Throughput varies far less across shapes than across datasets."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    values: dict[str, list[float]] = {}
    for dataset, guards in GUARDS.items():
        db = fig15_dbs[dataset]
        for guard in guards.values():
            # Best of 3 cold runs, as Figures 14 and 16 compare: one run
            # slowed by the machine must not read as a shape effect.
            measurement = min(
                (measured_transform(db, dataset, guard) for _ in range(3)),
                key=lambda run: run.wall_seconds,
            )
            produced = measurement.result.rendered.nodes_written
            values.setdefault(dataset, []).append(measurement.throughput(produced))
    # Within a dataset the spread stays within an order of magnitude.
    for dataset, series in values.items():
        assert max(series) / min(series) < 10, dataset
    _table().note(
        "within-dataset spread (max/min): "
        + ", ".join(f"{d} {max(s) / min(s):.1f}" for d, s in values.items())
    )
