"""Figure 10: cost of transformation vs data size (XMark, MUTATE site).

Paper setup: XMark factors 0.1–0.5, the full-shape transformation
``MUTATE site``, against eXist dumping the entire document with
``for $b in doc(...)/site return <data>{$b}</data>``.

Expected shape (paper): XMorph render grows linearly with document
size; XMorph compile is flat and a vanishing fraction of the total;
the eXist dump is the baseline's best case and stays below the full
471-type mutation.

Asserted on counts: the render reads and writes every node once (so its
work is linear in the document), the compile compares no pair of types
(``typing.loss.pairs`` is 0: ``MUTATE site`` moves no type, so no path
cardinality can change, however many types the shape has), and the
dump reads fewer blocks than the transformation.  Wall times are
reported beside them, with the compile share of the transformation
(EXPERIMENTS.md discusses it); at the largest factor the compile is
asserted to take less wall time than the render.
"""

from dataclasses import dataclass

import pytest

from repro import obs

from benchmarks.conftest import XMARK_FACTORS, register_chart, register_table
from benchmarks.harness import measured_compile, measured_dump, measured_transform
from benchmarks.plots import AsciiChart
from benchmarks.reporting import SeriesTable

GUARD = "MUTATE site"


@dataclass(frozen=True)
class _Point:
    nodes: int
    types: int
    pairs: int
    written: int
    read: int
    transform_blocks: int
    dump_blocks: int
    compile_wall: float
    render_wall: float
    transform_wall: float
    dump_wall: float


_points: dict[float, _Point] = {}


def _point(factor, xmark_dbs, xmark_exist, benchmark=None) -> _Point:
    """Measure one factor once: a traced compile for its pair count, then
    an untraced cold transformation and a cold eXist dump."""
    if factor in _points:
        return _points[factor]
    db = xmark_dbs[factor]
    with obs.tracing() as tracer:
        measured_compile(db, "xmark", GUARD)
    run = lambda: measured_transform(db, "xmark", GUARD)  # noqa: E731
    if benchmark is not None:
        transform_m = benchmark.pedantic(run, rounds=1, iterations=1)
    else:
        transform_m = run()
    dump_m = measured_dump(xmark_exist[factor], "xmark")
    written, read, _joins = transform_m.result.render_counts
    point = _points[factor] = _Point(
        nodes=db.describe("xmark")["nodes"],
        types=len(db.index("xmark").type_table),
        pairs=tracer.metrics.counter("typing.loss.pairs"),
        written=written,
        read=read,
        transform_blocks=transform_m.blocks,
        dump_blocks=dump_m.blocks,
        compile_wall=transform_m.result.compile_seconds,
        render_wall=transform_m.result.render_seconds,
        transform_wall=transform_m.wall_seconds,
        dump_wall=dump_m.wall_seconds,
    )
    return point


_table = lambda: register_table(  # noqa: E731
    "fig10_datasize",
    SeriesTable(
        "Figure 10: transformation cost vs data size (XMark, MUTATE site)",
        "factor",
        [
            "nodes",
            "types",
            "compile pairs",
            "render nodes w/r",
            "transform blocks",
            "dump blocks",
            "compile wall",
            "render wall",
            "dump wall",
            "compile %",
        ],
    ),
)


@pytest.mark.parametrize("factor", XMARK_FACTORS)
def test_fig10_point(benchmark, factor, xmark_dbs, xmark_exist):
    point = _point(factor, xmark_dbs, xmark_exist, benchmark)
    _table().add_row(
        factor,
        point.nodes,
        point.types,
        point.pairs,
        f"{point.written}/{point.read}",
        point.transform_blocks,
        point.dump_blocks,
        point.compile_wall,
        point.render_wall,
        point.dump_wall,
        f"{100 * point.compile_wall / point.transform_wall:.1f}%",
    )

    # The full mutation reads and writes every node exactly once ...
    assert point.written == point.read == point.nodes
    # ... its compile compares no pair of types, since it moves none ...
    assert point.pairs == 0
    # ... and the eXist dump (a sequential read of the stored text)
    # reads fewer blocks than the transformation.
    assert point.dump_blocks < point.transform_blocks

    table = _table()
    if len(table.rows) == len(XMARK_FACTORS):
        chart = AsciiChart(
            "Figure 10 (ASCII): wall seconds vs XMark factor", height=10, width=56
        )
        chart.add_series("render", [(row[0], row[8]) for row in table.rows])
        chart.add_series("compile", [(row[0], row[7]) for row in table.rows])
        chart.add_series("exist dump", [(row[0], row[9]) for row in table.rows])
        register_chart("fig10_datasize", chart)


def test_fig10_shape(xmark_dbs, xmark_exist, benchmark):
    """Render work linear in the data, compile work flat and a minority."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    small, large = (
        _point(factor, xmark_dbs, xmark_exist)
        for factor in (XMARK_FACTORS[0], XMARK_FACTORS[-1])
    )
    size_ratio = large.nodes / small.nodes
    # Render work tracks the document size exactly.
    assert (large.written + large.read) / (small.written + small.read) == pytest.approx(
        size_ratio
    )
    # Compile work compares no type pair at either end, although the
    # shape grows (283 -> 355 types for 3,124 -> 15,202 nodes) ...
    assert small.types < large.types and small.pairs == large.pairs == 0
    # ... and, measured, is the smaller part of the largest transformation.
    assert large.compile_wall < large.render_wall
    assert large.dump_blocks < large.transform_blocks
