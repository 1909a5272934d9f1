"""Ablation: the architectures of Section VIII, plus streaming.

1. **Physical transformation** (the implemented architecture): shred →
   compile → render (the compiled emitter's tree sink).
2. **XQuery view**: render the guard as a nested-FLWOR view and
   evaluate it on the source — "while there will be some speed-up over
   the previous approach for some queries, the worst-case cost is the
   same" (and the program is long: one `for` per type).
3. **Streaming**: same joins, the compiled emitter's text sink writes
   the output directly, no output tree (the paper's mitigation for
   architecture 1).

The paper's third option, logically transforming the data in situ, is
its future work and is not implemented: a guarded query always runs
over the rendered forest (EXPERIMENTS.md records why).
"""

import io

import pytest

import repro
from repro.workloads import generate_dblp
from repro.xquery import QueryContext, evaluate

from benchmarks.conftest import register_table
from benchmarks.reporting import SeriesTable
from benchmarks.xquery_view import shape_to_xquery

GUARD = "CAST (MORPH author [ title [ year ] ])"

_results: dict[str, float] = {}


def _table():
    return register_table(
        "architectures",
        SeriesTable(
            "Ablation: Section VIII architectures (DBLP 1200 records, wall s)",
            "architecture",
            ["wall s"],
        ),
    )


@pytest.fixture(scope="module")
def setup():
    forest = generate_dblp(1200)
    interpreter = repro.Interpreter(forest)
    compiled = interpreter.compile(GUARD)
    view = shape_to_xquery(compiled.target_shape, interpreter.index.is_attribute.get)
    return forest, interpreter, compiled, view


@pytest.mark.parametrize("architecture", ["physical", "xquery-view", "streaming"])
def test_architecture(benchmark, architecture, setup):
    forest, interpreter, compiled, view = setup

    if architecture == "physical":
        run = lambda: interpreter.transform(GUARD).forest  # noqa: E731
    elif architecture == "xquery-view":
        context = QueryContext.for_forest(forest)
        run = lambda: evaluate(view, context)  # noqa: E731
    else:
        emitter = compiled.compiled_render
        run = lambda: emitter.write(interpreter.index, io.StringIO())  # noqa: E731

    benchmark.pedantic(run, rounds=2, iterations=1)
    _results[architecture] = benchmark.stats.stats.mean

    if len(_results) == 3:
        for name in ("physical", "xquery-view", "streaming"):
            _table().add_row(name, _results[name])
        _table().note(
            "view has no materialization win (paper: worst-case cost the same); "
            "streaming avoids the output tree"
        )
