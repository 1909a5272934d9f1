"""Ablation: sort-merge closest join vs a naive nested-loop join.

DESIGN.md calls out the Dewey-prefix sort-merge join (Section VII) as
the reason the render's read side is linear.  This bench removes it:
the nested-loop variant tests the join predicate
``distance(n, u) = typeDistance`` on every pair, which is what a direct
implementation of Definition 2 would do.
"""

import pytest

from repro.bench.reporting import SeriesTable
from repro.closeness import DocumentIndex
from repro.closeness.index import closest_join
from repro.workloads import generate_dblp
from repro.xmltree.dewey import prefixes

from benchmarks.conftest import register_table


def nested_loop_join(parents, children, lca_level):
    """The O(n·m) baseline: test every pair of labels against the predicate."""
    width = lca_level + 1
    child_heads = prefixes(children, width)
    pairs = []
    for position, head in enumerate(prefixes(parents, width)):
        if head is None:
            continue
        for partner, child_head in enumerate(child_heads):
            if child_head == head and children[partner] != parents[position]:
                pairs.append((position, partner))
    return pairs


def _setup(publications):
    index = DocumentIndex(generate_dblp(publications))
    author = next(t for t in index.types() if t.dotted == "dblp.article.author")
    title = next(t for t in index.types() if t.dotted == "dblp.article.title")
    level = index.closest_lca_level(author, title)
    return index.nodes_of(author).labels, index.nodes_of(title).labels, level


_costs: dict[str, dict[int, float]] = {"sort-merge": {}, "nested-loop": {}}


def _table():
    return register_table(
        "ablation_joins",
        SeriesTable(
            "Ablation: closest join strategy (author x title, DBLP)",
            "records",
            ["sort-merge s", "nested-loop s"],
        ),
    )


@pytest.mark.parametrize("publications", [400, 800, 1600])
@pytest.mark.parametrize("strategy", ["sort-merge", "nested-loop"])
def test_join_strategy(benchmark, publications, strategy):
    parents, children, level = _setup(publications)

    if strategy == "sort-merge":
        run = lambda: list(closest_join(parents, children, level))  # noqa: E731
    else:
        run = lambda: nested_loop_join(parents, children, level)  # noqa: E731

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    _costs[strategy][publications] = benchmark.stats.stats.mean
    assert result  # both produce pairs

    done = all(
        publications in _costs[s] for s in _costs
    ) and publications == 1600
    if done:
        for records in sorted(_costs["sort-merge"]):
            _table().add_row(
                records,
                _costs["sort-merge"][records],
                _costs["nested-loop"][records],
            )
        _table().note("sort-merge scales linearly; nested-loop quadratically")


def test_join_results_agree():
    parents, children, level = _setup(400)
    assert set(closest_join(parents, children, level)) == set(
        nested_loop_join(parents, children, level)
    )
