"""Ablation: sort-merge closest join vs a naive nested-loop join.

DESIGN.md calls out the Dewey-prefix sort-merge join (Section VII) as
the reason the render's read side is linear.  The sort-merge arm times
the join the render runs, :meth:`BaseIndex.closest_pair_map`, built
afresh each round (its memo is dropped first).  The nested-loop variant
removes the join: it tests the join predicate
``distance(n, u) = typeDistance`` on every pair, which is what a direct
implementation of Definition 2 would do.
"""

import pytest

from repro.closeness import DocumentIndex
from repro.workloads import generate_dblp
from repro.xmltree.dewey import prefixes

from benchmarks.conftest import register_table
from benchmarks.reporting import SeriesTable


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
    return index, author, title


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
    index, author, title = _setup(publications)
    # Both arms time the join alone: the type distance is found first.
    level = index.closest_lca_level(author, title)

    if strategy == "sort-merge":
        run = lambda: index.closest_pair_map(author, title)  # noqa: E731
    else:
        parents, children = index.nodes_of(author).labels, index.nodes_of(title).labels
        run = lambda: nested_loop_join(parents, children, level)  # noqa: E731

    result = benchmark.pedantic(run, setup=index.drop_join_cache, rounds=2, iterations=1)
    _costs[strategy][publications] = benchmark.stats.stats.mean
    assert any(result)  # both produce pairs

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
    index, author, title = _setup(400)
    parents, children = index.nodes_of(author).labels, index.nodes_of(title).labels
    level = index.closest_lca_level(author, title)
    mapping = index.closest_pair_map(author, title)
    pairs = {(i, x) for i, xs in enumerate(mapping) if xs for x in xs}
    assert pairs == set(nested_loop_join(parents, children, level))
