"""The Section I claim: "the 'write' cost of the algorithm is quadratic
since the transformation may duplicate snippets of source data".

Read cost stays linear in the *output*, but the output itself can be
quadratic in the input: when k parents are all closest to the same k
children, every child is copied under every parent.  This bench builds
exactly that worst case — one book with k authors and k titles — and
sweeps k.
"""

import pytest

import repro
from repro.xmltree import parse_document

from benchmarks.conftest import register_table
from benchmarks.reporting import SeriesTable

_rows: dict[int, tuple[int, int]] = {}


def worst_case(k: int):
    authors = "".join(f"<author><name>A{i}</name></author>" for i in range(k))
    titles = "".join(f"<title>T{i}</title>" for i in range(k))
    return parse_document(f"<data><book>{authors}{titles}</book></data>")


def _table():
    return register_table(
        "quadratic_write",
        SeriesTable(
            "Write cost: k authors x k shared titles (MORPH author [name title])",
            "k",
            ["input nodes", "output nodes"],
        ),
    )


@pytest.mark.parametrize("k", [4, 8, 16, 32])
def test_duplication_sweep(benchmark, k):
    forest = worst_case(k)
    rendered = benchmark.pedantic(
        lambda: repro.transform(forest, "CAST-WIDENING MORPH author [ name title ]").rendered,
        rounds=1,
        iterations=1,
    )
    output_nodes = rendered.nodes_written
    _rows[k] = (forest.node_count(), output_nodes)
    # Every one of the k titles is duplicated under each of k authors.
    assert output_nodes == 2 * k + k * k

    if len(_rows) == 4:
        for key in sorted(_rows):
            _table().add_row(key, *_rows[key])
        _table().note("output = 2k + k^2: quadratic writes from duplication, as stated")


def test_read_side_stays_linear(benchmark):
    """nodes_read grows linearly in k even while writes grow quadratically."""
    reads = {}
    for k in (8, 32):
        forest = worst_case(k)
        result = repro.transform(forest, "CAST-WIDENING MORPH author [ name title ]")
        reads[k] = result.rendered.nodes_read
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert reads[32] <= 6 * reads[8]  # ~4x for 4x input, not 16x
