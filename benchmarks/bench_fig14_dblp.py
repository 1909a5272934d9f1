"""Figure 14: XMorph vs eXist on DBLP slices, three transformation sizes.

Paper setup: slices of dblp.xml (134–518 MB), transformations small
(``MORPH author``), medium (``MORPH author [title [year]]``) and large
(``MORPH dblp [author [title [year [pages] url]]]``); eXist runs the
equivalent XQuery (which for the large case needs one nested ``for``
per level).

Expected shape: eXist wins the small transformation (structural index +
document-order retrieval); XMorph overtakes as the transformation grows
(single-pass type-sequence merges vs nested navigation/reconstruction).
Both sides are measured wall time: a cold XMorph transformation against
the eXist query over its DOM; the crossover compares best-of-3 ratios.
"""

import pytest

from benchmarks.conftest import DBLP_SLICES, register_table
from benchmarks.harness import measured_query, measured_transform
from benchmarks.reporting import SeriesTable

TRANSFORMS = {
    "small": "CAST MORPH author",
    "medium": "CAST MORPH author [title [year]]",
    "large": "CAST MORPH dblp [author [title [year [pages] url]]]",
}

# The eXist-side equivalents: same output data, expressed as the
# paper's view rewriting — one `for` variable per type in the target
# shape ("471 variable bindings"!), so reconstruction nesting grows
# with the transformation size.
EXIST_QUERIES = {
    "small": "for $a in //author return $a",
    "medium": (
        "for $p in /dblp/*, $a in $p/author return "
        "<author>{$a/text()}"
        "{for $t in $p/title return <title>{$t/text()}"
        "{for $y in $p/year return <year>{$y/text()}</year>}"
        "</title>}"
        "</author>"
    ),
    "large": (
        "<dblp>{for $p in /dblp/*, $a in $p/author return "
        "<author>{$a/text()}"
        "{for $t in $p/title return <title>{$t/text()}"
        "{for $y in $p/year return <year>{$y/text()}"
        "{for $g in $p/pages return <pages>{$g/text()}</pages>}"
        "</year>}"
        "{for $u in $p/url return <url>{$u/text()}</url>}"
        "</title>}"
        "</author>}</dblp>"
    ),
}

_results: dict[tuple, tuple[float, float]] = {}


def _table():
    return register_table(
        "fig14_dblp",
        SeriesTable(
            "Figure 14: XMorph vs eXist on DBLP slices (wall seconds)",
            "records",
            [
                "xmorph small",
                "exist small",
                "xmorph medium",
                "exist medium",
                "xmorph large",
                "exist large",
            ],
        ),
    )


@pytest.mark.parametrize("publications", DBLP_SLICES)
@pytest.mark.parametrize("size", ["small", "medium", "large"])
def test_fig14_point(benchmark, publications, size, dblp_dbs, dblp_exist):
    db = dblp_dbs[publications]
    exist = dblp_exist[publications]

    xmorph = benchmark.pedantic(
        lambda: measured_transform(db, "dblp", TRANSFORMS[size]),
        rounds=1,
        iterations=1,
    )
    exist_m = measured_query(exist, "dblp", EXIST_QUERIES[size])
    _results[(publications, size)] = (xmorph.wall_seconds, exist_m.wall_seconds)

    if all((publications, s) in _results for s in TRANSFORMS):
        row = []
        for s in TRANSFORMS:
            xm, ex = _results[(publications, s)]
            row.extend([xm, ex])
        _table().add_row(publications, *row)
        if publications == DBLP_SLICES[-1]:
            _table().note(
                "expected crossover: eXist wins small, XMorph wins large"
            )


def test_fig14_crossover(dblp_dbs, dblp_exist, benchmark):
    """The paper's headline: XMorph overtakes eXist as transformations grow."""
    publications = DBLP_SLICES[-1]
    db = dblp_dbs[publications]
    exist = dblp_exist[publications]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    ratios = {}
    for size in ("small", "large"):
        xmorph = min(
            measured_transform(db, "dblp", TRANSFORMS[size]).wall_seconds for _ in range(3)
        )
        exist_s = min(
            measured_query(exist, "dblp", EXIST_QUERIES[size]).wall_seconds for _ in range(3)
        )
        ratios[size] = xmorph / exist_s
    _table().note(
        f"xmorph/exist wall ratio at {publications}: "
        f"small {ratios['small']:.2f}, large {ratios['large']:.2f}"
    )

    # Relative position shifts in XMorph's favour as the transformation
    # grows, and for the large transformation XMorph is ahead.
    assert ratios["large"] < ratios["small"]
    assert ratios["large"] < 1.0
