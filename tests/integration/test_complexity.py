"""Empirical complexity guard-rails.

The paper's cost claims are asymptotic; these tests pin them as
regression guards using operation counters (not wall time, which is
noisy): the render's read side is linear in the input, the closest join
is a single merge pass, and compilation cost depends on the number of
*types*, not the amount of *data*.
"""

from repro.closeness import DocumentIndex
from repro.closeness.index import closest_join
from repro.workloads import generate_dblp

import repro


def _counted_join(publications):
    index = DocumentIndex(generate_dblp(publications))
    author = next(t for t in index.types() if t.dotted == "dblp.article.author")
    title = next(t for t in index.types() if t.dotted == "dblp.article.title")
    level = index.closest_lca_level(author, title)
    pairs = list(closest_join(index.nodes_of(author), index.nodes_of(title), level))
    inputs = len(index.nodes_of(author)) + len(index.nodes_of(title))
    return inputs, len(pairs)


class TestLinearReads:
    def test_render_reads_scale_linearly(self):
        reads = {}
        for publications in (200, 800):
            forest = generate_dblp(publications)
            result = repro.transform(forest, "CAST MORPH author [ title [ year ] ]")
            reads[publications] = result.rendered.nodes_read
        # 4x input -> ~4x reads (never quadratic).
        ratio = reads[800] / reads[200]
        assert 3.0 <= ratio <= 6.0

    def test_join_output_bounded_by_closeness(self):
        inputs_small, pairs_small = _counted_join(200)
        inputs_big, pairs_big = _counted_join(800)
        assert pairs_big / pairs_small <= 1.5 * (inputs_big / inputs_small)


class TestCompileIndependentOfDataSize:
    def test_same_types_same_analysis_cost(self):
        """Two documents with identical shape but 8x data: the loss
        analysis does identical pair work (measured by findings
        machinery via identical reports)."""
        small = repro.check(generate_dblp(100), "MUTATE dblp")
        large = repro.check(generate_dblp(800), "MUTATE dblp")
        assert small.guard_type == large.guard_type
        assert len(small.findings) == len(large.findings)

    def test_pathcard_pairs_quadratic_in_types_only(self):
        from repro.shape import path_cardinality_table

        for publications in (100, 800):
            index = DocumentIndex(generate_dblp(publications))
            pairs = path_cardinality_table(index.shape)
            assert len(pairs) == len(index.types()) ** 2


class TestWriteSideQuadraticOnlyWhenDuplicating:
    def test_no_duplication_no_blowup(self):
        forest = generate_dblp(400)
        result = repro.transform(forest, "MUTATE dblp")
        assert result.rendered.nodes_written == forest.node_count()

    def test_duplication_is_the_exception_not_the_rule(self):
        forest = generate_dblp(400)
        result = repro.transform(forest, "CAST MORPH author [ title ]")
        # Titles duplicate per author (multi-author records), but the
        # factor is the average author count, not the input size.
        authors = len(forest.find_named("author"))
        titles_written = len(result.forest.find_named("title"))
        assert titles_written <= authors
