"""Empirical complexity guard-rails.

The paper's cost claims are asymptotic; these tests pin them as
regression guards using operation counters (not wall time, which is
noisy): the render's read side is linear in the input, the closest join
is a single merge pass, and compilation cost depends on the number of
*types*, not the amount of *data*.
"""

import gc
from collections import Counter

import pytest

from repro.closeness import DocumentIndex
from repro.closeness import index as index_module
from repro.workloads import generate_dblp

import repro

from tests.closeness.test_index import filter_of


def _counted_join(publications):
    index = DocumentIndex(generate_dblp(publications))
    author = next(t for t in index.types() if t.dotted == "dblp.article.author")
    title = next(t for t in index.types() if t.dotted == "dblp.article.title")
    pairs = sum(len(xs) for xs in index.closest_pair_map(author, title) if xs)
    inputs = len(index.nodes_of(author)) + len(index.nodes_of(title))
    return inputs, pairs


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
        from tests.typing.oracle import path_cardinality_table

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


def _worst_case(k):
    """``benchmarks/bench_quadratic_write.py``'s document: one book whose
    k authors are all closest to its k titles."""
    authors = "".join(f"<author><name>A{i}</name></author>" for i in range(k))
    titles = "".join(f"<title>T{i}</title>" for i in range(k))
    index = DocumentIndex(repro.parse_document(f"<data><book>{authors}{titles}</book></data>"))
    by_name = {t.dotted: t for t in index.types()}
    return index, by_name["data.book.author"], by_name["data.book.title"]


@pytest.mark.parametrize("k", [8, 64])
class TestReadSideMemoIsLinear:
    """The write is quadratic when data duplicates; what the index keeps
    to answer it is not (counted, not timed)."""

    def test_pair_map_holds_one_list_not_k_squared_entries(self, k):
        index, author, title = _worst_case(k)
        mapping = index.closest_pair_map(author, title)
        assert len(mapping) == k
        assert sum(len(partners) for partners in mapping) == k * k
        assert len({id(partners) for partners in mapping}) == 1

    def test_grouping_runs_once_per_type_and_width(self, k, monkeypatch):
        index, author, title = _worst_case(k)
        calls: Counter = Counter()
        grouped = index_module.group_by_prefix

        def counted(labels, width):
            # An index hands out one label column per type: its id is the type.
            calls[id(labels), width] += 1
            return grouped(labels, width)

        monkeypatch.setattr(index_module, "group_by_prefix", counted)
        authors, titles = index.nodes_of(author), index.nodes_of(title)
        for _ in range(2):
            index.closest_pair_map(author, title)
            index.closest_pair_map(title, author)
            # Fresh filter shapes: the survivor memo misses, the groups hit.
            restrict_author = filter_of((author, [(title, [])]))
            restrict_title = filter_of((title, [(author, [])]))
            assert index.restrict_pass(author, restrict_author) == list(range(k))
            assert index.restrict_pass(title, restrict_title) == list(range(k))
        assert calls == {(id(authors.labels), 2): 1, (id(titles.labels), 2): 1}


class TestColdTextPathBuildsNoNodeObjects:
    """A cold ``transform().xml()`` goes from pages to text through
    packed columns and positions (counted, not timed)."""

    GUARD = "CAST MORPH author [ title [ year ] ]"

    @staticmethod
    def _live():
        from repro.xmltree.dewey import Dewey
        from repro.xmltree.node import XmlNode

        gc.collect()
        kinds = [type(thing) for thing in gc.get_objects()]
        return kinds.count(XmlNode), kinds.count(Dewey)

    def test_objects_appear_only_when_the_forest_is_touched(self, tmp_path):
        from repro.storage import Database
        from repro.xmltree.serializer import serialize

        with Database(str(tmp_path / "cold.db"), durable=False) as db:
            db.store_document("dblp", generate_dblp(50))
            db.drop_cache()
            before = self._live()
            result = db.transform("dblp", self.GUARD)
            text = result.xml()
            assert self._live() == before
            forest = result.forest
            nodes, deweys = self._live()
            assert nodes > before[0] and deweys > before[1]
            assert serialize(forest) == text
            source = result.compiled_render.sources["text"]
        assert ".text" not in source and ".kind" not in source and "id(" not in source
