"""Tests for the eXist-style native XML store baseline."""

import pytest

from repro.errors import DocumentNotFoundError
from repro.workloads import generate_dblp
from repro.xmltree import parse_document, parse_forest

from benchmarks.existdb import ExistStore
from tests.conftest import FIG1A


@pytest.fixture
def store(tmp_path):
    exist = ExistStore(str(tmp_path / "exist.db"))
    yield exist
    exist.close()


class TestDump:
    def test_dump_roundtrips(self, store):
        store.store_document("a", FIG1A)
        dumped = store.dump("a")
        assert parse_forest(dumped).canonical() == parse_document(FIG1A).canonical()

    def test_dump_reads_pages_sequentially(self, store):
        forest = generate_dblp(500)
        document = store.store_document("d", forest)
        store.drop_cache()
        before = store.stats.blocks_in
        store.dump("d")
        # One block per stored page on a cold pool, and none again warm.
        assert store.stats.blocks_in - before == document.page_count
        store.dump("d")
        assert store.stats.blocks_in - before == document.page_count

    def test_dump_cost_scales_with_size(self, tmp_path):
        blocks = []
        for count in (200, 400):
            with ExistStore(str(tmp_path / f"e{count}.db")) as store:
                store.store_document("d", generate_dblp(count))
                store.drop_cache()
                base = store.stats.blocks_in
                store.dump("d")
                blocks.append(store.stats.blocks_in - base)
        assert blocks[1] > blocks[0] * 1.5

    def test_missing_document(self, store):
        with pytest.raises(DocumentNotFoundError):
            store.dump("nope")


class TestQuery:
    def test_query_evaluates(self, store):
        store.store_document("a", FIG1A)
        items = store.query("a", "for $b in /data/book return $b/title/text()")
        assert items == ["X", "Y"]

    def test_paper_dump_query(self, store):
        store.store_document("a", FIG1A)
        items = store.query("a", 'for $b in doc("a")/data return <data>{$b}</data>')
        assert len(items) == 1

    def test_query_reads_no_page(self, store):
        """A query runs over the DOM: it reads no page, and counts none."""
        store.store_document("a", FIG1A)
        store.drop_cache()
        before = store.stats.cumulative_blocks
        assert store.query("a", "//name")
        assert store.stats.cumulative_blocks == before
