"""Tests for the database facade, shredder and stored index."""

import hashlib
import json

import pytest
from hypothesis import given, settings

import repro
from repro.cache import shape_fingerprint
from repro.errors import DocumentNotFoundError, StorageError
from repro.storage import Database
from repro.storage import tables
from repro.workloads.dblp import generate_dblp
from repro.workloads.nasa import generate_nasa
from repro.workloads.xmark import generate_xmark
from repro.xmltree import Dewey, parse_document
from repro.xmltree.dewey import pack, unpack

from tests.conftest import FIG1A, FIG1B, FIG1C
from tests.strategies import documents, xml_forests


@pytest.fixture
def db(tmp_path):
    database = Database(str(tmp_path / "x.db"))
    yield database
    database.close()


class TestCodecs:
    def test_dewey_roundtrip(self):
        for text in ["1", "1.2.3", "1.1.1.1.1"]:
            dewey = Dewey.parse(text)
            assert unpack(pack(dewey)) == dewey

    def test_dewey_key_order_is_document_order(self):
        ids = [Dewey.parse(t) for t in ["1", "1.1", "1.1.2", "1.2", "2", "10.1"]]
        encoded = [pack(d) for d in ids]
        assert [unpack(e) for e in sorted(encoded)] == sorted(ids)

    @staticmethod
    def _stored(db, type_id, nodes):
        """``nodes`` — ``(dotted dewey, is attribute, text, overflow
        chunks)`` — encoded, written as one sequence, and read back both
        ways: decoded by ``parse_chunk`` and cut by ``sequence_entries``."""
        entries = [
            tables.encode_node(
                pack(Dewey.parse(dewey)), type_id, is_attribute, text.encode(), overflow_chunks
            )[1]
            for dewey, is_attribute, text, overflow_chunks in nodes
        ]
        chunks: list[bytearray] = []
        for entry in entries:
            tables.append_entry(chunks, entry)
        db.tree.put_many(
            [(tables.sequence_key(77, type_id, n), bytes(c)) for n, c in enumerate(chunks)]
        )
        labels, values, attributes, overflowed = tables.sequence_columns(db.tree, 77, type_id)
        read = [
            (str(unpack(label)), bool(attributes[n]), values[n], overflowed.get(n, 0))
            for n, label in enumerate(labels)
        ]
        assert [entry for _label, entry in tables.sequence_entries(db.tree, 77, type_id)] == entries
        return read, chunks

    def test_sequence_pack_roundtrip(self, db):
        nodes = [
            ("1.1", False, "hello", 0),
            ("1.2", True, "x" * 100, 0),
            ("1.3", False, "", 2),
        ]
        assert self._stored(db, 3, nodes)[0] == nodes

    def test_sequence_chunking(self, db):
        nodes = [(f"1.{i}", False, "v" * 200, 0) for i in range(1, 101)]
        read, chunks = self._stored(db, 1, nodes)
        assert len(chunks) > 1
        assert max(map(len, chunks)) <= tables.CHUNK_BYTES
        assert read == nodes


class TestDocumentLifecycle:
    def test_store_and_list(self, db):
        db.store_document("a", FIG1A)
        db.store_document("b", FIG1B)
        assert db.document_names() == ["a", "b"]

    def test_duplicate_name_rejected(self, db):
        db.store_document("a", FIG1A)
        with pytest.raises(StorageError):
            db.store_document("a", FIG1B)

    def test_missing_document(self, db):
        with pytest.raises(DocumentNotFoundError):
            db.describe("nope")

    def test_failed_first_store_reports_its_own_error(self, tmp_path):
        """The rollback of a store whose meta page was never flushed used
        to die re-reading it ("not an XMorph B+tree file") and mask the
        refusal that caused it."""
        from repro.storage.fsck import fsck

        path = str(tmp_path / "fresh.db")
        with Database(path) as db:
            with pytest.raises(StorageError) as excinfo:
                db.store_document("n" * 5000, "<a><b>1</b></a>")
            assert str(excinfo.value).startswith("entry too large")
            assert excinfo.value.code is None
            assert db.document_names() == []
            db.store_document("a", FIG1A)
        with Database(path) as db:
            assert db.document_names() == ["a"]
            assert db.transform("a", "MORPH author [ name ]").xml()
        assert fsck(path).ok

    def test_document_deeper_than_a_label_holds_is_refused(self, db):
        """86 levels make a 258-byte label; a ``T`` entry's length byte
        holds 255.  It used to be a ``struct.error``."""
        from repro.errors import DepthLimitError

        db.store_document("a", FIG1A)
        before = list(db.tree.scan_prefix(b""))
        with pytest.raises(DepthLimitError) as excinfo:
            db.store_document("deep", "<a>" * 86 + "x" + "</a>" * 86)
        assert excinfo.value.code == "XM560"
        assert (excinfo.value.depth, excinfo.value.limit) == (86, 85)
        assert "86 levels" in str(excinfo.value) and "85 levels" in str(excinfo.value)
        assert list(db.tree.scan_prefix(b"")) == before
        db.store_document("deep", "<a>" * 85 + "x" + "</a>" * 85)
        assert db.load_forest("deep").node_count() == 85

    def test_descriptor_contents(self, db):
        descriptor = db.store_document("a", FIG1A)
        assert descriptor["nodes"] == parse_document(FIG1A).node_count()
        assert descriptor["shred_seconds"] >= 0
        assert db.describe("a")["nodes"] == descriptor["nodes"]

    def test_load_forest_roundtrip(self, db):
        for name, text in [("a", FIG1A), ("b", FIG1B), ("c", FIG1C)]:
            db.store_document(name, text)
        for name, text in [("a", FIG1A), ("b", FIG1B), ("c", FIG1C)]:
            assert db.load_forest(name).canonical() == parse_document(text).canonical()

    def test_long_text_overflows(self, db):
        big = "word " * 2000  # ~10 KB, must overflow
        db.store_document("big", f"<r><t>{big}</t></r>")
        forest = db.load_forest("big")
        assert forest.roots[0].find("t").text == big

    def test_persistence_across_reopen(self, tmp_path):
        path = str(tmp_path / "p.db")
        with Database(path) as db:
            db.store_document("a", FIG1A)
        with Database(path) as again:
            assert again.document_names() == ["a"]
            result = again.transform("a", "MORPH author [ name ]")
            assert len(result.forest.roots) == 2


class TestFailedStoreLeavesNothing:
    """A store the tree refuses rolls its staged records back."""

    def test_refused_catalog_entry_leaks_no_records(self, tmp_path):
        from repro.storage.fsck import fsck

        path = str(tmp_path / "leak.db")
        with Database(path) as db:
            db.store_document("ok", FIG1A)
            before = list(db.tree.scan())
            image = open(path, "rb").read()
            # The name rides in the catalog key, the last record written:
            # by then the document's N/T/S records are staged.
            with pytest.raises(StorageError, match="entry too large"):
                db.store_document("n" * 5000, "<a><b>1</b><c>2</c></a>")
            assert db.stats.counters["storage.rollbacks"] == 1
            assert "update.rollbacks" not in db.stats.counters
            db.flush()
            after = list(db.tree.scan())
            assert open(path, "rb").read() == image
            assert db.document_names() == ["ok"]
            # Only the document-id counter may differ, and it does not:
            # the rollback forgot the staged increment too.
            assert after == before
            # The handle is live: the next document stores and reads back.
            db.store_document("next", FIG1B)
            assert db.load_forest("next").canonical() == parse_document(FIG1B).canonical()
            assert db.document_names() == ["next", "ok"]
        report = fsck(path)
        assert report.ok and report.documents == ["next", "ok"]
        with Database(path) as db:
            assert len(list(db.tree.scan())) > len(before)
            db.drop_document("next")
            # All that is left of "next" is its turn of the id counter.
            assert list(db.tree.scan())[1:] == before[1:]


class TestHostileDocumentsAreRefused:
    """Text that does not parse, or nests deeper than a label holds, is
    refused with a located or coded error; nothing is staged and the
    handle stays usable."""

    @pytest.fixture
    def stored(self, db):
        db.store_document("a", FIG1A)
        db.flush()
        return db, list(db.tree.scan())

    @staticmethod
    def still_usable(db, before):
        assert list(db.tree.scan()) == before
        db.flush()
        assert list(db.tree.scan()) == before
        db.store_document("next", FIG1B)
        assert db.transform("next", "MORPH author [ name ]").xml()

    def test_a_surrogate_character_reference(self, stored):
        from repro.errors import XmlParseError

        db, before = stored
        with pytest.raises(XmlParseError) as excinfo:
            db.store_document("s", "<a>\n<b>&#xD800;</b></a>")
        assert "invalid character reference" in str(excinfo.value)
        assert (excinfo.value.line, excinfo.value.column) == (2, 4)
        assert db.document_names() == ["a"]
        self.still_usable(db, before)

    def test_600_levels_of_text(self, stored):
        from repro.errors import XmlParseError

        db, before = stored
        with pytest.raises(XmlParseError, match="levels deep") as excinfo:
            db.store_document("deep", "<a>" * 600 + "x" + "</a>" * 600)
        assert excinfo.value.line == 1 and excinfo.value.column > 3 * tables.MAX_DEPTH
        self.still_usable(db, before)

    def test_text_that_is_too_deep_and_does_not_parse_says_it_does_not_parse(self, stored):
        from repro.errors import XmlParseError

        db, before = stored
        with pytest.raises(XmlParseError, match="mismatched end tag"):
            db.store_document("deep", "<a>" * 90 + "x" + "</a>" * 89 + "</b>")
        self.still_usable(db, before)

    @pytest.mark.parametrize("source", ["text", "forest"])
    def test_between_the_stores_limit_and_the_parsers(self, stored, source):
        """More than 85 levels parse (the parser's limit is higher) and
        ``store_document`` refuses them, from text and from a forest."""
        from repro.errors import DepthLimitError
        from repro.xmltree import parser

        db, before = stored
        depth = (tables.MAX_DEPTH + parser.MAX_NESTING) // 2
        text = "<a>" * depth + "x" + "</a>" * depth
        forest = parse_document(text)
        assert forest.node_count() == depth
        with pytest.raises(DepthLimitError) as excinfo:
            db.store_document("deep", text if source == "text" else forest)
        assert excinfo.value.code == "XM560"
        assert (excinfo.value.depth, excinfo.value.limit) == (86, 85)
        self.still_usable(db, before)


class TestDropDocument:
    def test_drop_removes_everything(self, db):
        db.store_document("a", FIG1A)
        db.store_document("b", FIG1B)
        deleted = db.drop_document("a")
        assert deleted > 0
        assert db.document_names() == ["b"]
        with pytest.raises(DocumentNotFoundError):
            db.describe("a")
        # The other document is untouched.
        assert db.load_forest("b").canonical() == parse_document(FIG1B).canonical()

    def test_drop_missing_raises(self, db):
        with pytest.raises(DocumentNotFoundError):
            db.drop_document("nope")

    def test_name_reusable_after_drop(self, db):
        db.store_document("a", FIG1A)
        db.drop_document("a")
        db.store_document("a", FIG1C)
        assert db.load_forest("a").canonical() == parse_document(FIG1C).canonical()

    def test_drop_clears_overflow(self, db):
        big = "lorem " * 2000
        db.store_document("big", f"<r><t>{big}</t></r>")
        db.drop_document("big")
        assert not list(db.tree.scan_prefix(b"V"))

    def test_a_failed_drop_does_not_half_commit(self, tmp_path):
        """A read that fails inside the delete loop used to leave the
        deletes staged so far for the next flush to commit: a catalog
        entry naming nodes the Nodes keyspace no longer held."""
        from repro.errors import InjectedFaultError
        from repro.faults import FAULTS
        from repro.storage.fsck import fsck
        from repro.workloads.dblp import generate_dblp

        path = str(tmp_path / "drop.db")
        guard = "MORPH article [ title ]"
        with Database(path, cache_pages=8) as db:
            db.store_document("dblp", generate_dblp(30))
            expected = db.transform("dblp", guard).xml()
            keys = db.tree.count()
            failures = 0
            while True:  # fail the first read, then the second, ... until none is left
                db.drop_cache()
                try:
                    with FAULTS.armed("pages.pread", action="raise", skip=failures):
                        db.drop_document("dblp")
                    break
                except InjectedFaultError:
                    failures += 1
                # The handle is live on the whole document.
                assert db.tree.count() == keys
                assert db.transform("dblp", guard).xml() == expected
            assert failures > 4  # some of them struck with deletes staged
            # A read failing before the first delete rolls nothing back.
            assert 0 < db.stats.counters["storage.rollbacks"] <= failures
            assert "update.rollbacks" not in db.stats.counters
            assert db.document_names() == []
            db.store_document("next", FIG1B)  # a later flush
            assert db.tree.count() < keys
        report = fsck(path)
        assert report.ok and report.documents == ["next"]


def write_shape_columns(db, doc_id, edit):
    """Rewrite a document's shape record with ``edit`` applied to its
    columns (:class:`tables.ShapeColumns`, edited in place)."""
    prefix = tables.shape_prefix(doc_id)
    columns = tables.shape_columns(b"".join(tables.load_chunks(db.tree, prefix)))
    edit(columns)
    raw = tables.pack_columns(columns)
    for key in [key for key, _ in db.tree.scan_prefix(prefix)]:
        db.tree.delete(key)
    db.tree.put_many(
        (tables.shape_key(doc_id, number), raw[start : start + tables.CHUNK_BYTES])
        for number, start in enumerate(range(0, len(raw), tables.CHUNK_BYTES))
    )


def _one_path_twice(columns):
    """A second type with the last one's parent and name."""
    for cells in columns[1:]:
        cells.append(cells[-1])


#: Ways a stored shape record's columns can fail to make a shape; each is
#: refused when the document is opened, not when a guard reaches it.
#: ``parents`` holds a parent's id + 1 (0 for a root).
SHAPE_CORRUPTIONS = {
    "upwards": lambda columns: columns.parents.__setitem__(1, len(columns.parents)),
    "own-parent": lambda columns: columns.parents.__setitem__(2, 3),
    "unknown-type": lambda columns: columns.parents.__setitem__(-1, len(columns.parents) + 1),
    "negative-type": lambda columns: columns.parents.__setitem__(-1, 0xFFFFFFFF),
    "non-dense-ids": lambda columns: columns.counts.append(1),
    "one-path-twice": _one_path_twice,
    "name-out-of-range": lambda columns: columns.name_ids.__setitem__(-1, len(columns.names)),
    "empty-range": lambda columns: columns.lows.__setitem__(-1, columns.highs[-1] + 1),
}


class TestStoredIndex:
    def test_shape_matches_in_memory(self, db):
        db.store_document("a", FIG1A)
        stored = db.index("a")
        memory = repro.DocumentIndex(parse_document(FIG1A))
        assert stored.shape.fingerprint() == memory.shape.fingerprint()

    def test_type_distances_agree(self, db):
        for name, text in [("a", FIG1A), ("b", FIG1B), ("c", FIG1C)]:
            db.store_document(name, text)
        for name, text in [("a", FIG1A), ("b", FIG1B), ("c", FIG1C)]:
            stored = db.index(name)
            memory = repro.DocumentIndex(parse_document(text))
            for first in memory.types():
                for second in memory.types():
                    stored_first = stored.type_table.get(first.path)
                    stored_second = stored.type_table.get(second.path)
                    assert stored.type_distance(stored_first, stored_second) == (
                        memory.type_distance(first, second)
                    )

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="stored type distances come from root paths, not instances",
    )
    def test_type_distance_follows_the_instances(self, db):
        # No <a> holds both a <b> and a <c>: the closest b-c pairs meet at
        # <r>, distance 4, but the root paths meet at r.a, distance 2.
        text = "<r><a><b>1</b></a><a><c>2</c></a></r>"
        guard = "CAST MORPH b [ c ]"
        db.store_document("d", text)
        stored = db.index("d")
        memory = repro.DocumentIndex(parse_document(text))
        b, c = ("r", "a", "b"), ("r", "a", "c")
        assert memory.type_distance(memory.type_table.get(b), memory.type_table.get(c)) == 4
        expected = repro.Interpreter(parse_document(text)).transform(guard).xml()
        assert expected == "<b>1<c>2</c></b>"
        assert db.transform("d", guard).xml() == expected
        assert stored.type_distance(stored.type_table.get(b), stored.type_table.get(c)) == 4

    def test_lazy_sequences_charge_io(self, db):
        # Big enough that sequence chunks live on pages of their own.
        books = "".join(
            f"<book><title>T{i}</title><author><name>N{i}</name></author></book>"
            for i in range(300)
        )
        db.store_document("big", f"<data>{books}</data>")
        db.drop_cache()
        index = db.index("big")
        title = index.type_table.match_label("title")[0]
        before = db.stats.cumulative_blocks
        nodes = index.nodes_of(title)
        assert len(nodes) == 300 and nodes[0].text == "T0"
        assert db.stats.cumulative_blocks > before

    def test_sequences_cached(self, db):
        db.store_document("a", FIG1A)
        index = db.index("a")
        title = index.type_table.match_label("title")[0]
        first = index.nodes_of(title)
        assert index.nodes_of(title) is first

    def test_counts(self, db):
        db.store_document("a", FIG1A)
        index = db.index("a")
        book = index.type_table.match_label("book")[0]
        assert index.count_of(book) == 2
        assert index.node_count() == parse_document(FIG1A).node_count()

    @pytest.mark.parametrize("corruption", sorted(SHAPE_CORRUPTIONS))
    def test_corrupted_shape_record_is_refused(self, db, corruption):
        db.store_document("a", FIG1A)
        doc_id = db.describe("a")["doc_id"]
        write_shape_columns(db, doc_id, SHAPE_CORRUPTIONS[corruption])
        db.drop_cache()
        with pytest.raises(StorageError, match="corrupted stored shape") as excinfo:
            db.index("a")
        assert excinfo.value.code == "XM590"


class TestShapeRecord:
    """The shape record is the open's arrays: decoding it parses no JSON,
    and it is the shredder's descriptor, column by column."""

    def test_a_cold_open_parses_the_catalog_only(self, db, monkeypatch):
        db.store_document("x", generate_xmark(0.002))
        doc_id = db.describe("x")["doc_id"]
        record = b"".join(tables.load_chunks(db.tree, tables.shape_prefix(doc_id)))
        db.drop_cache()
        parsed, loaded = [], []
        loads, load_chunks = json.loads, tables.load_chunks
        monkeypatch.setattr(json, "loads", lambda *a, **k: parsed.append(a) or loads(*a, **k))
        monkeypatch.setattr(
            tables, "load_chunks", lambda *a: loaded.append(load_chunks(*a)) or loaded[-1]
        )
        index = db.index("x")
        assert len(parsed) == 1 and b'"shape_fingerprint"' in bytes(parsed[0][0])
        [chunks] = loaded
        assert len(chunks) == -(-len(record) // tables.CHUNK_BYTES) == 2
        assert len(index.type_table) == 283

    @settings(max_examples=40, deadline=None)
    @given(forest=documents(attributes=True))
    def test_the_record_is_the_shredders_descriptor(self, tmp_path_factory, forest):
        path = str(tmp_path_factory.mktemp("record") / "r.db")
        with Database(path, durable=False) as db:
            shredded = db.store_document("doc", forest)
            record = tables.read_shape(db.tree, shredded["doc_id"], "doc")
            assert record.descriptor() == shredded["shape"]
            assert shape_fingerprint(record.descriptor()) == db.describe("doc")["shape_fingerprint"]


class TestCatalogRecord:
    def test_a_record_past_a_chunk_is_refused_not_cut(self, db):
        """520 control characters are 3,120 bytes of JSON escapes: the
        record used to be cut at 3,200 bytes and stored."""
        with pytest.raises(StorageError, match="entry too large: the catalog record"):
            db.store_document("\x01" * 520, "<a>x</a>")
        assert db.document_names() == []
        assert db.tree.count() == 0

    def test_an_undecodable_record_is_a_coded_error(self, db):
        db.store_document("a", FIG1A)
        raw = db.tree.get(tables.catalog_key("a"))
        db.tree.put(tables.catalog_key("a"), raw[: len(raw) // 2])
        with pytest.raises(StorageError, match="undecodable catalog record") as excinfo:
            db.describe("a")
        assert excinfo.value.code == "XM590"


class TestPinnedShapes:
    """Each corpus' source shape, in memory and stored, read whole:
    ``pretty()`` and every ``edges()`` line as one digest.

    Both indexes hold the shape as arrays and make its vertices on first
    use; read whole it must be the shape the eager one-pass constructor
    built, so the digests were computed by that constructor.
    """

    PINNED = {
        "dblp-400": (
            lambda: generate_dblp(400),
            "7041446c77b27316231e85506b5d2711afb4524021c6f8b0bef67d540ed277cb",
        ),
        "xmark-0.002": (
            lambda: generate_xmark(0.002),
            "b361c3be30e49be0c10f8971c7a5e794b2cd777825d75de9076647cd4075fefc",
        ),
        "nasa-25": (
            lambda: generate_nasa(25),
            "4ea307bc01542992f125a5f2418ad08cefd7c54fdd4850e057b0cd119a367616",
        ),
    }

    @staticmethod
    def digest(shape) -> str:
        text = shape.pretty() + "\n" + "\n".join(str(edge) for edge in shape.edges())
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("corpus", sorted(PINNED))
    def test_both_indexes_read_the_pinned_shape(self, db, corpus):
        make, pinned = self.PINNED[corpus]
        forest = make()
        db.store_document(corpus, forest)
        db.drop_cache()
        assert self.digest(db.index(corpus).shape) == pinned
        assert self.digest(repro.DocumentIndex(forest).shape) == pinned


class TestGroupedSequence:
    def test_pairs_match_tree_parents(self, db):
        db.store_document("a", FIG1A)
        pairs = db.grouped_sequence("a", "title")
        forest = parse_document(FIG1A)
        expected = [
            (node.parent.dewey, node.dewey)
            for node in forest.iter_nodes()
            if node.name == "title"
        ]
        assert pairs == expected

    def test_root_type_has_no_parent(self, db):
        db.store_document("a", FIG1A)
        pairs = db.grouped_sequence("a", "data")
        assert pairs == [(None, parse_document(FIG1A).roots[0].dewey)]

    def test_children_grouped_contiguously(self, db):
        db.store_document("c", FIG1C)
        pairs = db.grouped_sequence("c", "book")
        parents = [parent for parent, _own in pairs]
        # Both books share the single author parent, adjacent in order.
        assert parents[0] == parents[1]

    def test_unknown_type(self, db):
        db.store_document("a", FIG1A)
        with pytest.raises(StorageError):
            db.grouped_sequence("a", "nosuch")


class TestDocumentWrittenWithGroupedKeys:
    """A document shredded by a build that still stored GroupedSequence
    carries ``b"G"`` + doc + type + chunk keys.  Nothing reads them now:
    the store serves, updates and fscks as if they were absent, and
    ``drop_document`` sweeps them out with the rest."""

    GUARD = "MORPH author [ name book [ title ] ]"

    def test_serves_updates_fscks_and_drops_clean(self, tmp_path):
        from repro.storage import InsertSubtree, reference_apply
        from repro.storage.fsck import fsck

        path = str(tmp_path / "older.db")
        with Database(path) as db:
            db.store_document("a", FIG1A)
            index = db.index("a")
            doc = index.doc_id.to_bytes(4, "big")
            for data_type in index.types():
                for chunk in range(2):
                    key = (
                        b"G"
                        + doc
                        + data_type.type_id.to_bytes(4, "big")
                        + chunk.to_bytes(4, "big")
                    )
                    # One (parent 1, node 1.1) pair in the old packing.
                    db.tree.put(key, b"\x03\x06" + b"\0\0\x01" * 3)
            db.flush()

        op = InsertSubtree("1", "<book><title>Z</title><author><name>C</name></author></book>")
        with Database(path) as db:
            assert list(db.tree.scan_prefix(b"G" + doc))
            before = repro.transform(parse_document(FIG1A), self.GUARD)
            assert db.transform("a", self.GUARD).xml() == before.xml()
            db.apply_batch("a", [op])
            after = repro.transform(reference_apply(parse_document(FIG1A), [op]), self.GUARD)
            assert db.transform("a", self.GUARD).xml() == after.xml()
            assert db.grouped_sequence("a", "data") == [(None, Dewey.parse("1"))]
        assert fsck(path).ok

        with Database(path) as db:
            db.drop_document("a")
        with Database(path) as db:
            assert [key for key, _value in db.tree.scan_prefix(b"")] == [b"C"]
        assert fsck(path).ok


class TestTransformsOverStore:
    GUARD = "MORPH author [ name book [ title ] ]"

    def test_matches_in_memory_result(self, db):
        for name, text in [("a", FIG1A), ("b", FIG1B), ("c", FIG1C)]:
            db.store_document(name, text)
        for name, text in [("a", FIG1A), ("b", FIG1B), ("c", FIG1C)]:
            stored = db.transform(name, self.GUARD)
            memory = repro.transform(parse_document(text), self.GUARD)
            assert stored.forest.canonical() == memory.forest.canonical()
            assert stored.loss.guard_type == memory.loss.guard_type

    def test_compile_touches_no_sequence_blocks(self, db):
        db.store_document("a", FIG1A)
        db.drop_cache()
        db.index("a")  # load shape records
        before = db.stats.cumulative_blocks
        db.transform("a", self.GUARD)
        assert db.stats.cumulative_blocks == before

    def test_render_reads_only_needed_types(self, db):
        # A guard over author/name must not read publisher/title chunks.
        db.store_document("a", FIG1A)
        db.drop_cache()
        index = db.index("a")
        result = db.transform("a", "MORPH author [ name ]")
        assert not index._sequences  # planned, nothing read yet
        result.xml()
        assert index._sequences.keys() == {
            index.type_table.match_label("author")[0].type_id,
            index.type_table.match_label("author.name")[0].type_id,
        }

    @settings(max_examples=15, deadline=None)
    @given(xml_forests(max_roots=1, max_depth=3, max_children=3))
    def test_random_roundtrip(self, tmp_path_factory, forest):
        tmp = tmp_path_factory.mktemp("db")
        with Database(str(tmp / "r.db")) as db:
            db.store_document("doc", forest)
            again = db.load_forest("doc")
            assert again.canonical() == forest.canonical()
