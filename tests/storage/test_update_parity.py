"""Differential parity: incremental updates vs a full re-shred.

The correctness bar for :mod:`repro.storage.update` is not "the
document reads back right" — it is *byte-identical storage state*: after
any batch of subtree edits, every Nodes / AdornedShapes /
TypeToSequence / overflow record, the catalog entry and the shape
fingerprint must equal what a fresh database produces by
shredding :func:`repro.storage.update.reference_apply`'s output from
scratch.  That single invariant covers Dewey renumbering, sequence
membership and order, type-id intern order (including remaps when types
appear or disappear mid-document), cardinality adornments and count
bookkeeping in one assertion.

Every test here runs the same edit batch through both paths and diffs
the stores key for key.
"""

import pytest

from repro.errors import StorageError
from repro.storage import (
    Database,
    DeleteSubtree,
    InsertSubtree,
    ReplaceSubtree,
    reference_apply,
)
from repro.xmltree import parse_forest

# Several types with different populations: book repeats, journal and
# its title are singletons (deleting them exercises type retirement and
# id remapping), the id attributes exercise attribute vertices.
LIB = """
<lib>
  <book id="b1"><title>T1</title><author><name>A1</name></author></book>
  <book id="b2"><title>T2</title><author><name>A2</name></author></book>
  <journal><title>J1</title></journal>
  <book id="b3"><title>T3</title></book>
</lib>
"""

GUARDS = ["MORPH book [ title ]", "MORPH author [ name ]"]


def snapshot(db, name):
    """One document's entire stored state, normalized for comparison.

    Keys are re-rooted at the keyspace byte (doc ids may differ between
    the two databases); the catalog drops ``doc_id`` and the timing
    field ``shred_seconds`` — everything else, fingerprint included,
    must match exactly.  ``G`` is scanned so that a GroupedSequence
    key (a view since the table left the store) fails every caller:
    after ``store_document`` and after each batch alike.
    """
    descriptor = db.describe(name)
    doc = descriptor["doc_id"].to_bytes(4, "big")
    records = {}
    for keyspace in (b"N", b"S", b"T", b"G", b"V"):
        for key, value in db.tree.scan_prefix(keyspace + doc):
            records[keyspace + key[len(keyspace) + 4 :]] = value
    assert not [key for key in records if key.startswith(b"G")]
    catalog = dict(descriptor)
    catalog.pop("doc_id")
    catalog.pop("shred_seconds", None)
    return records, catalog


def assert_parity(tmp_path, source, ops, guards=GUARDS):
    """Run ``ops`` incrementally and via re-shred; diff the stores."""
    with Database(str(tmp_path / "incremental.db"), durable=False) as db:
        db.store_document("doc", source)
        result = db.apply_batch("doc", ops)
        incremental = snapshot(db, "doc")
        incremental_forest = db.load_forest("doc").canonical()
        incremental_renders = {
            guard: db.transform("doc", guard).forest.canonical() for guard in guards
        }
    with Database(str(tmp_path / "oracle.db"), durable=False) as db:
        expected = reference_apply(parse_forest(source), list(ops))
        db.store_document("doc", expected)
        oracle = snapshot(db, "doc")
        oracle_forest = db.load_forest("doc").canonical()
        oracle_renders = {
            guard: db.transform("doc", guard).forest.canonical() for guard in guards
        }

    incremental_records, incremental_catalog = incremental
    oracle_records, oracle_catalog = oracle
    # Key-set first: a missing/extra record names itself in the diff.
    assert sorted(incremental_records) == sorted(oracle_records)
    for key in oracle_records:
        assert incremental_records[key] == oracle_records[key], key
    assert incremental_catalog == oracle_catalog
    assert incremental_forest == oracle_forest
    assert incremental_renders == oracle_renders
    return result


class TestInsertParity:
    def test_append_at_end(self, tmp_path):
        result = assert_parity(
            tmp_path, LIB, [InsertSubtree("1", "<book><title>T4</title></book>")]
        )
        assert result.nodes_added == 2
        assert result.nodes_renumbered == 0

    def test_insert_at_front_renumbers_every_sibling(self, tmp_path):
        result = assert_parity(
            tmp_path,
            LIB,
            [InsertSubtree("1", "<book><title>T0</title></book>", position=1)],
        )
        assert result.nodes_renumbered > 0

    def test_insert_in_the_middle(self, tmp_path):
        assert_parity(
            tmp_path,
            LIB,
            [InsertSubtree("1", "<magazine><title>M</title></magazine>", position=3)],
        )

    def test_insert_deep(self, tmp_path):
        # Into an existing book, displacing its author subtree.
        assert_parity(
            tmp_path,
            LIB,
            [InsertSubtree("1.1", "<isbn>111</isbn>", position=3)],
        )

    def test_new_type_interned_mid_document_remaps_ids(self, tmp_path):
        # <isbn> first occurs *before* <title>'s first occurrence, so a
        # re-shred interns it earlier: every later type id shifts by one.
        result = assert_parity(
            tmp_path, LIB, [InsertSubtree("1.1", "<isbn>111</isbn>", position=2)]
        )
        assert result.type_ids_remapped > 0
        assert result.types_added == 1

    def test_insert_nested_subtree_with_new_types(self, tmp_path):
        assert_parity(
            tmp_path,
            LIB,
            [
                InsertSubtree(
                    "1",
                    "<series><name>S</name><book><title>TS</title></book></series>",
                )
            ],
        )


class TestDeleteParity:
    def test_delete_first_sibling(self, tmp_path):
        result = assert_parity(tmp_path, LIB, [DeleteSubtree("1.1")])
        assert result.nodes_removed == 5  # book, id, title, author, name
        assert result.nodes_renumbered > 0

    def test_delete_middle_sibling_retires_types(self, tmp_path):
        # The journal is the only <journal>: its two types disappear and
        # later ids must compact down, exactly as a re-shred would.
        result = assert_parity(tmp_path, LIB, [DeleteSubtree("1.3")])
        assert result.types_removed == 2
        assert result.type_ids_remapped == 0  # journal types interned last

    def test_delete_last_sibling(self, tmp_path):
        result = assert_parity(tmp_path, LIB, [DeleteSubtree("1.4")])
        assert result.nodes_renumbered == 0

    def test_delete_every_instance_of_a_type(self, tmp_path):
        # Both authors go: author and author.name retire, journal's ids
        # (interned after them) compact downward.
        result = assert_parity(
            tmp_path,
            LIB,
            [DeleteSubtree("1.1.3"), DeleteSubtree("1.2.3")],
            guards=["MORPH book [ title ]"],  # no authors left to morph
        )
        assert result.types_removed == 2
        assert result.type_ids_remapped > 0

    def test_delete_nested_node(self, tmp_path):
        assert_parity(tmp_path, LIB, [DeleteSubtree("1.2.2")])


class TestReplaceParity:
    def test_replace_same_shape(self, tmp_path):
        result = assert_parity(
            tmp_path,
            LIB,
            [
                ReplaceSubtree(
                    "1.1",
                    '<book id="z"><title>Z</title><author><name>Q</name></author></book>',
                )
            ],
        )
        # Same types, same counts, same cardinalities: the adorned
        # shape — and therefore the fingerprint — must not change.
        assert not result.shape_changed
        assert result.new_fingerprint == result.old_fingerprint

    def test_replace_with_different_structure(self, tmp_path):
        result = assert_parity(
            tmp_path,
            LIB,
            [ReplaceSubtree("1.2", "<monograph><title>M</title></monograph>")],
        )
        assert result.shape_changed

    def test_replace_leaf(self, tmp_path):
        assert_parity(tmp_path, LIB, [ReplaceSubtree("1.1.2", "<title>T1b</title>")])


# Three ~1 KB texts fill a sequence chunk, so the nine ``p`` entries
# are stored as three chunks of three: a commit keeps the leading chunks
# no edit reached, and an edit at a chunk's first entry can move that
# entry into the chunk before.
CHUNKED = "<r>" + "".join(f"<p>{str(n) * 1000}</p>" for n in range(1, 10)) + "</r>"


class TestChunkBoundaryParity:
    @pytest.mark.parametrize(
        "ops",
        [
            [ReplaceSubtree("1.4", "<p>x</p>")],
            [ReplaceSubtree("1.7", "<p>x</p>")],
            [ReplaceSubtree("1.5", "<p>x</p>")],
            [DeleteSubtree("1.4")],
            [DeleteSubtree("1.3")],
            [DeleteSubtree("1.9")],
            [InsertSubtree("1", "<p>x</p>")],
            [InsertSubtree("1", "<p>x</p>", position=7)],
            [ReplaceSubtree("1.8", "<p>x</p>"), ReplaceSubtree("1.4", "<p>y</p>")],
            [ReplaceSubtree("1.4", "<p>y</p>"), ReplaceSubtree("1.8", "<p>x</p>")],
        ],
        ids=[
            "shrink-first-of-chunk-1",
            "shrink-first-of-last-chunk",
            "shrink-inside-chunk-1",
            "delete-first-of-chunk-1",
            "delete-last-of-chunk-0",
            "delete-the-last",
            "append",
            "insert-before-a-chunk-start",
            "two-edits-later-one-first",
            "two-edits-earlier-one-first",
        ],
    )
    def test_repacked_chunks_equal_a_reshred(self, tmp_path, ops):
        assert_parity(tmp_path, CHUNKED, ops, guards=["MORPH r [ p ]"])


class TestBatchParity:
    def test_mixed_batch(self, tmp_path):
        assert_parity(
            tmp_path,
            LIB,
            [
                InsertSubtree("1", "<book><title>T4</title></book>", position=2),
                DeleteSubtree("1.4"),  # the journal, after the up-shift
                ReplaceSubtree("1.1", "<pamphlet><title>P</title></pamphlet>"),
                InsertSubtree("1.2", "<isbn>222</isbn>", position=1),
            ],
        )

    def test_ops_address_the_evolving_document(self, tmp_path):
        # Insert at the front, then delete "1.1" — which must hit the
        # node just inserted, not the original first book.
        result = assert_parity(
            tmp_path,
            LIB,
            [
                InsertSubtree("1", "<book><title>T0</title></book>", position=1),
                DeleteSubtree("1.1"),
            ],
        )
        assert result.nodes_added == 2
        assert result.nodes_removed == 2

    def test_insert_then_populate(self, tmp_path):
        # The second op addresses a node created by the first.
        assert_parity(
            tmp_path,
            LIB,
            [
                InsertSubtree("1", "<shelf/>"),
                InsertSubtree("1.5", "<label>new</label>"),
            ],
        )


class TestOverflowAndAttributes:
    def test_shifting_a_sibling_moves_overflow_chunks(self, tmp_path):
        big = "lorem " * 2000  # far past INLINE_TEXT: stored in V chunks
        source = f"<r><a>small</a><b>{big}</b></r>"
        assert_parity(
            tmp_path,
            source,
            [InsertSubtree("1", "<a>front</a>", position=1)],
            guards=[],
        )

    def test_inserted_subtree_with_overflow_text(self, tmp_path):
        big = "ipsum " * 2000
        assert_parity(
            tmp_path,
            LIB,
            [InsertSubtree("1.1", f"<blurb>{big}</blurb>")],
        )

    def test_deleting_overflow_node_clears_chunks(self, tmp_path):
        big = "dolor " * 2000
        source = f"<r><a>x</a><b>{big}</b><c>y</c></r>"
        result = assert_parity(tmp_path, source, [DeleteSubtree("1.2")], guards=[])
        assert result.nodes_removed == 1

    def test_attribute_heavy_edits(self, tmp_path):
        assert_parity(
            tmp_path,
            LIB,
            [
                ReplaceSubtree("1.1.1", '<id>b1x</id>'),
                InsertSubtree("1.2", '<flag>rare</flag>', position=1),
            ],
        )


class TestRootLevelOps:
    SOURCE = "<a><x>1</x></a><b><y>2</y></b><a><x>3</x></a>"

    def test_insert_root(self, tmp_path):
        assert_parity(
            tmp_path,
            self.SOURCE,
            [InsertSubtree(None, "<c><z>new</z></c>", position=2)],
            guards=[],
        )

    def test_delete_root(self, tmp_path):
        assert_parity(tmp_path, self.SOURCE, [DeleteSubtree("2")], guards=[])

    def test_replace_root(self, tmp_path):
        assert_parity(
            tmp_path,
            self.SOURCE,
            [ReplaceSubtree("3", "<b><y>replaced</y></b>")],
            guards=[],
        )

    def test_append_root(self, tmp_path):
        assert_parity(
            tmp_path, self.SOURCE, [InsertSubtree(None, "<a><x>4</x></a>")], guards=[]
        )


class TestErrorsLeaveStoreUntouched:
    @pytest.fixture
    def db(self, tmp_path):
        database = Database(str(tmp_path / "x.db"), durable=False)
        database.store_document("doc", LIB)
        yield database
        database.close()

    def test_bad_insert_position(self, db):
        before = snapshot(db, "doc")
        with pytest.raises(StorageError):
            db.apply_batch("doc", [InsertSubtree("1", "<x/>", position=99)])
        assert snapshot(db, "doc") == before

    def test_missing_target(self, db):
        before = snapshot(db, "doc")
        with pytest.raises(StorageError):
            db.apply_batch("doc", [DeleteSubtree("1.99")])
        assert snapshot(db, "doc") == before

    def test_failure_mid_batch_rolls_back_earlier_ops(self, db):
        before = snapshot(db, "doc")
        with pytest.raises(StorageError):
            db.apply_batch(
                "doc",
                [
                    InsertSubtree("1", "<book><title>T9</title></book>"),
                    DeleteSubtree("1.99"),  # fails after the insert staged
                ],
            )
        assert snapshot(db, "doc") == before
        assert db.stats.counters["storage.rollbacks"] == 1
        # The handle stays live: the next (valid) batch succeeds.
        result = db.apply_batch("doc", [DeleteSubtree("1.4")])
        assert result.nodes_removed == 3  # book, id attribute, title

    def test_delete_only_root_rejected(self, tmp_path):
        with Database(str(tmp_path / "single.db"), durable=False) as db:
            db.store_document("doc", "<only><x>1</x></only>")
            with pytest.raises(StorageError):
                db.apply_batch("doc", [DeleteSubtree("1")])
            assert db.load_forest("doc").canonical() == parse_forest(
                "<only><x>1</x></only>"
            ).canonical()

    def test_empty_batch_rejected(self, db):
        with pytest.raises(StorageError):
            db.apply_batch("doc", [])

    def test_multiple_subtree_roots_rejected(self, db):
        """Zero or several roots, inserted or replacing: the tokenizer
        feeds the builder directly, and the roots it reported are
        counted before anything is staged."""
        before = snapshot(db, "doc")
        for text, roots in [("", 0), (" \n\t ", 0), ("<x/><y/>", 2), ("<x>1</x> <y/> <z/>", 3)]:
            for op in (InsertSubtree("1", text, position=2), ReplaceSubtree("1.2", text)):
                message = f"exactly one root, got {roots}"
                with pytest.raises(StorageError, match=message):
                    db.apply_batch("doc", [op])
                with pytest.raises(StorageError, match=message):
                    reference_apply(parse_forest(LIB), [op])
                assert snapshot(db, "doc") == before

    @pytest.mark.parametrize(
        "source, kind", [(parse_forest("<z/>"), "XmlForest"), (b"<z/>", "bytes")]
    )
    def test_subtree_source_of_another_type_refused(self, db, source, kind):
        """Neither a node nor text: a coded refusal naming the type, not
        an ``AttributeError`` or ``TypeError`` from the tokenizer."""
        before = snapshot(db, "doc")
        message = f"an XmlNode or XML text, not {kind}"
        for op in (InsertSubtree("1", source), ReplaceSubtree("1.2", source)):
            with pytest.raises(StorageError, match=message):
                db.apply_batch("doc", [op])
            with pytest.raises(StorageError, match=message):
                reference_apply(parse_forest(LIB), [op])
            assert snapshot(db, "doc") == before

    @pytest.mark.parametrize(
        "ref",
        [
            "1.x", "", "1.0", "1..2", "-1", (1, 0), (), (1, "b"), 7, 1.5,
            "1.1_0", " 1", "1 ", "+1", "\u0661.2", "1.\u00b2", (1, True), (True,), (1, 2.9), (1.0,),
        ],
    )
    def test_malformed_reference_refused_at_the_edge(self, db, ref):
        """Not a ``ValueError`` out of ``Dewey.parse``, nor a ``TypeError``
        from further in: the engine and the reference both name it."""
        before = snapshot(db, "doc")
        for op in (DeleteSubtree(ref), ReplaceSubtree(ref, "<z/>"), InsertSubtree(ref, "<z/>")):
            with pytest.raises(StorageError, match="not a node reference"):
                db.apply_batch("doc", [op])
            with pytest.raises(StorageError, match="not a node reference"):
                reference_apply(parse_forest(LIB), [op])
        assert snapshot(db, "doc") == before

    @pytest.mark.parametrize("position", ["2", 1.5, True, 2.0])
    def test_non_integer_position_refused(self, db, position):
        op = InsertSubtree("1", "<x/>", position=position)
        with pytest.raises(StorageError, match="not an integer"):
            db.apply_batch("doc", [op])
        with pytest.raises(StorageError, match="not an integer"):
            reference_apply(parse_forest(LIB), [op])

    def test_insert_under_an_attribute_refused(self, db):
        """It used to be acknowledged and counted, and then no serializer
        wrote it: the store stopped equalling a re-shred of its own text."""
        from repro.xmltree import serialize

        before = snapshot(db, "doc")
        text = serialize(db.load_forest("doc"))
        op = InsertSubtree((1, 1, 1), "<z>q</z>")  # under book b1's id="b1"
        with pytest.raises(StorageError, match="attribute at 1.1.1"):
            db.apply_batch("doc", [op])
        with pytest.raises(StorageError, match="attribute at 1.1.1"):
            reference_apply(parse_forest(LIB), [op])
        assert snapshot(db, "doc") == before
        assert serialize(db.load_forest("doc")) == text


class TestDurabilityAcrossReopen:
    def test_committed_batch_survives_reopen(self, tmp_path):
        path = str(tmp_path / "durable.db")
        with Database(path) as db:
            db.store_document("doc", LIB)
            db.apply_batch(
                "doc",
                [
                    InsertSubtree("1", "<book><title>T4</title></book>"),
                    DeleteSubtree("1.3"),
                ],
            )
            expected = db.load_forest("doc").canonical()
        with Database(path) as db:
            assert db.load_forest("doc").canonical() == expected

    def test_other_documents_untouched(self, tmp_path):
        with Database(str(tmp_path / "multi.db"), durable=False) as db:
            db.store_document("doc", LIB)
            db.store_document("other", "<o><p>1</p></o>")
            other_before = snapshot(db, "other")
            db.apply_batch("doc", [DeleteSubtree("1.1")])
            assert snapshot(db, "other") == other_before
