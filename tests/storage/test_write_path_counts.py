"""Counted, not timed: what the write path above the tree does per node.

Storing a document is one pass: text goes from the tokenizer into the
shredder's sink without a tree in between, a node's label is its
parent's plus one component (nothing packs a whole Dewey), the DataGuide
interns a path once per type, and nothing recurses per level.  An update
edits the stored bytes: a sibling shift builds a ``Dewey`` per reference
an op carries, none per node it renumbers, and a commit that leaves the
intern order alone reads no untouched type's sequence.
"""

import gc
import weakref

import pytest

from repro.shape.dataguide import DataGuideBuilder, walk
from repro.shape.types import TypeTable
from repro.storage import Database, InsertSubtree, ReplaceSubtree, reference_apply, tables
from repro.workloads.dblp import generate_dblp
from repro.xmltree import dewey, parse_forest, serialize
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XmlForest, XmlNode


def count_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` to count its calls; returns the call list."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.fixture
def db(tmp_path):
    with Database(str(tmp_path / "w.db"), durable=False) as database:
        yield database


def test_storing_text_builds_no_node_and_no_record(db, monkeypatch):
    text = serialize(generate_dblp(50))
    nodes = count_calls(monkeypatch, XmlNode, "__init__")
    deweys = count_calls(monkeypatch, Dewey, "__init__")
    descriptor = db.store_document("dblp", text)
    assert descriptor["nodes"] > 500
    assert len(nodes) == 0
    assert len(deweys) == 0


def test_storing_a_forest_packs_no_dewey_and_interns_once_per_type(db, monkeypatch):
    forest = generate_dblp(50)
    packs = count_calls(monkeypatch, dewey, "pack")  # repro.storage imports it nowhere by name
    interns = count_calls(monkeypatch, TypeTable, "intern")
    descriptor = db.store_document("dblp", forest)
    assert packs == []
    assert len(interns) == len(descriptor["shape"]["types"]) < 40


def test_the_dataguide_of_a_2000_deep_chain_needs_no_recursion():
    root = node = XmlNode("n")
    for _ in range(1999):
        node = node.append(XmlNode("n"))
    node.text = "leaf"
    builder = DataGuideBuilder()
    nodes = walk(XmlForest([root]), builder)
    assert len(builder.type_table) == 2000
    assert set(builder.counts) == {1}
    assert sorted(builder.edges()) == [(n, n + 1, 1, 1) for n in range(1999)]
    deepest = builder.type_table.by_id(1999)
    assert deepest.type_id in builder.has_text and nodes[deepest.type_id] == [node]


def test_a_middle_sibling_insert_builds_deweys_per_op_not_per_shifted_node(db, monkeypatch):
    db.store_document("dblp", generate_dblp(80))
    thesis = "<phdthesis><author>A</author><title>T</title></phdthesis>"
    batch = [InsertSubtree("1", thesis, position=5), InsertSubtree((1,), thesis, position=9)]
    unpacks = count_calls(monkeypatch, dewey, "unpack") + count_calls(monkeypatch, tables, "unpack")
    deweys = count_calls(monkeypatch, Dewey, "__init__")
    nodes = count_calls(monkeypatch, XmlNode, "__init__")
    result = db.apply_batch("dblp", batch)
    assert result.nodes_renumbered >= 200
    assert unpacks == []
    # A reference resolves through one Dewey; a subtree's text goes from
    # the tokenizer into the builder, which builds no node and no Dewey.
    assert len(deweys) == len(batch)
    assert nodes == []


def test_an_update_frees_the_index_it_retires_without_the_collector(db):
    """A sequence refers to its index weakly, so the two are no cycle:
    the columns and join memo of every index an update retires used to
    wait for the collector (perfbench's update-mix reads that as RSS)."""
    db.store_document("dblp", generate_dblp(30))
    db.transform("dblp", "MORPH author [ title ]").xml()
    retired = weakref.ref(db.index("dblp"))
    gc.collect()
    gc.disable()
    try:
        db.apply_batch("dblp", [InsertSubtree("1", "<article><title>t</title></article>")])
        assert retired() is None
    finally:
        gc.enable()


class TestCommitReadsTouchedTypesOnly:
    """``IncrementalUpdater.commit`` used to read the first stored chunk
    of every type the batch had not touched."""

    def store(self, db):
        forest = generate_dblp(60)
        db.store_document("dblp", forest)
        by_name = {".".join(path): type_id for type_id, path in self.shape(db)["types"]}
        return forest, by_name

    @staticmethod
    def shape(db):
        doc_id = db.describe("dblp")["doc_id"]
        return tables.read_shape(db.tree, doc_id, "dblp").descriptor()

    @staticmethod
    def types_read(reads):
        return {type_id for _tree, _doc, type_id in reads}

    def test_an_append_reads_the_types_it_adds_to(self, db, monkeypatch):
        _forest, by_name = self.store(db)
        reads = count_calls(monkeypatch, tables, "sequence_entries")
        thesis = "<phdthesis><author>A</author><title>T</title></phdthesis>"
        result = db.apply_batch("dblp", [InsertSubtree("1", thesis)])
        assert result.type_ids_remapped == 0
        # One more phdthesis: its own sequence, its children's, and — their
        # edge from a parent type that grew is re-derived — their siblings'.
        assert self.types_read(reads) == {
            type_id for name, type_id in by_name.items() if name.startswith("dblp.phdthesis")
        }
        assert len(reads) == 6

    def test_a_replace_in_place_reads_the_types_it_swaps(self, db, monkeypatch):
        forest, by_name = self.store(db)
        target = forest.roots[0].children[2]
        assert target.name == "article"
        touched = {by_name["dblp.article." + child.name] for child in target.children}
        touched.add(by_name["dblp.article"])
        reads = count_calls(monkeypatch, tables, "sequence_entries")
        same_shape = serialize(target).replace("</title>", " (2nd ed.)</title>")
        result = db.apply_batch("dblp", [ReplaceSubtree(str(target.dewey), same_shape)])
        assert result.type_ids_remapped == 0
        assert self.types_read(reads) == touched
        assert len(self.shape(db)["types"]) > 2 * len(touched)

    def test_a_new_first_of_its_type_still_remaps(self, db, tmp_path):
        forest, by_name = self.store(db)
        assert by_name["dblp.phdthesis"] > by_name["dblp.article"]
        thesis = "<phdthesis><title>First</title></phdthesis>"
        batch = [InsertSubtree("1", thesis, position=1)]
        result = db.apply_batch("dblp", batch)
        assert result.type_ids_remapped > 0
        shape = self.shape(db)
        assert shape["types"][1] == [1, ["dblp", "phdthesis"]]
        with Database(str(tmp_path / "reshred.db"), durable=False) as again:
            again.store_document("dblp", reference_apply(parse_forest(serialize(forest)), batch))
            assert self.shape(again) == shape


class TestUpdatesReadAndWriteWhatTheyChange:
    """A sibling count is one backward seek, not a probe per ordinal, and
    a commit writes a touched type's chunks from the first one an edit
    can have changed: the leading ones keep their keys and bytes."""

    ARTICLE = "<article><author>A</author><title>T</title><year>2001</year></article>"

    @staticmethod
    def sequence_chunks(db):
        """``{type id: {chunk number: bytes}}`` of the stored sequences."""
        chunks = {}
        for key, value in db.tree.scan_prefix(b"T"):
            type_id, chunk_no = int.from_bytes(key[5:9], "big"), int.from_bytes(key[9:], "big")
            chunks.setdefault(type_id, {})[chunk_no] = value
        return chunks

    @staticmethod
    def sequence_writes(db, monkeypatch):
        """The ``T`` keys the next batch puts or deletes, as
        ``(type id, chunk number)`` pairs."""
        writes, deletes = [], []
        put_many, delete = db.tree.put_many, db.tree.delete

        def key_of(key):
            return int.from_bytes(key[5:9], "big"), int.from_bytes(key[9:], "big")

        def counting_put_many(items):
            run = list(items)
            writes.extend(key_of(key) for key, _value in run if key[:1] == b"T")
            return put_many(run)

        def counting_delete(key):
            if key[:1] == b"T":
                deletes.append(key_of(key))
            return delete(key)

        monkeypatch.setattr(db.tree, "put_many", counting_put_many)
        monkeypatch.setattr(db.tree, "delete", counting_delete)
        return writes, deletes

    @classmethod
    def reshred_chunks(cls, tmp_path, forest, batch):
        with Database(str(tmp_path / "reshred.db"), durable=False) as again:
            again.store_document("dblp", reference_apply(parse_forest(serialize(forest)), batch))
            return cls.sequence_chunks(again)

    def test_an_append_counts_the_roots_children_in_one_descent(self, db, monkeypatch):
        from repro.storage.update import IncrementalUpdater

        db.store_document("dblp", generate_dblp(200))
        depth = len(db.tree._descend(b"N")[1])
        counted = []
        child_count = IncrementalUpdater._child_count

        def counting(updater, parent):
            reads = db.stats.counter("btree.page_reads")
            count = child_count(updater, parent)
            counted.append((count, db.stats.counter("btree.page_reads") - reads))
            return count

        monkeypatch.setattr(IncrementalUpdater, "_child_count", counting)
        db.apply_batch("dblp", [InsertSubtree("1", self.ARTICLE)])
        db.apply_batch("dblp", [InsertSubtree(None, self.ARTICLE)])
        # Probing ordinals 1, 2, 4, ..., 256 and bisecting back to 200
        # took 16 point reads at the root.
        assert counted == [(200, depth), (1, depth)]

    def test_an_append_writes_only_each_touched_types_last_chunk(self, db, monkeypatch, tmp_path):
        forest = generate_dblp(400)
        db.store_document("dblp", forest)
        before = self.sequence_chunks(db)
        writes, deletes = self.sequence_writes(db, monkeypatch)
        batch = [InsertSubtree("1", self.ARTICLE)]
        result = db.apply_batch("dblp", batch)
        assert result.type_ids_remapped == 0 and result.types_rewritten == 4
        assert deletes == []
        written = {}
        for type_id, chunk_no in writes:
            written.setdefault(type_id, []).append(chunk_no)
        assert len(written) == 4
        for type_id, chunk_numbers in written.items():
            assert chunk_numbers == [len(before[type_id]) - 1]
        assert max(len(before[type_id]) for type_id in written) >= 3
        assert self.sequence_chunks(db) == self.reshred_chunks(tmp_path, forest, batch)

    def test_a_replace_in_the_middle_keeps_the_leading_chunks(self, db, monkeypatch, tmp_path):
        forest = generate_dblp(400)
        db.store_document("dblp", forest)
        target = forest.roots[0].children[300]
        longer = serialize(target).replace("</title>", " (2nd ed.)</title>")
        writes, deletes = self.sequence_writes(db, monkeypatch)
        batch = [ReplaceSubtree(str(target.dewey), longer)]
        result = db.apply_batch("dblp", batch)
        assert result.type_ids_remapped == 0
        assert deletes == []
        # The chunks before each type's first written one are the stored ones.
        kept = {}
        for type_id, chunk_no in writes:
            kept[type_id] = min(chunk_no, kept.get(type_id, chunk_no))
        assert sum(kept.values()) >= 4
        assert self.sequence_chunks(db) == self.reshred_chunks(tmp_path, forest, batch)
