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
    result = db.apply_batch("dblp", batch)
    assert result.nodes_renumbered >= 200
    assert unpacks == []
    # A reference resolves through one Dewey; parsing a subtree's text
    # numbers its root with another.
    assert len(deweys) == 2 * len(batch)


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
        return tables.decode_shape(tables.load_chunks(db.tree, tables.shape_prefix(doc_id)))

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
