"""Counted, not timed: what storing and reading a document cost the B+tree.

A shredded document arrives as one sorted run, so every page on its way
is decoded once per run — not once per key — and the leaves the run
fills are written packed.  A read decodes an internal page once per
residency, not once per descent.
"""

import pytest

from repro.storage import Database, btree, tables
from repro.storage.pages import PAGE_SIZE
from repro.workloads.dblp import generate_dblp


@pytest.fixture
def decodes(monkeypatch):
    """Page ids ``btree._read_node`` decoded, in order (a node the pool
    kept decoded is not decoded again, so it is not counted)."""
    seen: list[int] = []
    read_node = btree._read_node

    def counting(pool, page_id):
        seen.append(page_id)
        return read_node(pool, page_id)

    monkeypatch.setattr(btree, "_read_node", counting)
    return seen


@pytest.mark.parametrize("publications", [40, 160])
def test_storing_decodes_no_more_pages_than_the_file_has(tmp_path, decodes, publications):
    forest = generate_dblp(publications)
    with Database(str(tmp_path / "c.db")) as db:
        nodes = db.store_document("dblp", forest)["nodes"]
        assert nodes > 10 * publications
        # Per-key descents decoded ~1.8 pages per key; a run decodes the
        # pages it passes once, whatever the document's size.
        assert len(decodes) <= db.pool.file.page_count
        assert len(decodes) < nodes // 20


def test_a_cold_transform_decodes_the_root_once(tmp_path, decodes):
    with Database(str(tmp_path / "r.db")) as db:
        db.store_document("dblp", generate_dblp(160))
        assert len(db.tree._descend(b"")[1]) == 2
        db.drop_cache()
        decodes.clear()
        assert db.transform("dblp", "MORPH author [ title [ year ] ]").xml()
        # The catalog, the shape and every sequence are separate descents
        # through the root; the pool keeps its decode while it stays
        # resident, so only the first of them pays for it.
        assert len(set(decodes)) > 5
        assert decodes.count(db.tree._root) == 1


def test_a_runs_leaves_are_packed(tmp_path):
    with Database(str(tmp_path / "f.db")) as db:
        doc_id = db.store_document("dblp", generate_dblp(160))["doc_id"]
        prefix = tables.nodes_prefix(doc_id)
        fills = []
        for page_id in range(1, db.pool.file.page_count):
            node = btree._read_node(db.pool, page_id)
            if node.kind == btree._LEAF and all(k.startswith(prefix) for k in node.keys):
                size = btree._HEADER.size + sum(map(len, btree._encode_entries(node)))
                fills.append(size / PAGE_SIZE)
        # Sequential single puts half-split every leaf (~0.5 full).  One
        # leaf still is: the catalog record is written after the run, into
        # the packed first leaf, and splits it.
        fills.sort()
        assert len(fills) >= 10
        assert fills[1] >= 0.9


def test_a_cold_transform_makes_the_types_its_guard_reaches(tmp_path, monkeypatch):
    # Opening a stored document decodes its shape into arrays; a vertex
    # and a data type are made when a guard reaches their type.
    from repro.closeness import DocumentIndex
    from repro.shape.types import DataType, ShapeType
    from repro.workloads.xmark import generate_xmark

    made = {DataType: 0, ShapeType: 0}
    for cls in made:
        init = cls.__init__

        def counting(self, *args, _cls=cls, _init=init, **kwargs):
            _init(self, *args, **kwargs)
            # A target type is made from a source vertex (its origin).
            if _cls is DataType or (self.source is not None and self.origin is None):
                made[_cls] += 1

        monkeypatch.setattr(cls, "__init__", counting)
    forest = generate_xmark(0.002)
    with Database(str(tmp_path / "x.db"), durable=False) as db:
        db.store_document("xmark", forest)
        db.drop_cache()
        made.update(dict.fromkeys(made, 0))
        guard = "CAST MORPH person [ name [ emailaddress [ phone ] ] ]"
        assert db.transform("xmark", guard).xml()
        index = db.index("xmark")
        types = len(index.type_table)
        assert types == 283
        assert 0 < made[DataType] < types / 10
        assert 0 < made[ShapeType] < types / 10
        vertices = index.shape.types()
        assert len(vertices) == types
        assert [vertex.source for vertex in vertices] == list(index.type_table)
        assert index.shape.fingerprint() == DocumentIndex(forest).shape.fingerprint()
