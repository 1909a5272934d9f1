"""The one-pass shredder writes what the three-walk shredder wrote.

No format change: for every corpus below, the keys and values stored
from text (tokenizer → sink), from a forest (walk → sink) and by the
frozen parent shredder (``parent_shredder.shred``) are equal, byte for
byte — the catalog record modulo ``shred_seconds`` — the store is
``fsck``-clean, and an update batch on top still matches a re-shred.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro.storage import Database, InsertSubtree, ReplaceSubtree, database, reference_apply
from repro.storage.fsck import fsck
from repro.workloads.dblp import generate_dblp_xml
from repro.workloads.nasa import generate_nasa_xml
from repro.workloads.xmark import generate_xmark_xml
from repro.xmltree import parse_forest, serialize

from tests.storage import parent_shredder
from tests.strategies import documents

CORPORA = {
    "dblp": generate_dblp_xml(40, seed=11),
    "xmark": generate_xmark_xml(0.0004, seed=12),
    "nasa": generate_nasa_xml(8, seed=13),
    "multi-root": "<a x='1'>t<b/>u</a><c><d>v</d></c><a><b>w</b></a>",
    # Attributes, and a text of two overflow chunks (> 3,200 bytes).
    "overflow": (
        "<r id='r1'><t lang='en' note='" + "n" * 1600 + "'>"
        + "wörd " * 900 + "</t><t lang='de'>kurz</t></r>"
    ),
}


def entries(db):
    """Every key and value in the store, the catalog's timing dropped."""
    found = []
    for key, value in db.tree.scan_prefix(b""):
        value = bytes(value)
        if key[:1] == b"D":
            descriptor = json.loads(value)
            del descriptor["shred_seconds"]
            value = json.dumps(descriptor).encode()
        found.append((bytes(key), value))
    return found


def written(path, source, batch=()):
    with Database(str(path), durable=False) as db:
        db.store_document("doc", source)
        if batch:
            db.apply_batch("doc", list(batch))
        found = entries(db)
    assert fsck(str(path)).ok
    return found


@pytest.fixture
def parent_shred(monkeypatch):
    """``Database.store_document`` through the parent's shredder."""

    return lambda: monkeypatch.setattr(database, "shred", parent_shredder.shred)


@pytest.mark.parametrize("name", CORPORA)
def test_text_forest_and_parent_shredder_store_the_same_bytes(tmp_path, parent_shred, name):
    text = CORPORA[name]
    from_text = written(tmp_path / "text.db", text)
    from_forest = written(tmp_path / "forest.db", parse_forest(text))
    parent_shred()
    from_parent = written(tmp_path / "parent.db", parse_forest(text))
    assert [key for key, _ in from_text] == [key for key, _ in from_parent]
    assert from_text == from_parent
    assert from_forest == from_parent
    assert {key[:1] for key, _ in from_parent} >= {b"D", b"N", b"S", b"T"}


def test_the_overflow_corpus_overflows(tmp_path):
    keys = [key for key, _ in written(tmp_path / "v.db", CORPORA["overflow"])]
    assert sum(key[:1] == b"V" for key in keys) == 3  # the text's two, the note's one


def test_positions_not_stale_deweys_number_a_forest(tmp_path, parent_shred):
    """A hand-built (or edited, not renumbered) forest stores by position."""
    forest = parse_forest("<r><a>1</a><b>2</b><c>3</c></r>")
    root = forest.roots[0]
    root.children.reverse()  # the nodes keep their old deweys
    stale = written(tmp_path / "stale.db", forest)
    assert stale == written(tmp_path / "text.db", "<r><c>3</c><b>2</b><a>1</a></r>")


@pytest.mark.parametrize("name", ["dblp", "multi-root", "overflow"])
def test_an_update_on_top_still_matches_a_reshred(tmp_path, parent_shred, name):
    text = CORPORA[name]
    batch = [
        InsertSubtree("1", "<extra k='v'><title>new</title></extra>"),
        ReplaceSubtree("1.1", "<swapped>" + "x" * 4000 + "</swapped>"),
    ]
    updated = written(tmp_path / "updated.db", text, batch)
    expected = reference_apply(parse_forest(text), list(batch))
    parent_shred()
    assert updated == written(tmp_path / "reshred.db", expected)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(forest=documents())
def test_generated_documents_store_the_same_bytes(tmp_path_factory, forest):
    scratch = tmp_path_factory.mktemp("identity")
    text = serialize(forest)
    from_forest = written(scratch / "forest.db", forest)
    from_text = written(scratch / "text.db", text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(database, "shred", parent_shredder.shred)
        assert from_forest == written(scratch / "parent.db", forest)
        # Parsing normalizes white-space-only text, so the text route is
        # held to the parent's shred of the same text, parsed.
        assert from_text == written(scratch / "parsed.db", parse_forest(text))
