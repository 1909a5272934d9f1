"""No format change: a store's bytes are pinned, corpus by corpus.

For every corpus below, the keys and values stored from text (tokenizer
→ sink) and from a forest (walk → sink) are equal, byte for byte — the
catalog record modulo ``shred_seconds`` — and hash to a digest committed
here.  The store is ``fsck``-clean, and an update batch on top matches a
re-shred and its own digest.

Two digests per store.  The one over every entry changes only with the
format: these were taken when the page trailer became ``XPG3`` and the
shape record (``S``) became columns; regenerate them in the PR that
bumps the format again, from ``digest(entries(db))``.  The one over
every entry but the ``S`` records is older: it was what the live
shredder and updater wrote at commit b4db01c, held to the frozen
three-walk shredder of commit 634eb68, and the ``XPG3`` change kept it.
"""

import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro.storage import Database, InsertSubtree, ReplaceSubtree, reference_apply
from repro.storage.fsck import fsck
from repro.workloads.dblp import generate_dblp_xml
from repro.workloads.nasa import generate_nasa_xml
from repro.workloads.xmark import generate_xmark_xml
from repro.xmltree import parse_forest, serialize

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


#: ``digest(entries(db))`` per corpus, as shredded in the ``XPG3`` format.
SHREDDED = {
    "dblp": "b4d4ecc2b6391877448bc033ebb853c2aa6e29f9d063fde210fcd4cca1f49be4",
    "xmark": "68656ca7f16b11aaef9a272f4a7a36ada8b661c0d71193a043f9a8adbc6b3ed1",
    "nasa": "9bc251139a575da4876ffc321c4f5e4097481be471674f36af7f0cb39c7dd25b",
    "multi-root": "19249936c36d0a45b62c3e4f869f0fc08242a79aa050b688ebe58026e69e8b87",
    "overflow": "3e36b1d94e977a5e1ad6094ae992955c7bc81bddd911aabf54a051193de7ba88",
}
#: The same after ``BATCH`` on top.
UPDATED = {
    "dblp": "68b8b930da81104ac7c203179ba81fedf262d400adf543439839220fafee1014",
    "multi-root": "f206cc4f2fe5299d3af7940c46dd8240ca5627e44c65cbb26bec6155741e6e80",
    "overflow": "1979bcd6b5c5130fc18d0113a5978349a86286b7a788f7b00f14b07a24622a1b",
}
#: ``digest`` of every entry but the ``S`` records, shredded and then
#: updated, as at commit b4db01c.
SHREDDED_BESIDE_SHAPES = {
    "dblp": "7a621d2ce46efbd5e7207d85dce9fa9e3500d509dca852fad813cf78cc766352",
    "xmark": "9fea0399aef87ed6d8364c4418226ae84ff4eb7b21c8d5c19d7258392c6e8228",
    "nasa": "7db27bd9c8cd1b9e91b92898fc83ddad8078cf71e27cf7cd964ed607d69aad53",
    "multi-root": "6a3cc8c0dee17c381950b96b974e93d1ffc3a3979ec81f5d1fa48aa1743fd078",
    "overflow": "3a3e5673bfa9ed4cedbae2da0656743768fb3725c48c7c1c4262581d21be52c6",
}
UPDATED_BESIDE_SHAPES = {
    "dblp": "571412c0562f8dc1e85e04b5be66d9fb987ed62a258d08e9f56380a9e2601a92",
    "multi-root": "617477ced2555609a430928a997e4cc389c362b05027b889864a78195f99483d",
    "overflow": "1c81867ec3a3e691c20d47376f62138c06bf8f24ebeb440ebccbe60333724fe3",
}
BATCH = [
    InsertSubtree("1", "<extra k='v'><title>new</title></extra>"),
    ReplaceSubtree("1.1", "<swapped>" + "x" * 4000 + "</swapped>"),
]


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


def beside_shapes(found):
    """The entries but the shape records."""
    return [(key, value) for key, value in found if key[:1] != b"S"]


def written(path, source, batch=()):
    with Database(str(path), durable=False) as db:
        db.store_document("doc", source)
        if batch:
            db.apply_batch("doc", list(batch))
        found = entries(db)
    assert fsck(str(path)).ok
    return found


def digest(found):
    """sha256 over every entry, each key and value behind its length."""
    sha = hashlib.sha256()
    for key, value in found:
        sha.update(len(key).to_bytes(4, "big") + key + len(value).to_bytes(4, "big") + value)
    return sha.hexdigest()


@pytest.mark.parametrize("name", CORPORA)
def test_text_forest_and_parent_shredder_store_the_same_bytes(tmp_path, name):
    text = CORPORA[name]
    from_text = written(tmp_path / "text.db", text)
    from_forest = written(tmp_path / "forest.db", parse_forest(text))
    assert [key for key, _ in from_text] == [key for key, _ in from_forest]
    assert from_text == from_forest
    assert digest(from_text) == SHREDDED[name]
    assert digest(beside_shapes(from_text)) == SHREDDED_BESIDE_SHAPES[name]
    assert {key[:1] for key, _ in from_text} >= {b"D", b"N", b"S", b"T"}


def test_the_overflow_corpus_overflows(tmp_path):
    keys = [key for key, _ in written(tmp_path / "v.db", CORPORA["overflow"])]
    assert sum(key[:1] == b"V" for key in keys) == 3  # the text's two, the note's one


def test_positions_not_stale_deweys_number_a_forest(tmp_path):
    """A hand-built (or edited, not renumbered) forest stores by position."""
    forest = parse_forest("<r><a>1</a><b>2</b><c>3</c></r>")
    root = forest.roots[0]
    root.children.reverse()  # the nodes keep their old deweys
    stale = written(tmp_path / "stale.db", forest)
    assert stale == written(tmp_path / "text.db", "<r><c>3</c><b>2</b><a>1</a></r>")


@pytest.mark.parametrize("name", UPDATED)
def test_an_update_on_top_still_matches_a_reshred(tmp_path, name):
    text = CORPORA[name]
    updated = written(tmp_path / "updated.db", text, BATCH)
    expected = reference_apply(parse_forest(text), list(BATCH))
    assert updated == written(tmp_path / "reshred.db", expected)
    assert digest(updated) == UPDATED[name]
    assert digest(beside_shapes(updated)) == UPDATED_BESIDE_SHAPES[name]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(forest=documents())
def test_generated_documents_store_the_same_bytes(tmp_path_factory, forest):
    scratch = tmp_path_factory.mktemp("identity")
    text = serialize(forest)
    # Parsing normalizes white-space-only text, so the text route is
    # held to the forest route over the same text, parsed.
    from_text = written(scratch / "text.db", text)
    assert from_text == written(scratch / "parsed.db", parse_forest(text))
