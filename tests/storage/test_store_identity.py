"""No format change: a store's bytes are pinned, corpus by corpus.

For every corpus below, the keys and values stored from text (tokenizer
→ sink) and from a forest (walk → sink) are equal, byte for byte — the
catalog record modulo ``shred_seconds`` — and hash to a digest committed
here.  The digests were computed at commit b4db01c, where the live
shredder was held to the frozen three-walk shredder of commit 634eb68
and the updater still built a record object per node: they are what
both wrote.  The store is ``fsck``-clean, and an update batch on top
matches a re-shred and its own digest from the same commit.  A digest
changes only with the format (``XPG2``): regenerate them in the PR that
bumps it, from ``digest(entries(db))``.
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


#: ``digest(entries(db))`` per corpus, as shredded at commit b4db01c.
SHREDDED = {
    "dblp": "4a3b7ce6336eefed37318d12982b25f76cbe0e60b83b915a2699bab48cac9f82",
    "xmark": "05368fd8d6fdc68600eba9e42c66311464edab1fb83b7138a293eda4cef50399",
    "nasa": "a7f7066f44a81e84cfd2deadfabae079a4fead07464c7a5d784052ae6bda0da3",
    "multi-root": "f5b7e16a96086ad31b95cb71d85ce254ec4eed18f9787e213d711732698c2167",
    "overflow": "9d0aaa546dd2c1ca12dab7e2946989201c3759743c8261d0a08eb3c25a93c5bf",
}
#: The same after ``BATCH`` on top, as updated at commit b4db01c.
UPDATED = {
    "dblp": "a833af30b8daef2b4aa9c8cc5ddb38be8a9cb2d577e2296620819e4c92730c09",
    "multi-root": "e46e7c2e0c19f4222d09e84bfb6835d0ff45d5c892d0830dd8e35122f8ba7101",
    "overflow": "d8998d02e63237c74bb727ae0d9fd817904a83f14676c49ce96a0f039df5275f",
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
