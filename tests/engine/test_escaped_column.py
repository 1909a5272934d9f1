"""The escaped column's lifetime: built once per load, never stale.

The text sink writes a node's text from its sequence's ``escaped``
column (:attr:`repro.closeness.index.TypeSequence.escaped`).  These
tests count the column builds: warm renders of one plan reuse the
column, ``drop_cache()`` makes the next render build it afresh, and an
update's reloaded sequences escape their new text.
"""

import pytest

from repro.closeness import index as closeness_index
from repro.storage import Database
from repro.storage.update import ReplaceSubtree

DOCUMENT = (
    "<lib><book><title>A &amp; B</title><year>1999</year></book>"
    "<book><title>C</title><year>2001</year></book></lib>"
)
GUARD = "CAST MORPH title [ year ]"


@pytest.fixture
def builds(monkeypatch):
    """The value lists the index escapes into columns while the test runs."""
    calls = []
    escape = closeness_index.escape_texts

    def counting(values):
        calls.append(values)
        return escape(values)

    monkeypatch.setattr(closeness_index, "escape_texts", counting)
    return calls


@pytest.fixture
def db(tmp_path):
    with Database(str(tmp_path / "lib.db"), durable=False) as database:
        database.store_document("lib", DOCUMENT)
        yield database


def fetched_columns(db) -> dict[str, list[str]]:
    """The escaped column of every sequence the plan's text sink reads."""
    index = db.index("lib")
    plans = db.transform("lib", GUARD).compiled_render.edge_plans
    sources = {plan["source"] for plan in plans if plan["source"] is not None}
    return {
        data_type.dotted: index.nodes_of(data_type).escaped
        for data_type in index.types()
        if data_type.dotted in sources
    }


def test_warm_renders_share_one_column(db, builds):
    first = db.transform("lib", GUARD).xml()
    columns = fetched_columns(db)
    assert len(builds) == len(columns) == 2

    second = db.transform("lib", GUARD).xml()
    assert second == first == (
        "<title>A &amp; B<year>1999</year></title>\n<title>C<year>2001</year></title>"
    )
    assert len(builds) == 2
    for name, column in fetched_columns(db).items():
        assert column is columns[name]


def test_drop_cache_builds_a_fresh_column(db, builds):
    first = db.transform("lib", GUARD).xml()
    columns = fetched_columns(db)

    db.drop_cache()
    assert db.transform("lib", GUARD).xml() == first
    assert len(builds) == 4
    for name, column in fetched_columns(db).items():
        assert column is not columns[name]
        assert column == columns[name]


def test_read_after_write_escapes_the_new_text(db):
    assert "<title>C<year>" in db.transform("lib", GUARD).xml()
    db.apply_batch("lib", [ReplaceSubtree("1.2.1", "<title>a&lt;b</title>")])
    output = db.transform("lib", GUARD).xml()
    assert "<title>a&lt;b<year>2001</year></title>" in output
    assert "<title>C<year>" not in output
