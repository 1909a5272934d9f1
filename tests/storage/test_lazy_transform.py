"""A transform plans now and renders when the result is read.

``Interpreter.transform`` and ``Database.transform`` hand back the same
kind of result, so the lifecycle tests take either (the ``planned``
fixture).  What that laziness must not change: the bytes and the
counters (the first read renders and counts, whichever sink it runs) —
and what a stored result must add: a result still unread when its document is updated or dropped,
or its handle closed, refuses with ``XM570`` instead of rendering an old
plan over new pages.
"""

import pytest

from repro import Interpreter, obs
from repro.engine.compile import CompiledRender
from repro.errors import RetiredDocumentError, StorageError
from repro.storage import Database, InsertSubtree
from repro.workloads import generate_dblp
from repro.xmltree.serializer import serialize

GUARD = "CAST MORPH author [ title [ year ] ]"


@pytest.fixture
def db(tmp_path):
    database = Database(str(tmp_path / "lazy.db"), durable=False)
    database.store_document("dblp", generate_dblp(30))
    yield database
    database.close()


@pytest.fixture(params=["database", "interpreter"])
def planned(request, db):
    """A maker of cold, unread results of ``GUARD`` over one document."""
    if request.param == "database":

        def plan():
            db.drop_cache()
            return db.transform("dblp", GUARD)

        return plan
    forest = generate_dblp(30)
    return lambda: Interpreter(forest).transform(GUARD)


@pytest.fixture
def tree_renders(monkeypatch):
    """The indexes ``CompiledRender.run`` (the tree sink) rendered."""
    runs = []
    real = CompiledRender.run
    monkeypatch.setattr(
        CompiledRender, "run", lambda self, index: runs.append(index) or real(self, index)
    )
    return runs


class TestRendersOnFirstRead:
    def test_transform_reads_no_sequence(self, db):
        db.drop_cache()
        result = db.transform("dblp", GUARD)
        assert not db.index("dblp")._sequences
        assert result.render_counts is None and result.render_seconds == 0.0
        assert result.xml()
        assert db.index("dblp")._sequences

    def test_unread_until_the_first_read(self, planned, tree_renders):
        result = planned()
        assert result.source is not None
        assert result.render_counts is None and result.render_seconds == 0.0
        assert result.xml() == result.xml()
        assert result.render_counts is not None and result.render_seconds > 0
        assert tree_renders == []

    def test_the_tree_renders_once(self, planned, tree_renders):
        result = planned()
        forest = result.forest
        assert result.rendered.forest is forest
        assert result.xml(indent=2) == serialize(forest, indent=2)
        assert result.xml() == serialize(forest)
        assert tree_renders == [result.source]

    def test_xml_first_and_forest_first_agree(self, planned):
        outcomes = []
        for tree_first in (False, True):
            result = planned()
            with obs.tracing() as first_read:
                if tree_first:
                    forest = result.forest
                else:
                    text = result.xml()
            with obs.tracing() as second_read:
                if tree_first:
                    text = result.xml()
                else:
                    forest = result.forest
            assert result.xml() == text == serialize(forest)
            assert result.forest is forest
            rendered = result.rendered
            assert result.render_counts == (
                rendered.nodes_written,
                rendered.nodes_read,
                rendered.joins,
            )
            assert result.render_seconds > 0
            # The first read renders once and counts what it emitted, by
            # whichever sink; xml() of a built tree only serializes it.
            emitted = first_read.metrics.counter("render.nodes_emitted")
            assert emitted == rendered.nodes_written
            if tree_first:
                assert second_read.metrics.counter("render.nodes_emitted") == 0
            outcomes.append((text, result.render_counts, emitted))
        assert outcomes[0] == outcomes[1]

    def test_both_text_sink_routes_count_the_same(self, tmp_path):
        """``xml()`` and ``stream_transform`` render one plan into one
        sink; on fresh handles they read, emit and join the same."""
        import io

        path = str(tmp_path / "routes.db")
        with Database(path, durable=False) as db:
            db.store_document("dblp", generate_dblp(50))

        def streamed(db):
            out = io.StringIO()
            db.stream_transform("dblp", GUARD, out)
            return out.getvalue()

        counted, texts = [], []
        for route in (lambda db: db.transform("dblp", GUARD).xml(), streamed):
            with Database(path, durable=False) as db, obs.tracing() as tracer:
                texts.append(route(db))
            counted.append(
                {
                    name: tracer.metrics.counter(name)
                    for name in (
                        "render.nodes_emitted",
                        "render.nodes_read",
                        "render.joins",
                        "storage.blocks_read",
                    )
                }
            )
        assert texts[0] == texts[1]
        assert counted[0] == counted[1]
        assert counted[0]["render.nodes_emitted"] > 0 and counted[0]["storage.blocks_read"] > 0

    def test_indented_xml_is_the_serialized_tree(self, planned):
        result = planned()
        indented = result.xml(indent=2)
        assert indented == serialize(result.forest, indent=2)
        assert indented != result.xml()

    def test_compile_only_result_stays_unrendered(self, db):
        checked = Interpreter(db.index("dblp")).compile(GUARD)
        assert checked.rendered is None
        with pytest.raises(ValueError):
            checked.xml()


CHANGES = {
    "updated": lambda db: db.apply_batch(
        "dblp", [InsertSubtree("1", "<article><author>Zed</author><title>New</title></article>")]
    ),
    "dropped": lambda db: db.drop_document("dblp"),
    "closed": lambda db: db.close(),
}


def _rolled_back_batch(db):
    with pytest.raises(StorageError):
        db.apply_batch("dblp", [InsertSubtree("1.99.99", "<x/>")])


#: What drops the registered index without changing the document: the
#: result's index is then one the database no longer knows about.
ORPHANINGS = {
    "registered": lambda db: None,
    "drop_cache": lambda db: db.drop_cache(),
    "rollback": _rolled_back_batch,
}


@pytest.mark.parametrize("reason", sorted(CHANGES))
class TestRetiredDocument:
    @pytest.mark.parametrize("orphaning", sorted(ORPHANINGS))
    def test_unread_result_refuses(self, tmp_path, reason, orphaning):
        db = Database(str(tmp_path / "r.db"), durable=False)
        try:
            db.store_document("dblp", generate_dblp(30))
            unread = db.transform("dblp", GUARD)
            ORPHANINGS[orphaning](db)
            CHANGES[reason](db)
            for touch in (unread.xml, lambda: unread.forest, lambda: unread.xml(indent=2)):
                with pytest.raises(RetiredDocumentError) as excinfo:
                    touch()
                assert excinfo.value.code == "XM570"
                assert reason in str(excinfo.value)
        finally:
            if reason != "closed":
                db.close()

    def test_rendered_result_still_answers(self, tmp_path, reason):
        db = Database(str(tmp_path / "r.db"), durable=False)
        try:
            db.store_document("dblp", generate_dblp(30))
            read = db.transform("dblp", GUARD)
            text = read.xml()
            CHANGES[reason](db)
            # Every sequence the plan needs was loaded before the change:
            # a consistent snapshot, so even the tree can still be built.
            assert read.xml() == text
            assert serialize(read.forest) == text
            if reason == "updated":
                assert db.transform("dblp", GUARD).xml() != text
        finally:
            if reason != "closed":
                db.close()


class TestUnchangedDocumentKeepsAnswering:
    """``drop_cache`` and a rolled-back batch leave the document as it
    was: a result planned before them reloads and renders the same."""

    @pytest.mark.parametrize("orphaning", ["drop_cache", "rollback"])
    def test_unread_result_reloads(self, db, orphaning):
        expected = db.transform("dblp", GUARD).xml()
        unread = db.transform("dblp", GUARD)
        ORPHANINGS[orphaning](db)
        assert unread.xml() == expected

    def test_restored_name_is_a_new_document(self, db):
        unread = db.transform("dblp", GUARD)
        db.drop_cache()
        db.drop_document("dblp")
        db.store_document("dblp", generate_dblp(12))
        with pytest.raises(RetiredDocumentError):
            unread.xml()
        assert db.transform("dblp", GUARD).xml()

    def test_read_result_cannot_reload_changed_pages(self, db):
        read = db.transform("dblp", GUARD)
        text = read.xml()
        db.drop_cache()
        CHANGES["updated"](db)
        assert read.xml() == text
        with pytest.raises(RetiredDocumentError):
            serialize(read.forest)


@pytest.mark.parametrize("orphaning", ["drop_cache", "rollback"])
def test_sequence_outliving_its_index_is_retired(db, orphaning):
    """A sequence holds its index weakly: once the handle lets the index
    go, asking the sequence for nodes is ``XM570``, not a bare
    ``ReferenceError`` from a dead weak reference."""
    author = db.index("dblp").type_table.match_label("author")[0]
    sequence = db.index("dblp").nodes_of(author)
    ORPHANINGS[orphaning](db)
    assert len(sequence) > 0
    with pytest.raises(RetiredDocumentError) as excinfo:
        list(sequence)
    assert excinfo.value.code == "XM570"
    assert "'dblp'" in str(excinfo.value)
