"""Property-based parity for random interleaved edit sequences.

Hypothesis drives random documents through random batches of insert /
delete / replace operations and pins four properties simultaneously:

* **Byte parity** — the incrementally-updated store equals a fresh
  re-shred of :func:`repro.storage.update.reference_apply`'s output,
  record for record (the same oracle as ``test_update_parity``).
* **Fingerprint agreement** — via the catalog comparison.
* **fsck cleanliness** — the updated store passes the offline integrity
  check (checksums, catalog/table cross-checks) after closing.
* **Compiled/reference render agreement** — the incremental database
  renders through its plans' compiled emitters, the oracle through
  ``tests.engine.oracle.reference_render`` over the re-shredded store's
  index; their guard outputs must be canonically equal.

Operation *seeds* (abstract indices) are materialized into concrete
Dewey-addressed operations against a simulation of the evolving
document, so every generated op is valid by construction and each op
addresses the state left by the previous one.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine.interpreter import Interpreter
from repro.errors import StorageError, XMorphError
from repro.storage import (
    Database,
    DeleteSubtree,
    InsertSubtree,
    ReplaceSubtree,
    fsck,
    reference_apply,
)
from repro.xmltree import dewey as labels, serialize
from repro.xmltree.node import NodeKind, XmlForest, element

from tests.engine.oracle import reference_render
from tests.storage.test_update_parity import snapshot
from tests.strategies import (
    TAGS,
    _SKEWED_VALUES,
    documents,
    skewed_documents,
    xml_trees,
)

# (kind, target index, position index, subtree, as text) — indices are
# reduced modulo the live node/slot count at materialization time; the
# subtree goes in as its node, or as its serialized text (the builder's
# two feeds: walk and the tokenizer).
op_seeds = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "replace"]),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        xml_trees(max_depth=2, max_children=2, values=_SKEWED_VALUES),
        st.booleans(),
    ),
    min_size=1,
    max_size=5,
)

base_documents = st.one_of(
    documents(max_depth=3, max_children=3),
    documents(max_depth=2, max_children=3, attributes=True),
    skewed_documents(max_depth=2),
)


def _copy(forest: XmlForest) -> XmlForest:
    return XmlForest([root.copy_subtree() for root in forest.roots]).renumber()


def materialize(seeds, base: XmlForest):
    """Turn abstract seeds into concrete, valid, Dewey-addressed ops.

    A simulation copy of the document evolves alongside, so each op's
    address is resolved against the state the previous ops left —
    exactly the batch semantics of ``apply_batch``.
    """
    sim = _copy(base)
    ops = []
    for kind, a, b, subtree, as_text in seeds:
        if as_text:
            subtree = serialize(subtree)
        nodes = list(sim.iter_nodes())
        target = nodes[a % len(nodes)]
        if kind == "insert":
            # An attribute takes no children: both engines refuse it.
            elements = [node for node in nodes if node.kind is not NodeKind.ATTRIBUTE]
            target = elements[a % len(elements)]
            slots = len(target.children) + 1
            op = InsertSubtree(str(target.dewey), subtree, b % slots + 1)
        elif kind == "delete":
            if target.parent is None and len(sim.roots) == 1:
                if not target.children:
                    continue  # deleting the only root is forbidden
                target = target.children[b % len(target.children)]
            op = DeleteSubtree(str(target.dewey))
        else:
            op = ReplaceSubtree(str(target.dewey), subtree)
        reference_apply(sim, [op])
        ops.append(op)
    return ops


def _render_all(transform):
    """Canonical output of a one-label guard per resolvable tag."""
    rendered = {}
    for tag in TAGS:
        try:
            rendered[tag] = transform(f"MORPH {tag}").forest.canonical()
        except XMorphError:
            rendered[tag] = None  # label absent (or otherwise rejected)
    return rendered


class TestRandomEditSequences:
    @settings(max_examples=25, deadline=None)
    @given(base=base_documents, seeds=op_seeds)
    def test_parity_fsck_and_render_agreement(self, tmp_path_factory, base, seeds):
        ops = materialize(seeds, base)
        assume(ops)
        tmp = tmp_path_factory.mktemp("upd")
        incremental_path = str(tmp / "incremental.db")
        with Database(incremental_path, durable=False) as db:
            db.store_document("doc", _copy(base))
            db.apply_batch("doc", ops)
            incremental = snapshot(db, "doc")
            incremental_forest = db.load_forest("doc").canonical()
            incremental_renders = _render_all(
                lambda guard: db.transform("doc", guard)  # compiled emitters
            )
        with Database(str(tmp / "oracle.db"), durable=False) as db:
            db.store_document("doc", reference_apply(_copy(base), ops))
            oracle = snapshot(db, "doc")
            oracle_forest = db.load_forest("doc").canonical()
            index = db.index("doc")
            oracle_renders = _render_all(
                lambda guard: reference_render(
                    Interpreter(index).compile(guard).target_shape, index
                )
            )

        incremental_records, incremental_catalog = incremental
        oracle_records, oracle_catalog = oracle
        assert sorted(incremental_records) == sorted(oracle_records)
        for key in oracle_records:
            assert incremental_records[key] == oracle_records[key], key
        assert incremental_catalog == oracle_catalog
        assert incremental_forest == oracle_forest
        assert incremental_renders == oracle_renders
        # The patched store must be clean under offline inspection too.
        report = fsck(incremental_path)
        assert report.ok, report.problems

    @settings(max_examples=15, deadline=None)
    @given(base=skewed_documents(max_depth=2), seeds=op_seeds)
    def test_batch_equals_singleton_batches(self, tmp_path_factory, base, seeds):
        """One N-op batch and N single-op batches reach the same state."""
        ops = materialize(seeds, base)
        assume(ops)
        tmp = tmp_path_factory.mktemp("upd")
        with Database(str(tmp / "batched.db"), durable=False) as db:
            db.store_document("doc", _copy(base))
            db.apply_batch("doc", ops)
            batched = snapshot(db, "doc")
        with Database(str(tmp / "stepwise.db"), durable=False) as db:
            db.store_document("doc", _copy(base))
            for op in ops:
                db.apply_batch("doc", [op])
            stepwise = snapshot(db, "doc")
        assert batched == stepwise


class TestDeweyRenumberOverflow:
    """Regression: sibling-ordinal exhaustion at the storage limit.

    The real limit is 2**24-1 siblings; monkeypatching it small makes
    the boundary reachable.  Overflow before any staging must reject
    cleanly; overflow detected inside an inserted subtree, by the
    builder that labels it, must roll the batch's staged prefix back.
    Either way the store is untouched and fsck-clean.
    """

    def _store(self, tmp_path, children=3):
        db = Database(str(tmp_path / "x.db"), durable=False)
        kids = "".join(f"<c>{i}</c>" for i in range(children))
        db.store_document("doc", f"<r>{kids}</r>")
        return db

    def test_insert_past_sibling_limit_rejected_before_staging(
        self, tmp_path, monkeypatch
    ):
        db = self._store(tmp_path, children=3)
        try:
            before = snapshot(db, "doc")
            monkeypatch.setattr(labels, "COMPONENT_MAX", 3)
            with pytest_raises_storage("Dewey renumber overflow"):
                db.apply_batch("doc", [InsertSubtree("1", "<c>3</c>")])
            assert snapshot(db, "doc") == before
        finally:
            db.close()
        assert fsck(str(tmp_path / "x.db")).ok

    def test_overflow_inside_inserted_subtree_rolls_back(self, tmp_path, monkeypatch):
        """The builder labels an inserted subtree with ``dewey.child``;
        patched to refuse ordinals over 3 as the real one refuses
        ordinals over 2**24-1, it fails the batch's second op after the
        first has been staged."""
        from repro.shape import dataguide

        child = dataguide.child

        def refusing(label, ordinal):
            if ordinal > 3:
                parts = labels.unpack(label).parts if label else ()
                raise StorageError(
                    f"Dewey component in {parts + (ordinal,)} exceeds storage limit 3"
                )
            return child(label, ordinal)

        db = self._store(tmp_path, children=1)
        try:
            before = snapshot(db, "doc")
            monkeypatch.setattr(dataguide, "child", refusing)
            wide = element("w")
            for i in range(5):  # five children > the patched limit
                wide.append(element("k", text=str(i)))
            batch = [InsertSubtree("1", "<c>staged</c>"), InsertSubtree("1", wide)]
            with pytest_raises_storage(r"\(1, 3, 4\) exceeds storage limit 3"):
                db.apply_batch("doc", batch)
            assert snapshot(db, "doc") == before
            assert db.stats.counters["storage.rollbacks"] == 1
            # The handle survived the rollback and still accepts edits.
            result = db.apply_batch("doc", [InsertSubtree("1", "<c>ok</c>")])
            assert result.nodes_added == 1
        finally:
            db.close()
        assert fsck(str(tmp_path / "x.db")).ok


def pytest_raises_storage(match: str):
    import pytest

    return pytest.raises(StorageError, match=match)
