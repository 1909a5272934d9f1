"""Incremental subtree updates: patch the shredded store in place.

A document edit used to mean a full re-shred — drop every table and
rebuild from the XML.  This module implements the write-path analogue
of the paper's read-path asymmetry: an edit touches only the records it
actually changes.  :class:`IncrementalUpdater` stages a batch of
subtree operations (:class:`InsertSubtree` / :class:`DeleteSubtree` /
:class:`ReplaceSubtree`) directly into the buffer pool:

* **Nodes / overflow** — the edited subtree's records are written (or
  deleted) eagerly; displaced sibling subtrees are renumbered with the
  same dense Dewey ordinals a re-shred would assign (up-shifts process
  siblings in descending order, down-shifts ascending, so moved keys
  never collide with not-yet-moved ones).  A renumbered node's key and
  entry get the new label prefix; its value moves as stored.  An
  inserted subtree is labelled and typed where a shredded document is:
  one :class:`~repro.shape.dataguide.DataGuideBuilder` per batch,
  resumed from the stored types and placed at the insertion point, is
  fed the subtree (by :func:`~repro.shape.dataguide.walk` or, for text,
  the tokenizer) and its columns are encoded as the shredder encodes
  them.
* **TypeToSequence** — each *touched* type's full sequence is loaded
  once as ``(label, entry)`` byte pairs, with the position each stored
  chunk starts at, and edited in memory.  The commit repacks it from
  the first chunk an edit can have changed, over the stored chunks of
  the same numbers; the chunks before it, and every untouched type's,
  keep their bytes and are not rewritten.
* **Type ids** — re-shredding interns types in first-occurrence
  (pre-order) document order.  The builder's type table keeps the
  stored ids and interns a new type after them; the commit recomputes
  that order from each surviving type's first label and, when it
  differs from the stored ids, rewrites exactly the affected types'
  node values and re-keys their sequence chunks, so ids stay dense and
  parity with a re-shred is exact.
* **AdornedShapes / catalog** — counts are maintained by delta;
  per-edge cardinalities are recomputed only for edges whose child
  membership or parent population changed, reproducing the
  :class:`~repro.shape.dataguide.DataGuideBuilder` adornment semantics
  (``lo`` drops to 0 when some parent instance has no child of the
  type).

Nothing reaches disk until :meth:`Database.apply_batch
<repro.storage.database.Database.apply_batch>` runs the single
journaled ``pool.flush()`` — the same crash-safe commit envelope as
``store_document`` — so a crash mid-batch recovers, via the PR 4
journal machinery, to exactly the pre- or post-batch state.  An error
*before* the flush rolls the staged pages back
(:meth:`~repro.storage.pages.BufferPool.discard`) and leaves the handle
live on the pre-batch state.

:func:`reference_apply` is the executable specification: it applies the
same batch to an in-memory forest with plain tree surgery plus
``renumber()``.  The differential parity suite shreds its output and
asserts the stores are byte-identical (``tests/storage/
test_update_parity.py``); see ``docs/UPDATES.md`` for the full design.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Union

from repro.cache import shape_fingerprint
from repro.errors import StorageError
from repro.faults import FAULTS
from repro.shape.dataguide import DataGuideBuilder, walk
from repro.storage import tables
from repro.xmltree import dewey as labels
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import NodeKind, XmlForest, XmlNode
from repro.xmltree.parser import parse_forest, tokenize


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

#: Anything that names a node: a Dewey, its dotted text ("1.2.3"), or a
#: component tuple.
DeweyRef = Union[Dewey, str, tuple]
#: A subtree: an ``XmlNode`` (deep-copied before use) or XML text with a
#: single root element.
SubtreeSource = Union[XmlNode, str]


@dataclass(frozen=True)
class InsertSubtree:
    """Insert a subtree as the ``position``-th child of ``parent``.

    ``parent=None`` inserts at forest-root level; ``position=None``
    appends after the current last child.  Siblings at and after the
    slot shift up by one — dense Dewey numbering is preserved.
    """

    parent: Optional[DeweyRef]
    subtree: SubtreeSource
    position: Optional[int] = None


@dataclass(frozen=True)
class DeleteSubtree:
    """Delete the subtree rooted at ``target``; later siblings shift down."""

    target: DeweyRef


@dataclass(frozen=True)
class ReplaceSubtree:
    """Replace the subtree rooted at ``target`` in place (same slot)."""

    target: DeweyRef
    subtree: SubtreeSource


UpdateOp = Union[InsertSubtree, DeleteSubtree, ReplaceSubtree]


@dataclass
class UpdateResult:
    """What one committed update batch did (``xmorph update`` prints this)."""

    document: str
    ops: int
    nodes_added: int = 0
    nodes_removed: int = 0
    nodes_renumbered: int = 0
    types_added: int = 0
    types_removed: int = 0
    type_ids_remapped: int = 0
    types_rewritten: int = 0
    nodes_total: int = 0
    shape_changed: bool = False
    old_fingerprint: str = ""
    new_fingerprint: str = ""
    seconds: float = 0.0

    def as_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)

    def summary(self) -> str:
        shape = "changed" if self.shape_changed else "unchanged"
        return (
            f"{self.document}: {self.ops} op(s) in {self.seconds * 1000:.1f} ms — "
            f"+{self.nodes_added}/-{self.nodes_removed} nodes, "
            f"{self.nodes_renumbered} renumbered, "
            f"{self.types_rewritten} type sequence(s) rewritten "
            f"({self.nodes_total} nodes total); shape {shape}"
        )


def resolve_ref(ref: DeweyRef) -> bytes:
    """The label a node reference names — checked here, at the API edge,
    and packed once: everything past this line works on the label.  A
    dotted string holds ASCII digits and dots only (``int`` would also
    take ``" 1"``, ``"1_0"`` and other scripts' digits), and a component
    is an ``int`` (not a ``bool``, not a ``float``)."""
    try:
        if isinstance(ref, str) and not (ref.isascii() and ref.replace(".", "").isdigit()):
            raise ValueError(ref)
        parts = tuple(map(int, ref.split("."))) if isinstance(ref, str) else tuple(ref)
        if not all(type(part) is int for part in parts):
            raise ValueError(ref)
        return labels.pack(Dewey(parts))
    except (TypeError, ValueError):
        raise StorageError(f"not a node reference: {ref!r}") from None


def insert_position(op: InsertSubtree, count: int) -> int:
    """The slot ``op`` fills among ``count`` siblings (default: the last)."""
    position = count + 1 if op.position is None else op.position
    if type(position) is not int:
        raise StorageError(f"insert position {position!r} is not an integer")
    if not 1 <= position <= count + 1:
        raise StorageError(f"insert position {position} out of range 1..{count + 1}")
    return position


def check_one_root(roots: int) -> None:
    """Refuse a subtree source that held ``roots`` roots, unless one."""
    if roots != 1:
        raise StorageError(f"a subtree must have exactly one root, got {roots}")


def check_subtree_source(source: object) -> None:
    """Refuse a subtree source that is neither an ``XmlNode`` nor XML text."""
    if not isinstance(source, (XmlNode, str)):
        raise StorageError(
            f"a subtree must be an XmlNode or XML text, not {type(source).__name__}"
        )


def materialize_subtree(source: SubtreeSource) -> XmlNode:
    """The root of the subtree an op carries: the node itself, or the
    single root its text parses to.  Not a copy: :func:`reference_apply`
    copies what it grafts."""
    check_subtree_source(source)
    if isinstance(source, XmlNode):
        return source
    forest = parse_forest(source)
    check_one_root(len(forest.roots))
    return forest.roots[0]


# ---------------------------------------------------------------------------
# The reference implementation (the parity oracle's input)
# ---------------------------------------------------------------------------


def reference_apply(forest: XmlForest, ops: list[UpdateOp]) -> XmlForest:
    """Apply a batch to an in-memory forest by plain tree surgery.

    This is the executable specification of batch semantics: each op
    addresses the document *as left by the previous op* (the forest is
    renumbered after every step, exactly like the incremental engine's
    staged state).  Re-shredding the returned forest must produce a
    byte-identical store to :meth:`Database.apply_batch` — the parity
    suite pins that down.
    """

    def node_at(ref: DeweyRef) -> XmlNode:
        dewey = labels.unpack(resolve_ref(ref))
        node = forest.node_by_dewey(dewey)
        if node is None:
            raise StorageError(f"no node at {dewey}")
        return node

    forest.renumber()
    for op in ops:
        if isinstance(op, InsertSubtree):
            parent = None if op.parent is None else node_at(op.parent)
            if parent is not None and parent.kind is NodeKind.ATTRIBUTE:
                raise StorageError(f"cannot insert under the attribute at {parent.dewey}")
            siblings = forest.roots if parent is None else parent.children
            position = insert_position(op, len(siblings))
            node = materialize_subtree(op.subtree).copy_subtree()
            node.parent = parent
            siblings.insert(position - 1, node)
        elif isinstance(op, DeleteSubtree):
            node = node_at(op.target)
            if node.parent is None:
                if len(forest.roots) == 1:
                    raise StorageError("cannot delete the only root of a document")
                forest.roots.remove(node)
            else:
                node.parent.children.remove(node)
        elif isinstance(op, ReplaceSubtree):
            node = node_at(op.target)
            fresh = materialize_subtree(op.subtree).copy_subtree()
            fresh.parent = node.parent
            siblings = forest.roots if node.parent is None else node.parent.children
            siblings[siblings.index(node)] = fresh
        else:
            raise StorageError(f"unknown update operation {op!r}")
        forest.renumber()
    return forest


# ---------------------------------------------------------------------------
# The incremental engine
# ---------------------------------------------------------------------------


class IncrementalUpdater:
    """Stages one update batch against a stored document.

    All mutations go through the database's B+tree, whose pages stay
    dirty in the buffer pool; nothing is durable until the caller
    flushes.  The updater never mutates the document's
    ``StoredDocumentIndex`` — the database drops and reloads it after
    commit.

    It works on the stored bytes.  A node is its label; the forest's own
    "label" is ``b""``, so a root is a child like any other.  A loaded
    type sequence is a label-sorted list of ``(label, T entry)`` pairs,
    which is document order, and :mod:`~repro.storage.tables` alone
    knows what a value or an entry holds.
    """

    def __init__(self, database, name: str):
        self.tree = database.tree
        self.name = name
        self.descriptor = database.describe(name)
        self.doc_id: int = self.descriptor["doc_id"]
        self._nodes = tables.nodes_prefix(self.doc_id)
        record = tables.read_shape(self.tree, self.doc_id, name)
        #: The batch's one labelling site and type table: the stored
        #: types, whose ids hold until commit, their live counts, and
        #: the types the batch interns, numbered after them.
        self.builder = DataGuideBuilder.resume(record.type_table, record.parents, record.counts)
        self._stored_types = len(self.builder.counts)
        #: Stored adornments keyed by child type (a type has one parent
        #: type); types interned by this batch have none and recompute.
        self._stored_cards: dict[int, tuple[int, int]] = {
            child: (record.lows[child], record.highs[child])
            for child, parent in enumerate(record.parents)
            if parent >= 0
        }
        #: Loaded (possibly edited) sequences.
        self._seqs: dict[int, list[tuple[bytes, bytes]]] = {}
        #: Per loaded type, the position each stored chunk starts at.
        self._chunk_starts: dict[int, list[int]] = {}
        #: Per edited type, the first position an edit touched: the
        #: entries before it are the stored ones, in their stored chunks.
        self._first_changed: dict[int, int] = {}
        #: Each loaded sequence's first label as it was stored.
        self._first_loaded: dict[int, bytes] = {}
        #: Types whose sequence membership or numbering changed.
        self._dirty_types: set[int] = set()
        #: Types whose instance count changed (triggers cardinality
        #: recomputes on their child edges).
        self._count_changed: set[int] = set()
        self.node_count: int = self.descriptor["nodes"]
        self.text_bytes: int = self.descriptor["text_bytes"]
        self.result = UpdateResult(document=name, ops=0)

    # -- op dispatch -------------------------------------------------------

    def apply(self, op: UpdateOp) -> None:
        """Stage one operation against the current (staged) document."""
        FAULTS.fire("update.stage")
        if isinstance(op, InsertSubtree):
            self._apply_insert(op)
        elif isinstance(op, DeleteSubtree):
            self._apply_delete(op)
        elif isinstance(op, ReplaceSubtree):
            self._apply_replace(op)
        else:
            raise StorageError(f"unknown update operation {op!r}")
        self.result.ops += 1

    # -- primitive reads ---------------------------------------------------

    def _head_at(self, label: bytes) -> tuple[int, bool, int]:
        """``tables.node_head`` of the staged node labelled ``label``."""
        value = self.tree.get(self._nodes + label)
        if value is None:
            raise StorageError(
                f"document {self.name!r} has no node at {labels.unpack(label)}"
            )
        return tables.node_head(value)

    def _child_count(self, parent: bytes) -> int:
        """Number of children (sibling slots) under ``parent``.

        A parent's subtree is one key range and Dewey ordinals are
        dense, so the count is the ordinal of the last child, read off
        the greatest key under the parent's prefix — one backward seek
        (:meth:`~repro.storage.btree.BPlusTree.last_with_prefix`).  The
        parent's own key sorts first in its range; when it is the
        greatest, there is no child.
        """
        prefix = self._nodes + parent
        last = self.tree.last_with_prefix(prefix)
        if last is None or len(last[0]) == len(prefix):
            return 0
        return labels.child_ordinal(last[0][len(self._nodes) :], parent)

    def _scan_subtree(self, root: bytes) -> list[tuple[bytes, bytes]]:
        """The staged ``(label, N value)`` of every node in the subtree,
        in document order: the root's key is the prefix of exactly the
        root's and its descendants' keys."""
        cut = len(self._nodes)
        return [
            (key[cut:], value)
            for key, value in self.tree.scan_prefix(self._nodes + root)
        ]

    def _sequence(self, type_id: int) -> list[tuple[bytes, bytes]]:
        seq = self._seqs.get(type_id)
        if seq is None:
            starts: list[int] = []
            seq = list(tables.sequence_entries(self.tree, self.doc_id, type_id, starts=starts))
            self._seqs[type_id] = seq
            self._chunk_starts[type_id] = starts
            if seq:
                self._first_loaded[type_id] = seq[0][0]
        return seq

    def _touch(self, type_id: int, label: bytes) -> tuple[list[tuple[bytes, bytes]], int]:
        """The type's sequence, marked edited at ``label``'s position."""
        self._dirty_types.add(type_id)
        seq = self._sequence(type_id)
        index = bisect_left(seq, (label,))
        if index < self._first_changed.get(type_id, index + 1):
            self._first_changed[type_id] = index
        return seq, index

    def _take(self, type_id: int, label: bytes) -> bytes:
        """Remove the node labelled ``label`` from its type's sequence;
        returns its entry."""
        seq, index = self._touch(type_id, label)
        if index == len(seq) or seq[index][0] != label:
            raise StorageError(
                f"sequence for type {type_id} lost node {labels.unpack(label)}"
            )
        return seq.pop(index)[1]

    def _put(self, type_id: int, label: bytes, entry: bytes) -> None:
        """Add the node labelled ``label`` to its type's sequence."""
        seq, index = self._touch(type_id, label)
        seq.insert(index, (label, entry))

    # -- structural edits --------------------------------------------------

    def _remove_subtree(self, root: bytes) -> None:
        doomed = self._scan_subtree(root)
        for label, value in doomed:
            type_id, _is_attribute, overflow_chunks = tables.node_head(value)
            self._take(type_id, label)
            self.builder.counts[type_id] -= 1
            self._count_changed.add(type_id)
            self.text_bytes -= len(tables.node_text(self.tree, self.doc_id, label, value))
            for number in range(overflow_chunks):
                self.tree.delete(tables.overflow_key(self.doc_id, label, number))
            self.tree.delete(self._nodes + label)
        self.node_count -= len(doomed)
        self.result.nodes_removed += len(doomed)

    def _shift_subtree(self, old_root: bytes, new_root: bytes) -> None:
        """Renumber a whole subtree: ``old_root`` prefix → ``new_root``.

        Only labels change: an ``N`` value does not hold its label and
        moves as it is, a ``T`` entry is relabelled, overflow chunks are
        re-keyed.  All old keys are deleted before any new key is
        written, so a shift never collides with itself; callers order
        sibling shifts (descending for up-shifts, ascending for
        down-shifts) so a moved label never collides with an unmoved one
        — in the tree or in a sequence, which each node leaves before it
        re-enters (an in-place swap would leave a type with several
        nodes in the subtree transiently unsorted under the next bisect).
        """
        moved = self._scan_subtree(old_root)
        run: list[tuple[bytes, bytes]] = []
        for label, value in moved:
            type_id, _is_attribute, overflow_chunks = tables.node_head(value)
            new_label = new_root + label[len(old_root) :]
            self.tree.delete(self._nodes + label)
            run.append((self._nodes + new_label, value))
            for number in range(overflow_chunks):
                key = tables.overflow_key(self.doc_id, label, number)
                chunk = self.tree.get(key) or b""
                self.tree.delete(key)
                run.append((tables.overflow_key(self.doc_id, new_label, number), chunk))
            entry = self._take(type_id, label)
            self._put(type_id, new_label, tables.relabel(entry, new_label))
        run.sort()
        self.tree.put_many(run)
        self.result.nodes_renumbered += len(moved)

    def _label(
        self, subtree: SubtreeSource, parent: bytes, parent_type: Optional[int], position: int
    ) -> None:
        """Report ``subtree`` to the builder as the ``position``-th child
        of ``parent`` (of type ``parent_type``): the builder labels,
        types and files its nodes, as it does a shredded document's.
        Nothing is staged yet."""
        check_subtree_source(subtree)
        self.builder.place(parent, parent_type, position - 1)
        if isinstance(subtree, XmlNode):
            walk(XmlForest([subtree]), self.builder)
        else:
            tokenize(subtree, self.builder)
        check_one_root(self.builder.placed() - (position - 1))

    def _write_labelled(self) -> None:
        """Stage the records of the nodes :meth:`_label` filed, encoded
        as the shredder encodes them (``split_text``, ``encode_node``),
        and empty the builder's columns."""
        builder, run, added = self.builder, [], 0
        for type_id, column in enumerate(builder.labels):
            if not column:
                continue
            texts, flags = builder.values[type_id], builder.attributes[type_id]
            for label, text, flag in zip(column, texts, flags):
                inline, overflow = tables.split_text(self.doc_id, label, text.encode())
                value, entry = tables.encode_node(label, type_id, flag, inline, len(overflow))
                run.append((self._nodes + label, value))
                run.extend(overflow)
                self._put(type_id, label, entry)
                self.text_bytes += len(text)
            self._count_changed.add(type_id)
            added += len(column)
            column.clear()
            texts.clear()
            flags.clear()
        self.node_count += added
        self.result.nodes_added += added
        run.sort()
        self.tree.put_many(run)

    # -- operations --------------------------------------------------------

    def _apply_insert(self, op: InsertSubtree) -> None:
        parent, parent_type = b"", None
        if op.parent is not None:
            parent = resolve_ref(op.parent)
            parent_type, is_attribute, _overflow_chunks = self._head_at(parent)
            if is_attribute:
                raise StorageError(
                    f"cannot insert under the attribute at {labels.unpack(parent)}"
                )
        count = self._child_count(parent)
        position = insert_position(op, count)
        if count + 1 > labels.COMPONENT_MAX:
            raise StorageError(
                f"Dewey renumber overflow: {count + 1} siblings exceed the "
                f"storage limit {labels.COMPONENT_MAX} under "
                f"{labels.unpack(parent) if parent else '<roots>'}"
            )
        self._label(op.subtree, parent, parent_type, position)
        # Up-shift displaced siblings, last first, so moved keys never
        # land on a slot that still holds its old subtree.
        for ordinal in range(count, position - 1, -1):
            self._shift_subtree(
                labels.child(parent, ordinal), labels.child(parent, ordinal + 1)
            )
        self._write_labelled()

    def _apply_delete(self, op: DeleteSubtree) -> None:
        target = resolve_ref(op.target)
        self._head_at(target)
        parent = labels.parent(target) or b""
        count = self._child_count(parent)
        if not parent and count == 1:
            raise StorageError("cannot delete the only root of a document")
        self._remove_subtree(target)
        # Down-shift later siblings, first first (ascending).
        position = labels.child_ordinal(target, parent)
        for ordinal in range(position + 1, count + 1):
            self._shift_subtree(
                labels.child(parent, ordinal), labels.child(parent, ordinal - 1)
            )

    def _apply_replace(self, op: ReplaceSubtree) -> None:
        target = resolve_ref(op.target)
        self._head_at(target)
        parent = labels.parent(target) or b""
        parent_type = self._head_at(parent)[0] if parent else None
        self._label(op.subtree, parent, parent_type, labels.child_ordinal(target, parent))
        self._remove_subtree(target)
        self._write_labelled()

    # -- commit ------------------------------------------------------------

    def commit(self) -> dict:
        """Repack touched sequences from their first changed chunk, remap
        type ids, rewrite the shape and catalog — all staged; returns the
        new catalog descriptor.

        The caller (``Database.apply_batch``) fires the ``update.commit``
        failpoint and runs the journaled flush afterwards.
        """
        # 1. Retire types with no surviving instances (a re-shred would
        #    never intern them).
        counts = self.builder.counts
        live = [type_id for type_id, count in enumerate(counts) if count]
        dead = [type_id for type_id, count in enumerate(counts) if not count]
        for type_id in dead:
            self._seqs[type_id] = []
            self._dirty_types.discard(type_id)

        # 2. Recover re-shred intern order: ascending first label.
        #    Stored ids are already dense in that order, so it stands —
        #    and no untouched type is read — when the batch added and
        #    retired no type and every loaded sequence still starts where
        #    it did.  Otherwise touched types give their first label from
        #    their staged sequence, untouched types from the first entry
        #    of their first stored chunk.
        if live == list(range(self._stored_types)) and all(
            seq and seq[0][0] == self._first_loaded.get(type_id)
            for type_id, seq in self._seqs.items()
        ):
            final_id = {type_id: type_id for type_id in live}
        else:
            order = sorted(live, key=self._first_label)
            final_id = {type_id: position for position, type_id in enumerate(order)}
        remap = {
            type_id: new_id
            for type_id, new_id in final_id.items()
            if new_id != type_id
        }
        rewrite = set(self._dirty_types) | set(remap)

        # Everything the commit writes is gathered here and written as one
        # sorted run at the end, after every stale key is deleted.
        run: list[tuple[bytes, bytes]] = []

        # 3. Remapped node values: a Nodes value leads with its type id,
        #    the rest of it is in the node's entry.
        for type_id, new_id in remap.items():
            for label, entry in self._sequence(type_id):
                run.append((self._nodes + label, tables.node_value(new_id, entry)))

        # 4. Sequence chunks: a type that keeps its id keeps its leading
        #    chunks no edit reached, is repacked from the first one an edit
        #    can have changed, and overwrites its stored chunks with the
        #    new ones; a remapped, new or retired type is rewritten whole.
        #    Every other stale key (old-id space) is deleted before any
        #    chunk is written — two phases, so a type moving into another
        #    type's old id never collides.
        packed: dict[int, tuple[int, list[bytearray]]] = {}
        for type_id in rewrite:
            first = 0 if type_id in remap else self._unchanged_chunks(type_id)
            starts = self._chunk_starts[type_id]
            chunks: list[bytearray] = []
            for _label, entry in self._seqs[type_id][starts[first] if first else 0 :]:
                tables.append_entry(chunks, entry)
            packed[type_id] = (first, chunks)
        for type_id in sorted(rewrite | set(dead)):
            first, chunks = packed.get(type_id, (0, []))
            overwritten = 0 if type_id in remap else first + len(chunks)
            for chunk_no in range(overwritten, len(self._chunk_starts[type_id])):
                self.tree.delete(tables.sequence_key(self.doc_id, type_id, chunk_no))
        for type_id, (first, chunks) in packed.items():
            for chunk_no, chunk in enumerate(chunks, first):
                key = tables.sequence_key(self.doc_id, final_id[type_id], chunk_no)
                run.append((key, bytes(chunk)))

        # 5. The adorned shape, in final-id space, over the stored one's
        #    chunks; only a surplus stored chunk is deleted.
        shape_descriptor = self._shape_descriptor(final_id)
        shape_chunks = tables.pack_shape(shape_descriptor)
        stale_shape = [
            key
            for key, _value in self.tree.scan_prefix(tables.shape_prefix(self.doc_id))
        ]
        for key in stale_shape[len(shape_chunks) :]:
            self.tree.delete(key)
        for chunk_no, chunk in enumerate(shape_chunks):
            run.append((tables.shape_key(self.doc_id, chunk_no), chunk))

        # 6. The catalog descriptor (same key order as the shredder's, so
        #    the stored bytes match a re-shred modulo shred_seconds).
        descriptor = dict(self.descriptor)
        descriptor["nodes"] = self.node_count
        descriptor["text_bytes"] = self.text_bytes
        descriptor["shape_fingerprint"] = shape_fingerprint(shape_descriptor)
        run.append((tables.catalog_key(self.name), tables.encode_catalog(descriptor)))
        run.sort()
        self.tree.put_many(run)

        self.result.types_added = sum(t >= self._stored_types for t in live)
        self.result.types_removed = sum(t < self._stored_types for t in dead)
        self.result.type_ids_remapped = len(remap)
        self.result.types_rewritten = len(rewrite)
        self.result.nodes_total = self.node_count
        self.result.old_fingerprint = self.descriptor["shape_fingerprint"]
        self.result.new_fingerprint = descriptor["shape_fingerprint"]
        self.result.shape_changed = (
            self.result.new_fingerprint != self.result.old_fingerprint
        )
        descriptor["shape"] = shape_descriptor
        return descriptor

    def _unchanged_chunks(self, type_id: int) -> int:
        """How many of the type's leading stored chunks its edits left as
        they are.  Packing is greedy, so a chunk ends where it does
        because of the entry after it: chunk ``i`` stands while its
        entries and the first of chunk ``i + 1`` all lie before the
        first edited position, and packing from where chunk ``i + 1``
        starts then cuts what a re-shred would."""
        starts = self._chunk_starts[type_id]
        return bisect_left(starts, self._first_changed.get(type_id, 0), 1) - 1

    def _first_label(self, type_id: int) -> bytes:
        seq = self._seqs.get(type_id)
        if seq:
            return seq[0][0]
        for label, _entry in tables.sequence_entries(self.tree, self.doc_id, type_id):
            return label
        raise StorageError(
            f"document {self.name!r}: type {type_id} has instances but no "
            "stored sequence"
        )

    # -- shape maintenance -------------------------------------------------

    def _shape_descriptor(self, final_id: dict[int, int]) -> dict:
        """The post-batch adorned shape, byte-compatible with a re-shred.

        Types are listed in final-id order (the intern order a re-shred
        would produce), edges in canonical sorted order, counts keyed by
        ascending id.  Cardinalities are recomputed only for edges whose
        child sequence was touched or whose parent population changed;
        every other edge keeps its stored adornment.
        """
        paths, counts = self.builder.type_table.paths, self.builder.counts
        by_final = sorted((new_id, type_id) for type_id, new_id in final_id.items())
        edges = []
        for type_id in final_id:
            parent_id = self.builder.parent_of[type_id]
            if parent_id is None:
                continue
            if (
                type_id in self._dirty_types
                or parent_id in self._count_changed
                or type_id not in self._stored_cards
            ):
                lo, hi = self._recompute_card(type_id, parent_id)
            else:
                lo, hi = self._stored_cards[type_id]
            edges.append([final_id[parent_id], final_id[type_id], lo, hi])
        edges.sort()
        types = [[new_id, list(paths[type_id])] for new_id, type_id in by_final]
        counts = {str(new_id): counts[type_id] for new_id, type_id in by_final}
        return {"types": types, "edges": edges, "counts": counts}

    def _recompute_card(self, type_id: int, parent_id: int) -> tuple[int, int]:
        """Re-derive one edge's (lo, hi) from the child's sequence.

        One counting pass over the parents' labels gives the per-parent
        group sizes.  ``lo`` drops to 0 when some parent instance has no
        child of this type — the
        :class:`~repro.shape.dataguide.DataGuideBuilder` adornment rule.
        """
        sizes = Counter(labels.parents(map(itemgetter(0), self._sequence(type_id)))).values()
        if not sizes:
            return (0, 0)
        if len(sizes) < self.builder.counts[parent_id]:
            return (0, max(sizes))
        return (min(sizes), max(sizes))
