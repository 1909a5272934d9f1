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
  never collide with not-yet-moved ones).
* **TypeToSequence** — each *touched* type's full
  sequence is loaded once, edited in memory, and repacked at commit;
  untouched types keep their chunks byte-for-byte.
* **Type ids** — re-shredding interns types in first-occurrence
  (pre-order) document order.  The commit recomputes that order from
  each surviving type's minimum Dewey and, when it differs from the
  stored ids, rewrites exactly the affected types' node values and
  re-keys their sequence chunks, so ids stay dense and parity with a
  re-shred is exact.
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

from bisect import bisect_left, insort
from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.cache import shape_fingerprint
from repro.errors import StorageError
from repro.faults import FAULTS
from repro.storage import tables
from repro.storage.tables import NodeRecord
from repro.xmltree import dewey as labels
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XmlForest, XmlNode, _number_subtree


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
    plans_kept: int = 0
    plans_invalidated: int = 0
    plans_warmed: int = 0
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
            f"({self.nodes_total} nodes total); shape {shape}, plans "
            f"kept={self.plans_kept} invalidated={self.plans_invalidated} "
            f"warmed={self.plans_warmed}"
        )


def resolve_ref(ref: DeweyRef) -> Dewey:
    """Normalize a Dewey reference (object, dotted text, or tuple)."""
    if isinstance(ref, Dewey):
        return ref
    if isinstance(ref, str):
        return Dewey.parse(ref)
    if isinstance(ref, (tuple, list)):
        return Dewey(tuple(ref))
    raise StorageError(f"not a Dewey reference: {ref!r}")


def materialize_subtree(source: SubtreeSource) -> XmlNode:
    """A detached deep copy of the subtree to insert.

    Copying guarantees the staged records never alias a caller-owned
    tree, and that ``type_path()`` on any descendant stops at the
    subtree root.
    """
    if isinstance(source, XmlNode):
        return source.copy_subtree()
    from repro.xmltree.parser import parse_forest

    forest = parse_forest(source)
    if len(forest.roots) != 1:
        raise StorageError(
            f"a subtree must have exactly one root, got {len(forest.roots)}"
        )
    return forest.roots[0].copy_subtree()


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
    forest.renumber()
    for op in ops:
        if isinstance(op, InsertSubtree):
            node = materialize_subtree(op.subtree)
            if op.parent is None:
                siblings, parent = forest.roots, None
            else:
                parent = forest.node_by_dewey(resolve_ref(op.parent))
                if parent is None:
                    raise StorageError(f"no node at {resolve_ref(op.parent)}")
                siblings = parent.children
            position = op.position if op.position is not None else len(siblings) + 1
            if not 1 <= position <= len(siblings) + 1:
                raise StorageError(
                    f"insert position {position} out of range 1..{len(siblings) + 1}"
                )
            node.parent = parent
            siblings.insert(position - 1, node)
        elif isinstance(op, DeleteSubtree):
            target = resolve_ref(op.target)
            node = forest.node_by_dewey(target)
            if node is None:
                raise StorageError(f"no node at {target}")
            if node.parent is None:
                if len(forest.roots) == 1:
                    raise StorageError("cannot delete the only root of a document")
                forest.roots.remove(node)
            else:
                node.parent.children.remove(node)
        elif isinstance(op, ReplaceSubtree):
            target = resolve_ref(op.target)
            node = forest.node_by_dewey(target)
            if node is None:
                raise StorageError(f"no node at {target}")
            fresh = materialize_subtree(op.subtree)
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


def _parts_key(record: NodeRecord) -> tuple[int, ...]:
    return record.dewey.parts


class IncrementalUpdater:
    """Stages one update batch against a stored document.

    All mutations go through the database's B+tree, whose pages stay
    dirty in the buffer pool; nothing is durable until the caller
    flushes.  The updater never mutates the document's
    ``StoredDocumentIndex`` — the database drops and reloads it after
    commit.
    """

    def __init__(self, database, name: str):
        self.db = database
        self.tree = database.tree
        self.name = name
        self.descriptor = database.describe(name)
        self.doc_id: int = self.descriptor["doc_id"]
        shape_chunks = tables.load_chunks(self.tree, tables.shape_prefix(self.doc_id))
        if not shape_chunks:
            raise StorageError(f"document {name!r} has no stored shape")
        shape_info = tables.decode_shape(shape_chunks)
        #: Live type state, in the *old* id space until commit.
        self.paths: dict[int, tuple[str, ...]] = {
            type_id: tuple(path) for type_id, path in shape_info["types"]
        }
        self.ids_by_path: dict[tuple[str, ...], int] = {
            path: type_id for type_id, path in self.paths.items()
        }
        self.counts: dict[int, int] = {
            int(type_id): count for type_id, count in shape_info["counts"].items()
        }
        self._old_type_ids = set(self.paths)
        self._old_cards: dict[tuple[int, int], tuple[int, int]] = {
            (parent, child): (lo, hi)
            for parent, child, lo, hi in shape_info["edges"]
        }
        self._next_type_id = max(self.paths, default=-1) + 1
        #: Loaded (possibly edited) sequences, sorted by Dewey.
        self._seqs: dict[int, list[NodeRecord]] = {}
        #: Each loaded sequence's first Dewey as it was stored.
        self._first_loaded: dict[int, tuple[int, ...]] = {}
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

    def _record_at(self, dewey: Dewey) -> Optional[NodeRecord]:
        raw = self.tree.get(tables.node_key(self.doc_id, dewey))
        return tables.decode_node_value(dewey, raw) if raw is not None else None

    def _slot(self, parent: Optional[Dewey], ordinal: int) -> Dewey:
        return parent.child(ordinal) if parent is not None else Dewey.root(ordinal)

    def _child_count(self, parent: Optional[Dewey]) -> int:
        """Number of children (sibling slots) under ``parent``.

        Dewey ordinals are dense, so the last occupied slot can be
        found by exponential probing plus binary search — O(log n)
        B+tree point reads instead of a subtree scan.
        """
        limit = labels.COMPONENT_MAX

        def occupied(ordinal: int) -> bool:
            return self._record_at(self._slot(parent, ordinal)) is not None

        if not occupied(1):
            return 0
        low = 1
        high = 2
        while high <= limit and occupied(high):
            low = high
            high *= 2
        high = min(high, limit + 1)
        while high - low > 1:
            mid = (low + high) // 2
            if occupied(mid):
                low = mid
            else:
                high = mid
        return low

    def _scan_subtree(self, root: Dewey) -> list[NodeRecord]:
        """Every staged record in the subtree, in document order.

        Components are fixed-width (3 bytes), so the root's key is the
        prefix of exactly the root's and its descendants' keys.
        """
        return [
            tables.decode_node_value(tables.node_key_dewey(key), value)
            for key, value in self.tree.scan_prefix(tables.node_key(self.doc_id, root))
        ]

    def _sequence(self, type_id: int) -> list[NodeRecord]:
        seq = self._seqs.get(type_id)
        if seq is None:
            seq = list(tables.read_sequence(self.tree, self.doc_id, type_id))
            self._seqs[type_id] = seq
            if seq:
                self._first_loaded[type_id] = seq[0].dewey.parts
        return seq

    def _touch(self, type_id: int) -> list[NodeRecord]:
        self._dirty_types.add(type_id)
        return self._sequence(type_id)

    # -- structural edits --------------------------------------------------

    def _remove_subtree(self, root: Dewey) -> int:
        records = self._scan_subtree(root)
        for record in records:
            seq = self._touch(record.type_id)
            index = bisect_left(seq, record.dewey.parts, key=_parts_key)
            if index >= len(seq) or seq[index].dewey.parts != record.dewey.parts:
                raise StorageError(
                    f"sequence for type {record.type_id} lost node {record.dewey}"
                )
            del seq[index]
            self.counts[record.type_id] -= 1
            self._count_changed.add(record.type_id)
            self.text_bytes -= len(tables.read_text(self.tree, self.doc_id, record))
            for number in range(record.overflow_chunks):
                self.tree.delete(tables.overflow_key(self.doc_id, record.dewey, number))
            self.tree.delete(tables.node_key(self.doc_id, record.dewey))
        self.node_count -= len(records)
        self.result.nodes_removed += len(records)
        return len(records)

    def _shift_subtree(self, old_root: Dewey, new_root: Dewey) -> None:
        """Renumber a whole subtree: ``old_root`` prefix → ``new_root``.

        All old keys are deleted before any new key is written, so a
        shift never collides with itself; callers order sibling shifts
        (descending for up-shifts, ascending for down-shifts) so shifts
        never collide with each other.
        """
        records = self._scan_subtree(old_root)
        depth = len(old_root.parts)
        overflow: dict[tuple, list[bytes]] = {}
        for record in records:
            self.tree.delete(tables.node_key(self.doc_id, record.dewey))
            if record.overflow_chunks:
                chunks = []
                for number in range(record.overflow_chunks):
                    key = tables.overflow_key(self.doc_id, record.dewey, number)
                    chunks.append(self.tree.get(key) or b"")
                    self.tree.delete(key)
                overflow[record.dewey.parts] = chunks
        run: list[tuple[bytes, bytes]] = []
        for record in records:
            new_dewey = Dewey(new_root.parts + record.dewey.parts[depth:])
            moved = replace(record, dewey=new_dewey)
            seq = self._touch(record.type_id)
            index = bisect_left(seq, record.dewey.parts, key=_parts_key)
            if index >= len(seq) or seq[index].dewey.parts != record.dewey.parts:
                raise StorageError(
                    f"sequence for type {record.type_id} lost node {record.dewey}"
                )
            # Remove-then-insort (not in-place replacement): a subtree
            # holding several records of one type would otherwise leave
            # the list transiently unsorted and break the next bisect.
            # Sibling shifts are ordered (descending up, ascending down)
            # so a moved dewey never collides with an unmoved one.
            del seq[index]
            insort(seq, moved, key=_parts_key)
            run.append(tables.node_entry(self.doc_id, moved))
            for number, chunk in enumerate(overflow.get(record.dewey.parts, ())):
                run.append((tables.overflow_key(self.doc_id, new_dewey, number), chunk))
        run.sort()
        self.tree.put_many(run)
        self.result.nodes_renumbered += len(records)

    def _type_for(self, path: tuple[str, ...]) -> int:
        type_id = self.ids_by_path.get(path)
        if type_id is None:
            type_id = self._next_type_id
            self._next_type_id += 1
            self.ids_by_path[path] = type_id
            self.paths[type_id] = path
            self.counts[type_id] = 0
            self._seqs[type_id] = []
            self._dirty_types.add(type_id)
        return type_id

    def _write_subtree(self, node: XmlNode, base_path: tuple[str, ...]) -> None:
        """Stage a numbered, detached subtree's records (no sibling shifts)."""
        limit = labels.COMPONENT_MAX
        run: list[tuple[bytes, bytes]] = []
        for vertex in node.iter_subtree():
            if vertex.dewey.parts[-1] > limit:
                raise StorageError(
                    f"Dewey component {vertex.dewey.parts[-1]} exceeds the "
                    f"storage limit {limit} (sibling overflow in inserted subtree)"
                )
            path = base_path + vertex.type_path()
            type_id = self._type_for(path)
            inline, overflow = tables.write_text(self.doc_id, vertex.dewey, vertex.text)
            record = NodeRecord(vertex.dewey, type_id, vertex.kind, inline, len(overflow))
            run.append(tables.node_entry(self.doc_id, record))
            run.extend(overflow)
            seq = self._touch(type_id)
            insort(seq, record, key=_parts_key)
            self.counts[type_id] += 1
            self._count_changed.add(type_id)
            self.node_count += 1
            self.text_bytes += len(vertex.text)
            self.result.nodes_added += 1
        run.sort()
        self.tree.put_many(run)

    # -- operations --------------------------------------------------------

    def _apply_insert(self, op: InsertSubtree) -> None:
        parent: Optional[Dewey]
        base_path: tuple[str, ...]
        if op.parent is None:
            parent, base_path = None, ()
        else:
            parent = resolve_ref(op.parent)
            parent_record = self._record_at(parent)
            if parent_record is None:
                raise StorageError(
                    f"document {self.name!r} has no node at {parent}"
                )
            base_path = self.paths[parent_record.type_id]
        count = self._child_count(parent)
        position = op.position if op.position is not None else count + 1
        if not 1 <= position <= count + 1:
            raise StorageError(
                f"insert position {position} out of range 1..{count + 1}"
            )
        if count + 1 > labels.COMPONENT_MAX:
            raise StorageError(
                f"Dewey renumber overflow: {count + 1} siblings exceed the "
                f"storage limit {labels.COMPONENT_MAX} under "
                f"{parent if parent is not None else '<roots>'}"
            )
        node = materialize_subtree(op.subtree)
        # Up-shift displaced siblings, last first, so moved keys never
        # land on a slot that still holds its old subtree.
        for ordinal in range(count, position - 1, -1):
            self._shift_subtree(
                self._slot(parent, ordinal), self._slot(parent, ordinal + 1)
            )
        _number_subtree(node, self._slot(parent, position))
        self._write_subtree(node, base_path)

    def _apply_delete(self, op: DeleteSubtree) -> None:
        target = resolve_ref(op.target)
        if self._record_at(target) is None:
            raise StorageError(f"document {self.name!r} has no node at {target}")
        parent = target.parent
        count = self._child_count(parent)
        if parent is None and count == 1:
            raise StorageError("cannot delete the only root of a document")
        self._remove_subtree(target)
        # Down-shift later siblings, first first (ascending).
        position = target.parts[-1]
        for ordinal in range(position + 1, count + 1):
            self._shift_subtree(
                self._slot(parent, ordinal), self._slot(parent, ordinal - 1)
            )

    def _apply_replace(self, op: ReplaceSubtree) -> None:
        target = resolve_ref(op.target)
        if self._record_at(target) is None:
            raise StorageError(f"document {self.name!r} has no node at {target}")
        parent = target.parent
        if parent is None:
            base_path: tuple[str, ...] = ()
        else:
            parent_record = self._record_at(parent)
            base_path = self.paths[parent_record.type_id]
        node = materialize_subtree(op.subtree)
        self._remove_subtree(target)
        _number_subtree(node, target)
        self._write_subtree(node, base_path)

    # -- commit ------------------------------------------------------------

    def commit(self) -> dict:
        """Repack touched sequences, remap type ids, rewrite the shape
        and catalog — all staged; returns the new catalog descriptor.

        The caller (``Database.apply_batch``) fires the ``update.commit``
        failpoint and runs the journaled flush afterwards.
        """
        # 1. Retire types with no surviving instances (a re-shred would
        #    never intern them).
        dead: list[int] = []
        for type_id, count in list(self.counts.items()):
            if count == 0:
                dead.append(type_id)
                del self.counts[type_id]
                del self.ids_by_path[self.paths.pop(type_id)]
                self._seqs[type_id] = []
                self._dirty_types.discard(type_id)
        for type_id in self._dirty_types:
            self._seqs[type_id].sort(key=_parts_key)

        # 2. Recover re-shred intern order: ascending minimum Dewey.
        #    Stored ids are already dense in that order, so it stands —
        #    and no untouched type is read — when the batch added and
        #    retired no type and every loaded sequence still starts where
        #    it did.  Otherwise touched types give their minimum from
        #    their staged sequence, untouched types from the first record
        #    of their first stored chunk.
        if self.paths.keys() == self._old_type_ids and all(
            seq and seq[0].dewey.parts == self._first_loaded.get(type_id)
            for type_id, seq in self._seqs.items()
        ):
            final_id = {type_id: type_id for type_id in self.paths}
        else:
            min_dewey: dict[int, tuple[int, ...]] = {}
            for type_id in self.paths:
                seq = self._seqs.get(type_id)
                if seq:
                    min_dewey[type_id] = seq[0].dewey.parts
                else:
                    min_dewey[type_id] = self._first_stored_dewey(type_id)
            order = sorted(self.paths, key=lambda type_id: min_dewey[type_id])
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

        # 3. Remapped node values: the Nodes records embed the type id.
        for type_id, new_id in remap.items():
            seq = self._sequence(type_id)
            for index, record in enumerate(seq):
                renamed = replace(record, type_id=new_id)
                seq[index] = renamed
                run.append(tables.node_entry(self.doc_id, renamed))

        # 4. Sequence chunks: every stale key (old-id space) is deleted
        #    before any new chunk is written — two phases, so a type
        #    moving into another type's old id never collides.
        for type_id in sorted(rewrite | set(dead)):
            prefix = tables.sequence_prefix(self.doc_id, type_id)
            stale = [key for key, _value in self.tree.scan_prefix(prefix)]
            for key in stale:
                self.tree.delete(key)
        for type_id in sorted(rewrite):
            records = self._seqs[type_id]
            new_id = final_id[type_id]
            for chunk_no, chunk in enumerate(tables.pack_sequence(records)):
                run.append((tables.sequence_key(self.doc_id, new_id, chunk_no), chunk))

        # 5. The adorned shape, in final-id space.
        shape_descriptor = self._shape_descriptor(final_id)
        stale_shape = [
            key
            for key, _value in self.tree.scan_prefix(tables.shape_prefix(self.doc_id))
        ]
        for key in stale_shape:
            self.tree.delete(key)
        for chunk_no, chunk in enumerate(tables.encode_shape(shape_descriptor)):
            run.append((tables.shape_key(self.doc_id, chunk_no), chunk))

        # 6. The catalog descriptor (same key order as the shredder's, so
        #    the stored bytes match a re-shred modulo shred_seconds).
        descriptor = dict(self.descriptor)
        descriptor["nodes"] = self.node_count
        descriptor["text_bytes"] = self.text_bytes
        descriptor["shape_fingerprint"] = shape_fingerprint(shape_descriptor)
        run.append((tables.catalog_key(self.name), tables.encode_shape(descriptor)[0]))
        run.sort()
        self.tree.put_many(run)

        self.result.types_added = len(
            [t for t in self.paths if t not in self._old_type_ids]
        )
        self.result.types_removed = len(
            [t for t in dead if t in self._old_type_ids]
        )
        self.result.type_ids_remapped = len(remap)
        self.result.types_rewritten = len(rewrite)
        self.result.nodes_total = self.node_count
        self.result.new_fingerprint = descriptor["shape_fingerprint"]
        descriptor["shape"] = shape_descriptor
        return descriptor

    def _first_stored_dewey(self, type_id: int) -> tuple[int, ...]:
        for record in tables.read_sequence(self.tree, self.doc_id, type_id):
            return record.dewey.parts
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
        by_final = {final_id[type_id]: type_id for type_id in self.paths}
        types = [
            [new_id, list(self.paths[by_final[new_id]])]
            for new_id in sorted(by_final)
        ]
        edges = []
        for type_id, path in self.paths.items():
            if len(path) == 1:
                continue
            parent_id = self.ids_by_path.get(path[:-1])
            if parent_id is None:
                raise StorageError(
                    f"type {'.'.join(path)} survives but its parent type is gone"
                )
            if (
                type_id in self._dirty_types
                or parent_id in self._count_changed
                or (type_id, parent_id) not in self._edge_cache()
            ):
                lo, hi = self._recompute_card(type_id, parent_id)
            else:
                lo, hi = self._edge_cache()[(type_id, parent_id)]
            edges.append([final_id[parent_id], final_id[type_id], lo, hi])
        edges.sort()
        counts = {
            str(new_id): self.counts[by_final[new_id]]
            for new_id in sorted(by_final)
        }
        return {"types": types, "edges": edges, "counts": counts}

    def _edge_cache(self) -> dict[tuple[int, int], tuple[int, int]]:
        # Stored adornments keyed (child old-id, parent old-id); types
        # interned by this batch have no stored edge and always recompute.
        if not hasattr(self, "_edge_lookup"):
            self._edge_lookup = {
                (child, parent): (lo, hi)
                for (parent, child), (lo, hi) in self._old_cards.items()
            }
        return self._edge_lookup

    def _recompute_card(self, type_id: int, parent_id: int) -> tuple[int, int]:
        """Re-derive one edge's (lo, hi) from the child's sequence.

        Nodes of one type all sit at one depth, so records sharing a
        parent are consecutive in the Dewey-sorted sequence; one linear
        pass yields the per-parent group sizes.  ``lo`` drops to 0 when
        some parent instance has no child of this type — the
        :class:`~repro.shape.dataguide.DataGuideBuilder` adornment rule.
        """
        seq = self._sequence(type_id)
        parents_seen = 0
        lo = None
        hi = 0
        current: Optional[tuple[int, ...]] = None
        run = 0
        for record in seq:
            parent_key = record.dewey.parts[:-1]
            if parent_key != current:
                if current is not None:
                    lo = run if lo is None else min(lo, run)
                    hi = max(hi, run)
                current = parent_key
                parents_seen += 1
                run = 1
            else:
                run += 1
        if current is not None:
            lo = run if lo is None else min(lo, run)
            hi = max(hi, run)
        if lo is None:
            return (0, 0)
        if parents_seen < self.counts.get(parent_id, 0):
            lo = 0
        return (lo, hi)
