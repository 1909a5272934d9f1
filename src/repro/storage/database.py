"""The user-facing database: store documents, evaluate guards over them.

:class:`Database` owns one paged file, buffer pool and B+tree;
documents are shredded in (:mod:`repro.storage.shredder`) and evaluated
against a :class:`StoredDocumentIndex`.  Opening one decodes the
adorned-shape records, checks them and keeps them as arrays; a data
type or shape vertex is made when a guard first reaches it, and a type
sequence is loaded when a render first reads it — so compiling a guard
touches only shape records and builds objects for the types it names,
and rendering reads exactly the type sequences the target shape
mentions.  That asymmetry is the paper's architectural point: "Prior to
rendering, only the adorned shapes, which are typically tiny relative
to the size of the data, are needed."
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, Optional, Sequence

from repro.cache import CompiledPlan, PlanCache
from repro.closeness.index import BaseIndex, TypeSequence
from repro.engine.compile import StreamStats
from repro.engine.interpreter import Interpreter, TransformResult
from repro.errors import (
    DocumentNotFoundError,
    ReadOnlyDatabaseError,
    RetiredDocumentError,
    StorageError,
)
from repro.shape.shape import SourceShape
from repro.shape.types import DataType
from repro.storage import tables
from repro.storage.btree import BPlusTree
from repro.storage.pages import BufferPool, PagedFile
from repro.storage.shredder import shred
from repro.storage.stats import SystemStats
from repro.xmltree.dewey import parent, unpack
from repro.xmltree.node import NodeKind, XmlForest, XmlNode


class Database:
    """An embedded XMorph database in a single file.

    ``mode="w"`` (the default) is the classic single-writer handle: an
    exclusive ``flock`` on ``<path>.lock``, journal recovery at open,
    full mutation rights.  ``mode="r"`` is a *shared-reader* handle: a
    shared ``flock`` (any number of readers coexist; any writer
    excludes and is excluded), the file opened ``O_RDONLY``, and — when
    a sealed journal is present — the committed batch loaded as an
    in-memory page overlay instead of being replayed, so every reader
    sees the same frozen post-commit snapshot without writing a byte.
    Mutations through a read-only handle raise
    :class:`~repro.errors.ReadOnlyDatabaseError` (``XM550``).  Both
    modes read a page the same way, a ``pread`` whose checksum is
    verified on every buffer-pool miss, so a page damaged on disk
    under an open handle is a ``ChecksumError`` (``XM510``), never
    served.

    Either mode is safe to share between threads for *reads*: the
    buffer pool, B+tree descents, plan cache and join memos are all
    lock-guarded, which is what :meth:`transform_many` and
    :class:`repro.serve.TransformPool` build on.

    Compiled plans live in one LRU keyed by ``(guard text, shape
    fingerprint)``; storing, updating or dropping a document never
    touches it, and only :meth:`drop_cache` empties it.
    """

    def __init__(
        self,
        path: str,
        cache_pages: int = 2048,
        durable: bool = True,
        mode: str = "w",
    ):
        if mode not in ("r", "w"):
            raise StorageError(f"mode must be 'r' or 'w', got {mode!r}")
        self.mode = mode
        #: Whether this handle consults the write-ahead journal (a
        #: ``mode="r"`` open overlays a sealed one, or ignores it).
        self.durable = durable
        self.stats = SystemStats()
        # Single-writer / many-reader advisory lock: two live writers
        # interleaving journaled flushes would corrupt each other's
        # batches; readers only conflict with writers.
        from repro.storage.lockfile import FileLock

        self._lock = FileLock(path + ".lock")
        self._lock.acquire(shared=(mode == "r"))
        self._file = journal = None
        try:
            if mode == "r":
                self._file = self._open_snapshot(path, durable)
                if self._file.page_count == 0:
                    raise StorageError(
                        f"cannot open {path!r} read-only: the store is empty "
                        "(a writer must initialize it first)"
                    )
            else:
                self._file = PagedFile(path, self.stats)
                if durable:
                    from repro.storage.journal import Journal

                    journal = Journal(path + ".journal", stats=self.stats)
                    journal.recover(self._file)
            self.pool = BufferPool(self._file, capacity=cache_pages, journal=journal)
            # Reads the meta page: the first checksum and format check,
            # after any journal replay has had its chance to heal it.
            self.tree = BPlusTree(self.pool)
        except FileNotFoundError:
            self._lock.release()
            raise StorageError(
                f"cannot open {path!r} read-only: no such database"
            ) from None
        except BaseException:
            # A failed open must not hold the fd or the lock.
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:
                    pass
            self._lock.release()
            raise
        self._indexes: dict[str, StoredDocumentIndex] = {}
        #: Guards the index map (transform_many workers race to build
        #: the per-document index on first touch).
        self._index_lock = threading.RLock()
        #: Per document name, how often this handle updated or dropped it
        #: and the last such change.  An index remembers the count it was
        #: built at and stops loading once the document has moved on
        #: (see :meth:`changed_since`), registered here or not.
        self._generations: dict[str, tuple[int, str]] = {}
        self._closed = False
        #: Compiled guard plans keyed by (guard text, shape fingerprint).
        self.plan_cache = PlanCache(self.stats)

    def _open_snapshot(self, path: str, durable: bool) -> PagedFile:
        """Open ``path`` read-only, shadowed by any sealed journal batch.

        A sealed journal means a writer crashed after the commit point:
        the batch is durable but possibly half-applied to the main
        file.  A writer would replay it; a reader must not write, so
        the batch becomes a page *overlay* — reads go through the
        journal image, disk stays untouched, and the (future) writer's
        replay is byte-identical to what we served.  A corrupt journal
        crashed *before* commit: the main file was never touched, so it
        is simply ignored (quarantining it is the writer's job).
        """
        overlay: dict[int, bytes] = {}
        if durable:
            from repro.storage.journal import Journal

            status, batch = Journal(path + ".journal", stats=self.stats).inspect()
            if status == "sealed" and batch:
                overlay = dict(batch)
                self.stats.count("recovery.snapshot_overlay_pages", len(overlay))
        return PagedFile(path, self.stats, readonly=True, overlay=overlay)

    # -- document management ------------------------------------------------

    def store_document(self, name: str, source: str | XmlForest) -> dict:
        """Shred a document (XML text or a parsed forest) into the store.

        Text goes from the tokenizer straight into the shredder: no
        forest is built for a document that is only being stored.
        The records stage in the buffer pool and commit through one
        journaled flush; an error before it rolls the staged pages back
        and leaves this handle live on the unchanged store.
        """
        if self.mode == "r":
            raise ReadOnlyDatabaseError(self._file.path, f"store document {name!r}")
        if self.tree.get(tables.catalog_key(name)) is not None:
            raise StorageError(f"document {name!r} already stored")
        try:
            descriptor = shred(self.tree, self._next_doc_id(), name, source)
        except Exception:
            # Pre-commit failure (text that does not parse, an entry the
            # tree refuses, a Dewey component past the storage limit):
            # drop the staged pages, or the next flush would commit
            # records no catalog entry names.
            self._rollback_staged(name)
            raise
        self.pool.flush()
        return descriptor

    def document_names(self) -> list[str]:
        return [name for name, _value in tables.catalog_entries(self.tree)]

    def describe(self, name: str) -> dict:
        raw = self.tree.get(tables.catalog_key(name))
        if raw is None:
            raise DocumentNotFoundError(name)
        return tables.decode_catalog(name, raw)

    def index(self, name: str) -> "StoredDocumentIndex":
        with self._index_lock:
            if name not in self._indexes:
                self._indexes[name] = StoredDocumentIndex(self, self.describe(name))
            return self._indexes[name]

    # -- evaluation -------------------------------------------------------------

    def transform(self, name: str, guard: str) -> TransformResult:
        """Compile and type-check a guard over a stored document; the
        result renders when it is first read.

        Until then only shape records have been touched.  ``xml()``
        answers from the plan's text sink and builds no output tree;
        ``forest`` / ``rendered`` / ``xml(indent=n)`` build it.  A
        result still unread when the document is updated or dropped, or
        this handle closed, raises :class:`~repro.errors.
        RetiredDocumentError` (``XM570``) instead of rendering.
        """
        return self._plan(name, guard)

    def check_evolution(self, old_name: str, new_name: str, guards):
        """Grade a guard corpus across two stored arrangements of the data.

        ``old_name`` holds the current arrangement, ``new_name`` the
        evolved one (store it first); ``guards`` is anything
        :func:`repro.analysis.analyze_evolution` accepts.  A report for
        whoever migrates, nothing more: the plan cache is left as it is
        (a plan is keyed by its shape, so no verdict can make one
        wrong).  Counts ``evolve.compatible`` / ``.degraded`` /
        ``.broken`` events, visible in metrics and ``EXPLAIN ANALYZE``.
        """
        from repro.analysis.evolve import analyze_evolution

        report = analyze_evolution(self.index(old_name), self.index(new_name), guards)
        for verdict_name, count in report.counts.items():
            if count:
                self.stats.count(f"evolve.{verdict_name}", count)
        return report

    def _plan(self, name: str, guard: str) -> TransformResult:
        """Plan a guard over ``name``, reusing a cached plan for the same shape.

        Plans are keyed by ``(guard text, shape fingerprint)``: the
        compile stages touch only the adorned shape, so any document
        whose shape descriptor hashes identically reuses the plan and
        skips lexing, parsing, typing and algebra entirely.  The lookup
        is *single-flight*: when N worker threads request the same
        (guard, shape) at once, one compiles and the rest wait for its
        plan.
        """
        index = self.index(name)

        def compile_guard() -> TransformResult:
            started = time.perf_counter()
            result = Interpreter(index).compile(guard)
            self.stats.observe("plan.compile_seconds", time.perf_counter() - started)
            return result

        plan = self.plan_cache.get_or_compile(
            guard,
            index.fingerprint,
            lambda: CompiledPlan(guard, index.fingerprint, compile_guard()),
        )
        return plan.checked.planned(index)

    def transform_many(
        self,
        requests: Sequence[tuple[str, str]],
        workers: int = 8,
        deadline: Optional[float] = None,
    ) -> list[TransformResult]:
        """Evaluate many ``(document, guard)`` requests on a thread pool.

        Results come back in request order and are byte-identical to
        running :meth:`transform` serially (the property-based suite in
        ``tests/serve`` pins this down).  ``deadline`` is a per-request
        wall-clock budget in seconds; a request that misses it raises
        :class:`~repro.errors.TransformTimeoutError` (``XM540``) from
        this call.  ``workers <= 1`` degrades to a plain serial loop.
        """
        from repro.serve import TransformPool

        with TransformPool(self, workers=workers, deadline=deadline) as pool:
            return pool.transform_many(requests)

    def stream_transform(self, name: str, guard: str, out) -> StreamStats:
        """Compile a guard and write the rendered XML (compact) into ``out``.

        The plan's text sink never builds the output forest, so this is
        the cheapest way to turn a stored document into bytes for a file
        or socket; the text equals ``transform(name, guard).xml()``.
        """
        return self._plan(name, guard).write(out)

    def load_forest(self, name: str) -> XmlForest:
        """Reconstruct a full document from its Nodes records."""
        index = self.index(name)
        prefix = tables.nodes_prefix(index.doc_id)
        forest = XmlForest()
        by_label: dict[bytes, XmlNode] = {}
        for key, value in self.tree.scan_prefix(prefix):
            label = key[len(prefix) :]
            type_id, is_attribute, _overflow_chunks = tables.node_head(value)
            node = XmlNode(
                index.type_table.by_id(type_id).name,
                NodeKind.ATTRIBUTE if is_attribute else NodeKind.ELEMENT,
                tables.node_text(self.tree, index.doc_id, label, value),
            )
            node.dewey = unpack(label)
            by_label[label] = node
            above = parent(label)
            (forest if above is None else by_label[above]).append(node)
        return forest

    def grouped_sequence(self, name: str, dotted_type: str) -> list[tuple]:
        """A type's GroupedSequence: (parent Dewey, Dewey) pairs.

        Figure 8's fourth table is a view here, not a stored keyspace:
        a prefix label contains its parent's, so the pairs are derived
        from the type's TypeToSequence chunks.  They come back in
        document order, which groups children under their parent.
        """
        index = self.index(name)
        matches = index.type_table.match_label(dotted_type)
        if not matches:
            raise StorageError(f"no type matching {dotted_type!r} in {name!r}")
        pairs: list[tuple] = []
        for data_type in matches:
            labels = tables.sequence_columns(self.tree, index.doc_id, data_type.type_id)[0]
            for label in labels:
                above = parent(label)
                pairs.append((unpack(above) if above is not None else None, unpack(label)))
        return pairs

    # -- incremental updates ----------------------------------------------

    def apply_batch(self, name: str, ops) -> "object":
        """Apply a batch of subtree edits to a stored document, durably.

        ``ops`` is a sequence of :class:`~repro.storage.update.InsertSubtree`
        / :class:`~repro.storage.update.DeleteSubtree` /
        :class:`~repro.storage.update.ReplaceSubtree`; each op addresses
        the document as left by the previous one.  The whole batch
        stages into the buffer pool and commits through one journaled
        flush — the same crash envelope as :meth:`store_document`, so
        recovery lands on exactly the pre- or post-batch state.  An
        error before the commit point (bad address, Dewey overflow, an
        injected fault) rolls the staged pages back and leaves this
        handle live on the unchanged document.

        The plan cache is not touched: a changed shape is a new
        fingerprint, and plans cached under the old one stay right for
        it.  Returns the batch's
        :class:`~repro.storage.update.UpdateResult`.
        """
        from repro.storage.update import IncrementalUpdater

        if self.mode == "r":
            raise ReadOnlyDatabaseError(self._file.path, f"update document {name!r}")
        ops = list(ops)
        if not ops:
            raise StorageError("update batch is empty")
        started = time.perf_counter()
        # Reads only: nothing is staged until the first op applies.
        updater = IncrementalUpdater(self, name)
        try:
            for op in ops:
                updater.apply(op)
            updater.commit()
            from repro.faults import FAULTS

            FAULTS.fire("update.commit")
        except Exception:
            # Pre-commit failure: nothing reached disk; drop the staged
            # pages so the handle keeps serving the pre-batch state.
            # SimulatedCrash is a BaseException and deliberately skips
            # this — a "dead" process does not get to roll back.
            self._rollback_staged(name)
            raise
        # The commit point.  A crash inside flush() recovers from the
        # journal (all-or-nothing), so no rollback handling wraps it.
        self.pool.flush()
        result = updater.result
        self._retire(name, "updated")
        result.seconds = time.perf_counter() - started
        self.stats.count("update.batches")
        self.stats.count("update.ops", result.ops)
        for field in ("nodes_added", "nodes_removed", "nodes_renumbered"):
            count = getattr(result, field)
            if count:
                self.stats.count(f"update.{field}", count)
        self.stats.observe("update.batch_seconds", result.seconds)
        return result

    def insert_subtree(self, name: str, parent, subtree, position=None):
        """Insert one subtree (see :class:`~repro.storage.update.InsertSubtree`)."""
        from repro.storage.update import InsertSubtree

        return self.apply_batch(name, [InsertSubtree(parent, subtree, position)])

    def delete_subtree(self, name: str, target):
        """Delete one subtree (see :class:`~repro.storage.update.DeleteSubtree`)."""
        from repro.storage.update import DeleteSubtree

        return self.apply_batch(name, [DeleteSubtree(target)])

    def replace_subtree(self, name: str, target, subtree):
        """Replace one subtree (see :class:`~repro.storage.update.ReplaceSubtree`)."""
        from repro.storage.update import ReplaceSubtree

        return self.apply_batch(name, [ReplaceSubtree(target, subtree)])

    def _retire(self, name: str, reason: str) -> None:
        """Forget ``name``'s index and move the document's generation on.

        Results planned against any earlier index of ``name`` — the one
        registered here or one ``drop_cache`` or a rollback orphaned —
        may still be unread; what they have already loaded is a
        consistent pre-change snapshot, anything else is refused
        (``XM570``).
        """
        with self._index_lock:
            self._indexes.pop(name, None)
            self._generations[name] = (self.generation(name) + 1, reason)

    def generation(self, name: str) -> int:
        """How often this handle has updated or dropped ``name``."""
        return self._generations.get(name, (0, ""))[0]

    def changed_since(self, name: str, generation: int) -> Optional[str]:
        """Why an index of ``name`` built at ``generation`` must not load
        from the store any more ("updated", "dropped", "closed"), or
        ``None`` while its pages are still the ones it describes."""
        if self._closed:
            return "closed"
        current, reason = self._generations.get(name, (generation, ""))
        return reason if current != generation else None

    def _rollback_staged(self, name: str) -> None:
        """Forget a staged (never-flushed) batch: back to the disk state.

        The buffer pool drops every cached page — dirty ones included —
        and the B+tree re-reads its meta page, so the tree again
        describes exactly what is on disk (on a store whose first flush
        never happened: a freshly initialised, empty tree).  Cheap: no
        I/O beyond re-reading page 0.  Counted first: that re-read can
        fail too, after the staged pages are already gone.
        """
        self.stats.count("storage.rollbacks")
        self.tree.rollback()
        self._indexes.pop(name, None)

    def drop_document(self, name: str) -> int:
        """Remove a document and all its records; returns entries deleted.

        Deletion is lazy at the B+tree level (pages are not reclaimed),
        which matches the store's write-once/scan-mostly design; the
        catalog, shape, node, sequence and overflow keyspaces all clear.
        """
        if self.mode == "r":
            raise ReadOnlyDatabaseError(self._file.path, f"drop document {name!r}")
        descriptor = self.describe(name)
        deleted = 1
        try:
            for prefix in tables.document_prefixes(descriptor["doc_id"]):
                victims = [key for key, _value in self.tree.scan_prefix(prefix)]
                for key in victims:
                    self.tree.delete(key)
                deleted += len(victims)
            self.tree.delete(tables.catalog_key(name))
        except Exception:
            # Pre-commit failure (a page that fails its checksum, an
            # injected read fault): drop the staged deletes, or the next
            # flush would commit a document with half its records.
            self._rollback_staged(name)
            raise
        self.pool.flush()
        self._retire(name, "dropped")
        return deleted

    # -- maintenance ----------------------------------------------------------------

    def drop_cache(self) -> None:
        """Flush and empty every cache ("cold cache" for benchmarks).

        Drops the buffer pool, loaded type sequences, join memos and
        compiled plans, so the next evaluation pays the full pipeline —
        the paper's cold-cache methodology.
        """
        self.pool.drop_cache()
        with self._index_lock:
            for index in self._indexes.values():
                index.drop_cache()
            self._indexes.clear()
        self.plan_cache.clear()

    def flush(self) -> None:
        self.pool.flush()
        self._file.sync()

    def close(self) -> None:
        self._closed = True
        self.pool.flush()
        self._file.close()
        self._lock.release()

    def abandon(self) -> None:
        """Simulate process death: drop descriptors and the writer lock
        *without* flushing.

        This is what ``kill -9`` does — the OS closes the fds and the
        ``flock`` dies with the process, but no buffered state reaches
        disk.  The crash-matrix suite calls this after a
        :class:`~repro.faults.SimulatedCrash` so the same process can
        reopen the file and exercise recovery.
        """
        try:
            self._file.close()
        except OSError:
            pass
        self._lock.release()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _next_doc_id(self) -> int:
        raw = self.tree.get(tables.META_KEY)
        next_id = int.from_bytes(raw, "big") if raw else 0
        self.tree.put(tables.META_KEY, (next_id + 1).to_bytes(4, "big"))
        return next_id


class StoredDocumentIndex(BaseIndex):
    """A document index backed by the store.

    The same columns and shape as the in-memory
    :class:`~repro.closeness.DocumentIndex`, read back: the shredder
    wrote them from the same :class:`~repro.shape.dataguide.DataGuideBuilder`.
    The open decodes the AdornedShapes record (:func:`tables.read_shape`:
    fixed-width columns, no JSON), checks it and keeps arrays: type
    paths rebuilt from the parent chain (:meth:`TypeTable.of_paths`),
    parent ids and edge cards (:class:`SourceShape`), counts.  A parent
    that is not below its child, a name past the name table, an empty
    edge range or a path named twice is a
    :class:`~repro.errors.CorruptRecordError` here, never a different
    shape later.  A ``DataType`` and its vertex are made when a guard
    reaches the type, and node sequences load lazily per type.

    The one difference is ``type_distance``, which derives from root
    paths: the distance between two types is the distance between their
    paths' common prefix and each type.  That equals Definition 1's
    minimum over the instances only when some instance of the common
    prefix holds nodes of both types.  When none does, the stored
    distance is smaller than the in-memory index's exact one, and the
    two render differently: in ``<r><a><b/></a><a><c/></a></r>`` the
    stored ``b``–``c`` distance is 2 and the exact one is 4.
    ``tests/storage/test_database.py`` pins that case as an expected
    failure; docs/STORAGE.md gives the numbers on the corpora.
    """

    def __init__(self, database: Database, descriptor: dict):
        self.database = database
        self.doc_id: int = descriptor["doc_id"]
        self.name: str = descriptor["name"]
        #: The document's generation everything below is read at.
        self.generation: int = database.generation(self.name)
        record = tables.read_shape(database.tree, self.doc_id, self.name)
        #: Stable hash of the adorned-shape descriptor; keys the plan
        #: cache.  Stored in the catalog at shred and update time.
        self.fingerprint: str = descriptor["shape_fingerprint"]
        shape = SourceShape(record.type_table, record.parents, record.lows, record.highs)
        super().__init__(record.type_table, shape, record.counts)
        self._sequences: dict[int, TypeSequence] = {}

    # -- BaseIndex interface ----------------------------------------------------

    def type_distance(self, first: DataType, second: DataType) -> Optional[int]:
        if first == second:
            return 0
        shared = 0
        for a, b in zip(first.path, second.path):
            if a != b:
                break
            shared += 1
        if shared == 0:
            return None
        return (first.level - (shared - 1)) + (second.level - (shared - 1))

    def nodes_of(self, data_type: DataType) -> TypeSequence:
        # The memo lock makes the lazy load single-flight.  Two loads of
        # one type would yield the same positions, so a race could not
        # make a join miss; the lock saves the second walk.
        with self._memo_lock:
            cached = self._sequences.get(data_type.type_id)
            if cached is not None:
                return cached
            stale = self.database.changed_since(self.name, self.generation)
            if stale is not None:
                raise RetiredDocumentError(self.name, stale)
            tree = self.database.tree
            labels, values, attributes, overflowed = tables.sequence_columns(
                tree, self.doc_id, data_type.type_id
            )
            for position, chunks in overflowed.items():
                values[position] = tables.read_overflow(
                    tree, self.doc_id, labels[position], chunks
                )
            sequence = TypeSequence(self, data_type, labels, values, attributes)
            self._sequences[data_type.type_id] = sequence
        return sequence

    def _loaded_sequences(self) -> Iterable[TypeSequence]:
        return self._sequences.values()

    # -- extras -----------------------------------------------------------------

    def record_timing(self, name: str, seconds: float) -> None:
        # Join builds on a stored document land in the database's
        # lifetime histograms (the Prometheus endpoint reads those),
        # which report to the current tracer too: super() would count
        # the sample twice there.
        self.database.stats.observe(name, seconds)

    def drop_cache(self) -> None:
        with self._memo_lock:
            self._sequences.clear()
            self._position_of = None
            # The join memo holds positions of the dropped sequences.
            self.drop_join_cache()
