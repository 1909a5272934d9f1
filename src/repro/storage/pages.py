"""Paged file storage with an LRU buffer pool.

All persistent data lives in fixed-size pages of one file per database.
The buffer pool caches pages, tracks dirty state and evicts
least-recently-used *clean* pages; dirty pages stay pinned until the
next :meth:`BufferPool.flush` commits them as one journaled batch.
Every physical page read or write is reported to
:class:`~repro.storage.stats.SystemStats`.
This is the layer where the paper's block-I/O numbers (Figures 11–12)
come from.

On disk each page occupies a *slot*: the ``PAGE_SIZE`` payload plus an
8-byte CRC-32 trailer (:mod:`repro.storage.checksum`).  Upper layers
only ever see the payload; the trailer is computed on every physical
write and verified on every physical read, so a torn or misdirected
write surfaces as a coded :class:`~repro.errors.ChecksumError` instead
of silent corruption.  A file that is not whole slots is refused at
open, and a page sealed under another version of the trailer at its
first read (:class:`~repro.errors.FormatError`); neither is migrated.
Every syscall site reports to the failpoint registry
(:mod:`repro.faults`) so the crash-matrix suite can tear or kill it.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator, Mapping, Optional

from repro.errors import ChecksumError, FormatError, PageError, ReadOnlyDatabaseError
from repro.faults import FAULTS
from repro.storage.checksum import (
    TRAILER_SIZE,
    page_crc,  # noqa: F401 - part of this module's checksum surface
    seal_page,
    verify_page,
)
from repro.storage.stats import SystemStats

PAGE_SIZE = 4096
#: On-disk footprint of one page: payload + CRC-32 trailer.
SLOT_SIZE = PAGE_SIZE + TRAILER_SIZE


class PagedFile:
    """A file of fixed-size pages with checksums and I/O accounting.

    ``readonly=True`` opens the file ``O_RDONLY`` (it must exist) and
    turns every mutation into :class:`~repro.errors.ReadOnlyDatabaseError`
    (``XM550``).  ``overlay`` maps page ids to payload bytes that shadow
    the on-disk pages — a read-only open with a sealed-but-unreplayed
    journal reads *through* the journal batch without writing anything,
    giving every concurrent reader the same frozen post-commit snapshot.
    Writable or read-only, :meth:`read_page` serves a page from the
    overlay if it holds it, else from one ``pread`` of its slot, whose
    trailer it verifies on every read.
    """

    def __init__(
        self,
        path: str,
        stats: SystemStats,
        readonly: bool = False,
        overlay: Optional[Mapping[int, bytes]] = None,
    ):
        self.path = path
        self.stats = stats
        self.readonly = readonly
        self._overlay: dict[int, bytes] = dict(overlay or {})
        flags = os.O_RDONLY if readonly else os.O_RDWR | os.O_CREAT
        self._fd = os.open(path, flags, 0o644)
        try:
            size = os.fstat(self._fd).st_size
            if size % SLOT_SIZE:
                raise FormatError(
                    path,
                    f"is {size} bytes, not a whole number of {SLOT_SIZE}-byte "
                    "slots (written without checksum trailers, or cut short)",
                )
            self._page_count = size // SLOT_SIZE
            if self._overlay:
                # A journal batch may extend the file past its on-disk end.
                self._page_count = max(self._page_count, max(self._overlay) + 1)
        except BaseException:
            # The descriptor must not outlive a failed constructor.
            os.close(self._fd)
            raise

    @property
    def page_count(self) -> int:
        return self._page_count

    def allocate(self) -> int:
        """Extend the file by one (zeroed) page; returns its id."""
        if self.readonly:
            raise ReadOnlyDatabaseError(self.path, "allocate a page")
        FAULTS.fire("pages.allocate")
        page_id = self._page_count
        self._page_count += 1
        os.pwrite(self._fd, seal_page(page_id, bytes(PAGE_SIZE)), page_id * SLOT_SIZE)
        self.stats.count("storage.blocks_written")
        return page_id

    def read_page(self, page_id: int) -> bytearray:
        """The page payload, CRC-checked on every physical read."""
        self._check(page_id)
        shadowed = self._overlay.get(page_id)
        if shadowed is not None:
            self.stats.count("storage.blocks_read")
            return bytearray(shadowed)
        FAULTS.fire("pages.pread")
        started = time.perf_counter()
        slot = os.pread(self._fd, SLOT_SIZE, page_id * SLOT_SIZE)
        self.stats.observe("storage.page_read_seconds", time.perf_counter() - started)
        self.stats.count("storage.blocks_read")
        if len(slot) != SLOT_SIZE:
            self.stats.count("pages.checksum_failures")
            raise PageError(
                f"short read on page {page_id} of {self.path} "
                f"({len(slot)} of {SLOT_SIZE} bytes)"
            )
        try:
            return bytearray(verify_page(self.path, page_id, slot))
        except ChecksumError:
            self.stats.count("pages.checksum_failures")
            raise

    def write_page(self, page_id: int, data: bytes) -> None:
        if self.readonly:
            raise ReadOnlyDatabaseError(self.path, f"write page {page_id}")
        self._check(page_id)
        if len(data) != PAGE_SIZE:
            raise PageError(f"page payload must be {PAGE_SIZE} bytes, got {len(data)}")
        slot = seal_page(page_id, data)
        offset = page_id * SLOT_SIZE
        FAULTS.fire(
            "pages.pwrite",
            partial=lambda: os.pwrite(self._fd, slot[: SLOT_SIZE // 2], offset),
        )
        os.pwrite(self._fd, slot, offset)
        self.stats.count("storage.blocks_written")

    def sync(self) -> None:
        if self.readonly:
            return
        FAULTS.fire("pages.fsync")
        os.fsync(self._fd)

    def close(self) -> None:
        os.close(self._fd)

    def _check(self, page_id: int) -> None:
        if page_id < 0 or page_id >= self._page_count:
            raise PageError(f"page {page_id} out of range (0..{self._page_count - 1})")


def _fsync_dir(path: str) -> None:
    """Flush a directory entry (file create/unlink) to the device."""
    try:
        fd = os.open(path or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystem refuses dir fsync
        pass
    finally:
        os.close(fd)


class BufferPool:
    """An LRU cache of pages over a :class:`PagedFile`.

    ``capacity`` is in pages.  A frame is the ``bytearray`` that
    :meth:`PagedFile.read_page` returned (or :meth:`allocate` zeroed),
    for a read-only file as for a writable one.

    The pool is thread-safe for the read path: one re-entrant ``lock``
    guards the LRU map, the dirty set and eviction, so concurrent
    readers (a :class:`~repro.serve.TransformPool`'s workers, or many
    ``mode="r"`` scans) never corrupt the recency order or observe a
    half-installed page.  Evicting a page another thread still holds is
    safe — the holder keeps the buffer object; eviction only forgets
    the cache entry.  Multi-page *structures* (a B+tree descent) hold
    the same lock across their page reads via :meth:`locked`; multi-page
    *writes* (a B+tree insert run and the splits it causes) run inside
    :meth:`writing`, which also keeps the pool from committing a batch
    in the middle of them.

    Beside a resident frame the pool may keep one *decoded* form of its
    page (:meth:`remember`; the B+tree keeps its internal nodes there),
    so a page that stays resident is decoded once, not once per read.
    The decoded form lives exactly as long as the bytes it was decoded
    from: it goes when the frame is evicted, marked dirty,
    :meth:`discard` -ed or :meth:`drop_cache` -d, so only a resident
    page ever has one (and :meth:`allocate`, whose page id was never
    resident, installs a frame without one).  Its holder must treat it
    as immutable.
    """

    def __init__(self, file: PagedFile, capacity: int = 1024, journal=None):
        if capacity < 1:
            raise PageError("buffer pool needs capacity >= 1")
        self.file = file
        self.capacity = capacity
        #: Optional :class:`repro.storage.journal.Journal`: when set,
        #: every flush batch is recorded in the write-ahead journal
        #: before touching the main file (evictions never write back —
        #: dirty pages are pinned until the next flush).
        self.journal = journal
        #: Re-entrant: flush() runs under it and _install() may trigger
        #: flush(); B+tree descents also nest get() inside locked().
        self.lock = threading.RLock()
        self._pages: OrderedDict[int, bytearray] = OrderedDict()
        #: Page id -> the decoded form of its resident frame.
        self._decoded: dict[int, object] = {}
        self._dirty: set[int] = set()
        #: Depth of open :meth:`writing` sections (under ``lock``).
        self._writing = 0

    def locked(self) -> "threading.RLock":
        """The pool lock, for callers composing multi-page operations::

            with pool.locked():
                ...  # several get() calls, atomically vs. other threads
        """
        return self.lock

    @contextmanager
    def writing(self) -> Iterator[None]:
        """The pool lock plus a promise: no flush happens inside.

        A structure that rewrites several pages (a leaf split and then
        its parent) is only sound once the last of them is written, so
        a commit point must not fall between them — a journal batch
        holding the split leaves but not the parent's new separator is
        a tree whose leaf chain and descent disagree.  Inside the
        section an all-dirty pool therefore grows past ``capacity``
        instead of flushing; leaving the outermost section trims it
        back (flushing first if it must), at a point where every
        structure is whole.
        """
        with self.lock:
            self._writing += 1
            try:
                yield
            finally:
                self._writing -= 1
            # Reached only when the section completed: after an exception
            # the structure may be half-written, and the caller discards it.
            if not self._writing:
                self._trim()

    @property
    def stats(self) -> SystemStats:
        return self.file.stats

    @property
    def hit_ratio(self) -> float:
        """Fraction of :meth:`get` calls served from the cache."""
        hits = self.stats.counter("buffer.hits")
        total = hits + self.stats.counter("buffer.misses")
        return hits / total if total else 0.0

    def allocate(self) -> int:
        with self.lock:
            page_id = self.file.allocate()
            self._install(page_id, bytearray(PAGE_SIZE))
            return page_id

    def get(self, page_id: int) -> bytearray:
        """The page's buffer (cached); mutations need :meth:`mark_dirty`."""
        with self.lock:
            cached = self._pages.get(page_id)
            if cached is not None:
                self.stats.count("buffer.hits")
                self._pages.move_to_end(page_id)
                return cached
            self.stats.count("buffer.misses")
            data = self.file.read_page(page_id)
            self._install(page_id, data)
            return data

    def decoded(self, page_id: int):
        """The decoded form kept beside the page's frame, or ``None``.

        A hit is a :meth:`get` of the page as far as recency and the
        hit counters go; a miss touches nothing."""
        with self.lock:
            node = self._decoded.get(page_id)
            if node is not None:
                self.get(page_id)
            return node

    def remember(self, page_id: int, node) -> None:
        """Keep ``node`` as the decoded form of the resident page."""
        with self.lock:
            if page_id in self._pages:
                self._decoded[page_id] = node

    def mark_dirty(self, page_id: int) -> None:
        with self.lock:
            if page_id not in self._pages:
                raise PageError(f"page {page_id} is not resident")
            self._dirty.add(page_id)
            self._decoded.pop(page_id, None)

    def flush(self) -> None:
        """Write back every dirty page (keeps them cached).

        With a journal attached this is a crash-safe commit: the batch
        is journaled and fsynced first, applied second, cleared last.
        """
        with self.lock:
            if not self._dirty:
                return
            if self.journal is not None:
                self.journal.write(
                    {page_id: bytes(self._pages[page_id]) for page_id in self._dirty}
                )
            for page_id in sorted(self._dirty):
                # Commit point passed: a crash from here on leaves a sealed
                # journal, and reopen replays the whole batch.
                FAULTS.fire("flush.apply")
                self.file.write_page(page_id, bytes(self._pages[page_id]))
            self._dirty.clear()
            if self.journal is not None:
                self.file.sync()
                self.journal.clear()

    def drop_cache(self) -> None:
        """Flush and forget everything (the benchmarks' 'cold cache')."""
        with self.lock:
            self.flush()
            self._pages.clear()
            self._decoded.clear()

    def discard(self) -> None:
        """Forget every cached page — *including dirty ones* — without
        writing a byte.

        This is the rollback primitive for staged batches (incremental
        updates stage all their mutations as dirty pages and commit with
        one :meth:`flush`): discarding the pool returns every future
        read to the on-disk, pre-batch state.  Pages the batch allocated
        past the old end of file become unreferenced (they were sealed
        as zeroes at allocation time), exactly like lazily-deleted
        B+tree pages.  Callers must refresh any structure that caches
        page contents afterwards (``BPlusTree.rollback`` wraps both).
        """
        with self.lock:
            self._pages.clear()
            self._decoded.clear()
            self._dirty.clear()

    @property
    def resident(self) -> int:
        return len(self._pages)

    def _install(self, page_id: int, data: bytearray) -> None:
        self._pages[page_id] = data
        self._pages.move_to_end(page_id)
        self._trim(keep=page_id)

    def _trim(self, keep: Optional[int] = None) -> None:
        """Evict down to ``capacity``, never the page ``keep``."""
        while len(self._pages) > self.capacity:
            # Dirty pages are pinned: evicting one would have to write it
            # back alone, while its co-dirty siblings stay unjournaled —
            # breaking the journal's all-or-nothing batch promise.  Evict
            # the least-recently-used *clean* page instead; when the pool
            # is all-dirty, commit the whole batch first (one journaled
            # flush), which also cleans every page — unless a writing()
            # section is open, whose half-written structure must not be
            # committed: then the pool stays over capacity until it ends.
            victim = self._clean_victim(keep)
            if victim is None:
                if self._writing:
                    return
                self.flush()
                victim = self._clean_victim(keep)
                if victim is None:
                    break  # only the just-installed page is resident
            del self._pages[victim]
            self._decoded.pop(victim, None)

    def _clean_victim(self, keep: Optional[int]) -> Optional[int]:
        """The least-recently-used clean page other than ``keep``."""
        for page_id in self._pages:
            if page_id != keep and page_id not in self._dirty:
                return page_id
        return None
