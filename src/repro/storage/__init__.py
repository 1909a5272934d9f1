"""The storage engine: XMorph's data store (Figure 8).

The paper's implementation shreds XML into BerkeleyDB JE tables; we
implement the equivalent embedded store from scratch:

* :mod:`repro.storage.pages` — a paged file with an LRU buffer pool;
  every block read/write is counted.
* :mod:`repro.storage.btree` — a B+tree ordered key-value store over
  the buffer pool (the BerkeleyDB substitute).
* :mod:`repro.storage.tables` — the four tables of Figure 8 (Nodes,
  AdornedShapes, TypeToSequence, GroupedSequence) plus a catalog,
  mapped onto B+tree keyspaces.
* :mod:`repro.storage.shredder` — XML → tables.
* :mod:`repro.storage.update` — incremental subtree updates: insert /
  delete / replace batches that patch the tables in place instead of
  re-shredding (``docs/UPDATES.md``).
* :mod:`repro.storage.database` — the user-facing :class:`Database`
  with a storage-backed document index for guard evaluation.
* :mod:`repro.storage.stats` — vmstat-analog counters (block I/O,
  events, measured latencies) behind Figures 11–12.
* :mod:`repro.storage.checksum` — the on-disk format magics and the
  CRC-32 behind page trailers and the journal seal (torn-write
  detection on every physical read).
* :mod:`repro.storage.lockfile` — the single-writer/many-reader
  advisory lock (exclusive for ``mode="w"``, shared for ``mode="r"``;
  see ``docs/CONCURRENCY.md``).
* :mod:`repro.storage.fsck` — offline integrity checking and repair
  (``xmorph fsck``).

Every syscall site reports to :mod:`repro.faults` so crash tests can
tear or kill it; see ``docs/STORAGE.md`` for the recovery protocol.
"""

from repro.storage.stats import SystemStats
from repro.storage.pages import PagedFile, BufferPool, PAGE_SIZE, SLOT_SIZE
from repro.storage.btree import BPlusTree
from repro.storage.database import Database, StoredDocumentIndex
from repro.storage.fsck import FsckReport, fsck
from repro.storage.lockfile import FileLock
from repro.storage.update import (
    DeleteSubtree,
    InsertSubtree,
    ReplaceSubtree,
    UpdateResult,
    reference_apply,
)

__all__ = [
    "SystemStats",
    "PagedFile",
    "BufferPool",
    "PAGE_SIZE",
    "SLOT_SIZE",
    "BPlusTree",
    "Database",
    "StoredDocumentIndex",
    "FsckReport",
    "fsck",
    "FileLock",
    "InsertSubtree",
    "DeleteSubtree",
    "ReplaceSubtree",
    "UpdateResult",
    "reference_apply",
]
