"""``xmorph fsck``: offline integrity checking and repair for a database.

Five passes, cheapest first:

1. **Lock probe** — the store is single-writer; a held lock means a
   live process owns the file and scanning would race it, so fsck
   reports ``locked`` and stops.
2. **Journal** — inspected read-only before anything else, so the
   report always says what sits beside the file.  A sealed journal is
   a committed batch whose in-place apply was interrupted; ``--repair``
   replays it (exactly what opening the database would do).  A
   corrupt/unsealed journal (or one under an older magic) is evidence
   of a crash before the commit point; ``--repair`` quarantines it as
   ``<journal>.corrupt``.
3. **Format** — a file that is not whole slots stops fsck here, before
   any repair (:class:`~repro.errors.FormatError`, ``XM500``): it is
   reported and left alone, with or without ``--repair``.
4. **Page scan** — every slot's CRC-32 trailer is verified
   (:mod:`repro.storage.checksum`); torn or misdirected writes surface
   as per-page checksum failures.  A page sealed under another version
   of the trailer ends the scan with the same ``XM500``; nothing is
   rebuilt.
5. **Structure** — the B+tree is walked (:meth:`BPlusTree.check`) and
   every catalog descriptor is cross-checked against its table records
   (:func:`repro.storage.tables.verify_document`).

All counts land in ``fsck.*`` / ``recovery.*`` events on the report's
:class:`~repro.storage.stats.SystemStats`, and on the current tracer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import (
    CorruptRecordError,
    DatabaseLockedError,
    FormatError,
    PageError,
    StorageError,
)
from repro.storage import tables
from repro.storage.btree import BPlusTree
from repro.storage.journal import Journal
from repro.storage.lockfile import FileLock
from repro.storage.pages import BufferPool, PagedFile
from repro.storage.stats import SystemStats, event_counts


@dataclass
class FsckReport:
    """Everything one fsck pass found (and, with repair, fixed)."""

    path: str
    locked: bool = False
    #: "none" | "sealed" | "corrupt" | "replayed" | "quarantined"
    journal_status: str = "none"
    journal_pages: int = 0
    pages_scanned: int = 0
    #: Page ids whose CRC-32 trailer did not match their contents.
    checksum_failures: list[int] = field(default_factory=list)
    btree_problems: list[str] = field(default_factory=list)
    documents: list[str] = field(default_factory=list)
    document_problems: list[str] = field(default_factory=list)
    #: Problems fsck could not check past (a file in another format).
    errors: list[str] = field(default_factory=list)
    events: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the store is consistent (a replayed journal is ok)."""
        return not (
            self.locked
            or self.checksum_failures
            or self.btree_problems
            or self.document_problems
            or self.errors
            or self.journal_status in ("sealed", "corrupt")
        )

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "ok": self.ok,
            "locked": self.locked,
            "journal": {"status": self.journal_status, "pages": self.journal_pages},
            "pages_scanned": self.pages_scanned,
            "checksum_failures": list(self.checksum_failures),
            "btree_problems": list(self.btree_problems),
            "documents": list(self.documents),
            "document_problems": list(self.document_problems),
            "errors": list(self.errors),
            "events": dict(self.events),
        }

    def pretty(self) -> str:
        lines = [f"fsck {self.path}"]
        if self.locked:
            lines.append("  LOCKED: another process holds the writer lock; not scanned")
            return "\n".join(lines)
        journal = f"  journal: {self.journal_status}"
        if self.journal_pages:
            journal += f" ({self.journal_pages} pages)"
        lines.append(journal)
        lines.append(
            f"  pages: {self.pages_scanned} scanned, "
            f"{len(self.checksum_failures)} checksum failures"
        )
        for page_id in self.checksum_failures:
            lines.append(f"    page {page_id}: checksum mismatch")
        if self.btree_problems:
            lines.append(f"  btree: {len(self.btree_problems)} problems")
            lines.extend(f"    {problem}" for problem in self.btree_problems)
        else:
            lines.append("  btree: ok")
        lines.append(f"  documents: {len(self.documents)} checked")
        lines.extend(f"    {problem}" for problem in self.document_problems)
        lines.extend(f"  error: {error}" for error in self.errors)
        lines.append(f"  status: {'clean' if self.ok else 'PROBLEMS FOUND'}")
        return "\n".join(lines)


def fsck(path: str, repair: bool = False, stats: SystemStats | None = None) -> FsckReport:
    """Check (and with ``repair=True``, fix) one database file."""
    if not os.path.exists(path):
        # PagedFile and FileLock create what they do not find; a check
        # of a mistyped path must not report a fresh empty store clean.
        raise StorageError(f"no such database: {path!r}")
    stats = stats if stats is not None else SystemStats()
    report = FsckReport(path=path)

    lock = FileLock(path + ".lock")
    try:
        lock.acquire()
    except DatabaseLockedError:
        report.locked = True
        return report
    try:
        # Read-only, and first: whatever else is wrong with the file, the
        # report says whether a committed batch sits beside it.
        journal = Journal(path + ".journal", stats=stats)
        report.journal_status, batch = journal.inspect()
        report.journal_pages = len(batch or ())
        try:
            file = PagedFile(path, stats)
            try:
                if repair:
                    _repair_journal(journal, file, stats, report)
                _scan_pages(file, stats, report)
                _check_structure(file, stats, report)
            finally:
                file.close()
        except FormatError as error:
            report.errors.append(str(error))
        report.events = event_counts(stats.counters)
        return report
    finally:
        lock.release()


def _repair_journal(
    journal: Journal, file: PagedFile, stats: SystemStats, report: FsckReport
) -> None:
    if report.journal_status == "sealed":
        applied = journal.recover(file)
        report.journal_status = "replayed"
        stats.count("fsck.journals_replayed")
        stats.count("fsck.pages_replayed", applied)
    elif report.journal_status == "corrupt":
        journal.quarantine()
        report.journal_status = "quarantined"


def _scan_pages(file: PagedFile, stats: SystemStats, report: FsckReport) -> None:
    for page_id in range(file.page_count):
        try:
            file.read_page(page_id)
        except FormatError:
            raise  # another build's page, not a damaged one: stop here
        except PageError:
            report.checksum_failures.append(page_id)
    report.pages_scanned = file.page_count
    stats.count("fsck.pages_scanned", file.page_count)
    if report.checksum_failures:
        stats.count("fsck.checksum_failures", len(report.checksum_failures))


def _check_structure(file: PagedFile, stats: SystemStats, report: FsckReport) -> None:
    if file.page_count == 0:
        return  # empty store: nothing to walk (and BPlusTree would create pages)
    pool = BufferPool(file, capacity=64)
    try:
        tree = BPlusTree(pool)
    except StorageError as error:
        report.btree_problems.append(f"meta page: {error}")
        return
    report.btree_problems.extend(tree.check())
    try:
        for name, value in tables.catalog_entries(tree):
            report.documents.append(name)
            try:
                descriptor = tables.decode_catalog(name, value)
            except CorruptRecordError as error:
                report.document_problems.append(str(error))
                continue
            report.document_problems.extend(tables.verify_document(tree, descriptor))
    except PageError as error:
        # A torn page mid-scan: the per-page failures are already
        # reported; record that the logical check could not finish.
        report.document_problems.append(f"catalog scan aborted: {error}")
    stats.count("fsck.documents_checked", len(report.documents))