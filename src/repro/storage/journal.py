"""A write-ahead journal for crash-safe page flushes.

BerkeleyDB (the paper's store) is transactional; our substitute gets a
minimal equivalent: before dirty pages are written in place, they are
appended to a journal file and fsynced — and so is the journal's
*directory entry*, because a freshly created file whose directory was
never synced can vanish in a crash, leaving a torn main file with
nothing to replay.  A commit marker seals the batch; only then are the
pages applied to the main file and the journal cleared (unlink plus a
second directory fsync).  On open, a sealed journal is replayed (the
crash happened mid-apply) and an unsealed or corrupt one is quarantined
as ``<path>.corrupt`` — forensic evidence is never silently destroyed —
before recovery proceeds as if it were absent (the crash happened
mid-journal; the main file is untouched).

Journal layout (CRC-sealed)::

    MAGIC "XMJ3" | count u32 | crc32 u32 | (page_id u32 | PAGE_SIZE bytes) * count | "DONE"

where the CRC covers the entry region.  A journal under any other magic
is not a batch this build wrote: it is quarantined, never replayed.

Every syscall site (blob write, fsync, directory fsync, unlink) reports
to the failpoint registry (:mod:`repro.faults`) for crash testing.
"""

from __future__ import annotations

import os
import struct
import time
from typing import Mapping, Optional

from repro.faults import FAULTS
from repro.storage.checksum import JOURNAL_MAGIC, crc32
from repro.storage.pages import PAGE_SIZE, PagedFile, _fsync_dir
from repro.storage.stats import SystemStats

_SEAL = b"DONE"
_HEADER = struct.Struct("<4sII")
_ENTRY_HEADER = struct.Struct("<I")


class Journal:
    """The write-ahead journal of one database file.

    ``stats`` (a fresh registry when omitted) receives ``recovery.*``
    event counts — journals replayed, pages reapplied, corrupt journals
    quarantined.
    """

    def __init__(self, path: str, stats: Optional[SystemStats] = None):
        self.path = path
        self.stats = stats if stats is not None else SystemStats()

    # -- writing ------------------------------------------------------------

    def write(self, pages: Mapping[int, bytes]) -> None:
        """Durably record a batch of page images (not yet applied)."""
        if not pages:
            return
        body = bytearray()
        for page_id in sorted(pages):
            data = pages[page_id]
            if len(data) != PAGE_SIZE:
                raise ValueError(f"journal entry for page {page_id} has wrong size")
            body += _ENTRY_HEADER.pack(page_id)
            body += data
        blob = _HEADER.pack(JOURNAL_MAGIC, len(pages), crc32(body)) + body + _SEAL
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            FAULTS.fire(
                "journal.write",
                partial=lambda: _write_all(fd, blob[: len(blob) // 2]),
            )
            _write_all(fd, blob)
            FAULTS.fire("journal.fsync")
            started = time.perf_counter()
            os.fsync(fd)
            self.stats.observe("journal.fsync_seconds", time.perf_counter() - started)
        finally:
            os.close(fd)
        # The data is durable; now make the *name* durable too, or a
        # crash after apply began could lose the directory entry.
        FAULTS.fire("journal.dirsync")
        _fsync_dir(os.path.dirname(self.path))

    def clear(self) -> None:
        """Forget the journal after a successful apply."""
        if os.path.exists(self.path):
            FAULTS.fire("journal.unlink")
            os.unlink(self.path)
            FAULTS.fire("journal.dirsync")
            _fsync_dir(os.path.dirname(self.path))

    # -- recovery ----------------------------------------------------------------

    def inspect(self) -> tuple[str, Optional[dict[int, bytes]]]:
        """Non-destructive look at the journal: ``(status, batch)``.

        ``status`` is ``"none"`` (no journal), ``"sealed"`` (a committed
        batch awaiting replay, returned as the second element) or
        ``"corrupt"`` (torn, unsealed, or failing its CRC — the crash
        happened before the commit point, so the main file is intact).
        """
        try:
            with open(self.path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            return "none", None
        if len(blob) < _HEADER.size + len(_SEAL) or not blob.endswith(_SEAL):
            return "corrupt", None
        magic, count, stored = _HEADER.unpack_from(blob, 0)
        body = blob[_HEADER.size : -len(_SEAL)]
        if (
            magic != JOURNAL_MAGIC
            or len(body) != count * (_ENTRY_HEADER.size + PAGE_SIZE)
            or crc32(body) != stored
        ):
            return "corrupt", None
        pages: dict[int, bytes] = {}
        offset = 0
        for _ in range(count):
            (page_id,) = _ENTRY_HEADER.unpack_from(body, offset)
            offset += _ENTRY_HEADER.size
            pages[page_id] = body[offset : offset + PAGE_SIZE]
            offset += PAGE_SIZE
        return "sealed", pages

    def quarantine(self) -> str:
        """Move a corrupt journal aside as ``<path>.corrupt``; returns
        the quarantine path.  Evidence of what went wrong is preserved
        for fsck/forensics instead of being deleted."""
        target = self.path + ".corrupt"
        os.replace(self.path, target)
        _fsync_dir(os.path.dirname(self.path))
        self.stats.count("recovery.discarded_journals")
        return target

    def pending(self) -> dict[int, bytes] | None:
        """The sealed batch awaiting replay, or ``None``.

        An unsealed/corrupt journal means the crash happened before the
        commit point: the main file was never touched.  The journal is
        quarantined (not deleted) and recovery proceeds without it.
        """
        status, pages = self.inspect()
        if status == "corrupt":
            self.quarantine()
            return None
        return pages

    def recover(self, file: PagedFile) -> int:
        """Replay a sealed journal into the main file; returns pages applied."""
        pages = self.pending()
        if pages is None:
            return 0
        for page_id, data in pages.items():
            while page_id >= file.page_count:
                file.allocate()
            file.write_page(page_id, data)
        file.sync()
        self.clear()
        self.stats.count("recovery.journals_replayed")
        self.stats.count("recovery.replayed_pages", len(pages))
        return len(pages)


def _write_all(fd: int, blob: bytes) -> None:
    # A single os.write may be short on large batches; the batch is only
    # durable once every byte (including the seal) is down.
    remaining = memoryview(blob)
    while remaining:
        written = os.write(fd, remaining)
        remaining = remaining[written:]
