"""Tests for the write-ahead journal and crash recovery."""

import os

import pytest

from repro.storage import Database
from repro.storage.journal import Journal
from repro.storage.pages import PAGE_SIZE, BufferPool, PagedFile
from repro.storage.stats import SystemStats

from tests.conftest import FIG1A


class TestJournalFile:
    def test_roundtrip(self, tmp_path):
        journal = Journal(str(tmp_path / "j"))
        pages = {3: bytes([1]) * PAGE_SIZE, 7: bytes([2]) * PAGE_SIZE}
        journal.write(pages)
        assert journal.pending() == pages

    def test_clear(self, tmp_path):
        journal = Journal(str(tmp_path / "j"))
        journal.write({0: bytes(PAGE_SIZE)})
        journal.clear()
        assert journal.pending() is None

    def test_empty_batch_is_noop(self, tmp_path):
        journal = Journal(str(tmp_path / "j"))
        journal.write({})
        assert journal.pending() is None

    def test_unsealed_journal_quarantined(self, tmp_path):
        path = tmp_path / "j"
        journal = Journal(str(path))
        journal.write({1: bytes(PAGE_SIZE)})
        # Simulate a crash mid-journal: truncate before the seal.
        raw = path.read_bytes()
        path.write_bytes(raw[:-2])
        assert journal.pending() is None
        # Forensic evidence preserved, not deleted.
        assert not path.exists()
        assert (tmp_path / "j.corrupt").exists()

    def test_torn_write_mid_batch_quarantined(self, tmp_path):
        # A crash partway through the journal write leaves a torn file:
        # header + some page images, no seal.  Recovery must treat it as
        # never-written (the main file was not touched yet).
        path = tmp_path / "j"
        journal = Journal(str(path))
        pages = {i: bytes([i + 1]) * PAGE_SIZE for i in range(4)}
        journal.write(pages)
        raw = path.read_bytes()
        # Truncate in the middle of the third page image.
        path.write_bytes(raw[: len(raw) // 2])
        assert journal.pending() is None
        assert not path.exists()
        assert (tmp_path / "j.corrupt").exists()

    def test_discarded_journal_counted(self, tmp_path):
        stats = SystemStats()
        path = tmp_path / "j"
        journal = Journal(str(path), stats=stats)
        journal.write({1: bytes(PAGE_SIZE)})
        path.write_bytes(path.read_bytes()[:-1])
        assert journal.pending() is None
        assert stats.counters["recovery.discarded_journals"] == 1

    def test_crc_failure_quarantined(self, tmp_path):
        # A sealed, size-correct journal whose body was bit-flipped must
        # fail its CRC and be quarantined, never replayed.
        path = tmp_path / "j"
        journal = Journal(str(path))
        journal.write({0: bytes([7]) * PAGE_SIZE})
        raw = bytearray(path.read_bytes())
        raw[200] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert journal.pending() is None
        assert (tmp_path / "j.corrupt").exists()

    def test_inspect_is_nondestructive(self, tmp_path):
        path = tmp_path / "j"
        journal = Journal(str(path))
        journal.write({1: bytes(PAGE_SIZE)})
        path.write_bytes(path.read_bytes()[:-1])
        assert journal.inspect() == ("corrupt", None)
        assert path.exists()  # inspect never quarantines

    def test_directory_entry_fsynced(self, tmp_path, monkeypatch):
        # The journal's directory entry must be made durable after the
        # file is created and after it is unlinked — otherwise a crash
        # can lose the entry while the main file is already torn.
        synced: list[int] = []
        import repro.storage.journal as journal_module

        real = journal_module._fsync_dir
        monkeypatch.setattr(
            journal_module, "_fsync_dir", lambda p: (synced.append(1), real(p))
        )
        journal = Journal(str(tmp_path / "j"))
        journal.write({0: bytes(PAGE_SIZE)})
        assert len(synced) == 1  # after create+fsync
        journal.clear()
        assert len(synced) == 2  # after unlink

    def test_torn_write_with_lucky_seal_bytes_discarded(self, tmp_path):
        # Torn mid-batch but the truncation point happens to end in the
        # seal bytes (page data can contain b"DONE"): the size check must
        # still reject it.
        path = tmp_path / "j"
        journal = Journal(str(path))
        journal.write({0: b"DONE" * (PAGE_SIZE // 4), 1: bytes(PAGE_SIZE)})
        raw = path.read_bytes()
        header = 8  # magic + count
        path.write_bytes(raw[: header + 4 + 400])  # ends inside page 0's "DONE"s
        assert journal.pending() is None

    def test_corrupt_magic_discarded(self, tmp_path):
        path = tmp_path / "j"
        path.write_bytes(b"NOPE" + bytes(100) + b"DONE")
        assert Journal(str(path)).pending() is None

    def test_wrong_size_entry_rejected(self, tmp_path):
        journal = Journal(str(tmp_path / "j"))
        with pytest.raises(ValueError):
            journal.write({0: b"short"})

    def test_short_os_write_retried_until_durable(self, tmp_path, monkeypatch):
        # os.write may accept fewer bytes than offered; the writer must
        # loop until the whole batch (and its seal) is down.
        journal = Journal(str(tmp_path / "j"))
        real_write = os.write

        def short_write(fd, data):
            return real_write(fd, bytes(data)[:1000])

        monkeypatch.setattr(os, "write", short_write)
        pages = {i: bytes([i + 1]) * PAGE_SIZE for i in range(3)}
        journal.write(pages)
        monkeypatch.undo()
        assert journal.pending() == pages


class TestRecovery:
    def test_replay_applies_pages(self, tmp_path):
        stats = SystemStats()
        file = PagedFile(str(tmp_path / "d.db"), stats)
        file.allocate()
        file.close()

        # A sealed journal exists but was never applied (crash mid-apply).
        journal = Journal(str(tmp_path / "d.db.journal"))
        journal.write({0: bytes([9]) * PAGE_SIZE})

        file = PagedFile(str(tmp_path / "d.db"), stats)
        applied = journal.recover(file)
        assert applied == 1
        assert bytes(file.read_page(0)) == bytes([9]) * PAGE_SIZE
        assert journal.pending() is None
        file.close()

    def test_replay_extends_file(self, tmp_path):
        stats = SystemStats()
        file = PagedFile(str(tmp_path / "e.db"), stats)
        journal = Journal(str(tmp_path / "e.db.journal"))
        journal.write({2: bytes([5]) * PAGE_SIZE})
        journal.recover(file)
        assert file.page_count == 3
        assert bytes(file.read_page(2)) == bytes([5]) * PAGE_SIZE
        file.close()


class TestCrashSafeDatabase:
    def test_simulated_crash_between_journal_and_apply(self, tmp_path):
        path = str(tmp_path / "crash.db")
        with Database(path) as db:
            db.store_document("a", FIG1A)
        # Take a sealed journal image of legitimate page contents, then
        # corrupt the main file (as if the in-place apply never ran).
        stats = SystemStats()
        file = PagedFile(path, stats)
        images = {
            page_id: bytes(file.read_page(page_id))
            for page_id in range(file.page_count)
        }
        # "Crash": clobber the data pages.
        for page_id in range(1, file.page_count):
            file.write_page(page_id, bytes(PAGE_SIZE))
        file.close()
        Journal(path + ".journal").write(images)

        # Reopen: recovery must replay the journal and the data is back.
        with Database(path) as again:
            assert again.document_names() == ["a"]
            assert again.load_forest("a").node_count() > 0

    def test_flush_clears_journal(self, tmp_path):
        path = str(tmp_path / "ok.db")
        with Database(path) as db:
            db.store_document("a", FIG1A)
            db.flush()
        assert not os.path.exists(path + ".journal")

    def test_durable_false_skips_journal(self, tmp_path):
        path = str(tmp_path / "nd.db")
        with Database(path, durable=False) as db:
            db.store_document("a", FIG1A)
        assert not os.path.exists(path + ".journal")

    def test_eviction_with_journal_is_consistent(self, tmp_path):
        # A tiny pool forces journaled evictions mid-shred.
        path = str(tmp_path / "tiny.db")
        with Database(path, cache_pages=2) as db:
            db.store_document("a", FIG1A)
            assert db.load_forest("a").node_count() > 0
