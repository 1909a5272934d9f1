"""Tests for ``xmorph fsck``: checksum scan, journal handling, repair."""

import json
import os

import pytest

from repro.cli import main
from repro.errors import ChecksumError, FormatError, StorageError
from repro.faults import FAULTS, SimulatedCrash
from repro.storage import PAGE_SIZE, SLOT_SIZE, Database
from repro.storage.fsck import fsck
from repro.storage.journal import Journal
from repro.storage.pages import PagedFile
from repro.storage.stats import SystemStats

from tests.conftest import FIG1A
from tests.storage.test_database import write_shape_columns


@pytest.fixture(autouse=True)
def clean_registry():
    FAULTS.reset()
    yield
    FAULTS.reset()


@pytest.fixture
def stored(tmp_path):
    path = str(tmp_path / "f.db")
    with Database(path) as db:
        db.store_document("a", FIG1A)
    return path


def _tear_page(path: str, page_id: int) -> None:
    """Flip a payload byte without updating the trailer."""
    with open(path, "r+b") as handle:
        offset = page_id * SLOT_SIZE + 100
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


class TestFsck:
    def test_clean_store(self, stored):
        report = fsck(stored)
        assert report.ok
        assert report.journal_status == "none"
        assert report.pages_scanned > 0
        assert report.checksum_failures == []
        assert report.btree_problems == []
        assert report.documents == ["a"]
        assert report.events["fsck.pages_scanned"] == report.pages_scanned

    @pytest.mark.parametrize("repair", [False, True])
    def test_missing_file_is_an_error_not_a_clean_empty_store(self, tmp_path, repair):
        path = str(tmp_path / "typo.db")
        with pytest.raises(StorageError, match="no such database") as excinfo:
            fsck(path, repair=repair)
        assert path in str(excinfo.value)
        assert os.listdir(tmp_path) == []  # no typo.db, no typo.db.lock

    def test_detects_torn_page(self, stored):
        _tear_page(stored, 1)
        report = fsck(stored)
        assert not report.ok
        assert report.checksum_failures == [1]
        assert report.events["fsck.checksum_failures"] == 1

    def test_detects_locked_database(self, stored):
        with Database(stored):
            report = fsck(stored)
        assert report.locked and not report.ok
        assert fsck(stored).ok  # lock released with the handle

    def test_sealed_journal_reported_and_replayed(self, stored):
        # Crash mid-apply: sealed journal on disk, main file torn.
        db = Database(stored)
        with FAULTS.armed("flush.apply", action="kill"):
            with pytest.raises(SimulatedCrash):
                db.store_document("b", FIG1A.replace("X", "XX"))
        db.abandon()

        report = fsck(stored)
        assert report.journal_status == "sealed"
        assert report.journal_pages > 0
        assert not report.ok

        repaired = fsck(stored, repair=True)
        assert repaired.journal_status == "replayed"
        assert repaired.ok, repaired.pretty()
        assert repaired.events["fsck.journals_replayed"] == 1
        assert not os.path.exists(stored + ".journal")
        with Database(stored) as again:
            assert sorted(again.document_names()) == ["a", "b"]

    def test_corrupt_journal_quarantined_on_repair(self, stored):
        journal_path = stored + ".journal"
        with open(journal_path, "wb") as handle:
            handle.write(b"XMJ2garbage-without-a-seal")
        assert fsck(stored).journal_status == "corrupt"
        assert os.path.exists(journal_path)  # no mutation without --repair

        repaired = fsck(stored, repair=True)
        assert repaired.journal_status == "quarantined"
        assert not os.path.exists(journal_path)
        assert os.path.exists(journal_path + ".corrupt")

    def test_catalog_mismatch_detected(self, stored):
        # Delete one Nodes record behind the catalog's back.
        with Database(stored) as db:
            doc_id = db.describe("a")["doc_id"]
            prefix = b"N" + doc_id.to_bytes(4, "big")
            key = next(iter(db.tree.scan_prefix(prefix)))[0]
            db.tree.delete(key)
        report = fsck(stored)
        assert not report.ok
        assert any("nodes" in problem.lower() for problem in report.document_problems)


class TestShapeRecordChecked:
    """fsck decodes each document's shape record as an open does and
    reports what it finds as a document problem, one check per case."""

    def _problems(self, stored, edit):
        with Database(stored) as db:
            write_shape_columns(db, db.describe("a")["doc_id"], edit)
        report = fsck(stored)
        assert not report.ok
        assert report.checksum_failures == [] and report.btree_problems == []
        return report.document_problems

    def test_a_parent_not_below_its_child(self, stored):
        def upwards(columns):
            columns.parents[1] = 3  # type 1 under type 2

        [problem] = self._problems(stored, upwards)
        assert "[XM590]" in problem and "type 1 names type 2 as its parent" in problem

    def test_a_name_index_out_of_range(self, stored):
        def past_the_table(columns):
            columns.name_ids[-1] = len(columns.names)

        [problem] = self._problems(stored, past_the_table)
        assert "names entry 6 of a 6-name table" in problem

    def test_an_empty_edge_range(self, stored):
        def empty(columns):
            columns.lows[2] = columns.highs[2] + 1

        [problem] = self._problems(stored, empty)
        assert "type 2 has the empty edge range 2..1" in problem

    def test_counts_that_do_not_sum_to_the_catalog_nodes(self, stored):
        def one_more(columns):
            columns.counts[-1] += 1

        [problem] = self._problems(stored, one_more)
        assert problem == "document 'a': catalog says 13 nodes, the shape record counts 14"

    def test_the_counts_sum_after_an_update(self, stored):
        from repro.storage import InsertSubtree

        with Database(stored) as db:
            db.apply_batch("a", [InsertSubtree("1", "<book><title>Z</title><isbn>1</isbn></book>")])
            nodes = db.describe("a")["nodes"]
            assert sum(db.index("a").count_of(t) for t in db.index("a").types()) == nodes
        assert fsck(stored).ok


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _strip_trailers(path: str) -> None:
    """Rewrite the store as bare 4096-byte pages (the pre-checksum format)."""
    raw = _read(path)
    with open(path, "wb") as handle:
        for offset in range(0, len(raw), SLOT_SIZE):
            handle.write(raw[offset : offset + PAGE_SIZE])


def _retag_trailers(path: str, magic: bytes) -> None:
    """Overwrite every slot's trailer magic (the XPG1 layout is the same)."""
    with open(path, "r+b") as handle:
        for offset in range(PAGE_SIZE, os.path.getsize(path), SLOT_SIZE):
            handle.seek(offset)
            handle.write(magic)


def _seal_journal(stored: str) -> str:
    """Leave a sealed current-format journal whose one entry zeroes
    page 1 beside the store; returns its path."""
    journal_path = stored + ".journal"
    Journal(journal_path).write({1: bytes(PAGE_SIZE)})
    return journal_path


class TestOlderFormatsRefused:
    """One on-disk format: older files get XM500, older journals are
    quarantined; nothing is rebuilt and nothing is replayed."""

    def _refused(self, stored):
        for mode in ("w", "r"):
            with pytest.raises(FormatError) as excinfo:
                Database(stored, mode=mode)
            assert excinfo.value.code == "XM500"
            assert "re-shred" in str(excinfo.value)
        for repair in (False, True):
            report = fsck(stored, repair=repair)
            assert not report.ok
            assert len(report.errors) == 1 and "[XM500]" in report.errors[0]
            assert report.pages_scanned == 0
            assert report.checksum_failures == []
            yield report

    def test_trailerless_file_refused_and_untouched(self, stored):
        _strip_trailers(stored)
        # A sealed journal beside it is reported, and never replayed
        # into a file the store refuses to read.
        journal_path = _seal_journal(stored)
        before = _read(stored), _read(journal_path)
        for report in self._refused(stored):
            assert report.journal_status == "sealed" and report.journal_pages == 1
            assert "whole number" in report.errors[0]
        assert (_read(stored), _read(journal_path)) == before
        assert sorted(os.listdir(os.path.dirname(stored))) == ["f.db", "f.db.journal", "f.db.lock"]

    def test_xpg1_file_refused_and_untouched(self, stored):
        _retag_trailers(stored, b"XPG1")
        before = _read(stored)
        for report in self._refused(stored):
            assert "'XPG1'" in report.errors[0]
        assert _read(stored) == before
        assert sorted(os.listdir(os.path.dirname(stored))) == ["f.db", "f.db.lock"]

    def test_xpg2_file_refused_and_untouched(self, stored):
        """``XPG2`` stored the shape record as chunked JSON."""
        _retag_trailers(stored, b"XPG2")
        before = _read(stored)
        for report in self._refused(stored):
            assert "'XPG2'" in report.errors[0] and "'XPG3'" in report.errors[0]
        assert _read(stored) == before
        assert sorted(os.listdir(os.path.dirname(stored))) == ["f.db", "f.db.lock"]

    @pytest.mark.parametrize("magic", [b"XMJL", b"XMJ2"])
    def test_older_journal_quarantined_never_replayed(self, stored, magic):
        journal_path = _seal_journal(stored)
        blob = _read(journal_path)
        if magic == b"XMJL":
            # The oldest layout had no CRC field: magic | count | entries | seal.
            blob = magic + blob[4:8] + blob[12:]
        else:
            blob = magic + blob[4:]
        with open(journal_path, "wb") as handle:
            handle.write(blob)
        before = _read(stored)

        assert fsck(stored).journal_status == "corrupt"
        with Database(stored) as db:
            assert db.stats.counters["recovery.discarded_journals"] == 1
            assert "recovery.journals_replayed" not in db.stats.counters
            assert db.document_names() == ["a"]
        assert _read(stored) == before
        assert _read(journal_path + ".corrupt") == blob
        assert not os.path.exists(journal_path)
        assert fsck(stored).ok

    def test_current_journal_is_replayed(self, stored):
        # The control for the two tests above: the same batch under the
        # current magic *is* applied (page 1 ends up zeroed).
        journal_path = _seal_journal(stored)
        file = PagedFile(stored, SystemStats())
        try:
            assert Journal(journal_path).recover(file) == 1
        finally:
            file.close()
        assert _read(stored)[SLOT_SIZE : SLOT_SIZE + PAGE_SIZE] == bytes(PAGE_SIZE)


def _damage(path: str, offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


class TestDamagedMetaTrailer:
    """Page 0 is in most batches, so a crash mid-apply can leave *its*
    trailer torn.  That is damage, not another format: the sealed
    journal is consulted first and heals it."""

    # The 'P' of the magic, its version byte, and the stored CRC.
    @pytest.mark.parametrize("offset", [PAGE_SIZE + 1, PAGE_SIZE + 3, PAGE_SIZE + 5])
    def test_sealed_journal_heals_page_zero(self, stored, offset):
        meta = _read(stored)[:PAGE_SIZE]
        Journal(stored + ".journal").write({0: meta})
        _damage(stored, offset)

        report = fsck(stored)
        assert not report.ok
        assert report.journal_status == "sealed" and report.journal_pages == 1
        assert report.checksum_failures == [0] or report.errors

        # A reader overlays the batch and never looks at the torn slot.
        with Database(stored, mode="r") as reader:
            assert reader.document_names() == ["a"]
            assert reader.transform("a", "MORPH author [ name ]").xml()

        repaired = fsck(stored, repair=True)
        assert repaired.journal_status == "replayed"
        assert repaired.ok, repaired.pretty()
        with Database(stored) as db:
            assert db.document_names() == ["a"]

    def test_writer_open_replays_before_judging(self, stored):
        meta = _read(stored)[:PAGE_SIZE]
        Journal(stored + ".journal").write({0: meta})
        _damage(stored, PAGE_SIZE + 1)
        with Database(stored) as db:
            assert db.stats.counters["recovery.journals_replayed"] == 1
            assert db.document_names() == ["a"]
        assert fsck(stored).ok

    def test_without_a_journal_it_is_a_checksum_failure(self, stored):
        _damage(stored, PAGE_SIZE + 1)
        for mode in ("w", "r"):
            with pytest.raises(ChecksumError) as excinfo:
                Database(stored, mode=mode)
            assert excinfo.value.code == "XM510" and excinfo.value.page_id == 0
        report = fsck(stored)
        assert not report.locked  # the failed opens let go of the lock
        assert report.checksum_failures == [0] and report.errors == []
        assert report.pages_scanned > 1


class TestFsckCli:
    def test_clean_exit_zero(self, stored, capsys):
        assert main(["fsck", "--db", stored]) == 0
        out = capsys.readouterr().out
        assert "status: clean" in out

    def test_missing_database_exit_one(self, tmp_path, capsys):
        path = str(tmp_path / "typo.db")
        assert main(["fsck", "--db", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no such database: {path!r}\n"
        assert os.listdir(tmp_path) == []

    def test_torn_page_exit_one(self, stored, capsys):
        _tear_page(stored, 1)
        assert main(["fsck", "--db", stored]) == 1
        assert "checksum mismatch" in capsys.readouterr().out

    def test_json_report(self, stored, capsys):
        _tear_page(stored, 1)
        assert main(["fsck", "--db", stored, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["checksum_failures"] == [1]

    def test_repair_replays_sealed_journal(self, stored, capsys):
        db = Database(stored)
        with FAULTS.armed("flush.apply", action="kill"):
            with pytest.raises(SimulatedCrash):
                db.store_document("b", FIG1A.replace("X", "XX"))
        db.abandon()
        assert main(["fsck", "--db", stored, "--repair"]) == 0
        assert "replayed" in capsys.readouterr().out
