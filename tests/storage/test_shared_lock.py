"""The reader/writer lock matrix and frozen-snapshot semantics.

``Database(mode="r")`` takes a *shared* flock on ``<db>.lock`` while
writers keep the exclusive one, so the matrix is: reader+reader OK,
reader+writer conflict, writer+writer conflict — and every conflict
fails *fast* with the stable ``XM520`` code, never blocks.  Readers
never write: a sealed journal left by a crashed writer is loaded as an
in-memory page overlay (``recovery.snapshot_overlay_pages``), the files
on disk stay byte-identical, and replay/quarantine remain the next
writer's job.
"""

import hashlib
import os
import threading
import time

import pytest

from repro.errors import (
    ChecksumError,
    DatabaseLockedError,
    InjectedFaultError,
    ReadOnlyDatabaseError,
    StorageError,
)
from repro.faults import FAULTS, SimulatedCrash
from repro.storage import Database
from repro.workloads import generate_dblp

from tests.conftest import FIG1A

GUARD = "MORPH author [ name ]"

SECOND_DOC = "<data>" + "".join(
    f"<book><title>T{i}</title><author><name>A{i}</name></author></book>"
    for i in range(40)
) + "</data>"


@pytest.fixture(autouse=True)
def clean_registry():
    FAULTS.reset()
    yield
    FAULTS.reset()


@pytest.fixture
def store(tmp_path):
    path = str(tmp_path / "shared.db")
    with Database(path) as db:
        db.store_document("doc", FIG1A)
    return path


def _digest(path: str) -> dict[str, str]:
    """Content hashes of every on-disk artifact of the store."""
    digests = {}
    for suffix in ("", ".journal", ".lock"):
        target = path + suffix
        if os.path.exists(target):
            with open(target, "rb") as handle:
                digests[suffix or "main"] = hashlib.sha256(handle.read()).hexdigest()
    return digests


class TestLockMatrix:
    def test_reader_plus_reader(self, store):
        r1 = Database(store, mode="r")
        r2 = Database(store, mode="r")
        try:
            expected = r1.transform("doc", GUARD).xml()
            assert r2.transform("doc", GUARD).xml() == expected
        finally:
            r1.close()
            r2.close()

    def test_readers_transform_concurrently(self, store):
        handles = [Database(store, mode="r") for _ in range(4)]
        try:
            expected = handles[0].transform("doc", GUARD).xml()
            barrier = threading.Barrier(len(handles))
            outputs = [None] * len(handles)

            def read(i):
                barrier.wait()
                outputs[i] = handles[i].transform("doc", GUARD).xml()

            threads = [
                threading.Thread(target=read, args=(i,)) for i in range(len(handles))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert outputs == [expected] * len(handles)
        finally:
            for handle in handles:
                handle.close()

    def test_reader_excludes_writer(self, store):
        reader = Database(store, mode="r")
        try:
            start = time.monotonic()
            with pytest.raises(DatabaseLockedError) as excinfo:
                Database(store)
            assert time.monotonic() - start < 2.0, "lock conflict must fail fast"
            assert excinfo.value.code == "XM520"
        finally:
            reader.close()
        with Database(store) as writer:  # and the conflict leaves no residue
            writer.store_document("after", FIG1A)

    def test_writer_excludes_reader(self, store):
        writer = Database(store)
        try:
            with pytest.raises(DatabaseLockedError) as excinfo:
                Database(store, mode="r")
            assert excinfo.value.code == "XM520"
        finally:
            writer.close()

    def test_writer_excludes_writer(self, store):
        writer = Database(store)
        try:
            with pytest.raises(DatabaseLockedError) as excinfo:
                Database(store)
            assert excinfo.value.code == "XM520"
        finally:
            writer.close()

    def test_abandon_never_blocks_the_next_writer(self, store):
        Database(store, mode="r").abandon()
        with Database(store) as writer:
            writer.store_document("after-abandon", FIG1A)
        abandoned = Database(store)
        abandoned.abandon()
        with Database(store) as writer:
            assert "after-abandon" in writer.document_names()

    def test_reader_and_writer_render_identically(self, tmp_path):
        path = str(tmp_path / "d.db")
        with Database(path, durable=False) as writer:
            writer.store_document("doc", FIG1A)
            expected = writer.transform("doc", GUARD).xml()
        with Database(path, mode="r", durable=False) as reader:
            assert reader.transform("doc", GUARD).xml() == expected

    def test_reader_closes_with_resident_pages(self, store):
        reader = Database(store, mode="r")
        reader.transform("doc", GUARD).xml()
        assert reader.pool.resident > 0
        reader.close()
        with Database(store) as writer:  # the shared lock went with it
            assert writer.transform("doc", GUARD).xml()

    def test_invalid_mode_rejected(self, store):
        with pytest.raises(StorageError):
            Database(store, mode="a")


class TestColdReadsBesideDropCache:
    """Four threads read cold through one read-only handle while a fifth
    empties its caches in a loop: pages, the decoded B+tree nodes kept
    beside them, indexes and plans all vanish under the readers, and
    every output still equals the reference."""

    GUARDS = [
        "CAST MORPH author [ title ]",
        "CAST MORPH author [ title [ year ] ]",
        "CAST MORPH dblp [ author [ title ] ]",
    ]

    def test_every_output_equals_the_reference(self, tmp_path):
        path = str(tmp_path / "cold.db")
        with Database(path) as writer:
            writer.store_document("dblp", generate_dblp(120))
        with Database(path, mode="r", cache_pages=16) as db:
            expected = {guard: db.transform("dblp", guard).xml() for guard in self.GUARDS}
            assert len(db.tree._descend(b"")[1]) >= 2
            readers_done = threading.Event()
            barrier = threading.Barrier(5)
            outputs: list[list] = [[] for _ in range(4)]
            errors: list[BaseException] = []

            def read(number):
                barrier.wait()
                try:
                    for round_ in range(6):
                        for guard in self.GUARDS[round_ % 3 :] + self.GUARDS[: round_ % 3]:
                            outputs[number].append((guard, db.transform("dblp", guard).xml()))
                except BaseException as error:  # reported below, with the outputs
                    errors.append(error)

            def drop():
                barrier.wait()
                while not readers_done.is_set():
                    db.drop_cache()

            dropper = threading.Thread(target=drop)
            readers = [threading.Thread(target=read, args=(n,)) for n in range(4)]
            for thread in [dropper, *readers]:
                thread.start()
            for thread in readers:
                thread.join(timeout=120)
            readers_done.set()
            dropper.join(timeout=30)
            assert errors == []
            for produced in outputs:
                assert len(produced) == 6 * len(self.GUARDS)
                assert all(xml == expected[guard] for guard, xml in produced)


class TestReadOnlyEnforcement:
    def test_store_document_refused(self, store):
        with Database(store, mode="r") as reader:
            with pytest.raises(ReadOnlyDatabaseError) as excinfo:
                reader.store_document("nope", FIG1A)
            assert excinfo.value.code == "XM550"

    def test_drop_document_refused(self, store):
        with Database(store, mode="r") as reader:
            with pytest.raises(ReadOnlyDatabaseError) as excinfo:
                reader.drop_document("doc")
            assert excinfo.value.code == "XM550"

    def test_missing_store_refused(self, tmp_path):
        with pytest.raises(StorageError):
            Database(str(tmp_path / "absent.db"), mode="r")

    def test_reader_leaves_disk_untouched(self, store):
        before = _digest(store)
        with Database(store, mode="r") as reader:
            reader.transform("doc", GUARD)
            reader.drop_cache()
            reader.transform("doc", GUARD)
        assert _digest(store) == before


class TestFaultsMidRead:
    def test_injected_read_fault_is_coded_and_recoverable(self, store):
        reader = Database(store, mode="r")
        try:
            reader.drop_cache()  # force real page reads past the buffer pool
            with FAULTS.armed("pages.pread", action="raise"):
                with pytest.raises(InjectedFaultError) as excinfo:
                    reader.transform("doc", GUARD)
                assert excinfo.value.code == "XM530"
        finally:
            reader.abandon()  # die the way a crashed process would
        with Database(store) as writer:  # the store is fine; a writer proceeds
            assert writer.transform("doc", GUARD).xml()


class TestDamageUnderAnOpenReader:
    """A page changed on disk after a reader read it is checked again
    when the reader next reads it: the render ends in ``XM510`` and
    never serves the changed text."""

    NAME = b"Name0123"
    DAMAGED = b"Xame0123"
    DOC = (
        "<data><book><title>T</title><author><name>"
        + NAME.decode()
        + "</name></author></book></data>"
    )

    @pytest.fixture
    def path(self, tmp_path):
        # The filler makes the B+tree taller than one page, so a descent
        # to the document's records reads other pages before them.
        path = str(tmp_path / "damage.db")
        with Database(path) as writer:
            writer.store_document("filler", generate_dblp(60))
            writer.store_document("doc", self.DOC)
        return path

    def _damage(self, path: str) -> None:
        with open(path, "r+b") as handle:
            raw = handle.read()
            assert self.NAME in raw
            handle.seek(0)
            handle.write(raw.replace(self.NAME, self.DAMAGED))

    def test_after_drop_cache(self, path):
        with Database(path, mode="r") as reader:
            assert self.NAME.decode() in reader.transform("doc", GUARD).xml()
            self._damage(path)
            reader.drop_cache()
            with pytest.raises(ChecksumError) as excinfo:
                reader.transform("doc", GUARD).xml()
            assert excinfo.value.code == "XM510"
            assert reader.stats.counter("pages.checksum_failures") == 1

    def test_after_eviction(self, path):
        # One resident page: the descent to the name sequence evicts the
        # page the title render left behind, then reads it again.
        with Database(path, mode="r", cache_pages=1) as reader:
            assert reader.transform("doc", "MORPH title").xml() == "<title>T</title>"
            self._damage(path)
            with pytest.raises(ChecksumError) as excinfo:
                reader.transform("doc", GUARD).xml()
            assert excinfo.value.code == "XM510"
            assert reader.stats.counter("pages.checksum_failures") == 1


class TestFrozenSnapshot:
    def _crash_mid_apply(self, path: str) -> None:
        """Leave a sealed journal whose batch is only partially applied."""
        db = Database(path)
        try:
            with FAULTS.armed("flush.apply", action="kill", skip=1):
                db.store_document("inflight", SECOND_DOC)
        except SimulatedCrash:
            db.abandon()
        else:  # pragma: no cover - the failpoint must fire
            db.close()
            pytest.fail("flush.apply failpoint never fired")

    def test_reader_overlays_sealed_journal_without_writing(self, store):
        self._crash_mid_apply(store)
        before = _digest(store)
        assert "main" in before and ".journal" in before
        with Database(store, mode="r") as reader:
            # The sealed batch is visible through the overlay...
            names = reader.document_names()
            assert "doc" in names and "inflight" in names
            assert reader.transform("doc", GUARD).xml()
            assert reader.stats.counters.get("recovery.snapshot_overlay_pages", 0) > 0
        # ...and the reader replayed nothing: disk is byte-identical,
        # the journal still awaits the next writer.
        assert _digest(store) == before
        with Database(store) as writer:  # the writer replays it for real
            assert "inflight" in writer.document_names()

    def test_reader_ignores_corrupt_journal(self, store):
        # Crash while *writing* the journal: torn, unsealed, nothing
        # applied — the base file alone is the consistent state.
        db = Database(store)
        try:
            with FAULTS.armed("journal.write", action="truncate"):
                db.store_document("inflight", SECOND_DOC)
        except SimulatedCrash:
            db.abandon()
        else:
            db.close()
            pytest.fail("journal.write failpoint never fired")
        assert os.path.exists(store + ".journal")
        before = _digest(store)
        with Database(store, mode="r") as reader:
            # The torn batch never committed, so the reader sees only
            # the baseline and builds no overlay.
            assert "doc" in reader.document_names()
            assert "inflight" not in reader.document_names()
            assert reader.stats.counters.get("recovery.snapshot_overlay_pages", 0) == 0
        assert _digest(store) == before, "readers must not quarantine journals"
