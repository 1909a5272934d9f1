"""Read-only page frames are mmap-backed: zero-copy, still checksummed.

A ``PagedFile`` opened ``readonly=True`` maps the file and serves
``read_page`` as ``memoryview`` slices into the mapping — no per-page
copy, and forked serve workers share the hot pages through the OS page
cache.  The map must change *nothing* observable: bytes identical to
the pread path, CRC-32 still verified (once per page per open), and
writer handles untouched.
"""

import mmap

import pytest

from repro.errors import ChecksumError
from repro.storage.pages import PAGE_SIZE, SLOT_SIZE, BufferPool, PagedFile
from repro.storage.stats import SystemStats
from repro.storage.database import Database

from tests.conftest import FIG1A


@pytest.fixture
def written(tmp_path):
    """A three-page file written through the ordinary writer path."""
    path = str(tmp_path / "m.db")
    file = PagedFile(path, SystemStats())
    payloads = []
    for value in (3, 5, 7):
        page = file.allocate()
        payload = bytes([value]) * PAGE_SIZE
        file.write_page(page, payload)
        payloads.append(payload)
    file.close()
    return path, payloads


class TestMappedReads:
    def test_readonly_pages_are_memoryviews_into_the_map(self, written):
        path, payloads = written
        file = PagedFile(path, SystemStats(), readonly=True)
        try:
            assert file._mmap is not None
            for page_id, payload in enumerate(payloads):
                view = file.read_page(page_id)
                assert isinstance(view, memoryview)
                assert len(view) == PAGE_SIZE
                assert bytes(view) == payload
        finally:
            file.close()

    def test_writable_handle_still_copies(self, written):
        path, payloads = written
        file = PagedFile(path, SystemStats())
        try:
            page = file.read_page(0)
            assert isinstance(page, bytearray)
            assert bytes(page) == payloads[0]
        finally:
            file.close()

    def test_mapped_and_pread_bytes_identical(self, written):
        path, _ = written
        ro = PagedFile(path, SystemStats(), readonly=True)
        rw = PagedFile(path, SystemStats())
        try:
            for page_id in range(ro.page_count):
                assert bytes(ro.read_page(page_id)) == bytes(rw.read_page(page_id))
        finally:
            ro.close()
            rw.close()

    def test_crc_verified_through_the_map(self, written):
        path, _ = written
        with open(path, "r+b") as handle:
            handle.seek(1 * SLOT_SIZE + 99)
            handle.write(b"\xff")
        file = PagedFile(path, SystemStats(), readonly=True)
        try:
            file.read_page(0)  # intact neighbors still read fine
            file.read_page(2)
            with pytest.raises(ChecksumError) as excinfo:
                file.read_page(1)
            assert excinfo.value.code == "XM510"
            assert file.stats.counters["pages.checksum_failures"] == 1
        finally:
            file.close()

    def test_crc_checked_once_per_page_per_open(self, written):
        path, _ = written
        file = PagedFile(path, SystemStats(), readonly=True)
        try:
            file.read_page(0)
            assert 0 in file._verified
            file.read_page(0)  # second read skips the CRC pass
            assert file.stats.counters.get("pages.checksum_failures", 0) == 0
        finally:
            file.close()

    def test_close_releases_map_despite_cached_views(self, written):
        path, _ = written
        file = PagedFile(path, SystemStats(), readonly=True)
        pool = BufferPool(file, capacity=8)
        pool.get(0)
        pool.get(1)
        # Views are still resident in the pool; close() must not raise
        # (BufferError from the exported buffers is swallowed, the fd
        # is released either way).
        file.close()

    def test_empty_file_skips_mapping(self, tmp_path):
        path = str(tmp_path / "empty.db")
        PagedFile(path, SystemStats()).close()  # creates a zero-page file
        file = PagedFile(path, SystemStats(), readonly=True)
        try:
            assert file._mmap is None
            assert file.page_count == 0
        finally:
            file.close()


class TestDatabaseOverMap:
    def test_reader_and_writer_render_identically(self, tmp_path):
        path = str(tmp_path / "d.db")
        guard = "MORPH author [ name ]"
        with Database(path, durable=False) as writer:
            writer.store_document("doc", FIG1A)
            expected = writer.transform("doc", guard).xml()
        with Database(path, mode="r", durable=False) as reader:
            assert reader._file._mmap is not None
            assert reader.transform("doc", guard).xml() == expected

    def test_reader_close_with_resident_pages(self, tmp_path):
        path = str(tmp_path / "d.db")
        with Database(path, durable=False) as writer:
            writer.store_document("doc", FIG1A)
        reader = Database(path, mode="r", durable=False)
        reader.transform("doc", "MORPH author [ name ]")
        assert reader.pool.resident > 0
        reader.close()  # drops the cache, then unmaps — no BufferError

    def test_map_is_shared_not_copied(self, written):
        path, _ = written
        file = PagedFile(path, SystemStats(), readonly=True)
        try:
            view = file.read_page(0)
            base = view.obj
            assert isinstance(base, mmap.mmap)
        finally:
            file.close()
