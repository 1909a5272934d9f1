"""Tests for the paged file and buffer pool."""

import os

import pytest

from repro.errors import PageError
from repro.storage.pages import PAGE_SIZE, BufferPool, PagedFile
from repro.storage.stats import SystemStats


@pytest.fixture
def paged(tmp_path):
    stats = SystemStats()
    file = PagedFile(str(tmp_path / "t.db"), stats)
    yield file, stats
    file.close()


class TestPagedFile:
    def test_starts_empty(self, paged):
        file, _ = paged
        assert file.page_count == 0

    def test_allocate_and_roundtrip(self, paged):
        file, _ = paged
        page = file.allocate()
        payload = bytes([7]) * PAGE_SIZE
        file.write_page(page, payload)
        assert bytes(file.read_page(page)) == payload

    def test_out_of_range_rejected(self, paged):
        file, _ = paged
        with pytest.raises(PageError):
            file.read_page(0)
        file.allocate()
        with pytest.raises(PageError):
            file.read_page(1)

    def test_wrong_size_rejected(self, paged):
        file, _ = paged
        page = file.allocate()
        with pytest.raises(PageError):
            file.write_page(page, b"short")

    def test_io_counted(self, paged):
        file, stats = paged
        page = file.allocate()  # one write
        file.write_page(page, bytes(PAGE_SIZE))
        file.read_page(page)
        assert stats.blocks_out == 2
        assert stats.blocks_in == 1
        # Every physical read is timed too.
        assert stats.histograms["storage.page_read_seconds"].count == 1

    def test_reopen_preserves_pages(self, tmp_path):
        stats = SystemStats()
        path = str(tmp_path / "p.db")
        file = PagedFile(path, stats)
        page = file.allocate()
        file.write_page(page, bytes([3]) * PAGE_SIZE)
        file.close()
        again = PagedFile(path, stats)
        assert again.page_count == 1
        assert bytes(again.read_page(0)) == bytes([3]) * PAGE_SIZE
        again.close()

    def test_misaligned_file_rejected(self, tmp_path):
        path = tmp_path / "bad.db"
        path.write_bytes(b"x" * 100)
        with pytest.raises(PageError):
            PagedFile(str(path), SystemStats())

    def test_misaligned_file_does_not_leak_fd(self, tmp_path):
        # Regression: the constructor used to raise after os.open
        # without closing the descriptor.
        path = tmp_path / "bad.db"
        path.write_bytes(b"x" * 100)
        for _ in range(5):
            before = len(os.listdir("/proc/self/fd"))
            with pytest.raises(PageError):
                PagedFile(str(path), SystemStats())
            assert len(os.listdir("/proc/self/fd")) == before


class TestChecksums:
    def test_bitflip_detected_on_read(self, tmp_path):
        from repro.errors import ChecksumError
        from repro.storage.pages import SLOT_SIZE

        path = str(tmp_path / "c.db")
        file = PagedFile(path, SystemStats())
        page = file.allocate()
        file.write_page(page, bytes([5]) * PAGE_SIZE)
        file.close()
        with open(path, "r+b") as handle:
            handle.seek(page * SLOT_SIZE + 17)
            handle.write(b"\xff")
        again = PagedFile(path, SystemStats())
        with pytest.raises(ChecksumError) as excinfo:
            again.read_page(page)
        assert excinfo.value.code == "XM510"
        assert excinfo.value.page_id == page
        assert again.stats.counters["pages.checksum_failures"] == 1
        again.close()

    def test_misdirected_write_detected(self, tmp_path):
        # Swap two slots wholesale: each CRC matches its payload but not
        # its location, because the page id is part of the checksum.
        from repro.errors import ChecksumError
        from repro.storage.pages import SLOT_SIZE

        path = str(tmp_path / "m.db")
        file = PagedFile(path, SystemStats())
        for value in (1, 2):
            page = file.allocate()
            file.write_page(page, bytes([value]) * PAGE_SIZE)
        file.close()
        with open(path, "r+b") as handle:
            raw = handle.read()
            handle.seek(0)
            handle.write(raw[SLOT_SIZE:] + raw[:SLOT_SIZE])
        again = PagedFile(path, SystemStats())
        with pytest.raises(ChecksumError):
            again.read_page(0)
        again.close()

    def test_crc32_known_answer(self):
        from repro.storage.checksum import crc32

        # The canonical CRC-32 (IEEE 802.3) check value.
        assert crc32(b"123456789") == 0xCBF43926
        assert crc32(b"") == 0
        # Incremental == one-shot.
        assert crc32(b"6789", crc32(b"12345")) == 0xCBF43926

    def test_page_id_enters_the_checksum(self):
        from repro.storage.checksum import crc32, page_crc

        payload = bytes([9]) * PAGE_SIZE
        assert page_crc(7, payload) == crc32(payload + (7).to_bytes(4, "little"))
        assert page_crc(7, payload) != page_crc(8, payload)

    def test_pread_and_mmap_raise_the_identical_error(self, tmp_path):
        # Writable and read-only files share one read path and one
        # verifier: same class, code, fields and message for the same
        # flipped byte.
        from repro.errors import ChecksumError
        from repro.storage.pages import SLOT_SIZE

        path = str(tmp_path / "both.db")
        file = PagedFile(path, SystemStats())
        for value in (1, 2):
            file.write_page(file.allocate(), bytes([value]) * PAGE_SIZE)
        file.close()
        with open(path, "r+b") as handle:
            handle.seek(SLOT_SIZE + 17)
            handle.write(b"\xff")

        raised = []
        for readonly in (False, True):
            handle = PagedFile(path, SystemStats(), readonly=readonly)
            try:
                with pytest.raises(ChecksumError) as excinfo:
                    handle.read_page(1)
                assert handle.stats.counters["pages.checksum_failures"] == 1
                raised.append(excinfo.value)
            finally:
                handle.close()
        writer, reader = raised
        assert type(writer) is type(reader) is ChecksumError
        assert writer.code == reader.code == "XM510"
        assert str(writer) == str(reader)
        assert (writer.page_id, writer.stored, writer.computed) == (
            reader.page_id,
            reader.stored,
            reader.computed,
        )


@pytest.fixture
def written(tmp_path):
    """A three-page file written through a writable handle."""
    path = str(tmp_path / "w.db")
    file = PagedFile(path, SystemStats())
    payloads = []
    for value in (3, 5, 7):
        payload = bytes([value]) * PAGE_SIZE
        file.write_page(file.allocate(), payload)
        payloads.append(payload)
    file.close()
    return path, payloads


class TestReadOnlyFile:
    """A read-only file reads every page as a writable one does."""

    @pytest.mark.parametrize("readonly", [False, True], ids=["writer", "reader"])
    def test_frames_are_bytearrays(self, written, readonly):
        path, payloads = written
        file = PagedFile(path, SystemStats(), readonly=readonly)
        try:
            for page_id, payload in enumerate(payloads):
                page = file.read_page(page_id)
                assert type(page) is bytearray
                assert page == payload
        finally:
            file.close()

    def test_reader_and_writer_read_identical_bytes(self, written):
        path, _ = written
        reader = PagedFile(path, SystemStats(), readonly=True)
        writer = PagedFile(path, SystemStats())
        try:
            for page_id in range(reader.page_count):
                assert reader.read_page(page_id) == writer.read_page(page_id)
        finally:
            reader.close()
            writer.close()

    def test_crc_failure_is_counted(self, written):
        from repro.errors import ChecksumError
        from repro.storage.pages import SLOT_SIZE

        path, _ = written
        with open(path, "r+b") as handle:
            handle.seek(1 * SLOT_SIZE + 99)
            handle.write(b"\xff")
        file = PagedFile(path, SystemStats(), readonly=True)
        try:
            file.read_page(0)  # intact neighbours still read fine
            file.read_page(2)
            with pytest.raises(ChecksumError) as excinfo:
                file.read_page(1)
            assert excinfo.value.code == "XM510"
            assert file.stats.counters["pages.checksum_failures"] == 1
        finally:
            file.close()

    def test_a_page_changed_after_a_read_fails_its_next_read(self, written):
        # Every read verifies: a page that passed once is checked again.
        from repro.errors import ChecksumError
        from repro.storage.pages import SLOT_SIZE

        path, payloads = written
        file = PagedFile(path, SystemStats(), readonly=True)
        try:
            assert file.read_page(1) == payloads[1]
            with open(path, "r+b") as handle:
                handle.seek(1 * SLOT_SIZE + 99)
                handle.write(b"\xff")
            with pytest.raises(ChecksumError) as excinfo:
                file.read_page(1)
            assert excinfo.value.code == "XM510"
            assert excinfo.value.page_id == 1
            assert file.stats.counters["pages.checksum_failures"] == 1
        finally:
            file.close()


class TestBufferPool:
    def test_cached_read_is_free(self, paged):
        file, stats = paged
        pool = BufferPool(file, capacity=4)
        page = pool.allocate()
        baseline = stats.blocks_in
        pool.get(page)
        pool.get(page)
        assert stats.blocks_in == baseline  # all hits

    def test_eviction_pins_dirty_pages(self, paged):
        file, stats = paged
        pool = BufferPool(file, capacity=2)
        pages = [pool.allocate() for _ in range(3)]  # evicts the first
        buffer = pool.get(pages[0])  # reload, modify
        buffer[0] = 42
        pool.mark_dirty(pages[0])
        pool.get(pages[1])
        pool.get(pages[2])  # evicts pages[1] (LRU *clean*), not the dirty page
        assert pages[0] in pool._pages  # dirty page stays pinned ...
        assert pages[1] not in pool._pages  # ... the clean LRU page went
        assert file.read_page(pages[0])[0] == 0  # nothing written back yet
        pool.flush()
        assert file.read_page(pages[0])[0] == 42

    def test_all_dirty_pool_flushes_batch_before_evicting(self, paged):
        file, _ = paged
        pool = BufferPool(file, capacity=2)
        pages = [pool.allocate() for _ in range(2)]
        for page in pages:
            pool.get(page)[0] = 7
            pool.mark_dirty(page)
        third = pool.allocate()  # pool all-dirty: forces a full batch flush
        assert pool.resident == 2
        assert third in pool._pages
        # Both dirty pages were committed together, not one in isolation.
        assert file.read_page(pages[0])[0] == 7
        assert file.read_page(pages[1])[0] == 7

    def test_writing_section_defers_the_flush_and_trims_on_exit(self, paged):
        file, _ = paged
        pool = BufferPool(file, capacity=2)
        with pool.writing():
            with pool.writing():  # nests; only the outermost exit trims
                pages = [pool.allocate() for _ in range(4)]
                for page in pages:
                    pool.get(page)[0] = 7
                    pool.mark_dirty(page)
            # All dirty and over capacity, yet nothing was committed.
            assert pool.resident == 4
            assert file.read_page(pages[0])[0] == 0
        assert pool.resident == 2
        assert [file.read_page(page)[0] for page in pages] == [7] * 4

    def test_failed_writing_section_commits_nothing(self, paged):
        file, _ = paged
        pool = BufferPool(file, capacity=2)
        with pytest.raises(RuntimeError):
            with pool.writing():
                pages = [pool.allocate() for _ in range(4)]
                for page in pages:
                    pool.get(page)[0] = 7
                    pool.mark_dirty(page)
                raise RuntimeError("mid-split")
        # Half-written structures are the caller's to discard.
        assert [file.read_page(page)[0] for page in pages] == [0] * 4
        pool.discard()
        assert pool.resident == 0

    def test_flush_persists(self, paged):
        file, _ = paged
        pool = BufferPool(file, capacity=4)
        page = pool.allocate()
        pool.get(page)[0] = 9
        pool.mark_dirty(page)
        pool.flush()
        assert file.read_page(page)[0] == 9

    def test_drop_cache_empties(self, paged):
        file, stats = paged
        pool = BufferPool(file, capacity=4)
        page = pool.allocate()
        pool.drop_cache()
        assert pool.resident == 0
        baseline = stats.blocks_in
        pool.get(page)
        assert stats.blocks_in == baseline + 1  # real read again

    def test_memory_accounted(self, paged):
        file, stats = paged
        pool = BufferPool(file, capacity=8)
        for _ in range(3):
            pool.allocate()
        # The pool's memory is its resident pages, nothing modelled.
        assert pool.resident == 3

    def test_capacity_validated(self, paged):
        file, _ = paged
        with pytest.raises(PageError):
            BufferPool(file, capacity=0)

    def test_mark_dirty_requires_residency(self, paged):
        file, _ = paged
        pool = BufferPool(file, capacity=1)
        first = pool.allocate()
        pool.allocate()  # evicts first
        with pytest.raises(PageError):
            pool.mark_dirty(first)
