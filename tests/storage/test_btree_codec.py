"""The B+tree node codec: the bytes of every page, and who may see them.

``_write_node`` must write exactly the page the old ``struct`` codec
(:mod:`tests.storage.btree_oracle`) wrote, and ``_read_node`` must read
back exactly what it read: the format does not move.  A node that does
not fit is refused before its frame is touched, and a leaf is decoded
from one copy of its frame taken under the pool lock, so a writer in
another thread never tears it.
"""

import random
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import Database, DeleteSubtree, InsertSubtree, ReplaceSubtree, btree
from repro.storage.btree import _INTERNAL, _LEAF, _NO_PAGE, MAX_ENTRY, BPlusTree, _Node
from repro.storage.pages import PAGE_SIZE, BufferPool, PagedFile
from repro.storage.stats import SystemStats
from repro.workloads.dblp import generate_dblp_xml
from repro.workloads.xmark import generate_xmark_xml

from tests.storage.btree_oracle import parent_read_node, parent_write_node


EMPTY_PAGE = bytes(PAGE_SIZE)


class OnePage:
    """A pool of one frame: all that the codec asks of a pool."""

    def __init__(self, data: bytes = EMPTY_PAGE):
        self.lock = threading.RLock()
        self.frame = bytearray(data)
        self.dirty = False

    def get(self, page_id):
        return self.frame

    def mark_dirty(self, page_id):
        self.dirty = True


def fields(node):
    return node.kind, node.next_leaf, node.child0, list(node.keys), list(node.values)


SEEDS = st.integers(0, 2**32)


@st.composite
def nodes(draw):
    """A node that fits a page: short entries, and at times one entry of
    ``MAX_ENTRY`` bytes or a last entry that fills the page exactly."""
    rnd = random.Random(draw(SEEDS))
    kind = draw(st.sampled_from([_LEAF, _INTERNAL]))
    overhead = 4 if kind == _LEAF else 6
    room = PAGE_SIZE - btree._HEADER.size
    keys: list[bytes] = []
    values: list = []

    def add(payload: int) -> None:
        nonlocal room
        if kind == _LEAF:
            key_len = rnd.randint(0, payload)
            keys.append(rnd.randbytes(key_len))
            values.append(rnd.randbytes(payload - key_len))
        else:
            keys.append(rnd.randbytes(payload))
            values.append(rnd.getrandbits(32))
        room -= overhead + payload

    if draw(st.booleans()):
        add(MAX_ENTRY)
    for _ in range(draw(st.integers(0, 40))):
        payload = rnd.choice([0, rnd.randint(0, 24), rnd.randint(0, 300)])
        if overhead + payload > room:
            break
        add(payload)
    if draw(st.booleans()) and room >= overhead:
        add(room - overhead)
    return _Node(kind, rnd.getrandbits(32), keys, values)


GARBAGE = SEEDS.map(lambda seed: random.Random(seed).randbytes(PAGE_SIZE))
FILLING_LEAF = _Node(_LEAF, 9, [b"k"], [b"v" * (PAGE_SIZE - btree._HEADER.size - 5)])


class TestAgainstTheOldCodec:
    @settings(max_examples=400, deadline=None)
    @given(node=nodes(), garbage=GARBAGE)
    @example(node=_Node(_LEAF, _NO_PAGE, [], []), garbage=bytes(PAGE_SIZE))
    @example(node=_Node(_INTERNAL, 3, [], []), garbage=b"\xff" * PAGE_SIZE)
    @example(node=_Node(_LEAF, 5, [b"", b"k"], [b"", b""]), garbage=b"\xff" * PAGE_SIZE)
    @example(node=_Node(_INTERNAL, 5, [b""], [0xFFFFFFFF]), garbage=b"\xff" * PAGE_SIZE)
    @example(node=_Node(_LEAF, 1, [b"k" * MAX_ENTRY], [b""]), garbage=b"\xff" * PAGE_SIZE)
    @example(node=_Node(_LEAF, 1, [b""], [b"v" * MAX_ENTRY]), garbage=b"\xff" * PAGE_SIZE)
    @example(node=FILLING_LEAF, garbage=b"\xff" * PAGE_SIZE)
    def test_pages_are_byte_identical(self, node, garbage):
        pool = OnePage(garbage)
        btree._write_node(pool, 1, node)
        expected = bytearray(garbage)
        parent_write_node(expected, node)
        assert pool.frame == expected
        assert len(pool.frame) == PAGE_SIZE and pool.dirty
        decoded = btree._read_node(pool, 1)
        assert fields(decoded) == fields(parent_read_node(expected)) == fields(node)

    def test_every_page_of_a_shredded_and_updated_store(self, tmp_path):
        with Database(str(tmp_path / "s.db"), durable=False) as db:
            db.store_document("dblp", generate_dblp_xml(60, seed=5))
            db.store_document("xmark", generate_xmark_xml(0.001, seed=6))
            db.apply_batch(
                "dblp",
                [
                    InsertSubtree("1", "<extra k='v'><title>new</title></extra>"),
                    ReplaceSubtree("1.2", "<swapped>" + "x" * 4000 + "</swapped>"),
                    DeleteSubtree("1.5"),
                ],
            )
            db.pool.flush()
            page_count = db.pool.file.page_count
            kinds = set()
            for page_id in range(1, page_count):
                page = bytes(db.pool.get(page_id))
                node = btree._read_node(db.pool, page_id)
                assert fields(node) == fields(parent_read_node(page))
                pool = OnePage()
                btree._write_node(pool, page_id, node)
                assert pool.frame == page
                kinds.add(node.kind)
            assert kinds == {_LEAF, _INTERNAL} and page_count > 50


class TestOversizedNodes:
    @pytest.mark.parametrize(
        "node",
        [
            _Node(_LEAF, 1, [b"k"], [b"v" * (PAGE_SIZE - btree._HEADER.size - 4)]),
            _Node(_LEAF, 1, [b"a" * 2100, b"b" * 2100], [b"", b""]),
            _Node(_INTERNAL, 1, [b"a" * 2100, b"b" * 2100], [2, 3]),
            _Node(_LEAF, 1, [b""], [b"v" * PAGE_SIZE]),
            _Node(_INTERNAL, 1, [b"k" * PAGE_SIZE], [2]),
        ],
        ids=[
            "one byte over",
            "two leaf entries",
            "two internal entries",
            "a page-sized value",
            "a page-sized key",
        ],
    )
    def test_is_refused_before_the_frame_is_touched(self, node):
        garbage = random.Random(7).randbytes(PAGE_SIZE)
        pool = OnePage(garbage)
        with pytest.raises(StorageError, match="does not fit"):
            btree._write_node(pool, 1, node)
        assert pool.frame == garbage and len(pool.frame) == PAGE_SIZE
        assert not pool.dirty


class TestSplitsEncodePageByPage:
    """A split cuts from the entries' lengths and encodes each page's
    slice as that page is written: a merged run is never encoded whole."""

    def test_no_encode_covers_more_than_a_page(self, tmp_path, monkeypatch):
        encoded = []
        encode = btree._encode_entries

        def recording(node):
            entries = encode(node)
            encoded.append(btree._HEADER.size + sum(map(len, entries)))
            return entries

        monkeypatch.setattr(btree, "_encode_entries", recording)
        with Database(str(tmp_path / "split.db"), durable=False) as db:
            db.store_document("dblp", generate_dblp_xml(160))
            assert db.stats.counter("btree.splits") > 0
        assert len(encoded) > 10
        assert max(encoded) <= PAGE_SIZE

    @pytest.mark.parametrize("kind", [_LEAF, _INTERNAL])
    def test_an_entry_too_large_for_a_page_is_refused_before_any_page(self, kind):
        keys = [b"%04d" % number for number in range(600)] + [b"z" * (PAGE_SIZE - 8)]
        values = [b"v" * 4] * len(keys) if kind == _LEAF else list(range(2, len(keys) + 2))
        pool = OnePage()
        pool.allocate = lambda: pytest.fail("a page was allocated")
        tree = BPlusTree.__new__(BPlusTree)
        tree.pool = pool
        with pytest.raises(StorageError, match="does not fit a page"):
            tree._store_with_split(1, _Node(kind, 1, keys, values))
        assert pool.frame == EMPTY_PAGE and not pool.dirty


class TestOverrunningPages:
    @pytest.mark.parametrize(
        "kind, entry",
        [
            # An empty key whose value claims a page of bytes.
            (_LEAF, b"\x00\x00" + PAGE_SIZE.to_bytes(2, "little")),
            # A key that ends two bytes before the page does, so its
            # child id is cut off.
            (_INTERNAL, (PAGE_SIZE - 11).to_bytes(2, "little")),
        ],
        ids=["a value", "a child id"],
    )
    def test_a_field_past_the_page_end_is_refused(self, kind, entry):
        # The old decoder returned a truncated value for the first.
        page = btree._HEADER.pack(kind, 1, _NO_PAGE) + entry
        pool = OnePage(page.ljust(PAGE_SIZE, b"k"))
        with pytest.raises(StorageError, match="overrun"):
            btree._read_node(pool, 1)


class TestScanReadsEachLeafWhole:
    def test_a_writer_cannot_rewrite_a_leaf_mid_decode(self, tmp_path):
        file = PagedFile(str(tmp_path / "t.db"), SystemStats())
        pool = BufferPool(file, capacity=64)
        tree = BPlusTree(pool)
        tree.put_many([(b"k%04d" % n, b"v" * 40) for n in range(300)])
        first = btree._read_node(pool, tree._descend(b"")[1][-1])
        middle = first.next_leaf
        old = btree._read_node(pool, middle)
        assert old.next_leaf != _NO_PAGE
        later = sum(1 for _ in tree.scan(btree._read_node(pool, old.next_leaf).keys[0]))
        new_page = bytearray(PAGE_SIZE)
        new = _Node(_LEAF, old.next_leaf, [b"k%04d-rewritten" % n for n in range(3)], [b"w"] * 3)
        parent_write_node(new_page, new)
        writers: list[threading.Thread] = []

        half_written = threading.Event()

        class Tripwire(bytearray):
            """A frame that, when first read, has another thread start
            rewriting it through the pool, and reads on once the writer is
            half done or after a while."""

            def _rewrite(self):
                if writers:
                    return

                def write():
                    with pool.writing():
                        # The entries first, the header that counts them last.
                        cut = btree._HEADER.size
                        bytearray.__setitem__(self, slice(cut, None), new_page[cut:])
                        half_written.set()
                        time.sleep(0.05)
                        bytearray.__setitem__(self, slice(0, cut), new_page[:cut])
                        pool.mark_dirty(middle)

                writers.append(threading.Thread(target=write))
                writers[0].start()
                half_written.wait(0.2)

            def __getitem__(self, index):
                self._rewrite()
                return super().__getitem__(index)

            def __bytes__(self):
                self._rewrite()
                return bytes(memoryview(self))

        pool._pages[middle] = Tripwire(pool._pages[middle])
        try:
            scanned = list(tree.scan())
        finally:
            for writer in writers:
                writer.join(5)
        assert writers, "the leaf was never read"
        file.close()
        read = scanned[len(first.keys) : len(scanned) - later]
        assert read in (list(zip(old.keys, old.values)), list(zip(new.keys, new.values)))
