"""Tests for the B+tree, including model-based property tests."""

import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import StorageError
from repro.storage import btree
from repro.storage.btree import MAX_ENTRY, BPlusTree
from repro.storage.pages import BufferPool, PagedFile
from repro.storage.stats import SystemStats


@pytest.fixture
def tree(tmp_path):
    file = PagedFile(str(tmp_path / "t.db"), SystemStats())
    yield BPlusTree(BufferPool(file, capacity=64))
    file.close()


class TestBasics:
    def test_get_missing(self, tree):
        assert tree.get(b"nope") is None
        assert b"nope" not in tree

    def test_put_get(self, tree):
        tree.put(b"k", b"v")
        assert tree.get(b"k") == b"v"
        assert b"k" in tree

    def test_replace(self, tree):
        tree.put(b"k", b"v1")
        tree.put(b"k", b"v2")
        assert tree.get(b"k") == b"v2"
        assert tree.count() == 1

    def test_delete(self, tree):
        tree.put(b"k", b"v")
        assert tree.delete(b"k")
        assert tree.get(b"k") is None
        assert not tree.delete(b"k")

    def test_empty_key_and_value(self, tree):
        tree.put(b"", b"")
        assert tree.get(b"") == b""

    def test_oversized_entry_rejected(self, tree):
        with pytest.raises(StorageError):
            tree.put(b"k", b"x" * (MAX_ENTRY + 1))


class TestScans:
    def test_scan_sorted(self, tree):
        for key in [b"m", b"a", b"z", b"b"]:
            tree.put(key, key)
        assert [k for k, _ in tree.scan()] == [b"a", b"b", b"m", b"z"]

    def test_scan_range(self, tree):
        for i in range(20):
            tree.put(f"k{i:02d}".encode(), b"v")
        keys = [k for k, _ in tree.scan(b"k05", b"k10")]
        assert keys == [f"k{i:02d}".encode() for i in range(5, 10)]

    def test_scan_prefix(self, tree):
        tree.put(b"Ta1", b"1")
        tree.put(b"Ta2", b"2")
        tree.put(b"Tb1", b"3")
        tree.put(b"U", b"4")
        assert [k for k, _ in tree.scan_prefix(b"Ta")] == [b"Ta1", b"Ta2"]
        assert [k for k, _ in tree.scan_prefix(b"T")] == [b"Ta1", b"Ta2", b"Tb1"]

    def test_prefix_at_byte_boundary(self, tree):
        tree.put(b"\xff\x01", b"a")
        tree.put(b"\xff\xff", b"b")
        assert len(list(tree.scan_prefix(b"\xff"))) == 2


class TestSplitting:
    def test_many_inserts_force_splits(self, tree):
        count = 2000
        for i in range(count):
            tree.put(f"key{i:06d}".encode(), f"value{i}".encode() * 3)
        assert tree.count() == count
        for i in range(0, count, 97):
            assert tree.get(f"key{i:06d}".encode()) == f"value{i}".encode() * 3

    def test_reverse_order_inserts(self, tree):
        for i in reversed(range(1000)):
            tree.put(f"k{i:05d}".encode(), b"v")
        keys = [k for k, _ in tree.scan()]
        assert keys == sorted(keys) and len(keys) == 1000

    def test_large_values_split_quickly(self, tree):
        blob = b"x" * 3000
        for i in range(50):
            tree.put(f"big{i:03d}".encode(), blob)
        assert all(tree.get(f"big{i:03d}".encode()) == blob for i in range(50))


class TestPersistence:
    def test_reopen(self, tmp_path):
        path = str(tmp_path / "p.db")
        stats = SystemStats()
        file = PagedFile(path, stats)
        tree = BPlusTree(BufferPool(file, capacity=32))
        for i in range(500):
            tree.put(f"k{i:04d}".encode(), f"v{i}".encode())
        tree.pool.flush()
        file.close()

        file = PagedFile(path, stats)
        again = BPlusTree(BufferPool(file, capacity=32))
        assert again.count() == 500
        assert again.get(b"k0123") == b"v123"
        file.close()

    def test_not_a_tree_file(self, tmp_path):
        # A well-formed page file whose page 0 is not a tree's meta page.
        file = PagedFile(str(tmp_path / "junk.db"), SystemStats())
        file.allocate()
        with pytest.raises(StorageError):
            BPlusTree(BufferPool(file))
        file.close()

    def test_small_buffer_pool_still_correct(self, tmp_path):
        """Thrashing pool: every access may hit disk, results identical."""
        file = PagedFile(str(tmp_path / "s.db"), SystemStats())
        tree = BPlusTree(BufferPool(file, capacity=3))
        for i in range(800):
            tree.put(f"k{i:04d}".encode(), f"v{i}".encode())
        assert tree.get(b"k0500") == b"v500"
        assert tree.count() == 800
        file.close()


class TestLastBefore:
    def test_greatest_key_below_a_bound(self, tree):
        tree.put_many((b"k%05d" % n, b"v%d" % n) for n in range(0, 3000, 2))
        assert tree.last_before(b"k01001") == (b"k01000", b"v1000")
        assert tree.last_before(b"k01000") == (b"k00998", b"v998")
        assert tree.last_before(None) == (b"k02998", b"v2998")
        assert tree.last_before(b"k00000") is None
        assert tree.last_before(b"") is None

    def test_steps_back_over_leaves_lazy_deletes_emptied(self, tree):
        tree.put_many((b"k%05d" % n, b"v" * 40) for n in range(3000))
        for n in range(1000, 2500):
            tree.delete(b"k%05d" % n)
        assert len(tree._descend(b"k01500")[1]) >= 2
        reads = tree.pool.stats.counter("btree.page_reads")
        assert tree.last_before(b"k01500") == (b"k00999", b"v" * 40)
        # The descent, then back over every emptied leaf to k00999's.
        assert tree.pool.stats.counter("btree.page_reads") - reads > 3
        for n in range(1000):
            tree.delete(b"k%05d" % n)
        assert tree.last_before(b"k02500") is None
        assert tree.last_before(None) == (b"k02999", b"v" * 40)

    def test_last_with_prefix(self, tree):
        tree.put_many([(b"Ta", b"0"), (b"Ta1", b"1"), (b"Ta2", b"2"), (b"Tb", b"3")])
        assert tree.last_with_prefix(b"Ta") == (b"Ta2", b"2")
        assert tree.last_with_prefix(b"Ta2") == (b"Ta2", b"2")
        assert tree.last_with_prefix(b"Tc") is None
        assert tree.last_with_prefix(b"") == (b"Tb", b"3")
        tree.put(b"\xff\xff", b"4")
        assert tree.last_with_prefix(b"\xff") == (b"\xff\xff", b"4")


class TestDecodedInternalNodes:
    def test_a_kept_decode_is_still_a_buffer_hit(self, tree):
        tree.put_many((f"k{i:05d}".encode(), b"v" * 40) for i in range(2000))
        root, leaf = tree._descend(b"k01000")[1]
        pool = tree.pool
        assert pool.decoded(root) is not None and pool.decoded(leaf) is None
        hits, misses = pool.stats.counter("buffer.hits"), pool.stats.counter("buffer.misses")
        assert tree.get(b"k01000") == b"v" * 40
        # The root comes from its kept decode, the leaf is decoded again:
        # two gets, both hits, and the leaf is now the most recent page.
        assert pool.stats.counter("buffer.hits") - hits == 2
        assert pool.stats.counter("buffer.misses") == misses
        assert list(pool._pages)[-2:] == [root, leaf]

    def test_a_rewritten_root_is_decoded_again(self, tree):
        tree.put_many((f"k{i:05d}".encode(), b"v" * 40) for i in range(2000))
        root = tree._descend(b"")[1][0]
        kept = tree.pool.decoded(root)
        tree.put_many((f"k{i:05d}x".encode(), b"w" * 40) for i in range(0, 2000, 7))
        assert tree.pool.decoded(root) is None
        assert tree.get(b"k00007x") == b"w" * 40
        assert tree.pool.decoded(tree._root) is not kept


class TestModelBased:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "delete"]),
                st.binary(min_size=0, max_size=20),
                st.binary(min_size=0, max_size=40),
            ),
            max_size=200,
        )
    )
    def test_matches_dict_model(self, tmp_path_factory, operations):
        tmp = tmp_path_factory.mktemp("bt")
        file = PagedFile(str(tmp / "m.db"), SystemStats())
        tree = BPlusTree(BufferPool(file, capacity=8))
        model: dict[bytes, bytes] = {}
        try:
            for action, key, value in operations:
                if action == "put":
                    tree.put(key, value)
                    model[key] = value
                else:
                    assert tree.delete(key) == (key in model)
                    model.pop(key, None)
            assert dict(tree.scan()) == model
            for key, value in model.items():
                assert tree.get(key) == value
        finally:
            file.close()


class TestRuns:
    def test_run_into_an_empty_tree(self, tree):
        run = [(f"k{i:05d}".encode(), f"v{i}".encode() * 5) for i in range(3000)]
        tree.put_many(run)
        assert list(tree.scan()) == run
        assert tree.check() == []

    def test_run_merges_into_a_populated_tree(self, tree):
        evens = [(f"k{i:05d}".encode(), b"even") for i in range(0, 2000, 2)]
        odds = [(f"k{i:05d}".encode(), b"odd" * 10) for i in range(1, 2000, 2)]
        tree.put_many(evens)
        tree.put_many([(b"k00000", b"replaced")] + odds)
        expected = dict(evens + odds)
        expected[b"k00000"] = b"replaced"
        assert list(tree.scan()) == sorted(expected.items())
        assert tree.check() == []

    def test_runs_through_a_three_level_tree(self, tree):
        # Long keys: an internal page holds ~25 separators, so a few
        # hundred leaves need two internal levels, and the second run
        # splits leaves under every one of them.
        def key(n):
            return b"%0150d" % n

        first = [(key(n), b"a" * 150) for n in range(0, 4000, 2)]
        second = [(key(n), b"b" * 150) for n in range(1, 4000, 2)]
        tree.put_many(first)
        assert len(tree._descend(key(0))[1]) >= 3
        tree.put_many(second)
        assert list(tree.scan()) == sorted(first + second)
        assert tree.check() == []

    def test_empty_run_and_generator(self, tree):
        tree.put_many([])
        tree.put_many((bytes([i]), b"v") for i in range(10))
        assert tree.count() == 10

    @pytest.mark.parametrize(
        "run",
        [
            [(b"b", b"1"), (b"a", b"2")],
            [(b"a", b"1"), (b"a", b"2")],
            [(b"a", b"1"), (b"b", b"x" * MAX_ENTRY)],
        ],
        ids=["unsorted", "duplicated", "oversized"],
    )
    def test_refused_run_touches_nothing(self, tree, run):
        tree.put_many((f"seed{i:03d}".encode(), b"v" * 30) for i in range(300))
        tree.pool.flush()
        with pytest.raises(StorageError):
            tree.put_many(run)
        assert tree.pool._dirty == set()
        assert tree.count() == 300
        assert tree.get(b"a") is None


#: Keys from a small alphabet, so runs collide with stored keys (replace)
#: and land between them (insert) about equally often.
_KEYS = st.binary(min_size=0, max_size=3).map(lambda raw: bytes(b % 7 + 97 for b in raw))
_VALUES = st.one_of(
    st.binary(max_size=40),
    # Near the entry limit: one or two such entries fill a page.
    st.integers(MAX_ENTRY - 40, MAX_ENTRY - 3).map(lambda size: b"\xee" * size),
    st.integers(900, 2100).map(lambda size: b"\xdd" * size),
)


#: Keys a lookup may ask for: the small alphabet and the dense numbered
#: keys of ``put_long_run``, so most lookups hit a stored key.
_LOOKUPS = st.one_of(_KEYS, st.integers(0, 60400).map(lambda n: b"n%06d" % n))


class BTreeAgainstDict(RuleBasedStateMachine):
    """Runs, single puts, deletes, lookups, reopens, cache drops and
    rolled-back batches, against a ``dict``.

    The pool holds 8 pages, so root splits, evictions, discards and
    rollbacks all meet the internal nodes it keeps decoded beside their
    frames; the invariant checks each of those against a fresh decode.
    """

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="btree-model-")
        self.model: dict[bytes, bytes] = {}
        self.file = None
        self._open()

    def _open(self):
        self.file = PagedFile(self.directory + "/m.db", SystemStats())
        self.tree = BPlusTree(BufferPool(self.file, capacity=8))

    def teardown(self):
        self.file.close()
        shutil.rmtree(self.directory)

    @rule(entries=st.dictionaries(_KEYS, _VALUES, max_size=12))
    def put_many(self, entries):
        self.tree.put_many(sorted(entries.items()))
        self.model.update(entries)

    @rule(first=st.integers(0, 60000), count=st.integers(0, 400), size=st.integers(0, 60))
    def put_long_run(self, first, count, size):
        # Dense numbered keys: a run that straddles many leaves.
        run = [(b"n%06d" % n, b"%d" % n * size) for n in range(first, first + count)]
        self.tree.put_many(run)
        self.model.update(run)

    @rule(key=_KEYS, value=_VALUES)
    def put(self, key, value):
        self.tree.put(key, value)
        self.model[key] = value

    @rule(key=_KEYS)
    def delete(self, key):
        assert self.tree.delete(key) == (key in self.model)
        self.model.pop(key, None)

    @rule(start=_LOOKUPS, count=st.integers(0, 400))
    def delete_run(self, start, count):
        # Lazy deletes of neighbours: whole leaves go empty and stay linked.
        for key in sorted(key for key in self.model if key >= start)[:count]:
            assert self.tree.delete(key)
            del self.model[key]

    @rule(key=_LOOKUPS)
    def get(self, key):
        assert self.tree.get(key) == self.model.get(key)

    @rule(bound=st.one_of(st.none(), st.just(b""), _LOOKUPS))
    def last_before(self, bound):
        below = [key for key in self.model if bound is None or key < bound]
        expected = (max(below), self.model[max(below)]) if below else None
        assert self.tree.last_before(bound) == expected

    @rule()
    def reopen(self):
        self.tree.pool.flush()
        self.file.close()
        self._open()

    @rule()
    def drop_cache(self):
        self.tree.pool.drop_cache()

    @rule(entries=st.dictionaries(_KEYS, _VALUES, min_size=1, max_size=12))
    def rollback_staged(self, entries):
        self.tree.pool.flush()
        self.tree.put_many(sorted(entries.items()))
        # A batch that outgrew the all-dirty pool was committed when its
        # writing section ended; otherwise it is still only staged.
        committed = not self.tree.pool._dirty
        self.tree.rollback()
        if committed:
            self.model.update(entries)

    def _decoded_nodes_match_their_pages(self):
        """Only a resident internal page has a decoded node, and it is
        what decoding the page afresh gives."""
        pool = self.tree.pool
        for page_id, node in list(pool._decoded.items()):
            assert page_id in pool._pages
            fresh = btree._read_node(pool, page_id)
            assert fresh.kind == btree._INTERNAL
            assert (node.child0, list(node.keys), list(node.values)) == (
                fresh.child0,
                fresh.keys,
                fresh.values,
            )

    @invariant()
    def matches_model(self):
        # Decoded nodes before and after the scan, which evicts pages;
        # check() re-reads every page, so it comes last.
        self._decoded_nodes_match_their_pages()
        assert list(self.tree.scan()) == sorted(self.model.items())
        self._decoded_nodes_match_their_pages()
        assert self.tree.check() == []


BTreeAgainstDict.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestBTreeAgainstDict = BTreeAgainstDict.TestCase
