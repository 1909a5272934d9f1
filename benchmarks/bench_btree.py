"""Microbenchmarks for the storage substrate (the BerkeleyDB substitute).

Not a paper figure — the paper buys this layer off the shelf — but a
repo that ships its own B+tree should publish its numbers: sequential
and random insert, point lookup, range scan, and the cost of a
thrashing buffer pool.
"""

import pytest

from repro.storage.btree import BPlusTree
from repro.storage.pages import BufferPool, PagedFile
from repro.storage.stats import SystemStats

N = 5000


@pytest.fixture
def tree(tmp_path):
    file = PagedFile(str(tmp_path / "bench.db"), SystemStats())
    yield BPlusTree(BufferPool(file, capacity=256))
    file.close()


@pytest.fixture
def loaded(tmp_path):
    file = PagedFile(str(tmp_path / "loaded.db"), SystemStats())
    tree = BPlusTree(BufferPool(file, capacity=256))
    for i in range(N):
        tree.put(f"key{i:08d}".encode(), f"value-{i}".encode())
    yield tree
    file.close()


def test_sequential_insert(benchmark, tmp_path):
    counter = iter(range(100))

    def insert_all():
        file = PagedFile(str(tmp_path / f"s{next(counter)}.db"), SystemStats())
        tree = BPlusTree(BufferPool(file, capacity=256))
        for i in range(N):
            tree.put(f"key{i:08d}".encode(), f"value-{i}".encode())
        file.close()

    benchmark.pedantic(insert_all, rounds=2, iterations=1)


def test_random_insert(benchmark, tmp_path):
    import random

    order = list(range(N))
    random.Random(7).shuffle(order)
    counter = iter(range(100))

    def insert_all():
        file = PagedFile(str(tmp_path / f"r{next(counter)}.db"), SystemStats())
        tree = BPlusTree(BufferPool(file, capacity=256))
        for i in order:
            tree.put(f"key{i:08d}".encode(), f"value-{i}".encode())
        file.close()

    benchmark.pedantic(insert_all, rounds=2, iterations=1)


def test_point_lookups(benchmark, loaded):
    def lookups():
        for i in range(0, N, 7):
            assert loaded.get(f"key{i:08d}".encode()) is not None

    benchmark.pedantic(lookups, rounds=3, iterations=1)


def test_full_scan(benchmark, loaded):
    def scan():
        count = sum(1 for _ in loaded.scan())
        assert count == N

    benchmark.pedantic(scan, rounds=3, iterations=1)


def test_prefix_scan(benchmark, loaded):
    def scan():
        count = sum(1 for _ in loaded.scan_prefix(b"key0000"))
        assert count == 10000 // 10 or count > 0

    benchmark.pedantic(scan, rounds=3, iterations=1)


def test_thrashing_pool_lookups(benchmark, tmp_path):
    file = PagedFile(str(tmp_path / "thrash.db"), SystemStats())
    tree = BPlusTree(BufferPool(file, capacity=4))
    for i in range(N):
        tree.put(f"key{i:08d}".encode(), f"value-{i}".encode())

    def lookups():
        for i in range(0, N, 17):
            assert tree.get(f"key{i:08d}".encode()) is not None

    benchmark.pedantic(lookups, rounds=2, iterations=1)
    file.close()
