"""Cache and counter races: invariants that must hold under threads.

Three families:

* the plan cache — single-flight compilation (no duplicate compiles
  beyond one leader per key) and the LRU size invariant, hammered by
  thread pools;
* the closest-join memos — concurrent ``closest_pair_map`` calls on one
  index return the *same* memo object (a second compute would silently
  produce different node identities for the id-keyed maps), and
  ``closest_pairs`` / ``restrict_pass`` racing it share one grouping;
  text sinks racing on a sequence's first escaped column (and, in the
  JSON flavour, its first JSON column) write equal bytes; compiles
  racing on a fresh index's source shape make each vertex once;
* the counters — ``SystemStats.event`` and ``MetricsRegistry.inc`` are
  increments, so N threads x M increments must total exactly N*M.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cache.plan import CompiledPlan, PlanCache
from repro.obs.metrics import MetricsRegistry
from repro.storage.stats import SystemStats

THREADS = 8


def _plan(guard: str, fingerprint: str) -> CompiledPlan:
    return CompiledPlan(
        guard=guard,
        fingerprint=fingerprint,
        checked=None,
    )


def _hammer(workers: int, task) -> list:
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [f.result() for f in [pool.submit(task, i) for i in range(workers)]]


class TestSingleFlight:
    def test_one_compile_per_key(self):
        cache = PlanCache(SystemStats(), capacity=64)
        compiles = []
        compile_lock = threading.Lock()
        started = threading.Barrier(THREADS)

        def compile_plan():
            with compile_lock:
                compiles.append(threading.current_thread().name)
            time.sleep(0.05)  # hold the door open so every waiter piles up
            return _plan("g", "doc")

        def task(i):
            started.wait()  # all threads miss at once
            return cache.get_or_compile("g", "doc", compile_plan)

        results = _hammer(THREADS, task)
        assert len(compiles) == 1, "single-flight admitted a duplicate compile"
        assert all(r is results[0] for r in results), "waiters got a different plan"
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["contended"] == THREADS - 1
        assert stats["hits"] >= THREADS - 1  # waiters re-read the cache

    def test_distinct_keys_compile_concurrently(self):
        cache = PlanCache(SystemStats(), capacity=64)
        compiles = []
        lock = threading.Lock()

        def task(i):
            def compile_plan():
                with lock:
                    compiles.append(i)
                return _plan(f"g{i}", "doc")

            return cache.get_or_compile(f"g{i}", "doc", compile_plan)

        _hammer(THREADS, task)
        assert sorted(compiles) == list(range(THREADS))  # one each, none lost

    def test_leader_failure_promotes_a_waiter(self):
        cache = PlanCache(SystemStats(), capacity=64)
        attempts = []
        lock = threading.Lock()
        started = threading.Barrier(2)

        def compile_plan():
            with lock:
                attempts.append(1)
                first = len(attempts) == 1
            if first:
                time.sleep(0.02)
                raise RuntimeError("leader dies")
            return _plan("g", "doc")

        def task(i):
            started.wait()
            try:
                return cache.get_or_compile("g", "doc", compile_plan)
            except RuntimeError:
                return None

        results = _hammer(2, task)
        # One thread saw the injected failure; the other took over and
        # compiled successfully rather than hanging or reusing nothing.
        assert sum(1 for r in results if r is None) == 1
        assert sum(1 for r in results if r is not None) == 1
        assert len(attempts) == 2

    def test_lru_capacity_invariant_under_threads(self):
        cache = PlanCache(SystemStats(), capacity=8)

        def task(i):
            for j in range(50):
                key = f"g{i}-{j}"
                cache.get_or_compile(key, "doc", lambda k=key: _plan(k, "doc"))
                assert len(cache) <= 8
            return True

        assert all(_hammer(THREADS, task))
        stats = cache.stats()
        assert stats["entries"] <= 8
        assert stats["evictions"] >= THREADS * 50 - 8


class TestJoinMemoSingleFlight:
    def test_concurrent_closest_pair_map_returns_one_memo(self):
        from repro.closeness import DocumentIndex
        from repro.xmltree import parse_forest

        forest = parse_forest(
            "<r>" + "".join(f"<a><b>x{i}</b></a>" for i in range(20)) + "</r>"
        )
        index = DocumentIndex(forest)
        by_dotted = {t.dotted: t for t in index.types()}
        a = by_dotted["r.a"]
        b = by_dotted["r.a.b"]
        maps = _hammer(THREADS, lambda i: index.closest_pair_map(a, b))
        assert all(m is maps[0] for m in maps), (
            "closest_pair_map computed more than one memo for the same pair"
        )

    def test_mixed_join_entry_points_share_one_grouping(self, monkeypatch):
        # closest_pairs takes the memo lock on its own, restrict_pass
        # and closest_pair_map reach the group memo from inside theirs:
        # whichever thread gets there first, each (type, width) is grouped
        # once and every caller reads that one grouping.
        import sys

        from repro.closeness import DocumentIndex
        from repro.closeness import index as index_module
        from repro.xmltree import parse_forest

        from tests.closeness.test_index import filter_of

        forest = parse_forest(
            "<r>" + "".join(f"<a><b>x{i}</b><b>y{i}</b><c/></a>" for i in range(40)) + "</r>"
        )
        index = DocumentIndex(forest)
        by_dotted = {t.dotted: t for t in index.types()}
        a, b, c = by_dotted["r.a"], by_dotted["r.a.b"], by_dotted["r.a.c"]
        grouped = index_module.group_by_prefix
        calls = []

        def slow_grouping(labels, width):
            calls.append((id(labels), width))
            time.sleep(0.01)  # hold the build open so the others pile up
            return grouped(labels, width)

        monkeypatch.setattr(index_module, "group_by_prefix", slow_grouping)
        started = threading.Barrier(THREADS)

        def task(i):
            started.wait()
            if i % 3 == 1:
                return list(index.closest_pair_map(c, b))  # the groups themselves
            if i % 3 == 2:
                shape = filter_of((a, [(b, [])]))
                assert len(index.restrict_pass(a, shape)) == 40
            partners = [[] for _ in range(len(index.nodes_of(c)))]
            for anchor, partner in index.closest_pairs(c, b):
                partners[index.position_of(anchor)[1]].append(index.position_of(partner)[1])
            return partners

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = _hammer(THREADS, task)
        finally:
            sys.setswitchinterval(interval)
        assert all(lists == results[0] for lists in results)
        for lists in results[1::3]:
            assert all(got is want for got, want in zip(lists, results[1], strict=True))
        assert all(len(partners) == 2 for partners in results[0])
        assert sorted(calls) == sorted(set(calls)), "a (type, width) was grouped twice"


class TestEscapedColumnFirstUse:
    def test_racing_text_sinks_write_equal_bytes(self, tmp_path):
        # Every thread reaches the lazily escaped columns of one freshly
        # stored document at once, half of them through the JSON flavour
        # (which builds the JSON columns from the escaped ones); a lost
        # or torn column would show as a diverging output.
        import json
        import sys

        import repro
        from repro.storage import Database

        document = "<r>" + "".join(
            f'<a k="{i} &quot;&amp;\\é"><b>x{i} &amp; &lt;y&gt;\t𝄞</b><b>z</b></a>'
            for i in range(200)
        ) + "</r>"
        guard = "MORPH a [ b k ]"
        expected = repro.transform(repro.parse_forest(document), guard).xml()
        with Database(str(tmp_path / "race.db"), durable=False) as db:
            db.store_document("doc", document)
            started = threading.Barrier(THREADS, timeout=60)

            def task(i):
                started.wait()
                result = db.transform("doc", guard)
                return result.xml_json() if i % 2 else result.xml()

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                outputs = _hammer(THREADS, task)
            finally:
                sys.setswitchinterval(interval)
        body = json.dumps(expected)[1:-1]
        assert outputs == [body if i % 2 else expected for i in range(THREADS)]
        assert '<a k="0 &quot;&amp;\\é"><b>x0 &amp; &lt;y&gt;\t𝄞</b>' in expected


class TestVertexFirstUse:
    """A document's source shape makes a vertex (and a data type) the
    first time a compile reaches it.  ``ShapeType`` equality is identity
    and the loss analysis compares vertices with ``is``, so threads
    compiling at once on one fresh index must all get the same object
    per type, and plans and bytes equal to a serial run's."""

    GUARDS = (
        "CAST MORPH person [ name [ emailaddress [ phone ] ] ]",
        "CAST MORPH person [ name emailaddress phone ]",
        "CAST MORPH person [ name [ emailaddress [ phone [ street "
        "[ city [ country [ zipcode [ education [ gender [ age ] ] ] ] ] ] ] ] ] ]",
        "CAST MORPH item [ name location quantity ]",
    )

    @pytest.fixture(scope="class")
    def xmark(self):
        from repro.workloads.xmark import generate_xmark

        return generate_xmark(0.002)

    @pytest.fixture
    def slow_construction(self, monkeypatch):
        # Hold every vertex and data type construction open, so a second
        # thread reaching an unmade type finds it half-made.
        from repro.shape import shape as shape_module
        from repro.shape import types as types_module

        for module, name in ((shape_module, "ShapeType"), (types_module, "DataType")):
            original = getattr(module, name)

            def slow(*args, _original=original, **kwargs):
                time.sleep(0.001)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, slow)

    def race(self, index):
        import sys

        from repro.engine.interpreter import Interpreter

        started = threading.Barrier(THREADS, timeout=60)

        def task(i):
            started.wait()
            result = Interpreter(index).compile(self.GUARDS[i % len(self.GUARDS)])
            seen = []
            for vertex in result.target_shape.types():
                origin = vertex.origin
                seen.extend([origin, *index.shape.ancestors(origin)])
                seen.extend(index.shape.children(origin))
            return result, seen

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            outcomes = _hammer(THREADS, task)
        finally:
            sys.setswitchinterval(interval)
        vertices = index.shape.types()
        assert [vertex.source for vertex in vertices] == list(index.type_table)
        for _result, seen in outcomes:
            assert seen
            for vertex in seen:
                # Made once: every thread holds the one vertex of its type,
                # and its one data type.
                assert vertices[vertex.source.type_id] is vertex
                assert index.type_table.by_id(vertex.source.type_id) is vertex.source
                assert vertex.source in index.type_table
        return [result for result, _seen in outcomes]

    def check(self, index, results, serial):
        for i, result in enumerate(results):
            expected = serial[i % len(self.GUARDS)]
            assert result.target_shape.pretty() == expected.target_shape.pretty()
            assert result.loss == expected.loss
            assert result.planned(index).xml() == expected.planned(index).xml()

    def test_a_stored_index(self, tmp_path, xmark, slow_construction):
        from repro.engine.interpreter import Interpreter
        from repro.storage import Database

        with Database(str(tmp_path / "x.db"), durable=False) as db:
            db.store_document("xmark", xmark)
            db.drop_cache()
            results = self.race(db.index("xmark"))
            db.drop_cache()
            serial_index = db.index("xmark")
            serial = [Interpreter(serial_index).compile(g) for g in self.GUARDS]
            self.check(serial_index, results, serial)

    def test_an_in_memory_index(self, xmark, slow_construction):
        from repro.closeness import DocumentIndex
        from repro.engine.interpreter import Interpreter

        index = DocumentIndex(xmark)
        results = self.race(index)
        serial = [Interpreter(DocumentIndex(xmark)).compile(g) for g in self.GUARDS]
        self.check(index, results, serial)


class TestCounterAtomicity:
    def test_system_stats_event_is_exact(self):
        stats = SystemStats()
        per_thread = 5000

        def task(i):
            for _ in range(per_thread):
                stats.count("serve.test")
            return True

        _hammer(THREADS, task)
        assert stats.counters["serve.test"] == THREADS * per_thread

    def test_metrics_registry_inc_is_exact(self):
        registry = MetricsRegistry()
        per_thread = 5000

        def task(i):
            for _ in range(per_thread):
                registry.inc("c")
                registry.observe("h", 1.0)
            return True

        _hammer(THREADS, task)
        assert registry.counters["c"] == THREADS * per_thread
        assert registry.histograms["h"].count == THREADS * per_thread

    def test_block_accounting_is_exact(self):
        stats = SystemStats()
        per_thread = 2000

        def task(i):
            for _ in range(per_thread):
                stats.count("storage.blocks_read")
                stats.count("storage.blocks_written")
            return True

        _hammer(THREADS, task)
        assert stats.cumulative_blocks == THREADS * per_thread * 2
