"""Tests for the compiled-guard plan cache (repro.cache)."""

import json

import pytest

from repro import obs
from repro.cache import CompiledPlan, PlanCache, shape_fingerprint
from repro.engine.interpreter import Interpreter
from repro.engine.profile import profile
from repro.errors import StorageError
from repro.storage import Database, SystemStats
from repro.workloads import generate_dblp

from tests.conftest import FIG1A, FIG1B
from tests.storage.test_write_path_counts import count_calls

GUARD = "MORPH author [ name book [ title ] ]"


class TestShapeFingerprint:
    DESCRIPTOR = {
        "types": [[0, ["data"]], [1, ["data", "book"]]],
        "edges": [[0, 1, 1, None]],
        "counts": {"0": 1, "1": 3},
    }

    def test_deterministic(self):
        assert shape_fingerprint(self.DESCRIPTOR) == shape_fingerprint(self.DESCRIPTOR)

    def test_key_order_independent(self):
        reordered = {
            "counts": {"1": 3, "0": 1},
            "edges": self.DESCRIPTOR["edges"],
            "types": self.DESCRIPTOR["types"],
        }
        assert shape_fingerprint(reordered) == shape_fingerprint(self.DESCRIPTOR)

    def test_survives_json_round_trip(self):
        # The stored shape is decoded from JSON chunks; the fingerprint
        # computed at shred time must match the one recomputed on load.
        round_tripped = json.loads(json.dumps(self.DESCRIPTOR))
        assert shape_fingerprint(round_tripped) == shape_fingerprint(self.DESCRIPTOR)

    def test_different_shapes_differ(self):
        other = dict(self.DESCRIPTOR, counts={"0": 1, "1": 4})
        assert shape_fingerprint(other) != shape_fingerprint(self.DESCRIPTOR)

    @pytest.mark.parametrize(
        "descriptor, fingerprint",
        [
            (DESCRIPTOR, "2f5e81ab02a3de45"),
            ({"counts": {1: 3}}, "aa272ef27c78e96f"),
            ({"counts": {"1": 3}}, "de0a921dd124999f"),
            ({"counts": {"\x00int\x001": 3}}, "d542a79ccdbeb64a"),
            ({"\x00a": 1}, "9e5ab442835115b3"),
            ({"a": 1}, "015abd7f5cc57a2d"),
            ({"t": (1, 2)}, "ffe123b7f9907d93"),
            ({"k": {True: 1}}, "0c20b8c2ad991884"),
            ({"k": {"true": 1}}, "112f8f2c9df13d11"),
        ],
    )
    def test_pinned(self, descriptor, fingerprint):
        """The values every earlier fingerprint had: a plain descriptor
        hashed without the rebuild, a tagged one through it."""
        assert shape_fingerprint(descriptor) == fingerprint

    @pytest.mark.parametrize(
        "first, second",
        [
            ({"counts": {1: 3}}, {"counts": {"1": 3}}),
            ({"counts": {1: 3}}, {"counts": {"\x00int\x001": 3}}),
            ({"\x00a": 1}, {"a": 1}),
            ({"k": {True: 1}}, {"k": {"true": 1}}),
            ({"k": {None: 1}}, {"k": {"null": 1}}),
        ],
    )
    def test_tagged_keys_hash_apart(self, first, second):
        assert shape_fingerprint(first) != shape_fingerprint(second)

    def test_a_shredded_descriptor_is_not_rebuilt(self, tmp_path, monkeypatch):
        from repro.cache import plan

        calls = count_calls(monkeypatch, plan, "_canonical")
        with Database(str(tmp_path / "fp.db"), durable=False) as db:
            stored = db.store_document("dblp", generate_dblp(20))
            assert shape_fingerprint(stored["shape"]) == stored["shape_fingerprint"]
        assert calls == []
        shape_fingerprint({"counts": {1: 3}})
        assert calls


def _plan(guard="G", fingerprint="f" * 16):
    return CompiledPlan(
        guard=guard,
        fingerprint=fingerprint,
        checked=None,
    )


class TestPlanCacheLru:
    def test_hit_and_miss_counting(self):
        cache = PlanCache(SystemStats(), capacity=4)
        assert cache.get("G", "f") is None
        cache.put(_plan("G", "f"))
        assert cache.get("G", "f") is not None
        assert cache.registry.counter("plan_cache.hits") == 1
        assert cache.registry.counter("plan_cache.misses") == 1

    def test_lru_eviction_order(self):
        cache = PlanCache(SystemStats(), capacity=2)
        cache.put(_plan("a"))
        cache.put(_plan("b"))
        assert cache.get("a", "f" * 16) is not None  # refresh "a"
        cache.put(_plan("c"))  # evicts "b", the LRU entry
        assert cache.get("b", "f" * 16) is None
        assert cache.get("a", "f" * 16) is not None
        assert cache.get("c", "f" * 16) is not None
        assert cache.stats()["evictions"] == 1

    def test_stats_shape(self):
        stats = PlanCache(SystemStats(), capacity=3).stats()
        assert set(stats) == {
            "entries", "capacity", "hits", "misses", "evictions", "contended",
        }


@pytest.fixture
def db(tmp_path):
    with Database(str(tmp_path / "cache.db"), durable=False) as database:
        database.store_document("a", FIG1A)
        yield database


class TestDatabasePlanCache:
    def test_repeat_transform_hits(self, db):
        first = db.transform("a", GUARD)
        assert db.plan_cache.stats()["misses"] == 1
        second = db.transform("a", GUARD)
        assert db.plan_cache.stats()["hits"] == 1
        assert second.forest.canonical() == first.forest.canonical()

    def test_cached_plan_skips_the_loss_analysis(self, db, monkeypatch):
        compiles = count_calls(monkeypatch, Interpreter, "compile")
        with obs.tracing() as miss:
            db.transform("a", GUARD)
        assert len(compiles) == 1
        assert miss.metrics.counter("typing.loss.pairs") > 0
        with obs.tracing() as hit:
            db.transform("a", GUARD)
        # No compile, so no pair of the loss analysis is evaluated again.
        assert len(compiles) == 1
        assert hit.metrics.counter("typing.loss.pairs") == 0

    def test_compile_and_stream_share_plans(self, db):
        import io

        db.transform("a", GUARD)
        db.stream_transform("a", GUARD, io.StringIO())
        db.transform("a", GUARD)
        stats = db.plan_cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2

    def test_same_shape_restore_hits_and_reads_new_text(self, db):
        """A plan carries no data: dropping a document and storing one of
        the same shape under its name reuses the plan over the new text."""
        first = db.transform("a", GUARD).xml()
        fingerprint = db.index("a").fingerprint
        db.drop_document("a")
        db.store_document("a", FIG1A.replace(">X<", ">Renamed<"))
        assert db.index("a").fingerprint == fingerprint
        again = db.transform("a", GUARD).xml()
        assert db.plan_cache.stats()["hits"] == 1
        assert "<title>Renamed</title>" in again and "<title>X</title>" in first
        assert again == first.replace(">X<", ">Renamed<")

    def test_different_document_shape_misses(self, db):
        db.transform("a", GUARD)
        db.store_document("b", FIG1B)
        db.transform("b", GUARD)
        assert db.plan_cache.stats()["misses"] == 2
        assert len(db.plan_cache) == 2

    def test_drop_cache_clears_plans(self, db):
        db.transform("a", GUARD)
        db.drop_cache()
        assert len(db.plan_cache) == 0

    def test_duplicate_store_still_rejected(self, db):
        # The duplicate check now probes the catalog key directly.
        with pytest.raises(StorageError):
            db.store_document("a", FIG1A)

    def test_rendered_output_stable_across_hits(self, db):
        results = [db.transform("a", GUARD) for _ in range(3)]
        canon = results[0].forest.canonical()
        assert all(r.forest.canonical() == canon for r in results[1:])


#: Appended as the last root child of FIG1A: no new type, but a book
#: without a publisher changes the adorned shape (and so the fingerprint).
EXTRA_BOOK = "<book><title>Z</title><author><name>B</name></author></book>"


class TestPlansOutliveWrites:
    """An update changes which fingerprint a document has, never what a
    plan cached under some fingerprint computes."""

    def test_a_shape_changing_batch_grades_and_compiles_nothing(self, db, monkeypatch):
        from repro.analysis import evolve
        from repro.engine.interpreter import Interpreter

        guards = [GUARD, "MORPH book [ title ]", "MORPH publisher [ name ]"]
        for guard in guards:
            db.transform("a", guard).xml()
        graded = count_calls(monkeypatch, evolve, "check_guard_evolution")
        compiled = count_calls(monkeypatch, Interpreter, "compile")
        result = db.insert_subtree("a", "1", EXTRA_BOOK)
        assert result.shape_changed
        assert result.old_fingerprint != result.new_fingerprint
        assert (graded, compiled) == ([], [])
        assert len(db.plan_cache) == len(guards)

    def test_reads_hit_after_a_fingerprint_round_trip(self, db):
        # The evolution analyzer grades GUARD degraded across this
        # append; a verdict is a report and must not cost the plan.
        before = db.transform("a", GUARD).xml()
        db.insert_subtree("a", "1", EXTRA_BOOK)
        assert db.transform("a", GUARD).xml() != before
        db.delete_subtree("a", "1.3")
        before_stats = db.plan_cache.stats()
        assert db.transform("a", GUARD).xml() == before
        after_stats = db.plan_cache.stats()
        assert after_stats["hits"] == before_stats["hits"] + 1
        assert after_stats["misses"] == before_stats["misses"]


class TestColdVersusWarmMetrics:
    def test_warm_run_is_cheaper_and_visible_in_explain(self, tmp_path):
        with Database(str(tmp_path / "m.db"), durable=False) as db:
            db.store_document("dblp", generate_dblp(60))
            guard = "CAST MORPH author [ title [ year ] ]"

            db.drop_cache()
            cold = profile(lambda: db.transform("dblp", guard), db)
            warm = profile(lambda: db.transform("dblp", guard), db)

            # Counters flow through the tracer: the cold run records the
            # miss, the warm run records the hit.
            assert cold.tracer.metrics.counters["plan_cache.misses"] == 1
            assert "plan_cache.misses" not in warm.tracer.metrics.counters
            assert warm.tracer.metrics.counters["plan_cache.hits"] == 1

            # The warm run pays no compile spans and reads fewer blocks.
            assert warm.span_duration("lang.parse") is None
            assert cold.span_duration("lang.parse") is not None
            assert warm.storage["blocks_read"] < cold.storage["blocks_read"]

            # EXPLAIN ANALYZE prints the plan-cache line and counters.
            pretty = warm.pretty()
            assert "plan cache:" in pretty
            assert "hits=1" in pretty
            assert "plan_cache.hits" in pretty
