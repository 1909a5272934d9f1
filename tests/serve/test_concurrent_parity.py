"""Property-based concurrency suite: parallel serving changes *nothing*.

The contract of :class:`repro.serve.TransformPool` is that running N
transforms on 8 threads over one shared database handle produces output
byte-identical to running them one at a time on the caller's thread —
same plan cache, same join memos, same buffer pool, no interleaving
visible in the results.  This suite pins that with Hypothesis-generated
random forests (200+ examples across the two properties) and with the
shipped ``examples/guards/`` corpus, for both the batch renderer
(:meth:`TransformPool.transform_many`) and the text sink the serve loop
answers with (``submit(..., stream=True)``, which returns the XML as the
body of a JSON string: ``TransformResult.xml_json``).

Every example builds a fresh throwaway store: parity must hold from a
cold cache (the first parallel batch races the single-flight compile)
and from a warm one (the second batch is all cache hits).
"""

import json
import os
import tempfile
from contextlib import contextmanager
from io import StringIO

import pytest
from hypothesis import HealthCheck, given, settings

from repro.serve import TransformPool
from repro.storage import Database

from tests.strategies import documents

GUARD_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples", "guards")

#: TYPE-FILL'd guards apply to *any* forest over the a-d tag alphabet:
#: missing labels synthesize placeholders instead of raising, so every
#: generated document exercises the full compile-and-render path.
FUZZ_GUARDS = [
    "CAST (TYPE-FILL MORPH a [ b ])",
    "CAST (TYPE-FILL MORPH b [ c [ d ] ])",
    "CAST (TYPE-FILL MORPH d [ a c ])",
]

WORKERS = 8
#: Repetitions per guard in a batch — enough that several workers race
#: the same (guard, fingerprint) key through the single-flight door.
REPS = 3


@contextmanager
def throwaway_db(forest):
    with tempfile.TemporaryDirectory(prefix="xmorph-parity-") as scratch:
        db = Database(os.path.join(scratch, "t.db"), durable=False)
        try:
            db.store_document("doc", forest)
            yield db
        finally:
            db.close()


def stream_all(pool, requests) -> list[str]:
    """Submit every request to the text sink, then wait for each in order.

    Each answer is a JSON string body, as the serve loop frames it.
    """
    futures = [(name, guard, pool.submit(name, guard, stream=True)) for name, guard in requests]
    return [pool.result(future, name, guard) for name, guard, future in futures]


def decoded(body: str) -> str:
    """The XML a JSON string body spells."""
    return json.loads(f'"{body}"')


def corpus_guards() -> list[str]:
    guards = []
    for entry in sorted(os.listdir(GUARD_DIR)):
        if not entry.endswith(".guard"):
            continue
        with open(os.path.join(GUARD_DIR, entry), encoding="utf-8") as handle:
            guards.append(
                " ".join(
                    line.strip()
                    for line in handle
                    if line.strip() and not line.lstrip().startswith("#")
                )
            )
    return guards


class TestFuzzedParity:
    """Random forests: 8-way parallel output == serial output, bytewise."""

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(documents(max_depth=3, max_children=3))
    def test_batch_parity(self, forest):
        requests = [("doc", guard) for guard in FUZZ_GUARDS for _ in range(REPS)]
        with throwaway_db(forest) as db:
            serial = {guard: db.transform("doc", guard).xml() for guard in FUZZ_GUARDS}
            results = db.transform_many(requests, workers=WORKERS)
            assert len(results) == len(requests)
            for (_name, guard), result in zip(requests, results):
                assert result.xml() == serial[guard], (
                    f"parallel batch output diverged from serial for {guard!r}"
                )

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(documents(max_depth=3, max_children=3))
    def test_stream_parity(self, forest):
        requests = [("doc", guard) for guard in FUZZ_GUARDS for _ in range(REPS)]
        with throwaway_db(forest) as db:
            serial = {guard: db.transform("doc", guard).xml_json() for guard in FUZZ_GUARDS}
            with TransformPool(db, workers=WORKERS) as pool:
                streamed = stream_all(pool, requests)
            for (_name, guard), body in zip(requests, streamed):
                assert body == serial[guard], (
                    f"parallel stream output diverged from serial for {guard!r}"
                )


class TestCorpusParity:
    """Every shipped example guard over books.xml, served 8-wide."""

    @pytest.fixture(scope="class")
    def books_db(self, tmp_path_factory):
        scratch = tmp_path_factory.mktemp("parity-corpus")
        db = Database(str(scratch / "books.db"), durable=False)
        with open(os.path.join(GUARD_DIR, "books.xml"), encoding="utf-8") as handle:
            db.store_document("books", handle.read())
        yield db
        db.close()

    def test_corpus_batch_parity(self, books_db):
        guards = corpus_guards()
        assert guards, "the examples/guards corpus is missing"
        serial = {g: books_db.transform("books", g).xml() for g in guards}
        requests = [("books", g) for g in guards for _ in range(4)]
        results = books_db.transform_many(requests, workers=WORKERS)
        for (_name, guard), result in zip(requests, results):
            assert result.xml() == serial[guard]

    def test_corpus_stream_parity(self, books_db):
        guards = corpus_guards()
        serial = {g: books_db.transform("books", g).xml_json() for g in guards}
        requests = [("books", g) for g in guards for _ in range(4)]
        with TransformPool(books_db, workers=WORKERS) as pool:
            streamed = stream_all(pool, requests)
        for (_name, guard), body in zip(requests, streamed):
            assert body == serial[guard]
        # And the body spells the very text the file sink writes.
        for guard in guards:
            sink = StringIO()
            books_db.stream_transform("books", guard, sink)
            assert decoded(serial[guard]) == sink.getvalue()

    def test_mixed_batch_and_stream_interleaved(self, books_db):
        """Batch and stream requests racing on one pool still agree."""
        guard = "MORPH author [ name book [ title ] ]"
        batch_serial = books_db.transform("books", guard).xml()
        stream_serial = books_db.transform("books", guard).xml_json()
        assert decoded(stream_serial) == batch_serial
        with TransformPool(books_db, workers=WORKERS) as pool:
            futures = [
                pool.submit("books", guard, stream=bool(i % 2)) for i in range(32)
            ]
            for i, future in enumerate(futures):
                result = future.result(timeout=60)
                if i % 2:
                    assert result == stream_serial
                else:
                    assert result.xml() == batch_serial

    def test_counters_accumulate(self, books_db):
        before = dict(books_db.stats.counters)
        books_db.transform_many([("books", "MORPH author [ name ]")] * 6, workers=4)
        events = books_db.stats.counters
        assert events.get("serve.requests", 0) - before.get("serve.requests", 0) == 6
        assert events.get("serve.completed", 0) - before.get("serve.completed", 0) == 6
