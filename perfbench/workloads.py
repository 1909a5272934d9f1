"""The five workloads.

Each is a closed loop with one client: the next operation starts when
the previous one has been answered and checked.  ``setup`` takes the
workload from nothing to ready and is what ``setup_s`` times; ``round``
replays the seeded operation stream once; ``verify`` runs the untimed
end-of-run checks.  Only public functions of the program are called.
"""

from __future__ import annotations

import json
import os
import random
import socket
import subprocess
import sys
from time import perf_counter

from perfbench import REPO_ROOT, corpus, verify
from perfbench.corpus import LARGE_GUARDS, SMALL_GUARDS, XMARK_GUARDS, Scale
from perfbench.harness import Recorder
from repro.storage.database import Database
from repro.storage.update import (
    DeleteSubtree,
    InsertSubtree,
    ReplaceSubtree,
    reference_apply,
)
from repro.engine.interpreter import Interpreter
from repro.xmltree import parser
from repro.xmltree.serializer import serialize, serialize_node

WARMUP_REQUESTS = 3


class Workload:
    name = ""

    def __init__(self, seed: int, scale: Scale, workdir: str):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.db = None  # the handle the operations go through, if in-process
        self.path = None  # the live store
        self.user_bytes = 0  # XML text bytes of the documents it holds
        self._setups = 0

    def fresh_path(self, stem: str) -> str:
        self._setups += 1
        return os.path.join(self.workdir, f"{stem}-{self._setups}.db")

    def prepare(self) -> None:
        """Benchmark-side inputs and reference outputs (not set-up)."""

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, recorder: Recorder) -> None:
        raise NotImplementedError

    def tracing(self, on: bool) -> None:
        """The run's tracer was installed or removed in this process."""

    def traced_round(self) -> None:
        """A traced round is about to start."""

    def trace_extras(self, recorder: Recorder) -> dict:
        """Extra traced measurements some per-layer metrics need."""
        return {}

    def merge_trace(self, tracer) -> None:
        """After teardown: spans recorded outside this process."""

    def peak_rss_kb(self, own_kb: int) -> int:
        """Peak RSS of the process the program runs in (this one's is
        ``own_kb``, measured from after ``prepare`` to before ``verify``)."""
        return own_kb

    def space_ratio(self) -> float:
        """Store file + journal bytes per byte of user XML."""
        stored = os.path.getsize(self.path)
        journal = self.path + ".journal"
        if os.path.exists(journal):
            stored += os.path.getsize(journal)
        return stored / self.user_bytes

    def verify(self, recorder: Recorder) -> None:
        """Untimed end-of-run checks; failures go to ``recorder.check``."""

    def teardown(self) -> None:
        """Release everything ``setup`` opened; safe to call twice."""
        if self.db is not None:
            self.db.close()
            self.db = None


# ---------------------------------------------------------------------------
# serve-small / serve-large
# ---------------------------------------------------------------------------


class _Serve(Workload):
    guards: tuple[str, ...] = ()
    stream_every = 0  # every n-th request asks for the streaming renderer

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.child = None
        self.final = None  # the server's last words: maxrss_kb, trace
        self.sock = None

    def repeats(self) -> int:
        """Requests per guard per round."""
        raise NotImplementedError

    def publications(self) -> int:
        raise NotImplementedError

    def prepare(self) -> None:
        forest = corpus.dblp_forest(self.publications(), self.seed)
        self.user_bytes = len(serialize(forest).encode("utf-8"))
        self.expected = corpus.reference_outputs(forest, self.guards)
        # One request line per (guard, stream); the id names the pair, so
        # the whole response line is known in advance.
        self.requests = []
        for index, guard in enumerate(self.guards):
            xml = self.expected[guard]
            for stream in (False, True):
                request_id = index * 2 + int(stream)
                request = {"id": request_id, "doc": "dblp", "guard": guard}
                if stream:
                    request["stream"] = True
                line = (json.dumps(request) + "\n").encode("utf-8")
                answer = (
                    json.dumps({"id": request_id, "ok": True, "xml": xml}) + "\n"
                ).encode("utf-8")
                self.requests.append((line, answer, request_id, xml, len(xml.encode("utf-8"))))
        # The same count of every (guard, stream) pair for every seed, so
        # the percentiles over a round's operations fall on the same
        # pairs; the seed shuffles the order.
        self.order = []
        for index in range(len(self.guards)):
            for number in range(self.repeats()):
                stream = bool(self.stream_every) and number % self.stream_every == 0
                self.order.append(index * 2 + int(stream))
        self.rng.shuffle(self.order)

    def setup(self) -> None:
        self.path = self.fresh_path("serve")
        forest = corpus.dblp_forest(self.publications(), self.seed)
        with Database(self.path) as writer:
            writer.store_document("dblp", forest)
            writer.flush()
        self.child = subprocess.Popen(
            [sys.executable, "-m", "perfbench.server_child", self.path],
            cwd=REPO_ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        port = self._answer()["port"]
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        warmup = Recorder(calibrating=False)
        for index in range(len(self.guards)):
            for _ in range(WARMUP_REQUESTS):
                self._request(warmup, index * 2)
        if warmup.failed:
            raise RuntimeError(f"warm-up failed: {warmup.problems}")

    def _answer(self) -> dict:
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError(f"server process ended (exit {self.child.wait()})")
        return json.loads(line)

    def _command(self, word: str) -> dict:
        self.child.stdin.write(word + "\n")
        self.child.stdin.flush()
        return self._answer()

    def traced_round(self) -> None:
        self._command("round")

    def tracing(self, on: bool) -> None:
        self._command("trace-on" if on else "trace-off")

    def merge_trace(self, tracer) -> None:
        tracer.absorb(self.final["trace"])

    def peak_rss_kb(self, own_kb: int) -> int:
        return self.final["maxrss_kb"]

    def _request(self, recorder: Recorder, which: int) -> None:
        line, answer, request_id, xml, nbytes = self.requests[which]
        started = recorder.start()
        self.sock.sendall(line)
        reply = self.reader.readline()
        latency = recorder.stop(started, "stream" if which % 2 else "op")
        # Byte equality is the fast path; another JSON spelling of the
        # same response is decoded and compared field by field.
        ok = reply == answer or verify.response_matches(reply, request_id, xml)
        recorder.count(latency, nbytes, ok, read=True, why=f"request {request_id}: wrong response")

    def round(self, recorder: Recorder) -> None:
        for which in self.order:
            self._request(recorder, which)

    def teardown(self) -> None:
        if self.sock is not None:
            try:
                self.sock.settimeout(10)
                self.sock.sendall(b'{"cmd": "quit"}\n')
                self.reader.read()  # EOF: the handler thread has left serve_loop
            except OSError:
                pass
            self.reader.close()
            self.sock.close()
            self.sock = None
        if self.child is not None:
            child, self.child = self.child, None
            try:
                child.stdin.write("stop\n")
                child.stdin.flush()
                line = child.stdout.readline()
                self.final = json.loads(line) if line else None
                child.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                child.kill()
                child.wait()
            finally:
                child.stdin.close()
                child.stdout.close()


class ServeSmall(_Serve):
    name = "serve-small"
    guards = SMALL_GUARDS

    def repeats(self):
        return self.scale.serve_small_repeats

    def publications(self):
        return self.scale.serve_small_pubs


class ServeLarge(_Serve):
    name = "serve-large"
    guards = LARGE_GUARDS
    stream_every = 4

    def repeats(self):
        return self.scale.serve_large_repeats

    def publications(self):
        return self.scale.serve_large_pubs


# ---------------------------------------------------------------------------
# cold-scan
# ---------------------------------------------------------------------------


class ColdScan(Workload):
    name = "cold-scan"
    #: 128 KB of buffer pool against a store of a megabyte and more.
    cache_pages = 32

    def _forests(self):
        return {
            "dblp": corpus.dblp_forest(self.scale.cold_pubs, self.seed),
            "xmark": corpus.xmark_forest(self.scale.cold_xmark, self.seed),
        }

    def prepare(self) -> None:
        forests = self._forests()
        self.user_bytes = sum(len(serialize(f).encode("utf-8")) for f in forests.values())
        self.ops = []
        for name, guards in (("dblp", SMALL_GUARDS + LARGE_GUARDS), ("xmark", XMARK_GUARDS)):
            expected = corpus.reference_outputs(forests[name], guards)
            for guard in guards:
                xml = expected[guard]
                self.ops.append((name, guard, xml, len(xml.encode("utf-8"))))
        self.order = []
        for _ in range(self.scale.cold_passes):
            one_pass = list(range(len(self.ops)))
            self.rng.shuffle(one_pass)
            self.order.extend(one_pass)

    def setup(self) -> None:
        self.path = self.fresh_path("cold")
        with Database(self.path) as writer:
            for name, forest in self._forests().items():
                writer.store_document(name, forest)
            writer.flush()
        self.db = Database(self.path, mode="r", cache_pages=self.cache_pages)

    def round(self, recorder: Recorder) -> None:
        db = self.db
        for which in self.order:
            name, guard, xml, nbytes = self.ops[which]
            db.drop_cache()
            started = recorder.start()
            output = db.transform(name, guard).xml()
            latency = recorder.stop(started)
            recorder.count(
                latency, nbytes, output == xml, read=True, why=f"cold {guard!r}: wrong output"
            )


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

_INGEST_READS = {"dblp": LARGE_GUARDS[0], "xmark": XMARK_GUARDS[1]}


class Ingest(Workload):
    name = "ingest"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.first_size = None

    def _document(self, number: int):
        """The round's last document is a (deep, many-typed) xmark one."""
        if number == self.scale.ingest_docs - 1:
            return "xmark", corpus.xmark_forest(self.scale.ingest_xmark, self.seed, number)
        return "dblp", corpus.dblp_forest(self.scale.ingest_pubs, self.seed, number)

    def prepare(self) -> None:
        self.docs = []
        for number in range(self.scale.ingest_docs):
            family, forest = self._document(number)
            text = serialize(forest)
            guard = _INGEST_READS[family]
            xml = corpus.reference_outputs(forest, [guard])[guard]
            self.docs.append(
                {
                    "name": f"doc{number}",
                    "text": text,
                    "bytes": len(text.encode("utf-8")),
                    "nodes": forest.node_count(),
                    "guard": guard,
                    "xml": xml,
                    "xml_bytes": len(xml.encode("utf-8")),
                }
            )
        self.user_bytes = sum(doc["bytes"] for doc in self.docs)
        self.nodes = sum(doc["nodes"] for doc in self.docs)

    def setup(self) -> None:
        # Ready = inputs generated and the write path exercised once, so
        # the first timed document does not pay first-use costs.
        for number in range(self.scale.ingest_docs):
            self._document(number)
        self._ingest(Recorder(calibrating=False), self.fresh_path("warmup"), self.docs[:1])
        self._drop_store()

    def _drop_store(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
        if self.path is not None:
            for suffix in ("", ".lock", ".journal"):
                if os.path.exists(self.path + suffix):
                    os.unlink(self.path + suffix)
            self.path = None

    def _ingest(self, recorder: Recorder, path: str, docs) -> None:
        """Fresh durable store; parse, shred, flush and read back each document."""
        self._drop_store()
        self.path = path
        self.db = db = Database(path)
        for doc in docs:
            started = recorder.start()
            forest = parser.parse_document(doc["text"])
            descriptor = db.store_document(doc["name"], forest)
            db.flush()
            latency = recorder.stop(started)
            recorder.count(
                latency,
                doc["bytes"],
                descriptor["nodes"] == doc["nodes"],
                why=f"{doc['name']}: stored {descriptor['nodes']} of {doc['nodes']} nodes",
            )
            started = recorder.start()
            output = db.transform(doc["name"], doc["guard"]).xml()
            latency = recorder.stop(started, "read")
            recorder.count(
                latency,
                doc["xml_bytes"],
                output == doc["xml"],
                main=False,
                read=True,
                why=f"{doc['name']}: wrong read after ingest",
            )
        db.close()
        self.db = None

    def round(self, recorder: Recorder) -> None:
        self._ingest(recorder, self.fresh_path("ingest"), self.docs)
        size = os.path.getsize(self.path)
        if self.first_size is None:
            self.first_size = size
        recorder.check(
            size == self.first_size, f"store size {size} != first round's {self.first_size}"
        )

    def trace_extras(self, recorder: Recorder) -> dict:
        """Seconds per node at two document sizes (``scaling_ratio``)."""
        per_node = []
        for publications in self.scale.scaling_pubs:
            forest = corpus.dblp_forest(publications, self.seed)
            text = serialize(forest)
            path = self.fresh_path("scaling")
            with Database(path) as db:
                started = perf_counter()
                db.store_document("dblp", parser.parse_document(text))
                db.flush()
                per_node.append((perf_counter() - started) / forest.node_count())
        return {
            "scaling_ratio": per_node[1] / per_node[0],
            "knodes_per_round": self.nodes / 1000,
        }

    def verify(self, recorder: Recorder) -> None:
        """The last round's store, closed: fsck, reopen, every document and read."""
        problems = verify.store_problems(
            self.path,
            {doc["name"]: doc["text"] for doc in self.docs},
            [(doc["name"], doc["guard"], doc["xml"]) for doc in self.docs],
        )
        recorder.check(not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# update-mix
# ---------------------------------------------------------------------------

_BATCH_APPENDS = 10


class UpdateMix(Workload):
    name = "update-mix"
    read_guard = LARGE_GUARDS[0]

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        #: Every acknowledged batch, in order, with the read that followed.
        self.log: list[tuple[list, str | None]] = []

    def prepare(self) -> None:
        self.base = corpus.dblp_forest(self.scale.update_pubs, self.seed)
        self.user_bytes = len(serialize(self.base).encode("utf-8"))
        publications = self.base.roots[0].children
        self.count = len(publications)
        donors = corpus.dblp_forest(40, self.seed, variant=1).roots[0].children
        self.cycles = []
        for cycle in range(self.scale.update_cycles):
            position = self.rng.randrange(1, self.count + 1)
            tag = publications[position - 1].name
            donor = next(d for d in donors if d.name == tag)
            self.cycles.append((position, donor, donors[cycle]))
        self.batch_donors = donors[:_BATCH_APPENDS]
        self.sizes = {id(d): len(serialize_node(d).encode("utf-8")) for d in donors}

    def setup(self) -> None:
        self.path = self.fresh_path("update")
        self.db = Database(self.path)
        self.db.store_document("dblp", corpus.dblp_forest(self.scale.update_pubs, self.seed))
        self.db.flush()
        for guard in LARGE_GUARDS:
            self.db.transform("dblp", guard).xml()
        self.log = []

    def _batch(self, recorder: Recorder, ops, nbytes: int, kind: str = "op") -> None:
        started = recorder.start()
        result = self.db.apply_batch("dblp", ops)
        latency = recorder.stop(started, kind)
        self.log.append((ops, None))
        recorder.count(latency, nbytes, result.ops == len(ops), why="batch not fully applied")

    def round(self, recorder: Recorder) -> None:
        root, last = (1,), (1, self.count + 1)
        for position, replacement, appended in self.cycles:
            self._batch(
                recorder,
                [ReplaceSubtree((1, position), replacement)],
                self.sizes[id(replacement)],
            )
            self._batch(recorder, [InsertSubtree(root, appended)], self.sizes[id(appended)])
            started = recorder.start()
            output = self.db.transform("dblp", self.read_guard).xml()
            latency = recorder.stop(started, "read")
            self.log[-1] = (self.log[-1][0], output)
            # ok=None: checked against the reference, untimed, in verify().
            recorder.count(latency, len(output), None, main=False, read=True)
            self._batch(recorder, [DeleteSubtree(last)], 0)
        appends = [InsertSubtree(root, donor) for donor in self.batch_donors]
        self._batch(recorder, appends, sum(self.sizes[id(d)] for d in self.batch_donors))
        self._batch(recorder, [DeleteSubtree(last)] * _BATCH_APPENDS, 0)

    def trace_extras(self, recorder: Recorder) -> dict:
        """Inserts at the middle sibling: every later publication shifts."""
        middle = self.count // 2
        donor = self.batch_donors[0]
        for _ in range(self.scale.shift_inserts):
            self._batch(
                recorder, [InsertSubtree((1,), donor, middle)], self.sizes[id(donor)], "shift"
            )
            self._batch(recorder, [DeleteSubtree((1, middle))], 0, "unshift")
        return {}

    def verify(self, recorder: Recorder) -> None:
        """Replay the acknowledged stream on the in-memory reference.

        Reads of the first two rounds are rendered by the reference
        interpreter; from the second round on the stream is idempotent
        (the same donors replace the same slots), so every later read
        must equal the second round's read of the same cycle.
        """
        reference = self.base
        per_round = len(self.cycles)
        second_round: list[str] = []
        reads = 0
        for ops, output in self.log:
            reference_apply(reference, ops)
            if output is None:
                continue
            round_index, cycle = divmod(reads, per_round)
            reads += 1
            if round_index < 2:
                expected = Interpreter(reference).transform(self.read_guard).xml()
                if round_index == 1:
                    second_round.append(expected)
            else:
                expected = second_round[cycle]
            recorder.check(output == expected, f"read {reads}: wrong read after write")
        self.db.close()
        self.db = None
        final = serialize(reference)
        problems = verify.store_problems(
            self.path,
            {"dblp": final},
            [("dblp", self.read_guard, Interpreter(reference).transform(self.read_guard).xml())],
        )
        recorder.check(not problems, "; ".join(problems))


WORKLOADS = {
    workload.name: workload for workload in (ServeSmall, ServeLarge, ColdScan, Ingest, UpdateMix)
}
