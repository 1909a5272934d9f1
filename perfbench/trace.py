"""Outside-in tracing: spans around the program's public callables.

Nothing in ``src/`` is edited.  :meth:`Tracer.install` replaces the
callables listed in :func:`targets` with timing wrappers at run time
(class attributes and module globals, both looked up at call time by
the program) and :meth:`Tracer.uninstall` puts the originals back.

* A *span* wrapper records ``(id, parent, name, op, thread, start, end,
  self, extra)``.  The parent is the enclosing span on the same thread;
  a span that starts on another thread (the server's handler, worker
  and responder threads) hangs off the root span of the in-flight
  operation — the loop is closed, so exactly one operation is in flight.
* A *hot* wrapper (per-page and per-key calls) keeps only count, total
  and self time per round: a span per B+tree put would cost more than
  the put.
* Self time is a call's duration minus the durations of the wrapped
  calls it made on its own thread.

Wrappers do nothing unless an operation is open, so set-up and
verification are not traced.  Spans stay in memory until
:meth:`Tracer.write`.

The serve workloads run the server in a process of its own (as ``xmorph
serve`` is run), so two tracers cooperate: the client's records the root
span of each request, the server's (``opens_op_at="serve.submit"``)
opens an operation whenever a request is submitted.  The loop is closed
and both clocks are ``CLOCK_MONOTONIC``, so :meth:`Tracer.absorb` pairs
the n-th traced request with the n-th submit and files the server's
spans under the client's root.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from time import perf_counter

SPAN_FIELDS = ("id", "parent", "name", "op", "thread", "start", "end", "self", "extra")
ROOT_NAME = "client.op"


#: Added to the ids of absorbed spans so they cannot collide with ours.
_ABSORBED = 1 << 40


class Tracer:
    def __init__(self, opens_op_at: str | None = None) -> None:
        #: Name of the span whose every start opens a new operation (the
        #: server side of a traced serve run); ``None`` on the client side,
        #: where :meth:`begin_op` opens them.
        self.opens_op_at = opens_op_at
        #: Root ids of the operations opened, in order.
        self.op_order: list[int] = []
        #: Finished spans, as tuples in ``SPAN_FIELDS`` order.
        self.spans: list[tuple] = []
        #: Per traced round, ``name -> [count, total seconds, self seconds]``.
        self.hot_rounds: list[dict[str, list]] = []
        #: Id of the in-flight operation's root span; 0 means no operation.
        self.op = 0
        #: Round index stamped on root spans (counts come from round 0).
        self.round = -1
        self._hot: dict[str, list] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    # -- operations --------------------------------------------------------

    def start_round(self) -> None:
        self.round += 1
        self._hot = {}
        self.hot_rounds.append(self._hot)

    def begin_op(self) -> float:
        """Open the root span of one operation on the calling thread."""
        stack = self._stack()
        frame = [0.0, next(self._ids)]
        stack.append(frame)
        self.op = frame[1]
        self.op_order.append(frame[1])
        return perf_counter()

    def end_op(self, started: float, kind: str) -> float:
        ended = perf_counter()
        frame = self._stack().pop()
        self.op = 0
        duration = ended - started
        self.spans.append(
            (
                frame[1],
                0,
                ROOT_NAME,
                frame[1],
                threading.get_ident(),
                started,
                ended,
                duration - frame[0],
                {"kind": kind, "round": self.round},
            )
        )
        return duration

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            self._local.ident = threading.get_ident()
            return stack

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        for owner, attribute, name, kind, enter, leave in targets():
            # vars(), not getattr(): the name must be defined on this very
            # class or module, so a moved function fails here, loudly.
            original = vars(owner)[attribute]
            if kind == "hot":
                wrapper = self._hot_wrapper(original, name)
            else:
                wrapper = self._span_wrapper(
                    original, name, enter, leave, opens_op=name == self.opens_op_at
                )
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def _span_wrapper(self, function, name, enter, leave, opens_op=False):
        tracer = self
        local = self._local
        ids = self._ids
        spans = self.spans
        get_ident = threading.get_ident

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if opens_op:
                tracer.op = next(ids)
                tracer.op_order.append(tracer.op)
            root = tracer.op
            if not root:
                return function(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
                local.ident = get_ident()
            # A span with no caller on its thread hangs off the operation's
            # root; 0 marks "the root is in the other process" for absorb().
            parent = stack[-1][1] if stack else (0 if tracer.opens_op_at else root)
            frame = [0.0, next(ids)]
            token = enter(args) if enter is not None else None
            stack.append(frame)
            result = None
            started = perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                ended = perf_counter()
                stack.pop()
                duration = ended - started
                if stack:
                    stack[-1][0] += duration
                extra = leave(args, result, token) if leave is not None else None
                spans.append(
                    (
                        frame[1],
                        parent,
                        name,
                        root,
                        local.ident,
                        started,
                        ended,
                        duration - frame[0],
                        extra,
                    )
                )

        return wrapper

    def _hot_wrapper(self, function, name):
        tracer = self
        local = self._local

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.op:
                return function(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
                local.ident = threading.get_ident()
            frame = [0.0, 0]
            stack.append(frame)
            started = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                duration = perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                hot = tracer._hot
                entry = hot.get(name)
                if entry is None:
                    entry = hot[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]

        return wrapper

    # -- the other process -------------------------------------------------

    def export(self) -> dict:
        """What :meth:`absorb` needs, JSON-ready."""
        return {"spans": self.spans, "ops": self.op_order, "hot": self.hot_rounds}

    def absorb(self, exported: dict) -> None:
        """File a server-side tracer's spans under this tracer's roots."""
        ops = exported["ops"]
        if len(ops) != len(self.op_order):
            raise RuntimeError(
                f"server traced {len(ops)} requests, client sent {len(self.op_order)}"
            )
        root_of = dict(zip(ops, self.op_order))
        for span in exported["spans"]:
            span = list(span)
            span[0] += _ABSORBED
            span[1] = span[1] + _ABSORBED if span[1] else root_of[span[3]]
            span[3] = root_of[span[3]]
            self.spans.append(tuple(span))
        for ours, theirs in zip(self.hot_rounds, exported["hot"]):
            ours.update(theirs)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON object per line: a header, every span, the hot totals."""
        with open(path, "w", encoding="utf-8") as out:
            header = {"type": "header", "span_fields": SPAN_FIELDS, "spans": len(self.spans)}
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                record = dict(zip(SPAN_FIELDS, span))
                record["type"] = "span"
                out.write(json.dumps(record) + "\n")
            for index, hot in enumerate(self.hot_rounds):
                for name, (count, total, own) in sorted(hot.items()):
                    out.write(
                        json.dumps(
                            {
                                "type": "hot",
                                "round": index,
                                "name": name,
                                "count": count,
                                "total": total,
                                "self": own,
                            }
                        )
                        + "\n"
                    )


def _misses(args):
    return args[0].join_cache_misses


def _pair_map_hit(args, result, token):
    return {"hit": args[0].join_cache_misses == token}


def _render_counts(args, result, token):
    rendered = getattr(result, "rendered", None)
    if rendered is None:
        return None
    return {"written": rendered.nodes_written, "read": rendered.nodes_read}


def _stream_counts(args, result, token):
    return {"written": getattr(result, "nodes_written", 0)}


def _text_bytes(args, result, token):
    return {"bytes": len(result.encode("utf-8"))} if isinstance(result, str) else None


def _journal_bytes(args, result, token):
    pages = args[1]
    return {"bytes": sum(len(page) + 4 for page in pages.values()) + 16}


def _batch_result(args, result, token):
    if result is None:
        return None
    return {"renumbered": result.nodes_renumbered, "ops": result.ops}


def targets():
    """``(owner, attribute, span name, kind, enter hook, leave hook)``.

    These are the program's names the benchmark depends on; renaming
    one makes :meth:`Tracer.install` fail, which the smoke test reports.
    """
    from repro.cache.plan import PlanCache
    from repro.closeness.index import BaseIndex
    from repro.engine.interpreter import Interpreter, TransformResult
    from repro.serve import server
    from repro.serve.pool import TransformPool
    from repro.storage import database, pages
    from repro.storage.btree import BPlusTree
    from repro.storage.database import Database, StoredDocumentIndex
    from repro.storage.journal import Journal
    from repro.storage.pages import BufferPool, PagedFile
    from repro.storage.update import IncrementalUpdater
    from repro.xmltree import parser

    span, hot = "span", "hot"
    return [
        (TransformPool, "submit", "serve.submit", span, None, None),
        (server, "_write", "serve.write", span, None, None),
        (Database, "transform", "db.transform", span, None, None),
        (Database, "stream_transform", "db.stream_transform", span, None, _stream_counts),
        (Database, "store_document", "db.store_document", span, None, None),
        (Database, "flush", "db.flush", span, None, None),
        (Database, "apply_batch", "db.apply_batch", span, None, _batch_result),
        (PlanCache, "get_or_compile", "plan.lookup", span, None, None),
        (Interpreter, "compile", "engine.compile", span, None, None),
        (Interpreter, "render_compiled", "engine.render", span, None, _render_counts),
        (TransformResult, "xml", "xml.serialize", span, None, _text_bytes),
        (BaseIndex, "closest_pair_map", "join.pair_map", span, _misses, _pair_map_hit),
        (BaseIndex, "restrict_pass", "join.restrict", span, None, None),
        (parser, "parse_document", "xml.parse", span, None, None),
        (database, "shred", "shred", span, None, None),
        (BufferPool, "flush", "pool.flush", span, None, None),
        (Journal, "write", "journal.write", span, None, _journal_bytes),
        (Journal, "clear", "journal.clear", span, None, None),
        (PagedFile, "sync", "page.sync", span, None, None),
        (IncrementalUpdater, "apply", "update.apply", span, None, None),
        (IncrementalUpdater, "commit", "update.commit", span, None, None),
        # Per type and per shape edge on every render: too many for spans.
        (Database, "index", "index.load", hot, None, None),
        (StoredDocumentIndex, "nodes_of", "index.load", hot, None, None),
        (BPlusTree, "put", "btree.put", hot, None, None),
        (BPlusTree, "delete", "btree.delete", hot, None, None),
        (BPlusTree, "get", "btree.get", hot, None, None),
        (BufferPool, "get", "pool.get", hot, None, None),
        (PagedFile, "read_page", "page.read", hot, None, None),
        (PagedFile, "write_page", "page.write", hot, None, None),
        (PagedFile, "allocate", "page.allocate", hot, None, None),
        (pages, "page_crc", "crc", hot, None, None),
        (pages, "verify_page", "crc", hot, None, None),
        (pages, "seal_page", "crc", hot, None, None),
    ]
