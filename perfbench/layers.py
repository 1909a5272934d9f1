"""Per-layer metrics out of a traced run.

Times are means over the traced rounds; counts (``*_per_op``,
``*_per_knode``, hit ratios, byte ratios) come from the *first* traced
round only, which is always the run's first round — one client, no
timers, the same seeded stream — so they repeat exactly between runs.

A span-kind layer's ``*_ms`` is its self time per operation *in which
it ran* (``engine.stream.render_ms`` is per streamed request, not per
request); hot-call layers (pages, CRC, B+tree) are per traced operation.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench.trace import ROOT_NAME, Tracer

UNITS = {
    "serve.server.protocol_ms": "ms",
    "serve.server.socket_ms": "ms",
    "serve.pool.dispatch_ms": "ms",
    "serve.pool.queue_ms": "ms",
    "cache.plan.lookup_us": "us",
    "cache.plan.hit_ratio": "ratio",
    "engine.compile_ms": "ms",
    "engine.render_ms": "ms",
    "engine.nodes_written_per_op": "count",
    "engine.nodes_read_per_op": "count",
    "engine.stream.render_ms": "ms",
    "xmltree.serializer.serialize_ms": "ms",
    "xmltree.serializer.mb_s": "MB/s",
    "closeness.join_build_ms": "ms",
    "closeness.join_cache_hit_ratio": "ratio",
    "storage.index.load_ms": "ms",
    "storage.pages.read_ms": "ms",
    "storage.pages.reads_per_op": "count",
    "storage.pages.buffer_hit_ratio": "ratio",
    "storage.checksum.crc_us_per_page": "us",
    "xmltree.parser.parse_ms_per_knode": "ms",
    "storage.shredder.self_ms_per_knode": "ms",
    "storage.btree.put_us": "us",
    "storage.btree.puts_per_knode": "count",
    "storage.btree.put_share": "ratio",
    "storage.ingest.scaling_ratio": "ratio",
    "storage.pages.flush_ms": "ms",
    "storage.pages.writes_per_op": "count",
    "storage.journal.write_ms": "ms",
    "storage.journal.bytes_per_user_byte": "ratio",
    "storage.pages.sync_ms": "ms",
    "storage.pages.syncs_per_op": "count",
    "storage.update.stage_ms": "ms",
    "storage.update.commit_ms": "ms",
    "storage.update.reconcile_ms": "ms",
    "storage.update.nodes_renumbered_per_op": "count",
    "storage.update.shift_insert_ms": "ms",
    "client.latency_p95_ms": "ms",
    "client.latency_p99_ms": "ms",
    "trace.layer_sum_share": "ratio",
    "trace.overhead_share": "ratio",
}


#: Per-layer metrics that are counts of the first traced round and so
#: must be identical between two runs with the same seed.
EXACT = frozenset(
    name
    for name, unit in UNITS.items()
    if unit == "count"
    or name
    in (
        "cache.plan.hit_ratio",
        "closeness.join_cache_hit_ratio",
        "storage.pages.buffer_hit_ratio",
        "storage.journal.bytes_per_user_byte",
    )
)


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


class _Layer:
    """Spans of one name: self seconds, total seconds, ops they ran in."""

    def __init__(self) -> None:
        self.count = 0
        self.own = 0.0
        self.total = 0.0
        self.ops: set[int] = set()
        self.extras: list[dict] = []

    def add(self, span) -> None:
        self.count += 1
        self.own += span[7]
        self.total += span[6] - span[5]
        self.ops.add(span[3])
        if span[8]:
            self.extras.append(span[8])

    def own_ms(self) -> float:
        """Self milliseconds per operation the layer ran in."""
        return _ratio(self.own * 1e3, len(self.ops))


def layer_metrics(tracer: Tracer, rounds, extras: dict):
    """``(metrics, notes)`` for a traced run; every name in ``UNITS``.

    ``rounds`` are the run's rounds, traced ones first.  Times are put
    at reference speed with the mean speed of the traced rounds."""
    roots = {s[0]: s for s in tracer.spans if s[2] == ROOT_NAME}
    main = {op: s for op, s in roots.items() if s[8]["kind"] not in ("shift", "unshift")}
    first = {op for op, s in main.items() if s[8]["round"] == 0}
    every: defaultdict[str, _Layer] = defaultdict(_Layer)
    once: defaultdict[str, _Layer] = defaultdict(_Layer)  # first traced round
    shift = _Layer()
    by_op: defaultdict[int, dict] = defaultdict(dict)
    for span in tracer.spans:
        name, op = span[2], span[3]
        if name == ROOT_NAME:
            continue
        if op in main:
            every[name].add(span)
            by_op[op].setdefault(name, span)
            if op in first:
                once[name].add(span)
        elif roots[op][8]["kind"] == "shift" and name == "db.apply_batch":
            shift.add(span)

    from perfbench.harness import percentile

    traced_rounds = [r for r in rounds if r.traced]
    plain_rounds = [r for r in rounds if not r.traced]
    speed = statistics.mean(r.speed for r in traced_rounds)
    # Raw samples of the untraced rounds' main operations: stalls included.
    pooled = [s.latency for r in plain_rounds for s in r.at_reference_speed() if s.main]
    ops = len(main)
    ops_once = len(first)
    op_seconds = sum(s[6] - s[5] for s in main.values())
    # Hot totals exclude the shift inserts, which run after the rounds.
    hot: defaultdict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for table in tracer.hot_rounds[: len(traced_rounds)]:
        for name, (count, total, own) in table.items():
            entry = hot[name]
            entry[0] += count
            entry[1] += total
            entry[2] += own
    hot_once = tracer.hot_rounds[0] if tracer.hot_rounds else {}

    def hot_ms(name):
        return _ratio(hot[name][2] * 1e3, ops)

    def once_count(name):
        return hot_once.get(name, (0, 0.0, 0.0))[0]

    serve = _serve_timeline(main, by_op)
    lookups = every["plan.lookup"]
    pair_maps = once["join.pair_map"]
    renders = once["engine.render"]
    batches = every["db.apply_batch"]
    knodes = extras.get("knodes_per_round", 0.0) * len(traced_rounds)
    knodes_once = extras.get("knodes_per_round", 0.0)
    user_bytes_once = traced_rounds[0].bytes
    serialized = sum(e["bytes"] for e in every["xml.serialize"].extras)

    values = {
        "serve.server.protocol_ms": serve["protocol"],
        "serve.server.socket_ms": serve["socket"],
        "serve.pool.dispatch_ms": serve["dispatch"],
        "serve.pool.queue_ms": serve["queue"],
        "cache.plan.lookup_us": _ratio(lookups.own * 1e6, lookups.count),
        "cache.plan.hit_ratio": _ratio(
            once["plan.lookup"].count - once["engine.compile"].count, once["plan.lookup"].count
        ),
        "engine.compile_ms": every["engine.compile"].own_ms(),
        "engine.render_ms": every["engine.render"].own_ms(),
        "engine.nodes_written_per_op": _ratio(
            sum(e["written"] for e in renders.extras + once["db.stream_transform"].extras),
            ops_once,
        ),
        "engine.nodes_read_per_op": _ratio(sum(e["read"] for e in renders.extras), ops_once),
        "engine.stream.render_ms": every["db.stream_transform"].own_ms(),
        "xmltree.serializer.serialize_ms": every["xml.serialize"].own_ms(),
        "xmltree.serializer.mb_s": _ratio(serialized / 1e6, every["xml.serialize"].total),
        "closeness.join_build_ms": _ratio(
            (every["join.pair_map"].own + every["join.restrict"].own) * 1e3,
            len(every["join.pair_map"].ops | every["join.restrict"].ops),
        ),
        "closeness.join_cache_hit_ratio": _ratio(
            sum(1 for e in pair_maps.extras if e["hit"]), pair_maps.count
        ),
        "storage.index.load_ms": hot_ms("index.load"),
        "storage.pages.read_ms": hot_ms("page.read"),
        "storage.pages.reads_per_op": _ratio(once_count("page.read"), ops_once),
        "storage.pages.buffer_hit_ratio": _ratio(
            once_count("pool.get") - once_count("page.read"), once_count("pool.get")
        ),
        "storage.checksum.crc_us_per_page": _ratio(hot["crc"][1] * 1e6, hot["crc"][0]),
        "xmltree.parser.parse_ms_per_knode": _ratio(every["xml.parse"].total * 1e3, knodes),
        "storage.shredder.self_ms_per_knode": _ratio(every["shred"].own * 1e3, knodes),
        "storage.btree.put_us": _ratio(hot["btree.put"][1] * 1e6, hot["btree.put"][0]),
        "storage.btree.puts_per_knode": _ratio(once_count("btree.put"), knodes_once),
        "storage.btree.put_share": _ratio(hot["btree.put"][1], op_seconds),
        "storage.ingest.scaling_ratio": extras.get("scaling_ratio", 0.0),
        "storage.pages.flush_ms": every["pool.flush"].own_ms(),
        "storage.pages.writes_per_op": _ratio(once_count("page.write"), ops_once),
        "storage.journal.write_ms": every["journal.write"].own_ms(),
        "storage.journal.bytes_per_user_byte": _ratio(
            sum(e["bytes"] for e in once["journal.write"].extras), user_bytes_once
        ),
        "storage.pages.sync_ms": every["page.sync"].own_ms(),
        "storage.pages.syncs_per_op": _ratio(once["page.sync"].count, ops_once),
        "storage.update.stage_ms": every["update.apply"].own_ms(),
        "storage.update.commit_ms": every["update.commit"].own_ms(),
        "storage.update.reconcile_ms": batches.own_ms(),
        "storage.update.nodes_renumbered_per_op": _ratio(
            sum(e["renumbered"] for e in once["db.apply_batch"].extras),
            once["db.apply_batch"].count,
        ),
        "storage.update.shift_insert_ms": _ratio(shift.total * 1e3, shift.count),
        # What the wrapped calls account for: everything but the root
        # spans' own self time (on serve, the socket share is named).
        "trace.layer_sum_share": serve["covered"]
        or _ratio(op_seconds - sum(s[7] for s in main.values()), op_seconds),
    }
    # Everything above is in measured seconds; put it at reference speed.
    for name in values:
        if UNITS[name] in ("ms", "us"):
            values[name] /= speed
        elif UNITS[name].endswith("/s"):
            values[name] *= speed
    # Round walls already are at reference speed.
    values["client.latency_p95_ms"] = percentile(pooled, 0.95) * 1e3
    values["client.latency_p99_ms"] = percentile(pooled, 0.99) * 1e3
    values["trace.overhead_share"] = (
        _ratio(
            statistics.median(r.wall for r in traced_rounds),
            statistics.median(r.wall for r in plain_rounds),
        )
        - 1.0
    )
    metrics = {name: (float(values[name]), unit) for name, unit in UNITS.items()}
    notes = {
        "traced_ops": ops,
        "traced_rounds": len(traced_rounds),
        "untraced_rounds": len(plain_rounds),
        "spans": len(tracer.spans),
        "mean_op_ms": _ratio(op_seconds * 1e3, ops),
        "untraced_latency_samples": len(pooled),
        "machine_speed_traced": round(speed, 3),
    }
    return metrics, notes


def _serve_timeline(main, by_op) -> dict:
    """Cut each served request's latency at the thread hand-offs.

    ``submit`` runs on the connection's thread, the transform on a pool
    worker, ``xml()`` and ``_write`` on the responder; with one request
    in flight their spans do not overlap, so the gaps between them are
    the hand-offs::

        client send .. submit start              \\ socket (request in,
        _write end .. client has the line        /         response out)
        submit start .. transform start          dispatch
        transform end .. xml()/_write start      queue (result hand-off)
        the rest of the server-side span         protocol (_respond, _write)
    """
    totals = dict.fromkeys(
        ("socket", "dispatch", "queue", "protocol", "work", "serialize", "latency"), 0.0
    )
    served = 0
    for op, root in main.items():
        spans = by_op[op]
        submit, write = spans.get("serve.submit"), spans.get("serve.write")
        work = spans.get("db.transform") or spans.get("db.stream_transform")
        if submit is None or write is None or work is None:
            continue
        served += 1
        xml = spans.get("xml.serialize")
        resumed = xml[5] if xml is not None else write[5]
        # The client can hold the line before _write has returned.
        server = min(write[6], root[6]) - submit[5]
        dispatch = work[5] - submit[5]
        queue = resumed - work[6]
        serialize = xml[6] - xml[5] if xml is not None else 0.0
        totals["latency"] += root[6] - root[5]
        totals["work"] += work[6] - work[5]
        totals["serialize"] += serialize
        totals["socket"] += (root[6] - root[5]) - server
        totals["dispatch"] += dispatch
        totals["queue"] += queue
        totals["protocol"] += server - dispatch - (work[6] - work[5]) - queue - serialize
    result = {name: _ratio(total * 1e3, served) for name, total in totals.items()}
    # 1.0 by construction (protocol is the remainder); kept as a check.
    result["covered"] = _ratio(sum(totals.values()) - totals["latency"], totals["latency"])
    return result
