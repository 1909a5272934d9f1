"""The shredder as it was before the one-pass sink: the identity oracle.

``shred`` and ``_shape_descriptor`` are the three-walk shredder of commit
634eb68 — ``DataGuideBuilder().build(forest)``, then a ``NodeRecord``
per node, then ``pack_sequence`` per type — copied verbatim, with the
record encoders it called (``write_text``, ``encode_node_value``,
``node_entry``, ``pack_sequence``) frozen beside it, so that the entry
layout it writes does not follow the live one.  Key builders, the shape
JSON and the DataGuide come from the library: ``tests/shape/`` pins the
DataGuide.  ``test_store_identity.py`` compares what it writes with what
``repro.storage.shredder.shred`` writes, key by key.  Kept for one PR
(ROADMAP item 3), then deleted.  Not a test module itself.
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.cache import shape_fingerprint
from repro.errors import DepthLimitError
from repro.obs import tracer as obs
from repro.shape.dataguide import DataGuideBuilder
from repro.storage import tables as live_tables
from repro.storage.btree import BPlusTree
from repro.storage.tables import (
    CHUNK_BYTES,
    INLINE_TEXT,
    MAX_DEPTH,
    NodeRecord,
    node_key,
    overflow_key,
)
from repro.xmltree.dewey import Dewey, pack
from repro.xmltree.node import NodeKind, XmlForest

_MAX_LABEL_BYTES = 255


class tables:
    """The names the copied ``shred`` reaches through ``tables.``: the
    frozen encoders below, the live key builders and shape codec."""

    sequence_key = staticmethod(live_tables.sequence_key)
    shape_key = staticmethod(live_tables.shape_key)
    catalog_key = staticmethod(live_tables.catalog_key)
    encode_shape = staticmethod(live_tables.encode_shape)


def write_text(
    doc_id: int, dewey: Dewey, text: str
) -> tuple[str, list[tuple[bytes, bytes]]]:
    """Split a node's text into its inline part and its overflow entries.

    Returns ``(inline text, overflow entries)``: short text stays inline
    and the list is empty; long text leaves ``""`` inline and comes back
    as ``(overflow key, chunk)`` entries in key order, which the caller
    adds to the run it writes (their number is the record's
    ``overflow_chunks``).  Nothing is written here.
    """
    raw = text.encode()
    if len(raw) <= INLINE_TEXT:
        return text, []
    return "", [
        (overflow_key(doc_id, dewey, number), raw[start : start + CHUNK_BYTES])
        for number, start in enumerate(range(0, len(raw), CHUNK_BYTES))
    ]


_NODE_HEAD = struct.Struct("<IBH")  # type_id, kind+overflow flag, chunks/text len


def encode_node_value(record: NodeRecord) -> bytes:
    kind_bit = 1 if record.kind is NodeKind.ATTRIBUTE else 0
    if record.overflow_chunks:
        head = _NODE_HEAD.pack(record.type_id, kind_bit | 2, record.overflow_chunks)
        return head
    raw = record.text.encode()
    return _NODE_HEAD.pack(record.type_id, kind_bit, len(raw)) + raw


def node_entry(doc_id: int, record: NodeRecord) -> tuple[bytes, bytes]:
    """A node's ``(key, value)`` entry, as a run for ``put_many`` takes it."""
    return node_key(doc_id, record.dewey), encode_node_value(record)



def pack_sequence(records: list[NodeRecord]) -> Iterator[bytes]:
    """Pack records into chunk values of at most CHUNK_BYTES.

    An entry is ``label length (1 byte) | label | flags (1) | extra
    (2, little-endian) | inline text``: flag bit 0 marks an attribute,
    bit 1 an overflowed text, and ``extra`` is the inline text's byte
    length or, overflowed, its chunk count.  The one-byte length is why
    a node deeper than :data:`MAX_DEPTH` levels is refused here (coded,
    before the caller has written anything).
    """
    buffer = bytearray()
    for record in records:
        label = pack(record.dewey)
        if len(label) > _MAX_LABEL_BYTES:
            raise DepthLimitError(str(record.dewey), len(record.dewey), MAX_DEPTH)
        kind_bit = 1 if record.kind is NodeKind.ATTRIBUTE else 0
        if record.overflow_chunks:
            body = struct.pack("<BH", kind_bit | 2, record.overflow_chunks)
        else:
            raw = record.text.encode()
            body = struct.pack("<BH", kind_bit, len(raw)) + raw
        entry = bytes((len(label),)) + label + body
        if buffer and len(buffer) + len(entry) > CHUNK_BYTES:
            yield bytes(buffer)
            buffer = bytearray()
        buffer += entry
    if buffer:
        yield bytes(buffer)


def shred(tree: BPlusTree, doc_id: int, name: str, forest: XmlForest) -> dict:
    """Write a forest's tables; returns the catalog descriptor."""
    with obs.span("storage.shred", document=name) as shred_span:
        builder = DataGuideBuilder().build(forest)

        by_type: dict[int, list[NodeRecord]] = {}
        #: Every record but the catalog's (N, V, T and S keys): one run.
        run: list[tuple[bytes, bytes]] = []
        node_count = 0
        text_bytes = 0
        with obs.span("storage.shred.nodes"):
            for node in forest.iter_nodes():
                data_type = builder.type_of[id(node)]
                text_bytes += len(node.text)
                inline, overflow = tables.write_text(doc_id, node.dewey, node.text)
                record = NodeRecord(
                    node.dewey, data_type.type_id, node.kind, inline, len(overflow)
                )
                run.append(tables.node_entry(doc_id, record))
                run.extend(overflow)
                by_type.setdefault(data_type.type_id, []).append(record)
                node_count += 1
        tree.pool.stats.charge_cpu(node_count * 4)

        with obs.span("storage.shred.sequences"):
            for type_id, records in by_type.items():
                for chunk_no, chunk in enumerate(tables.pack_sequence(records)):
                    run.append((tables.sequence_key(doc_id, type_id, chunk_no), chunk))

        shape_descriptor = _shape_descriptor(builder)
        for chunk_no, chunk in enumerate(tables.encode_shape(shape_descriptor)):
            run.append((tables.shape_key(doc_id, chunk_no), chunk))

        with obs.span("storage.shred.write", entries=len(run)):
            # Emitted keyspace by keyspace in document order, so the sort
            # only has to interleave a few already-sorted stretches.
            run.sort()
            tree.put_many(run)

        obs.count("shred.nodes", node_count)
        obs.count("shred.text_bytes", text_bytes)
        shred_span.annotate(nodes=node_count, text_bytes=text_bytes)

    descriptor = {
        "doc_id": doc_id,
        "name": name,
        "nodes": node_count,
        "text_bytes": text_bytes,
        "shape": shape_descriptor,
        # Keys the plan cache: documents with identical adorned shapes
        # hash identically (the descriptor is pure lists/str-keyed
        # dicts, so the hash survives the JSON round-trip to storage).
        "shape_fingerprint": shape_fingerprint(shape_descriptor),
        "shred_seconds": shred_span.duration,
    }
    catalog = dict(descriptor)
    del catalog["shape"]  # the shape lives in its own (chunked) records
    # Last, and alone: it carries the span's duration, and a document
    # exists once its catalog entry does.
    tree.put(tables.catalog_key(name), tables.encode_shape(catalog)[0])
    return descriptor


def _shape_descriptor(builder: DataGuideBuilder) -> dict:
    types = [[t.type_id, list(t.path)] for t in builder.type_table]
    edges = []
    for edge in builder.shape.edges():
        edges.append(
            [
                edge.parent.source.type_id,
                edge.child.source.type_id,
                edge.card.lo,
                edge.card.hi,
            ]
        )
    # Canonical edge order: sorted by (parent id, child id).  Traversal
    # order would encode *how* the descriptor was produced; sorting makes
    # a full re-shred and an incremental update (repro.storage.update)
    # emit byte-identical descriptors — and therefore fingerprints — for
    # the same document.
    edges.sort()
    tally: dict[int, int] = {}
    for data_type in builder.type_table:
        tally[data_type.type_id] = 0
    for type_ in builder.type_of.values():
        tally[type_.type_id] += 1
    counts = {str(type_id): count for type_id, count in tally.items()}
    return {"types": types, "edges": edges, "counts": counts}


tables.write_text = staticmethod(write_text)
tables.node_entry = staticmethod(node_entry)
tables.pack_sequence = staticmethod(pack_sequence)
