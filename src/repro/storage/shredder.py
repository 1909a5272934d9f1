"""The XMorph data shredder (Figure 8, left).

Shredding takes an XML document and writes its three tables: one Nodes
record per vertex, the document's adorned shape, and the per-type
sequences the render algorithm scans (Figure 8's fourth table,
GroupedSequence, is a view over those: ``Database.grouped_sequence``).
This is a one-time cost — the paper reports it separately (20–115 s for
the XMark factors) and excludes it from the transformation timings, as
do our benchmarks.

Nothing is written node by node.  Dewey keys sort in document order, so
the records of each keyspace come out of the walk already sorted; the
shredder gathers them — Nodes, overflow chunks, type sequences, shape
chunks — into one list, sorts it and hands it to
:meth:`~repro.storage.btree.BPlusTree.put_many` as a single run, which
decodes each page it passes once and leaves the leaves it fills packed.
The catalog record follows alone: it carries the shred's duration, and
a document exists once its catalog entry does.
"""

from __future__ import annotations

from repro.cache import shape_fingerprint
from repro.obs import tracer as obs
from repro.shape.dataguide import DataGuideBuilder
from repro.storage.btree import BPlusTree
from repro.storage import tables
from repro.storage.tables import NodeRecord
from repro.xmltree.node import XmlForest


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
