"""The XMorph data shredder (Figure 8, left).

Shredding takes an XML document and writes its three tables: one Nodes
record per vertex, the document's adorned shape, and the per-type
sequences the render algorithm scans (Figure 8's fourth table,
GroupedSequence, is a view over those: ``Database.grouped_sequence``).
This is a one-time cost — the paper reports it separately (20–115 s for
the XMark factors) and excludes it from the transformation timings, as
do our benchmarks.

It is one pass, as the paper's SAX shredder is: the tokenizer (when the
source is text — no tree is built for a document that is only being
stored) or :func:`~repro.shape.dataguide.walk` (when it is a forest)
feeds the :class:`~repro.shape.dataguide.DataGuideBuilder` that also
builds the in-memory index, and that pass gives every node its label
(its parent's plus its ordinal among its siblings), its type and its
place in its type's columns.  What the shredder adds is the records:
:func:`~repro.storage.tables.encode_node` turns each column entry's
label, type and UTF-8 text into the Nodes value and the sequence entry
at once (refusing a node too deep to label, ``XM560``, after the source
has been read to its end, so that text which does not parse says so
first), and :func:`~repro.storage.tables.split_text` moves long text
into overflow records.

Nothing is written node by node: the records — Nodes, overflow chunks,
type sequences, shape chunks — are gathered in one list, sorted (Nodes
records arrive children first) and handed to
:meth:`~repro.storage.btree.BPlusTree.put_many` as a single run, which
decodes each page it passes once and leaves the leaves it fills packed.
The catalog record follows alone: it carries the shred's duration, and
a document exists once its catalog entry does.
"""

from __future__ import annotations

from repro.cache import shape_fingerprint
from repro.obs import tracer as obs
from repro.shape.dataguide import DataGuideBuilder, walk
from repro.storage.btree import BPlusTree
from repro.storage import tables
from repro.xmltree.node import XmlForest
from repro.xmltree.parser import tokenize


def shred(tree: BPlusTree, doc_id: int, name: str, source: str | XmlForest) -> dict:
    """Write a document's tables from its text or its forest; returns
    the catalog descriptor."""
    with obs.span("storage.shred", document=name) as shred_span:
        builder = DataGuideBuilder()
        with obs.span("storage.shred.nodes"):
            if isinstance(source, str):
                tokenize(source, builder)
            else:
                walk(source, builder)
            #: Every record but the catalog's (N, V, T and S keys): one run.
            run, text_bytes = _records(doc_id, builder)
        nodes = sum(builder.counts)
        shape_descriptor = describe_shape(builder)
        for chunk_no, chunk in enumerate(tables.pack_shape(shape_descriptor)):
            run.append((tables.shape_key(doc_id, chunk_no), chunk))

        with obs.span("storage.shred.write", entries=len(run)):
            run.sort()
            tree.put_many(run)

        obs.count("shred.nodes", nodes)
        obs.count("shred.text_bytes", text_bytes)
        shred_span.annotate(nodes=nodes, text_bytes=text_bytes)

    descriptor = {
        "doc_id": doc_id,
        "name": name,
        "nodes": nodes,
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
    tree.put(tables.catalog_key(name), tables.encode_catalog(catalog))
    return descriptor


def _records(doc_id: int, builder: DataGuideBuilder) -> tuple[list[tuple[bytes, bytes]], int]:
    """The Nodes, overflow and type-sequence records of the built
    columns, and the document's text length.

    Types go in id order — the order of their first nodes, and a type
    too deep to label has an ancestor type at the limit with a smaller
    id — and each column in document order, so the first label
    :func:`~repro.storage.tables.encode_node` refuses (``XM560``) is the
    document's first node too deep to label.
    """
    run: list[tuple[bytes, bytes]] = []
    add, extend = run.append, run.extend
    split_text, encode_node, append_entry = tables.split_text, tables.encode_node, tables.append_entry
    key_prefix = tables.nodes_prefix(doc_id)
    text_bytes = 0
    columns = zip(builder.labels, builder.values, builder.attributes)
    for type_id, (labels, values, attributes) in enumerate(columns):
        chunks: list[bytearray] = []
        for label, text, is_attribute in zip(labels, values, attributes):
            inline, overflow = split_text(doc_id, label, text.encode())
            extend(overflow)
            value, entry = encode_node(label, type_id, is_attribute, inline, len(overflow))
            add((key_prefix + label, value))
            append_entry(chunks, entry)
            text_bytes += len(text)
        for chunk_no, chunk in enumerate(chunks):
            add((tables.sequence_key(doc_id, type_id, chunk_no), bytes(chunk)))
    return run, text_bytes


def describe_shape(guide: DataGuideBuilder) -> dict:
    """The shape descriptor of a built document: what
    :func:`~repro.cache.shape_fingerprint` hashes and
    :func:`~repro.storage.tables.pack_shape` stores."""
    types = [[type_id, list(path)] for type_id, path in enumerate(guide.type_table.paths)]
    # Canonical edge order: sorted by (parent id, child id).  Traversal
    # order would encode *how* the descriptor was produced; sorting makes
    # a full re-shred and an incremental update (repro.storage.update)
    # emit byte-identical descriptors — and therefore fingerprints — for
    # the same document.
    edges = sorted(list(edge) for edge in guide.edges())
    counts = {str(type_id): count for type_id, count in enumerate(guide.counts)}
    return {"types": types, "edges": edges, "counts": counts}
