"""The XMorph data shredder (Figure 8, left).

Shredding takes an XML document and writes its three tables: one Nodes
record per vertex, the document's adorned shape, and the per-type
sequences the render algorithm scans (Figure 8's fourth table,
GroupedSequence, is a view over those: ``Database.grouped_sequence``).
This is a one-time cost — the paper reports it separately (20–115 s for
the XMark factors) and excludes it from the transformation timings, as
do our benchmarks.

It is one pass, as the paper's SAX shredder is.  :class:`_Sink` hears
``start`` / ``attribute`` / ``end`` per node — from the tokenizer when
the source is text (no tree is built for a document that is only being
stored), from :func:`_walk` when it is a forest — and does everything a
node needs as it goes by: its label is its parent's label plus its
ordinal among its siblings, its type comes from the
:class:`~repro.shape.dataguide.DataGuideBuilder` the same calls feed,
and :func:`~repro.storage.tables.encode_node` turns label, type and
UTF-8 text into the Nodes value and the sequence entry at once.  Nodes
of one type never nest (a type is a root path), so they *end* in the
order they start and a type's entries, appended as its nodes end, are in
document order.

Nothing is written node by node: the records — Nodes, overflow chunks,
type sequences, shape chunks — are gathered in one list, sorted (Nodes
records arrive children first) and handed to
:meth:`~repro.storage.btree.BPlusTree.put_many` as a single run, which
decodes each page it passes once and leaves the leaves it fills packed.
The catalog record follows alone: it carries the shred's duration, and
a document exists once its catalog entry does.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.cache import shape_fingerprint
from repro.errors import DepthLimitError
from repro.obs import tracer as obs
from repro.shape.dataguide import DataGuideBuilder
from repro.storage.btree import BPlusTree
from repro.storage import tables
from repro.xmltree import dewey as labels
from repro.xmltree.node import NodeKind, XmlForest, XmlNode
from repro.xmltree.parser import tokenize


def shred(tree: BPlusTree, doc_id: int, name: str, source: str | XmlForest) -> dict:
    """Write a document's tables from its text or its forest; returns
    the catalog descriptor."""
    with obs.span("storage.shred", document=name) as shred_span:
        sink = _Sink(doc_id)
        with obs.span("storage.shred.nodes"):
            if isinstance(source, str):
                tokenize(source, sink)
            else:
                _walk(source, sink)
        if sink.refusal is not None:
            raise sink.refusal

        #: Every record but the catalog's (N, V, T and S keys): one run.
        run = sink.run
        for type_id, chunks in enumerate(sink.sequences):
            for chunk_no, chunk in enumerate(chunks):
                run.append((tables.sequence_key(doc_id, type_id, chunk_no), bytes(chunk)))
        shape_descriptor = _shape_descriptor(sink.guide)
        for chunk_no, chunk in enumerate(tables.encode_shape(shape_descriptor)):
            run.append((tables.shape_key(doc_id, chunk_no), chunk))

        with obs.span("storage.shred.write", entries=len(run)):
            run.sort()
            tree.put_many(run)

        obs.count("shred.nodes", sink.nodes)
        obs.count("shred.text_bytes", sink.text_bytes)
        shred_span.annotate(nodes=sink.nodes, text_bytes=sink.text_bytes)

    descriptor = {
        "doc_id": doc_id,
        "name": name,
        "nodes": sink.nodes,
        "text_bytes": sink.text_bytes,
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


# A frame's slots: the node's label, its type id, how many children it
# has had, their tally by type id, and whether it is an attribute.
_LABEL, _TYPE, _CHILDREN, _TALLY = range(4)


class _Sink:
    """Turns a document's node events into its records.

    ``start`` / ``attribute`` / ``end`` are what the tokenizer reports;
    ``start`` also takes the node's kind, for :func:`_walk`, which
    reports a forest's attribute vertices like any other node.
    """

    def __init__(self, doc_id: int) -> None:
        self.doc_id = doc_id
        self.guide = DataGuideBuilder()
        #: Nodes and overflow records, a node's when it ends.
        self.run: list[tuple[bytes, bytes]] = []
        #: Per type id, the chunks of its sequence so far.
        self.sequences: list[list[bytearray]] = []
        self.nodes = 0
        self.text_bytes = 0
        #: Why the document cannot be stored: its first node too deep to
        #: label.  Raised by :func:`shred` once the source has been read
        #: to its end, so that text which does not parse says so first.
        self.refusal: Optional[DepthLimitError] = None
        self._key_prefix = tables.nodes_prefix(doc_id)
        #: One frame per open node, under the forest's own.
        self._open: list[list] = [[b"", None, 0, {}, False]]

    def start(self, name: str, is_attribute: bool = False) -> None:
        parent = self._open[-1]
        parent[_CHILDREN] += 1
        label = labels.child(parent[_LABEL], parent[_CHILDREN])
        if len(self._open) > tables.MAX_DEPTH and self.refusal is None:
            self.refusal = DepthLimitError(
                str(labels.unpack(label)), len(self._open), tables.MAX_DEPTH
            )
        type_id = self.guide.enter(parent[_TYPE], name, is_attribute)
        tally = parent[_TALLY]
        tally[type_id] = tally.get(type_id, 0) + 1
        if type_id == len(self.sequences):
            self.sequences.append([])
        self._open.append([label, type_id, 0, {}, is_attribute])

    def attribute(self, name: str, value: str) -> None:
        self.start(name, True)
        self.end(value)

    def end(self, text: str) -> None:
        label, type_id, _children, tally, is_attribute = self._open.pop()
        if self.refusal is not None:
            return
        if tally:
            self.guide.leave(tally)
        inline, overflow = tables.split_text(self.doc_id, label, text.encode())
        self.run.extend(overflow)
        value, entry = tables.encode_node(
            label, type_id, is_attribute, inline, len(overflow)
        )
        self.run.append((self._key_prefix + label, value))
        tables.append_entry(self.sequences[type_id], entry)
        self.nodes += 1
        self.text_bytes += len(text)


def _walk(forest: XmlForest, sink: _Sink) -> None:
    """Report a forest's vertices to ``sink`` in document order.  A
    node's ordinal is its position among its siblings — what
    ``renumber()`` assigns — whatever ``dewey`` it carries."""
    start, end = sink.start, sink.end
    attribute = NodeKind.ATTRIBUTE
    above: list[tuple[Iterator[XmlNode], Optional[XmlNode]]] = []
    siblings, parent = iter(forest.roots), None
    while True:
        for node in siblings:
            start(node.name, node.kind is attribute)
            if node.children:
                above.append((siblings, parent))
                siblings, parent = iter(node.children), node
                break
            end(node.text)
        else:
            if parent is None:
                return
            end(parent.text)
            siblings, parent = above.pop()


def _shape_descriptor(guide: DataGuideBuilder) -> dict:
    types = [[t.type_id, list(t.path)] for t in guide.type_table]
    # Canonical edge order: sorted by (parent id, child id).  Traversal
    # order would encode *how* the descriptor was produced; sorting makes
    # a full re-shred and an incremental update (repro.storage.update)
    # emit byte-identical descriptors — and therefore fingerprints — for
    # the same document.
    edges = sorted(list(edge) for edge in guide.edges())
    counts = {str(type_id): count for type_id, count in enumerate(guide.counts)}
    return {"types": types, "edges": edges, "counts": counts}
