"""The database tables of Figure 8, mapped onto B+tree keyspaces.

Three tables are stored (Nodes, AdornedShapes, TypeToSequence) beside
the catalog and the text overflow.  Figure 8's fourth, GroupedSequence,
is not: with prefix labels a node's parent is its Dewey minus the last
component, so ``Database.grouped_sequence`` derives the (parent, node)
pairs from TypeToSequence on demand.

Key layout (all multi-byte integers big-endian so byte order is value
order):

====================  =======================================================
``b"C"``              catalog meta (next document id)
``b"D" name``         catalog: document name -> descriptor (JSON, one entry)
``b"N" doc dewey``    Nodes: node id -> (type, kind, value)
``b"S" doc chunk``    AdornedShapes: the document's shape as columns (chunked)
``b"T" doc type ck``  TypeToSequence: per-type node sequence (packed, chunked)
``b"V" doc dewey ck`` Value overflow: long text content, chunked
====================  =======================================================

Dewey identifiers are stored as packed labels
(:func:`repro.xmltree.dewey.pack`: fixed-width big-endian components),
so lexicographic byte order equals document order (shorter ids sort
before their descendants, matching tuple order).

Values larger than ~3.5 KiB never enter the tree: long node text goes
to the overflow keyspace and sequences/shapes are chunked, and a catalog
record past :data:`CHUNK_BYTES` is refused.

The shape record is the arrays a stored open keeps: a name table, then
per type id its parent (id + 1, 0 for a root), name index, edge bounds
and count, as fixed-width little-endian columns
(:func:`pack_columns` / :func:`shape_columns`).  :func:`pack_shape`
writes it from the descriptor the shredder and the updater build (the
one :func:`~repro.cache.shape_fingerprint` hashes), and
:func:`read_shape` decodes and checks it without parsing JSON.

A stored node has one codec, and it works on bytes.  :func:`encode_node`
is the one encoder: a node's ``N`` value and its ``T`` entry share every
byte after the type id, so both come from one call, made once per node
by the shredder's sink and by the updater for each node it inserts.
:func:`parse_chunk` is the one decoder of ``T`` entries: it walks a
chunk with index arithmetic into the caller's parallel columns — labels
(the stored bytes, untouched), inline text values, attribute flags —
and builds no object per entry; :func:`sequence_columns` gathers a
type's chunks that way for ``StoredDocumentIndex.nodes_of``.

The updater edits what is stored undecoded: :func:`sequence_entries`
cuts a type's chunks into ``(label, entry)`` byte pairs, :func:`relabel`
and :func:`node_value` re-address one, :func:`node_head` and
:func:`node_text` read an ``N`` value.  No other module indexes into a
value or an entry.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from itertools import accumulate
from operator import gt
from typing import Iterator, NamedTuple, Optional

from repro.errors import CorruptRecordError, DepthLimitError, StorageError
from repro.shape.types import TypeTable
from repro.storage.btree import BPlusTree
from repro.xmltree.dewey import max_depth, unpack

#: Payload budget per chunk, comfortably under the B+tree entry limit.
CHUNK_BYTES = 3200
#: Text longer than this goes to the overflow keyspace.
INLINE_TEXT = 1500

#: A ``T`` entry stores its label's byte length in one byte, so a node
#: deeper than ``MAX_DEPTH`` components cannot be sequenced.
_MAX_LABEL_BYTES = 255
MAX_DEPTH = max_depth(_MAX_LABEL_BYTES)


# ---------------------------------------------------------------------------
# Key encoding
# ---------------------------------------------------------------------------


def catalog_key(name: str) -> bytes:
    return b"D" + name.encode()


def catalog_entries(tree: BPlusTree) -> Iterator[tuple[str, bytes]]:
    """``(document name, raw descriptor)`` for every catalog record."""
    for key, value in tree.scan_prefix(b"D"):
        yield key[1:].decode(errors="replace"), value


def nodes_prefix(doc_id: int) -> bytes:
    """A node's key is this plus its label — and, components being
    fixed-width, the prefix of exactly its subtree's keys."""
    return b"N" + doc_id.to_bytes(4, "big")


def shape_prefix(doc_id: int) -> bytes:
    return b"S" + doc_id.to_bytes(4, "big")


def shape_key(doc_id: int, chunk: int) -> bytes:
    return shape_prefix(doc_id) + chunk.to_bytes(4, "big")


def sequence_prefix(doc_id: int, type_id: int) -> bytes:
    return b"T" + doc_id.to_bytes(4, "big") + type_id.to_bytes(4, "big")


def sequence_key(doc_id: int, type_id: int, chunk: int) -> bytes:
    return sequence_prefix(doc_id, type_id) + chunk.to_bytes(4, "big")


def overflow_key(doc_id: int, label: bytes, chunk: int) -> bytes:
    return b"V" + doc_id.to_bytes(4, "big") + label + chunk.to_bytes(2, "big")


def document_prefixes(doc_id: int) -> list[bytes]:
    """One prefix per keyspace holding a document's records.

    Nothing writes or reads ``b"G"`` (GroupedSequence is a view over the
    type sequences), but a document shredded by an earlier build carries
    those keys and must leave nothing behind when dropped.
    """
    doc = doc_id.to_bytes(4, "big")
    return [keyspace + doc for keyspace in (b"N", b"S", b"T", b"G", b"V")]


META_KEY = b"C"


# ---------------------------------------------------------------------------
# Record codecs
# ---------------------------------------------------------------------------


def split_text(
    doc_id: int, label: bytes, raw: bytes
) -> tuple[bytes, list[tuple[bytes, bytes]]]:
    """Split the UTF-8 text of the node labelled ``label`` into its
    inline part and its overflow entries.

    Short text stays inline and the list is empty; text longer than
    :data:`INLINE_TEXT` leaves ``b""`` inline and comes back as ``(overflow
    key, chunk)`` entries in key order, which the caller adds to the run
    it writes.  Nothing is written here.
    """
    if len(raw) <= INLINE_TEXT:
        return raw, []
    return b"", [
        (overflow_key(doc_id, label, number), raw[start : start + CHUNK_BYTES])
        for number, start in enumerate(range(0, len(raw), CHUNK_BYTES))
    ]


def read_overflow(tree: BPlusTree, doc_id: int, label: bytes, chunks: int) -> str:
    """The overflowed text of the node labelled ``label``."""
    pieces = [
        tree.get(overflow_key(doc_id, label, number)) or b""
        for number in range(chunks)
    ]
    return b"".join(pieces).decode()


_NODE_HEAD = struct.Struct("<IBH")  # type_id, kind+overflow flag, chunks/text len


def encode_node(
    label: bytes, type_id: int, is_attribute: bool, raw: bytes, overflow_chunks: int = 0
) -> tuple[bytes, bytes]:
    """What the node labelled ``label`` stores: ``(N value, T entry)``.

    The value is ``type id (4, little-endian) | flags (1) | extra (2,
    little-endian) | inline text`` and the entry ``label length (1) |
    label`` followed by the same bytes from ``flags`` on: flag bit 0
    marks an attribute, bit 1 an overflowed text, and ``extra`` is the
    byte length of ``raw`` (the inline text as UTF-8) or, overflowed
    (``raw`` is then empty), its chunk count.  The one-byte length is
    why a node deeper than :data:`MAX_DEPTH` levels is refused here
    (coded, before the caller has written anything).
    """
    if len(label) > _MAX_LABEL_BYTES:
        dewey = unpack(label)
        raise DepthLimitError(str(dewey), len(dewey), MAX_DEPTH)
    if overflow_chunks:
        value = _NODE_HEAD.pack(type_id, is_attribute | 2, overflow_chunks)
    else:
        value = _NODE_HEAD.pack(type_id, is_attribute, len(raw)) + raw
    return value, bytes((len(label),)) + label + value[4:]


def node_head(value: bytes) -> tuple[int, bool, int]:
    """An ``N`` value's ``(type id, is an attribute, overflow chunks)``."""
    type_id, flags, extra = _NODE_HEAD.unpack_from(value)
    return type_id, bool(flags & 1), extra if flags & 2 else 0


def node_text(tree: BPlusTree, doc_id: int, label: bytes, value: bytes) -> str:
    """The text of the node labelled ``label`` whose ``N`` value is ``value``."""
    chunks = node_head(value)[2]
    if chunks:
        return read_overflow(tree, doc_id, label, chunks)
    return value[_NODE_HEAD.size :].decode()


def node_value(type_id: int, entry: bytes) -> bytes:
    """The ``N`` value of ``entry``'s node under ``type_id``: the id,
    then what follows the label in the entry."""
    return type_id.to_bytes(4, "little") + entry[1 + entry[0] :]


def relabel(entry: bytes, label: bytes) -> bytes:
    """``entry`` as the node labelled ``label`` would store it."""
    return bytes((len(label),)) + label + entry[1 + entry[0] :]


# -- packed sequence entries (TypeToSequence) --------------------------------


def append_entry(chunks: list[bytearray], entry: bytes) -> None:
    """Add one ``T`` entry to a type's chunks, opening a new chunk when
    the last would grow past :data:`CHUNK_BYTES`."""
    if chunks and len(chunks[-1]) + len(entry) <= CHUNK_BYTES:
        chunks[-1] += entry
    else:
        chunks.append(bytearray(entry))


def parse_chunk(
    chunk: bytes,
    labels: list[bytes],
    values: list[str],
    attributes: bytearray,
    overflowed: dict[int, int],
) -> None:
    """Append one ``T`` chunk's entries to the caller's columns.

    The only parser of the entry layout :func:`encode_node` writes —
    including its one-byte label length, so whatever that encoder refuses
    (a label past 255 bytes) never reaches this walk.  Index arithmetic
    only: no ``struct``, no generator and no object per entry.
    """
    offset = 0
    end = len(chunk)
    while offset < end:
        body = offset + 1 + chunk[offset]
        labels.append(chunk[offset + 1 : body])
        flags = chunk[body]
        extra = chunk[body + 1] | chunk[body + 2] << 8
        offset = body + 3
        attributes.append(flags & 1)
        if flags & 2:
            overflowed[len(values)] = extra
            values.append("")
        elif extra:
            values.append(chunk[offset : offset + extra].decode())
            offset += extra
        else:
            values.append("")


def sequence_columns(
    tree: BPlusTree, doc_id: int, type_id: int
) -> tuple[list[bytes], list[str], bytearray, dict[int, int]]:
    """A type's stored sequence as parallel columns, in document order.

    ``(labels, values, attributes, overflowed)``: entry ``i`` is the node
    labelled ``labels[i]`` (the stored bytes), with inline text
    ``values[i]``, an attribute iff ``attributes[i]``; ``overflowed``
    maps the positions whose text lives in the overflow keyspace (their
    ``values[i]`` is ``""``) to its chunk count.
    """
    labels: list[bytes] = []
    values: list[str] = []
    attributes = bytearray()
    overflowed: dict[int, int] = {}
    for _key, chunk in tree.scan_prefix(sequence_prefix(doc_id, type_id)):
        parse_chunk(chunk, labels, values, attributes, overflowed)
    return labels, values, attributes, overflowed


def sequence_entries(
    tree: BPlusTree, doc_id: int, type_id: int, starts: Optional[list[int]] = None
) -> Iterator[tuple[bytes, bytes]]:
    """A type's stored sequence as ``(label, entry)`` byte pairs in
    document order: the chunks cut at their entry boundaries, nothing
    decoded.  Lazy chunk by chunk, so a caller that wants only the first
    label (the updater orders untouched types by it) reads one chunk.

    ``starts``, when given, receives the position of each chunk's first
    entry: chunk ``i`` is stored under :func:`sequence_key` ``(doc_id,
    type_id, i)``, and :func:`append_entry` fed the entries from
    ``starts[i]`` on packs chunk ``i`` and every later one again.
    """
    position = 0
    for _key, chunk in tree.scan_prefix(sequence_prefix(doc_id, type_id)):
        if starts is not None:
            starts.append(position)
        offset = 0
        end = len(chunk)
        while offset < end:
            body = offset + 1 + chunk[offset]
            stop = body + 3
            if not chunk[body] & 2:
                stop += chunk[body + 1] | chunk[body + 2] << 8
            yield chunk[offset + 1 : body], chunk[offset:stop]
            offset = stop
            position += 1


# -- the shape record (AdornedShapes) ------------------------------------------


#: The array typecode of the four-byte columns (a C ``unsigned int``).
_U32 = "I"
_BIG_ENDIAN = sys.byteorder == "big"
#: Type count, name count, byte length of the names' UTF-8 blob.
_SHAPE_HEAD = struct.Struct("<III")
#: A name's length is stored in two bytes.
_MAX_NAME = 0xFFFF


class ShapeColumns(NamedTuple):
    """An ``S`` record as its columns, one cell per type id in id order.

    ``names`` is the name table (each distinct element name once);
    ``parents[i]`` is 0 for a root type, else its parent's id + 1;
    ``name_ids[i]`` indexes ``names``; ``lows[i]`` / ``highs[i]`` bound
    the edge into type ``i`` (0 for a root); ``counts[i]`` is its number
    of nodes.
    """

    names: list[str]
    parents: array
    name_ids: array
    lows: array
    highs: array
    counts: array


def pack_columns(columns: ShapeColumns) -> bytes:
    """The one writer of the ``S`` layout: the type count, the name
    count and the names' byte length (three ``u32``), each name's
    length in code points (``u16``), the names as one UTF-8 blob, then
    the five columns as ``u32`` arrays, all little-endian.  A name too
    long to measure in two bytes is refused here, before any write."""
    names, *cells = columns
    longest = max(map(len, names), default=0)
    if longest > _MAX_NAME:
        raise StorageError(
            f"an element name of {longest} characters; a stored shape holds "
            f"names of at most {_MAX_NAME}"
        )
    blob = "".join(names).encode("utf-8", "surrogatepass")
    arrays = [array("H", map(len, names)), *(array(_U32, column) for column in cells)]
    if _BIG_ENDIAN:
        for column in arrays:
            column.byteswap()
    head = _SHAPE_HEAD.pack(len(columns.parents), len(names), len(blob))
    return b"".join((head, arrays[0].tobytes(), blob, *(a.tobytes() for a in arrays[1:])))


def shape_columns(raw: bytes) -> ShapeColumns:
    """The one reader of the ``S`` layout; raises :class:`ValueError`
    when the bytes are not exactly what the head says they hold."""
    head = _SHAPE_HEAD.size
    if len(raw) < head:
        raise ValueError(f"the record is {len(raw)} bytes, shorter than its head")
    count, name_count, blob_bytes = _SHAPE_HEAD.unpack_from(raw)
    blob = head + 2 * name_count
    offset = blob + blob_bytes
    if len(raw) != offset + 20 * count:
        raise ValueError(
            f"the record is {len(raw)} bytes; {count} types and {name_count} "
            f"names make {offset + 20 * count}"
        )
    arrays = [array("H"), *(array(_U32) for _ in range(5))]
    arrays[0].frombytes(raw[head:blob])
    for number, column in enumerate(arrays[1:]):
        start = offset + 4 * count * number
        column.frombytes(raw[start : start + 4 * count])
    if _BIG_ENDIAN:
        for column in arrays:
            column.byteswap()
    text = raw[blob:offset].decode("utf-8", "surrogatepass")
    ends = list(accumulate(arrays[0]))
    if (ends[-1] if ends else 0) != len(text):
        raise ValueError("the name lengths do not cover the name table")
    names = [text[start:end] for start, end in zip([0, *ends], ends)]
    return ShapeColumns(names, *arrays[1:])


class ShapeRecord(NamedTuple):
    """A decoded ``S`` record: what an open keeps.

    ``type_table`` holds the types' root paths (rebuilt from the parent
    chain); ``parents[i]`` is type ``i``'s parent id, ``-1`` for a root;
    ``lows`` / ``highs`` and ``counts`` are the stored columns.
    """

    type_table: TypeTable
    parents: list[int]
    lows: array
    highs: array
    counts: list[int]

    def descriptor(self) -> dict:
        """The shape descriptor the writers built this record from (the
        one :func:`repro.cache.shape_fingerprint` is defined on)."""
        edges = sorted(
            [parent, child, self.lows[child], self.highs[child]]
            for child, parent in enumerate(self.parents)
            if parent >= 0
        )
        return {
            "types": [[type_id, list(path)] for type_id, path in enumerate(self.type_table.paths)],
            "edges": edges,
            "counts": {str(type_id): count for type_id, count in enumerate(self.counts)},
        }


def pack_shape(descriptor: dict) -> list[bytes]:
    """The ``S`` record of a shape descriptor, as chunks.

    ``descriptor`` is what the shredder and the updater build: types
    listed in id order, one edge into every type that is not a root,
    counts keyed by the id as text.
    """
    paths = [path for _type_id, path in descriptor["types"]]
    count = len(paths)
    parents, lows, highs = (array(_U32, bytes(4 * count)) for _ in range(3))
    for parent_id, child_id, low, high in descriptor["edges"]:
        parents[child_id] = parent_id + 1
        lows[child_id] = low
        highs[child_id] = high
    names: dict[str, int] = {}
    name_ids = array(_U32, [names.setdefault(path[-1], len(names)) for path in paths])
    counts = array(_U32, [descriptor["counts"][str(type_id)] for type_id in range(count)])
    raw = pack_columns(ShapeColumns(list(names), parents, name_ids, lows, highs, counts))
    return [raw[i : i + CHUNK_BYTES] for i in range(0, len(raw), CHUNK_BYTES)]


def unpack_shape(name: str, raw: bytes) -> ShapeRecord:
    """Decode document ``name``'s ``S`` record.  One that is not its
    layout, names a parent not below its child or a name past the name
    table, has an edge whose ``lo`` exceeds its ``hi``, or two types
    with one path is a :class:`~repro.errors.CorruptRecordError`."""
    try:
        names, above, name_ids, lows, highs, counts = shape_columns(raw)
        if name_ids and max(name_ids) >= len(names):
            type_id = next(i for i, name_id in enumerate(name_ids) if name_id >= len(names))
            raise ValueError(
                f"type {type_id} names entry {name_ids[type_id]} of a {len(names)}-name table"
            )
        if any(map(gt, lows, highs)):
            type_id = next(i for i, (low, high) in enumerate(zip(lows, highs)) if low > high)
            raise ValueError(
                f"type {type_id} has the empty edge range {lows[type_id]}..{highs[type_id]}"
            )
        # A type's path is its parent's plus its name; a parent is listed first.
        steps = [(element,) for element in names]
        paths: list[tuple[str, ...]] = []
        append = paths.append
        for type_id, parent, name_id in zip(range(len(above)), above, name_ids):
            if parent > type_id:
                raise ValueError(
                    f"type {type_id} names type {parent - 1} as its parent, not one below it"
                )
            append(paths[parent - 1] + steps[name_id] if parent else steps[name_id])
        type_table = TypeTable.of_paths(paths)
    except ValueError as error:
        raise CorruptRecordError(
            f"document {name!r} has a corrupted stored shape: {error}"
        ) from error
    parents = [parent - 1 for parent in above]
    return ShapeRecord(type_table, parents, lows, highs, counts.tolist())


def read_shape(tree: BPlusTree, doc_id: int, name: str) -> ShapeRecord:
    """Document ``name``'s decoded ``S`` record; a missing or malformed
    one is a :class:`~repro.errors.StorageError`."""
    chunks = load_chunks(tree, shape_prefix(doc_id))
    if not chunks:
        raise StorageError(f"document {name!r} has no stored shape")
    return unpack_shape(name, b"".join(chunks))


def load_chunks(tree: BPlusTree, prefix: bytes) -> list[bytes]:
    return [value for _key, value in tree.scan_prefix(prefix)]


# -- the catalog record ---------------------------------------------------------


def encode_catalog(descriptor: dict) -> bytes:
    """A document's catalog record: its descriptor as compact JSON, in
    one entry of at most :data:`CHUNK_BYTES`.  A longer one is refused
    here, before anything is put — never cut."""
    raw = json.dumps(descriptor, separators=(",", ":")).encode()
    if len(raw) > CHUNK_BYTES:
        raise StorageError(
            f"entry too large: the catalog record of document {descriptor['name']!r} "
            f"is {len(raw)} bytes (at most {CHUNK_BYTES})"
        )
    return raw


def decode_catalog(name: str, raw: bytes) -> dict:
    """The descriptor in document ``name``'s catalog record."""
    try:
        return json.loads(raw)
    except ValueError as error:
        raise CorruptRecordError(
            f"document {name!r} has an undecodable catalog record: {error}"
        ) from error


# ---------------------------------------------------------------------------
# Integrity (xmorph fsck)
# ---------------------------------------------------------------------------


def verify_document(tree: BPlusTree, descriptor: dict) -> list[str]:
    """Cross-check one document's records against its catalog descriptor.

    Returns human-readable problem strings (empty when consistent): the
    shape record must decode (:func:`unpack_shape`: every parent below
    its child, every name index inside the name table, no edge whose
    ``lo`` exceeds its ``hi``, no path twice), its counts column must
    sum to the descriptor's node count, and so must the Nodes keyspace.
    Byte-level damage is the checksum layer's job; this catches
    *logical* tears — a flush that committed the catalog but lost a
    table keyspace, or vice versa.
    """
    problems: list[str] = []
    name = descriptor.get("name", "?")
    doc_id = descriptor.get("doc_id")
    if not isinstance(doc_id, int):
        return [f"document {name!r}: descriptor has no valid doc_id"]
    expected_nodes = descriptor.get("nodes")
    shape_chunks = load_chunks(tree, shape_prefix(doc_id))
    if not shape_chunks:
        problems.append(f"document {name!r}: no AdornedShapes records")
    else:
        try:
            counted = sum(unpack_shape(name, b"".join(shape_chunks)).counts)
        except CorruptRecordError as error:
            problems.append(str(error))
        else:
            if expected_nodes is not None and counted != expected_nodes:
                problems.append(
                    f"document {name!r}: catalog says {expected_nodes} nodes, "
                    f"the shape record counts {counted}"
                )
    stored_nodes = sum(1 for _ in tree.scan_prefix(nodes_prefix(doc_id)))
    if expected_nodes is not None and stored_nodes != expected_nodes:
        problems.append(
            f"document {name!r}: catalog says {expected_nodes} nodes, "
            f"Nodes keyspace holds {stored_nodes}"
        )
    return problems
