"""Property tests for the packed labels and the table key/record codecs.

The critical invariant: every key encoding must preserve the order the
scans rely on — label byte order is document order, ancestor-of is
prefix-of, and each keyspace's composite keys sort by their components.
"""

import struct
from collections import namedtuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.closeness import DocumentIndex
from repro.errors import StorageError
from repro.shape.dataguide import DataGuideBuilder, walk
from repro.storage import Database, tables
from repro.storage.shredder import describe_shape
from repro.workloads import generate_dblp, generate_nasa, generate_xmark
from repro.xmltree import parse_document, parse_forest
from repro.xmltree import dewey as label_ops
from repro.xmltree.dewey import Dewey, lca_level, pack, parent, prefix, unpack

from tests.strategies import xml_forests

dewey_parts = st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=6)


class TestDeweyEncoding:
    @given(dewey_parts)
    def test_roundtrip(self, parts):
        dewey = Dewey(tuple(parts))
        assert unpack(pack(dewey)) == dewey
        assert pack(tuple(parts)) == pack(dewey)

    @given(dewey_parts, dewey_parts)
    def test_byte_order_is_document_order(self, first, second):
        a, b = Dewey(tuple(first)), Dewey(tuple(second))
        assert (pack(a) < pack(b)) == (a < b)

    def test_component_limit_enforced(self):
        with pytest.raises(StorageError):
            pack(Dewey((1 << 24,)))

    def test_component_limit_boundary(self):
        boundary = Dewey(((1 << 24) - 1,))
        assert unpack(pack(boundary)) == boundary

    @given(dewey_parts, st.integers(min_value=0, max_value=7))
    def test_prefix_is_the_label_of_the_leading_components(self, parts, width):
        assert prefix(pack(parts), width) == pack(parts[:width])

    @given(st.lists(dewey_parts, max_size=6), st.integers(min_value=0, max_value=7))
    def test_prefixes_is_prefix_per_label_or_none_when_shallower(self, column, width):
        expected = [pack(p[:width]) if len(p) >= width else None for p in column]
        assert label_ops.prefixes([pack(p) for p in column], width) == expected

    def test_max_depth_is_the_deepest_label_that_fits(self):
        depth = label_ops.max_depth(255)
        assert depth == tables.MAX_DEPTH == 85
        assert len(pack((1,) * depth)) <= 255 < len(pack((1,) * (depth + 1)))

    @given(dewey_parts)
    def test_parent_drops_the_last_component(self, parts):
        expected = pack(parts[:-1]) if len(parts) > 1 else None
        assert parent(pack(parts)) == expected

    @given(dewey_parts, dewey_parts)
    def test_lca_level_is_the_shared_prefix(self, first, second):
        a, b = Dewey(tuple(first)), Dewey(tuple(second))
        assert lca_level(pack(a), pack(b)) == a.common_prefix_length(b) - 1

    @given(dewey_parts, dewey_parts)
    def test_ancestor_or_self_is_startswith(self, first, second):
        a, b = Dewey(tuple(first)), Dewey(tuple(second))
        assert pack(b).startswith(pack(a)) == a.is_ancestor_or_self_of(b)
        assert a.is_ancestor_of(b) == (pack(b).startswith(pack(a)) and a != b)


class TestCompositeKeys:
    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
        dewey_parts,
        dewey_parts,
    )
    def test_node_keys_sort_by_doc_then_dewey(self, doc_a, doc_b, parts_a, parts_b):
        key_a = tables.nodes_prefix(doc_a) + pack(parts_a)
        key_b = tables.nodes_prefix(doc_b) + pack(parts_b)
        if doc_a != doc_b:
            assert (key_a < key_b) == (doc_a < doc_b)
        else:
            assert (key_a < key_b) == (Dewey(tuple(parts_a)) < Dewey(tuple(parts_b)))

    def test_sequence_keys_sort_by_chunk(self):
        keys = [tables.sequence_key(1, 7, chunk) for chunk in range(300)]
        assert keys == sorted(keys)

    def test_keyspaces_disjoint(self):
        prefixes = {
            tables.catalog_key("x")[:1],
            tables.nodes_prefix(0)[:1],
            tables.shape_key(0, 0)[:1],
            tables.sequence_key(0, 0, 0)[:1],
            tables.overflow_key(0, pack((1,)), 0)[:1],
            tables.META_KEY[:1],
        }
        assert len(prefixes) == 6


texts = st.text(max_size=200)


def columns(chunks):
    """``(label, text, is attribute, overflow chunks)`` per entry, as
    :func:`tables.parse_chunk` reads the chunks."""
    labels, values, attributes, overflowed = [], [], bytearray(), {}
    for chunk in chunks:
        tables.parse_chunk(chunk, labels, values, attributes, overflowed)
    return [
        Stored(unpack(label), values[n], bool(attributes[n]), overflowed.get(n, 0))
        for n, label in enumerate(labels)
    ]


class TestRecordCodecs:
    """One codec: what ``encode_node`` writes, ``parse_chunk`` (entries)
    and ``node_head`` / ``node_text`` (values) read back, and the
    updater's byte-level helpers agree with both."""

    @given(dewey_parts, st.integers(min_value=0, max_value=10000), texts, st.booleans())
    def test_node_value_roundtrip(self, parts, type_id, text, is_attribute):
        label = pack(parts)
        value, entry = tables.encode_node(label, type_id, is_attribute, text.encode())
        assert tables.node_head(value) == (type_id, is_attribute, 0)
        assert tables.node_text(None, 0, label, value) == text
        assert columns([entry]) == [Stored(Dewey(tuple(parts)), text, is_attribute, 0)]
        assert tables.node_value(type_id, entry) == value
        assert tables.node_value(type_id + 1, entry) == tables.encode_node(
            label, type_id + 1, is_attribute, text.encode()
        )[0]

    @given(dewey_parts, dewey_parts, texts, st.booleans(), st.integers(0, 3))
    def test_relabel_is_encoding_under_the_other_label(self, old, new, text, attribute, overflow):
        raw = b"" if overflow else text.encode()
        entry = tables.encode_node(pack(old), 7, attribute, raw, overflow)[1]
        assert tables.relabel(entry, pack(new)) == tables.encode_node(
            pack(new), 7, attribute, raw, overflow
        )[1]

    def test_an_overflowed_value_names_its_chunks_and_reads_them(self):
        label = pack((1, 2))
        inline, overflow = tables.split_text(4, label, ("wörd " * 900).encode())
        assert inline == b"" and len(overflow) == 2
        value, entry = tables.encode_node(label, 9, True, inline, len(overflow))
        assert tables.node_head(value) == (9, True, 2)
        assert columns([entry]) == [Stored(Dewey((1, 2)), "", True, 2)]
        assert tables.node_text(dict(overflow), 4, label, value)  # a dict answers get() == "wörd " * 900

    @given(st.lists(st.tuples(dewey_parts, texts), max_size=60))
    def test_sequence_roundtrip(self, entries):
        encoded = [
            (pack(parts), tables.encode_node(pack(parts), 5, False, text.encode())[1])
            for parts, text in entries
        ]
        chunks: list[bytearray] = []
        for _label, entry in encoded:
            tables.append_entry(chunks, entry)
        chunks = [bytes(chunk) for chunk in chunks]
        expected = [Stored(Dewey(tuple(parts)), text, False, 0) for parts, text in entries]
        assert columns(chunks) == expected
        assert list(tables.sequence_entries(_Chunks(chunks), 0, 5)) == encoded
        assert [r for chunk in chunks for r in parent_unpack_sequence(chunk)] == expected

    @given(xml_forests(attributes=True))
    def test_shape_chunks_roundtrip(self, forest):
        builder = DataGuideBuilder()
        walk(forest, builder)
        descriptor = describe_shape(builder)
        chunks = tables.pack_shape(descriptor)
        assert all(0 < len(chunk) <= tables.CHUNK_BYTES for chunk in chunks)
        record = tables.unpack_shape("doc", b"".join(chunks))
        assert record.descriptor() == descriptor
        assert record.type_table.paths == builder.type_table.paths
        assert record.parents == [-1 if above is None else above for above in builder.parent_of]

    def test_shape_names_round_trip_whatever_they_hold(self):
        """A name table is one UTF-8 blob cut by code-point lengths: names
        of several bytes per character, and a lone surrogate (which a
        hand-built forest can hold), come back as they went in."""
        names = ["r", "é·é", "名前", "\ud800x", "a" * 300]
        descriptor = {
            "types": [[0, ["r"]]] + [[i, ["r", name]] for i, name in enumerate(names[1:], 1)],
            "edges": [[0, i, 1, 1] for i in range(1, len(names))],
            "counts": {str(i): 1 for i in range(len(names))},
        }
        raw = b"".join(tables.pack_shape(descriptor))
        assert tables.unpack_shape("doc", raw).descriptor() == descriptor

    def test_a_name_past_two_bytes_of_length_is_refused_before_a_write(self):
        descriptor = {"types": [[0, ["n" * 65536]]], "edges": [], "counts": {"0": 1}}
        with pytest.raises(StorageError, match="at most 65535"):
            tables.pack_shape(descriptor)


# ---------------------------------------------------------------------------
# The one chunk walker, against the decoder it replaced
# ---------------------------------------------------------------------------


class _Chunks:
    """A tree holding one type's sequence chunks and nothing else."""

    def __init__(self, chunks):
        self.chunks = chunks

    def scan_prefix(self, prefix):
        return ((prefix + n.to_bytes(4, "big"), c) for n, c in enumerate(self.chunks))


#: What one entry says about its node.
Stored = namedtuple("Stored", "dewey text is_attribute overflow_chunks")


def parent_unpack_sequence(chunk):
    """``tables.unpack_sequence`` as it was before the chunk walker (one
    ``struct`` call and one ``Dewey`` per entry), kept here as the
    oracle; it yields :class:`Stored` where it built a record."""
    offset = 0
    while offset < len(chunk):
        (dewey_len,) = struct.unpack_from("<B", chunk, offset)
        offset += 1
        data = chunk[offset : offset + dewey_len]
        dewey = Dewey(
            tuple(int.from_bytes(data[o : o + 3], "big") for o in range(0, len(data), 3))
        )
        offset += dewey_len
        flags, extra = struct.unpack_from("<BH", chunk, offset)
        offset += 3
        if flags & 2:
            yield Stored(dewey, "", bool(flags & 1), extra)
        else:
            text = chunk[offset : offset + extra].decode()
            offset += extra
            yield Stored(dewey, text, bool(flags & 1), 0)


LONG = "long text, " * 200  # > INLINE_TEXT bytes: lives in the overflow keyspace
CORPORA = {
    "dblp": lambda: generate_dblp(60),
    "xmark": lambda: generate_xmark(0.002),
    "nasa": lambda: generate_nasa(12),
    "attributes+overflow": lambda: parse_document(
        f'<r id="1" note="{LONG}"><a k="v&amp;w">x</a><a k="">{LONG}</a><b/></r>'
    ),
    "multi-root": lambda: parse_forest(
        '<r k="1"><a>x</a><a><b>y</b></a></r><r><b k="2">z</b></r><s>t</s>'
    ),
}


class TestColumns:
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_stored_columns_equal_in_memory_columns(self, tmp_path, corpus):
        forest = CORPORA[corpus]()
        memory = DocumentIndex(forest)
        with Database(str(tmp_path / "c.db"), durable=False) as db:
            db.store_document("doc", forest)
            db.drop_cache()
            stored = db.index("doc")
            assert len(stored.types()) == len(memory.types())
            for data_type in memory.types():
                ours = stored.nodes_of(stored.type_table.get(data_type.path))
                theirs = memory.nodes_of(data_type)
                assert ours.labels == theirs.labels
                assert ours.values == theirs.values
                assert bytes(ours.attributes) == bytes(theirs.attributes)
                assert [(n.name, n.kind, n.text, n.dewey) for n in ours] == [
                    (n.name, n.kind, n.text, n.dewey) for n in theirs
                ]

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_read_sequence_yields_what_the_old_decoder_yielded(self, tmp_path, corpus):
        """Both readers of a stored sequence — ``sequence_columns`` for
        the index, ``sequence_entries`` for the updater — against the
        decoder they replaced."""
        with Database(str(tmp_path / "c.db"), durable=False) as db:
            db.store_document("doc", CORPORA[corpus]())
            index = db.index("doc")
            overflowed = 0
            for data_type in index.types():
                chunks = tables.load_chunks(
                    db.tree, tables.sequence_prefix(index.doc_id, data_type.type_id)
                )
                expected = [r for chunk in chunks for r in parent_unpack_sequence(chunk)]
                assert columns(chunks) == expected
                pairs = list(tables.sequence_entries(db.tree, index.doc_id, data_type.type_id))
                assert [unpack(label) for label, _entry in pairs] == [r.dewey for r in expected]
                assert columns(entry for _label, entry in pairs) == expected
                assert b"".join(entry for _label, entry in pairs) == b"".join(chunks)
                overflowed += sum(1 for record in expected if record.overflow_chunks)
            assert (overflowed > 0) == (corpus == "attributes+overflow")
