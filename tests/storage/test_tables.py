"""Property tests for the table key/record codecs.

The critical invariant: every key encoding must preserve the order the
scans rely on — Dewey byte order is document order, and each keyspace's
composite keys sort by their components.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import tables
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import NodeKind

dewey_parts = st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=6)


class TestDeweyEncoding:
    @given(dewey_parts)
    def test_roundtrip(self, parts):
        dewey = Dewey(tuple(parts))
        assert tables.decode_dewey(tables.encode_dewey(dewey)) == dewey

    @given(dewey_parts, dewey_parts)
    def test_byte_order_is_document_order(self, first, second):
        a, b = Dewey(tuple(first)), Dewey(tuple(second))
        assert (tables.encode_dewey(a) < tables.encode_dewey(b)) == (a < b)

    def test_component_limit_enforced(self):
        with pytest.raises(StorageError):
            tables.encode_dewey(Dewey((1 << 24,)))

    def test_component_limit_boundary(self):
        boundary = Dewey(((1 << 24) - 1,))
        assert tables.decode_dewey(tables.encode_dewey(boundary)) == boundary


class TestCompositeKeys:
    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
        dewey_parts,
        dewey_parts,
    )
    def test_node_keys_sort_by_doc_then_dewey(self, doc_a, doc_b, parts_a, parts_b):
        key_a = tables.node_key(doc_a, Dewey(tuple(parts_a)))
        key_b = tables.node_key(doc_b, Dewey(tuple(parts_b)))
        if doc_a != doc_b:
            assert (key_a < key_b) == (doc_a < doc_b)
        else:
            assert (key_a < key_b) == (Dewey(tuple(parts_a)) < Dewey(tuple(parts_b)))

    def test_sequence_keys_sort_by_chunk(self):
        keys = [tables.sequence_key(1, 7, chunk) for chunk in range(300)]
        assert keys == sorted(keys)

    def test_keyspaces_disjoint(self):
        dewey = Dewey((1,))
        prefixes = {
            tables.catalog_key("x")[:1],
            tables.node_key(0, dewey)[:1],
            tables.shape_key(0, 0)[:1],
            tables.sequence_key(0, 0, 0)[:1],
            tables.overflow_key(0, dewey, 0)[:1],
            tables.META_KEY[:1],
        }
        assert len(prefixes) == 6


texts = st.text(max_size=200)


class TestRecordCodecs:
    @given(dewey_parts, st.integers(min_value=0, max_value=10000), texts, st.booleans())
    def test_node_value_roundtrip(self, parts, type_id, text, is_attribute):
        record = tables.NodeRecord(
            Dewey(tuple(parts)),
            type_id,
            NodeKind.ATTRIBUTE if is_attribute else NodeKind.ELEMENT,
            text,
        )
        decoded = tables.decode_node_value(
            record.dewey, tables.encode_node_value(record)
        )
        assert decoded == record

    @given(st.lists(st.tuples(dewey_parts, texts), max_size=60))
    def test_sequence_roundtrip(self, entries):
        records = [
            tables.NodeRecord(Dewey(tuple(parts)), 5, NodeKind.ELEMENT, text)
            for parts, text in entries
        ]
        chunks = list(tables.pack_sequence(records))
        unpacked = [r for chunk in chunks for r in tables.unpack_sequence(5, chunk)]
        assert unpacked == records

    @given(st.dictionaries(st.text(max_size=10), st.integers(), max_size=20))
    def test_shape_chunks_roundtrip(self, mapping):
        chunks = tables.encode_shape(mapping)
        assert tables.decode_shape(chunks) == mapping
