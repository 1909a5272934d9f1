"""The B+tree node codec as it was before the one-copy decoder and the
one-join encoder: one ``struct`` call and one slice per key and per
value, straight on the frame.  Kept as the oracle the live codec
(``repro.storage.btree._read_node`` / ``_write_node``) must match byte
for byte.
"""

import struct

from repro.storage.btree import _LEAF, _Node
from repro.storage.pages import PAGE_SIZE

_HEADER = struct.Struct("<BHI")  # node type, entry count, next/child0


def parent_read_node(buffer) -> _Node:
    """Decode a page's bytes into a :class:`_Node`."""
    kind, count, link = _HEADER.unpack_from(buffer, 0)
    offset = _HEADER.size
    keys: list[bytes] = []
    values: list = []
    for _ in range(count):
        (key_len,) = struct.unpack_from("<H", buffer, offset)
        offset += 2
        keys.append(bytes(buffer[offset : offset + key_len]))
        offset += key_len
        if kind == _LEAF:
            (val_len,) = struct.unpack_from("<H", buffer, offset)
            offset += 2
            values.append(bytes(buffer[offset : offset + val_len]))
            offset += val_len
        else:
            (child,) = struct.unpack_from("<I", buffer, offset)
            offset += 4
            values.append(child)
    return _Node(kind, link, keys, values)


def parent_write_node(buffer: bytearray, node: _Node) -> None:
    """Encode ``node`` over a page's bytes, zero-padded."""
    link = node.next_leaf if node.kind == _LEAF else node.child0
    _HEADER.pack_into(buffer, 0, node.kind, len(node.keys), link)
    offset = _HEADER.size
    for key, value in zip(node.keys, node.values):
        struct.pack_into("<H", buffer, offset, len(key))
        offset += 2
        buffer[offset : offset + len(key)] = key
        offset += len(key)
        if node.kind == _LEAF:
            struct.pack_into("<H", buffer, offset, len(value))
            offset += 2
            buffer[offset : offset + len(value)] = value
            offset += len(value)
        else:
            struct.pack_into("<I", buffer, offset, value)
            offset += 4
    buffer[offset:] = bytes(PAGE_SIZE - offset)
