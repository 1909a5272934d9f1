"""The on-disk format and the checksum that seals it.

Every on-disk page slot is the 4096-byte payload followed by an 8-byte
trailer::

    payload (PAGE_SIZE bytes) | magic "XPG3" | crc32 u32 LE

The checksum covers the payload *plus the page id*, so a page written
to the wrong offset (a misdirected write — the checksum would otherwise
still match) fails verification too.  The write-ahead journal
(:mod:`repro.storage.journal`) seals its batch with the same checksum
under :data:`JOURNAL_MAGIC`.

The algorithm is CRC-32 (IEEE 802.3, the one gzip and PNG use) because
``zlib.crc32`` computes it in C over any buffer — about a microsecond
per page, paid only at physical I/O (buffer-pool hits never touch it).
Both magics name it: changing the algorithm means bumping them here,
and a store under another version of them is refused
(:class:`FormatError`), never migrated.
"""

from __future__ import annotations

import struct
import zlib

from repro.errors import ChecksumError, FormatError

#: The one checksum behind every seal: ``crc32(data, crc=0) -> int``.
crc32 = zlib.crc32

TRAILER_MAGIC = b"XPG3"
JOURNAL_MAGIC = b"XMJ3"
_TRAILER = struct.Struct("<4sI")
TRAILER_SIZE = _TRAILER.size


def page_crc(page_id: int, payload) -> int:
    """CRC-32 over the payload then the page id (catches misdirection)."""
    return crc32(page_id.to_bytes(4, "little"), crc32(payload))


def seal_page(page_id: int, payload) -> bytes:
    """The payload with its trailer appended: one on-disk slot."""
    return b"".join((payload, _TRAILER.pack(TRAILER_MAGIC, page_crc(page_id, payload))))


def verify_page(path: str, page_id: int, slot):
    """Split a slot (any buffer) into its payload, raising
    :class:`ChecksumError` when the trailer magic or CRC does not match
    the contents.  The payload is a slice of ``slot``.

    A trailer that names another version of the format (``XPG2``) is a
    :class:`FormatError` instead: that page is not damaged, it was
    written by another build.  Any other wrong magic is damage."""
    payload = slot[:-TRAILER_SIZE]
    magic, stored = _TRAILER.unpack_from(slot, len(payload))
    if magic != TRAILER_MAGIC and magic[:3] == TRAILER_MAGIC[:3]:
        found, ours = magic.decode(errors="replace"), TRAILER_MAGIC.decode()
        raise FormatError(path, f"has a {found!r} trailer on page {page_id}, not {ours!r}")
    computed = page_crc(page_id, payload)
    if magic != TRAILER_MAGIC or stored != computed:
        raise ChecksumError(path, page_id, stored, computed)
    return payload
