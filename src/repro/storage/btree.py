"""A B+tree ordered key-value store over the buffer pool.

This is the reproduction's stand-in for BerkeleyDB JE: an embedded,
ordered map from byte-string keys to byte-string values, stored in
fixed-size pages.  Leaves are chained for range scans; internal nodes
hold separator keys.  Deletes are lazy (no rebalancing — the paper's
workload is write-once shredding followed by scans, and lazy deletion
keeps the code honest and small).

There is one insert algorithm, :meth:`BPlusTree.put_many`: a *run* of
entries in ascending key order descends the tree once, each page on the
way is decoded once per run and written at most once, and a node that
outgrew its page is cut into the fewest pages that hold it, evenly
filled — two halves for one entry too many, packed pages for a long
run.  ``put`` is a run of one.  The shredder's Dewey keys, whose byte
order is document order, arrive as exactly such runs.  Reads descend
through internal nodes decoded once per residency of their page: the
buffer pool keeps each one beside its frame until the frame is
evicted or rewritten.

Values must fit in a page (callers chunk large values; see
:mod:`repro.storage.tables`).  Page 0 of the file is the tree's meta
page holding the root pointer.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Optional

from repro.errors import StorageError
from repro.storage.pages import PAGE_SIZE, BufferPool

_LEAF, _INTERNAL = 0, 1
_NO_PAGE = 0xFFFFFFFF
_META_MAGIC = b"XMBT"
_HEADER = struct.Struct("<BHI")  # node type, entry count, next/child0
_META = struct.Struct("<4sI")  # magic, root page
#: Every ``<H`` length a page can hold, encoded.
_U16 = tuple(length.to_bytes(2, "little") for length in range(PAGE_SIZE))
_ZEROES = memoryview(bytes(PAGE_SIZE))

#: Largest key+value a single entry may occupy (one entry must fit a page).
MAX_ENTRY = PAGE_SIZE - 64


class BPlusTree:
    """An ordered map ``bytes -> bytes`` with range scans."""

    def __init__(self, pool: BufferPool):
        self.pool = pool
        #: This handle allocated the file's first pages; until its first
        #: flush the meta record exists only in the pool.
        self._created = self.pool.file.page_count == 0
        if self._created:
            meta = self.pool.allocate()
            assert meta == 0
            self._write_empty_root(self.pool.allocate())
        else:
            self._read_meta()

    # -- meta --------------------------------------------------------------

    def _read_meta(self) -> None:
        magic, root = _META.unpack_from(self.pool.get(0), 0)
        if magic != _META_MAGIC:
            raise StorageError("not an XMorph B+tree file")
        self._root = root

    def _write_empty_root(self, page_id: int) -> None:
        _write_node(self.pool, page_id, _Node(_LEAF, _NO_PAGE, [], []))
        self._set_root(page_id)

    def rollback(self) -> None:
        """Forget every staged (never-flushed) page: back to the disk state.

        On a file this handle created and has not flushed yet, the disk
        state is two pages of zeroes, so the tree returns to what
        ``__init__`` made of them: empty.
        """
        self.pool.discard()
        if self._created and not any(self.pool.get(0)[: _META.size]):
            self._write_empty_root(1)
        else:
            self._read_meta()

    def _set_root(self, page_id: int) -> None:
        self._root = page_id
        buffer = self.pool.get(0)
        _META.pack_into(buffer, 0, _META_MAGIC, page_id)
        self.pool.mark_dirty(0)

    # -- reads ----------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        node, _path = self._descend(key)
        index = bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            return node.values[index]
        return None

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def scan(
        self, start: bytes = b"", stop: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """All entries with ``start <= key < stop`` in key order."""
        node, _path = self._descend(start)
        index = bisect_left(node.keys, start)
        while True:
            while index < len(node.keys):
                key = node.keys[index]
                if stop is not None and key >= stop:
                    return
                yield key, node.values[index]
                index += 1
            if node.next_leaf == _NO_PAGE:
                return
            node = _read_node(self.pool, node.next_leaf)
            index = 0

    def scan_prefix(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """All entries whose key starts with ``prefix``."""
        stop = _prefix_upper_bound(prefix)
        for key, value in self.scan(prefix, stop):
            yield key, value

    def last_before(self, bound: Optional[bytes]) -> Optional[tuple[bytes, bytes]]:
        """The entry with the greatest key below ``bound`` (``None``: the
        greatest key of all), or ``None`` when no key lies below it.

        One descent toward ``bound``: leaves are chained forward only, so
        when the leaf it reaches holds no smaller key — lazy deletes may
        have emptied it — the search steps back to the previous child of
        the nearest ancestor that has one and follows its rightmost spine.
        """
        reads = 0

        def search(page_id: int) -> Optional[tuple[bytes, bytes]]:
            nonlocal reads
            reads += 1
            node = _resident_node(self.pool, page_id)
            keys = node.keys
            index = len(keys) if bound is None else bisect_left(keys, bound)
            if node.kind == _LEAF:
                return (keys[index - 1], node.values[index - 1]) if index else None
            # Child ``index`` spans [keys[index-1], keys[index]) and so may
            # hold keys below ``bound``; every later child holds none.
            for child in range(index, -1, -1):
                found = search(node.values[child - 1] if child else node.child0)
                if found is not None:
                    return found
            return None

        with self.pool.locked():
            found = search(self._root)
        self.pool.stats.count("btree.page_reads", reads)
        return found

    def last_with_prefix(self, prefix: bytes) -> Optional[tuple[bytes, bytes]]:
        """The entry with the greatest key starting with ``prefix``."""
        found = self.last_before(_prefix_upper_bound(prefix))
        if found is None or not found[0].startswith(prefix):
            return None
        return found

    def count(self) -> int:
        return sum(1 for _ in self.scan())

    # -- integrity ---------------------------------------------------------

    def check(self) -> list[str]:
        """Structural invariants, as human-readable problem strings.

        Used by ``xmorph fsck``: walks every page reachable from the
        root, verifying child pointers stay in range, keys are sorted
        within each node, no page is reached twice, and the leaf chain
        visits the leaves in exactly tree order.  An empty list means
        the tree is structurally sound (page *contents* are already
        covered by the CRC-32 trailers).
        """
        problems: list[str] = []
        page_count = self.pool.file.page_count
        seen: set[int] = set()
        tree_order_leaves: list[int] = []

        def walk(page_id: int, depth: int) -> None:
            if depth > 64:
                problems.append(f"page {page_id}: descent deeper than 64 (cycle?)")
                return
            if page_id in seen:
                problems.append(f"page {page_id} reachable twice")
                return
            seen.add(page_id)
            try:
                node = _read_node(self.pool, page_id)
            except Exception as error:  # checksum / decode failures
                problems.append(f"page {page_id} unreadable: {error}")
                return
            for left, right in zip(node.keys, node.keys[1:]):
                if left >= right:
                    problems.append(f"page {page_id}: keys out of order")
                    break
            if node.kind == _INTERNAL:
                for child in [node.child0] + node.values:
                    if not 0 <= child < page_count:
                        problems.append(
                            f"page {page_id}: child pointer {child} out of range"
                        )
                        continue
                    walk(child, depth + 1)
            else:
                tree_order_leaves.append(page_id)

        if not 0 < self._root < page_count:
            return [f"root pointer {self._root} out of range (0..{page_count - 1})"]
        walk(self._root, 0)

        # The next-leaf chain must thread the leaves in tree order.
        chain: list[int] = []
        page_id = tree_order_leaves[0] if tree_order_leaves else _NO_PAGE
        while page_id != _NO_PAGE and len(chain) <= len(tree_order_leaves):
            chain.append(page_id)
            try:
                node = _read_node(self.pool, page_id)
            except Exception:
                break  # already reported by the walk above
            page_id = node.next_leaf
        if chain != tree_order_leaves:
            problems.append(
                f"leaf chain {chain} does not match tree order {tree_order_leaves}"
            )
        return problems

    # -- writes ----------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or replace one entry: a run of length one."""
        self.put_many(((key, value),))

    def put_many(self, items: Iterable[tuple[bytes, bytes]]) -> None:
        """Insert or replace a run of entries in strictly ascending key order.

        The whole run is validated before the first page is touched: an
        oversized entry or a key that does not sort after its
        predecessor raises :class:`~repro.errors.StorageError` and
        leaves the tree as it was.  The run then descends once — every
        page on the way is decoded once per *run*, not per key — inside
        one :meth:`BufferPool.writing` section: an in-process reader (a
        :class:`~repro.serve.TransformPool` worker descending the tree)
        never observes a half-finished split, and no journal batch is
        cut between a split and the parent rewrite that completes it.
        """
        run = list(items)
        previous = None
        for key, value in run:
            if len(key) + len(value) > MAX_ENTRY:
                raise StorageError(
                    f"entry too large ({len(key)}+{len(value)} bytes > {MAX_ENTRY})"
                )
            if previous is not None and key <= previous:
                raise StorageError(
                    f"run not in strictly ascending key order at {key!r}"
                )
            previous = key
        if not run:
            return
        with self.pool.writing():
            promotions, _end = self._insert_run(self._root, run, 0, None)
            while promotions:
                old_root = self._root
                new_root = self.pool.allocate()
                node = _Node(
                    _INTERNAL,
                    old_root,
                    [separator for separator, _ in promotions],
                    [page for _, page in promotions],
                )
                promotions = self._store_with_split(new_root, node)
                self._set_root(new_root)

    def delete(self, key: bytes) -> bool:
        """Remove a key (lazy: leaves may become sparse)."""
        with self.pool.writing():
            node, path = self._descend(key)
            index = bisect_left(node.keys, key)
            if index >= len(node.keys) or node.keys[index] != key:
                return False
            del node.keys[index]
            del node.values[index]
            _write_node(self.pool, path[-1], node)
            return True

    # -- descent -----------------------------------------------------------------

    def _descend(self, key: bytes) -> tuple["_Node", list[int]]:
        """The leaf responsible for ``key`` plus the page-id path to it.

        The whole root-to-leaf walk holds the pool lock, so a concurrent
        in-process writer's split can never be observed mid-way (child
        pointers always resolve against a consistent tree).  ``scan``
        continues leaf-to-leaf outside the lock: :func:`_read_node`
        copies each leaf's frame under the lock and decodes the copy, so
        a leaf is read atomically and the iterator never aliases a
        buffer a writer might rewrite.  Internal nodes are the pool's
        shared decodes (:func:`_resident_node`), which nothing mutates.
        """
        with self.pool.locked():
            page_id = self._root
            path = [page_id]
            node = _resident_node(self.pool, page_id)
            while node.kind == _INTERNAL:
                page_id = node.child_for(key)
                path.append(page_id)
                node = _resident_node(self.pool, page_id)
        # Logical page reads (the pool decides physical vs cached).
        self.pool.stats.count("btree.page_reads", len(path))
        return node, path

    def _insert_run(
        self, page_id: int, run: list, start: int, upper: Optional[bytes]
    ) -> tuple[list[tuple[bytes, int]], int]:
        """Merge ``run[start:]`` into the subtree at ``page_id``, up to ``upper``.

        Consumes every entry whose key is below ``upper`` (the page's
        upper separator; ``None`` on the rightmost spine) and returns
        the promotions for the parent plus the index of the first entry
        left over.  Each page is decoded once and written at most once.
        The decode is private, never the pool's shared one: the run
        edits the node's lists in place.
        """
        node = _read_node(self.pool, page_id)
        keys, values = node.keys, node.values
        position = start
        if node.kind == _LEAF:
            while position < len(run):
                key, value = run[position]
                if upper is not None and key >= upper:
                    break
                if not keys or key > keys[-1]:
                    keys.append(key)
                    values.append(value)
                else:
                    index = bisect_left(keys, key)
                    if keys[index] == key:
                        values[index] = value
                    else:
                        keys.insert(index, key)
                        values.insert(index, value)
                position += 1
            return self._store_with_split(page_id, node), position
        changed = False
        while position < len(run):
            key = run[position][0]
            if upper is not None and key >= upper:
                break
            # The child responsible for ``key`` and the separator above it;
            # promotions from the child all sort below that separator, so
            # they land at ``index`` and the next key looks to their right.
            index = bisect_right(keys, key)
            child = values[index - 1] if index else node.child0
            child_upper = keys[index] if index < len(keys) else upper
            promotions, position = self._insert_run(child, run, position, child_upper)
            if promotions:
                keys[index:index] = [separator for separator, _ in promotions]
                values[index:index] = [page for _, page in promotions]
                changed = True
        if not changed:
            return [], position
        return self._store_with_split(page_id, node), position

    def _store_with_split(self, page_id: int, node: "_Node") -> list[tuple[bytes, int]]:
        """Write ``node``, splitting into as many pages as needed.

        The cuts are placed from the entries' sizes, which their key and
        value lengths give (:func:`_entry_sizes`), and each page encodes
        only its own slice of the entries as it is written, so a merged
        run is never held encoded whole.  Returns the separators/pages
        to insert into the parent (see :func:`_partition` for where the
        cuts fall).
        """
        sizes = _entry_sizes(node)
        if _HEADER.size + sum(sizes) <= PAGE_SIZE:
            _write_node(self.pool, page_id, node)
            return []
        cuts = _partition(node.kind, sizes)
        self.pool.stats.count("btree.splits")
        keys, values = node.keys, node.values
        bounds = list(zip(cuts, cuts[1:] + [len(keys)]))
        promotions: list[tuple[bytes, int]] = []
        if node.kind == _LEAF:
            pages = [page_id] + [self.pool.allocate() for _ in cuts[1:]]
            links = pages[1:] + [node.next_leaf]
            for page, link, (start, stop) in zip(pages, links, bounds):
                _write_node(
                    self.pool, page, _Node(_LEAF, link, keys[start:stop], values[start:stop])
                )
                if start:
                    promotions.append((keys[start], page))
        else:
            # Between internal groups the first key of each later group
            # moves up as the separator and its child pointer becomes
            # that group's leftmost child.
            start, stop = bounds[0]
            _write_node(
                self.pool,
                page_id,
                _Node(_INTERNAL, node.child0, keys[start:stop], values[start:stop]),
            )
            for start, stop in bounds[1:]:
                right_page = self.pool.allocate()
                right = _Node(
                    _INTERNAL, values[start], keys[start + 1 : stop], values[start + 1 : stop]
                )
                _write_node(self.pool, right_page, right)
                promotions.append((keys[start], right_page))
        return promotions


class _Node:
    """A deserialized page: leaf values are bytes, internal values are page ids."""

    __slots__ = ("kind", "child0", "next_leaf", "keys", "values")

    def __init__(self, kind: int, link: int, keys: list, values: list):
        self.kind = kind
        # For leaves `link` is the next-leaf pointer; for internal nodes
        # it is the leftmost child.
        if kind == _LEAF:
            self.next_leaf = link
            self.child0 = _NO_PAGE
        else:
            self.child0 = link
            self.next_leaf = _NO_PAGE
        self.keys = keys
        self.values = values

    @property
    def link(self) -> int:
        return self.next_leaf if self.kind == _LEAF else self.child0

    def child_for(self, key: bytes) -> int:
        index = bisect_right(self.keys, key)
        return self.values[index - 1] if index else self.child0


def _partition(kind: int, sizes: list[int]) -> list[int]:
    """Cut an oversized node's entries into groups that each fit a page.

    ``sizes`` are the entries' encoded lengths; the result is the index
    of each group's first entry.  The fewest pages that hold the
    entries, filled evenly: a node one entry over splits into halves
    (the classic B+tree split, leaving both sides room), a node many
    pages over — a sorted run merged into one leaf — into pages that
    are each nearly full.  Entries are variable-length, so the cut is
    greedy and a large entry may force one more group; each group fits
    because a single entry always does.
    """
    total = sum(sizes)
    pages = -(-total // (PAGE_SIZE - _HEADER.size))
    target = _HEADER.size + total // pages
    cuts = [0]
    size = _HEADER.size
    for index, entry in enumerate(sizes):
        if index > cuts[-1] and (size + entry > PAGE_SIZE or size >= target):
            cuts.append(index)
            size = _HEADER.size
        size += entry
    # An internal group needs at least one key left after its first key
    # is promoted as the separator; rebalance a degenerate tail group by
    # stealing an entry from its neighbour, or fold it into a neighbour
    # that has none to spare.
    if kind == _INTERNAL and len(cuts) > 1 and len(sizes) - cuts[-1] < 2:
        if cuts[-1] - cuts[-2] >= 2:
            cuts[-1] -= 1
        else:
            cuts.pop()
    return cuts


def _resident_node(pool: BufferPool, page_id: int) -> _Node:
    """The node on ``page_id``, for reading only.

    An internal node is decoded once per residency of its page and then
    shared from the pool (:meth:`BufferPool.remember`), frozen into
    tuples so that no writer can edit it in place; a leaf, which a
    caller may edit and which holds the values, is decoded every time.
    """
    with pool.lock:
        node = pool.decoded(page_id)
        if node is None:
            node = _read_node(pool, page_id)
            if node.kind == _INTERNAL:
                node.keys, node.values = tuple(node.keys), tuple(node.values)
                pool.remember(page_id, node)
        return node


def _read_node(pool: BufferPool, page_id: int) -> _Node:
    """Decode the page into a private :class:`_Node`.

    The frame is copied once, under the pool lock, so a writer in
    another thread can never rewrite it mid-decode; keys and values are
    slices of that copy, and every length and child id is read by index
    arithmetic (the format is in :func:`_encode_entries`).
    """
    with pool.lock:
        page = bytes(pool.get(page_id))
    kind, count, link = _HEADER.unpack_from(page, 0)
    keys: list[bytes] = []
    values: list = []
    offset = _HEADER.size
    if kind == _LEAF:
        for _ in range(count):
            end = offset + 2 + (page[offset] | page[offset + 1] << 8)
            keys.append(page[offset + 2 : end])
            offset = end + 2 + (page[end] | page[end + 1] << 8)
            values.append(page[end + 2 : offset])
    else:
        for _ in range(count):
            end = offset + 2 + (page[offset] | page[offset + 1] << 8)
            keys.append(page[offset + 2 : end])
            offset = end + 4
            values.append(int.from_bytes(page[end:offset], "little"))
    if offset > PAGE_SIZE:
        raise StorageError(f"page {page_id}: {count} entries overrun the page")
    return _Node(kind, link, keys, values)


def _encode_entries(node: _Node) -> list[bytes]:
    """Each entry of ``node`` as the bytes it occupies on its page.

    A page is a ``<BHI`` header (kind, entry count, link) followed by
    its entries: a leaf entry is a ``<H`` key length, the key, a ``<H``
    value length and the value; an internal entry is a ``<H`` key
    length, the key and a ``<I`` child page id.  A key or value of a
    page or more raises :class:`~repro.errors.StorageError`.
    """
    join = b"".join
    try:
        if node.kind == _LEAF:
            return [
                join((_U16[len(key)], key, _U16[len(value)], value))
                for key, value in zip(node.keys, node.values)
            ]
        return [
            join((_U16[len(key)], key, child.to_bytes(4, "little")))
            for key, child in zip(node.keys, node.values)
        ]
    except IndexError:
        raise StorageError("an entry of a page or more does not fit a page") from None


def _entry_sizes(node: _Node) -> list[int]:
    """Each entry's length on its page, from its key and value lengths:
    ``4 + key + value`` bytes in a leaf, ``6 + key`` in an internal node
    (the format is in :func:`_encode_entries`).  An entry that does not
    fit a page on its own raises :class:`~repro.errors.StorageError`,
    so a split refuses it before any page is written."""
    if node.kind == _LEAF:
        sizes = [4 + len(key) + len(value) for key, value in zip(node.keys, node.values)]
    else:
        sizes = [6 + len(key) for key in node.keys]
    if sizes and _HEADER.size + max(sizes) > PAGE_SIZE:
        raise StorageError(f"a {max(sizes)}-byte entry does not fit a page")
    return sizes


def _write_node(pool: BufferPool, page_id: int, node: _Node) -> None:
    _store_page(pool, page_id, node.kind, node.link, _encode_entries(node))


def _store_page(
    pool: BufferPool, page_id: int, kind: int, link: int, entries: list[bytes]
) -> None:
    """Write a header and encoded ``entries`` over the page, zero-padded.

    A node that does not fit raises :class:`~repro.errors.StorageError`
    before the frame is touched."""
    page = b"".join((_HEADER.pack(kind, len(entries), link), *entries))
    size = len(page)
    if size > PAGE_SIZE:
        raise StorageError(f"page {page_id}: a {size}-byte node does not fit a page")
    with pool.lock:
        frame = pool.get(page_id)
        frame[:size] = page
        frame[size:] = _ZEROES[size:]
        pool.mark_dirty(page_id)


def _prefix_upper_bound(prefix: bytes) -> Optional[bytes]:
    """The smallest byte string greater than every ``prefix``-keyed string."""
    mutable = bytearray(prefix)
    while mutable:
        if mutable[-1] != 0xFF:
            mutable[-1] += 1
            return bytes(mutable)
        mutable.pop()
    return None
