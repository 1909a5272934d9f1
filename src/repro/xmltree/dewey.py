"""Dewey (prefix-based) node identifiers.

Section VII of the paper numbers every node with a prefix-based level
number (a.k.a. Dewey order / DeweyID).  The root of a document is ``1``;
its k-th child is ``1.k``; that child's j-th child is ``1.k.j`` and so on.
Two properties make these numbers the workhorse of the closest join:

* lexicographic order on the component tuples is document order, and
* the least common ancestor of two nodes is identified by the longest
  common prefix of their numbers, so the tree distance between nodes
  ``v`` and ``w`` is ``level(v) + level(w) - 2 * level(lca(v, w))``
  without touching the tree at all.

The second half of the module is the *packed* form of the same numbers:
a **label** is a Dewey number as ``bytes``, each component a fixed
:data:`COMPONENT_BYTES` big-endian, which is what the store keeps and
what a loaded type sequence holds per node.  Both properties survive
the packing — byte order on labels is document order, and ancestor-of
is ``startswith`` — so the closest join runs on labels and never builds
a :class:`Dewey`.  The label functions below are the only code that
knows the component width: nothing outside this module slices a label
or imports :data:`COMPONENT_BYTES`.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator, Optional

from repro.errors import StorageError


@total_ordering
class Dewey:
    """An immutable Dewey identifier, e.g. ``Dewey.parse("1.2.3")``.

    ``level`` is the depth of the node: the root ``1`` is at level 0, its
    children at level 1, etc. (``level == len(components) - 1``).
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: tuple[int, ...]):
        if not parts:
            raise ValueError("a Dewey identifier needs at least one component")
        if any(p < 1 for p in parts):
            raise ValueError(f"Dewey components must be positive: {parts}")
        self._parts = parts

    # -- construction ---------------------------------------------------

    @classmethod
    def root(cls, ordinal: int = 1) -> "Dewey":
        """The identifier of a document (or forest member) root."""
        return cls((ordinal,))

    @classmethod
    def parse(cls, text: str) -> "Dewey":
        """Parse the dotted form used throughout the paper, e.g. ``"1.1.3"``."""
        try:
            parts = tuple(int(piece) for piece in text.split("."))
        except ValueError as exc:
            raise ValueError(f"invalid Dewey identifier {text!r}") from exc
        return cls(parts)

    def child(self, ordinal: int) -> "Dewey":
        """The identifier of this node's ``ordinal``-th child (1-based)."""
        if ordinal < 1:
            raise ValueError(f"Dewey components must be positive: {ordinal}")
        # This number's own components were checked when it was built.
        child = Dewey.__new__(Dewey)
        child._parts = self._parts + (ordinal,)
        return child

    # -- structure ------------------------------------------------------

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def level(self) -> int:
        """Tree depth: 0 for a root."""
        return len(self._parts) - 1

    @property
    def parent(self) -> "Dewey | None":
        """The parent identifier, or ``None`` for a root."""
        if len(self._parts) == 1:
            return None
        return Dewey(self._parts[:-1])

    def ancestor_at_level(self, level: int) -> "Dewey":
        """The ancestor-or-self identifier at the given level."""
        if level < 0 or level > self.level:
            raise ValueError(f"no ancestor of {self} at level {level}")
        return Dewey(self._parts[: level + 1])

    def prefix(self, length: int) -> tuple[int, ...]:
        """The first ``length`` components (used as a join/group key)."""
        return self._parts[:length]

    def is_ancestor_of(self, other: "Dewey") -> bool:
        """Proper-ancestor test via prefix containment."""
        return (
            len(self._parts) < len(other._parts)
            and other._parts[: len(self._parts)] == self._parts
        )

    def is_ancestor_or_self_of(self, other: "Dewey") -> bool:
        return other._parts[: len(self._parts)] == self._parts

    # -- distance (the basis of the closest join) -----------------------

    def common_prefix_length(self, other: "Dewey") -> int:
        """Number of leading components shared with ``other``."""
        count = 0
        for mine, theirs in zip(self._parts, other._parts):
            if mine != theirs:
                break
            count += 1
        return count

    def lca(self, other: "Dewey") -> "Dewey | None":
        """Least common ancestor, or ``None`` when the roots differ.

        In a forest, nodes under different roots share no ancestor.
        """
        shared = self.common_prefix_length(other)
        if shared == 0:
            return None
        return Dewey(self._parts[:shared])

    def distance(self, other: "Dewey") -> int | None:
        """Tree distance (edge count) to ``other``; ``None`` across roots.

        This is the paper's ``distance(D, v, w)`` computed purely from the
        identifiers: ``level(v) + level(w) - 2 * level(lca)``.
        """
        shared = self.common_prefix_length(other)
        if shared == 0:
            return None
        lca_level = shared - 1
        return (self.level - lca_level) + (other.level - lca_level)

    # -- protocol -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Dewey) and self._parts == other._parts

    def __lt__(self, other: "Dewey") -> bool:
        # Tuple comparison on the components *is* document order for
        # tree nodes numbered in sibling order.
        return self._parts < other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __str__(self) -> str:
        return ".".join(str(part) for part in self._parts)

    def __repr__(self) -> str:
        return f"Dewey({self})"


# ---------------------------------------------------------------------------
# Packed labels
# ---------------------------------------------------------------------------

#: Bytes per packed component; a ``width``-component prefix of a label
#: is its first ``width * COMPONENT_BYTES`` bytes.
COMPONENT_BYTES = 3
#: Largest ordinal a packed component holds.
COMPONENT_MAX = (1 << (8 * COMPONENT_BYTES)) - 1


def max_depth(label_bytes: int) -> int:
    """Components of the deepest label that fits in ``label_bytes`` bytes."""
    return label_bytes // COMPONENT_BYTES


def pack(parts: Iterable[int]) -> bytes:
    """The label of a Dewey number (a :class:`Dewey` or its components)."""
    try:
        return b"".join([part.to_bytes(COMPONENT_BYTES, "big") for part in parts])
    except OverflowError:
        raise StorageError(
            f"Dewey component in {tuple(parts)} exceeds storage limit {COMPONENT_MAX}"
        ) from None


def unpack(label: bytes) -> Dewey:
    """The :class:`Dewey` a label packs."""
    return Dewey(_components(label))


def _components(label: bytes) -> tuple[int, ...]:
    return tuple(
        int.from_bytes(label[offset : offset + COMPONENT_BYTES], "big")
        for offset in range(0, len(label), COMPONENT_BYTES)
    )


def child(label: bytes, ordinal: int) -> bytes:
    """The label of the ``ordinal``-th child (1-based) of the node
    labelled ``label`` — of the forest itself when ``label`` is empty:
    ``pack(parts + (ordinal,))``, one component appended."""
    try:
        return label + ordinal.to_bytes(COMPONENT_BYTES, "big")
    except OverflowError:
        raise StorageError(
            f"Dewey component in {_components(label) + (ordinal,)} exceeds "
            f"storage limit {COMPONENT_MAX}"
        ) from None


def prefix(label: bytes, width: int) -> bytes:
    """The label of the first ``width`` components (``pack(parts[:width])``):
    the ancestor-or-self at level ``width - 1``, and the closest join's
    group key.  A label with fewer components comes back whole."""
    return label[: width * COMPONENT_BYTES]


def prefixes(labels: list[bytes], width: int) -> list[Optional[bytes]]:
    """A label column's ``width``-component prefixes — the closest join's
    group key per node — with ``None`` where the node is shallower than
    ``width`` (it has no ancestor-or-self at that level)."""
    stop = width * COMPONENT_BYTES
    return [label[:stop] if len(label) >= stop else None for label in labels]


def parent(label: bytes) -> Optional[bytes]:
    """The parent's label, or ``None`` for a root."""
    return label[:-COMPONENT_BYTES] if len(label) > COMPONENT_BYTES else None


def parents(labels: Iterable[bytes]) -> list[bytes]:
    """Each label's parent's label, ``b""`` (the forest) for a root: the
    column a per-parent child count groups by."""
    return [label[:-COMPONENT_BYTES] for label in labels]


def child_ordinal(label: bytes, parent: bytes) -> int:
    """The ordinal of the child of ``parent`` that is the node labelled
    ``label`` or its ancestor."""
    start = len(parent)
    return int.from_bytes(label[start : start + COMPONENT_BYTES], "big")


def lca_level(first: bytes, second: bytes) -> int:
    """Level of the two nodes' least common ancestor; ``-1`` across roots.

    ``Dewey.common_prefix_length`` minus one, on labels.
    """
    shared = 0
    limit = min(len(first), len(second))
    while (
        shared < limit
        and first[shared : shared + COMPONENT_BYTES]
        == second[shared : shared + COMPONENT_BYTES]
    ):
        shared += COMPONENT_BYTES
    return shared // COMPONENT_BYTES - 1
