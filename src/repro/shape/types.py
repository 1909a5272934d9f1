"""Data types and shape types.

Two distinct notions of "type" appear in the paper:

* A **data type** (:class:`DataType`) is the type of a vertex in the
  source data.  Per Definition 1's default, ``typeOf(v)`` is the
  concatenation of element names on the path from the document root to
  ``v`` — so a data type *is* a root path such as ``dblp.article.author``.
  Data types are interned in a :class:`TypeTable`.

* A **shape type** (:class:`ShapeType`) is a vertex in a (target) shape.
  Most shape types are backed by a data type; ``NEW`` introduces shape
  types with no source backing, ``CLONE`` introduces distinct copies of a
  backed shape type, ``RESTRICT`` marks a shape type whose instances are
  filtered by a hidden sub-shape, and ``TRANSLATE`` renames the output
  label.  The distinction matters because a shape is a forest — each type
  has at most one parent — so placing the same source data in two places
  requires two distinct shape types (clones).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.shape.shape import Shape


@dataclass(frozen=True, slots=True)
class DataType:
    """An interned source data type (a root path).

    ``type_id`` is the dense integer id assigned by the owning
    :class:`TypeTable`; storage keys and sequence tables use it instead
    of the path tuple.
    """

    type_id: int
    path: tuple[str, ...]

    @property
    def name(self) -> str:
        """The paper's element name of the type (last path segment)."""
        return self.path[-1]

    @property
    def level(self) -> int:
        """Depth of instances of this type (root type is level 0)."""
        return len(self.path) - 1

    @property
    def dotted(self) -> str:
        """Human-readable dotted form, e.g. ``dblp.article.author``."""
        return ".".join(self.path)

    def __str__(self) -> str:
        return self.dotted

    def __repr__(self) -> str:
        return f"DataType({self.dotted})"


class TypeTable:
    """Interning table for the data types of one document/collection."""

    def __init__(self) -> None:
        self._by_path: dict[tuple[str, ...], DataType] = {}
        self._by_id: list[DataType] = []
        #: Lower-cased element name -> the types it names, in id order.
        self._by_name: dict[str, list[DataType]] = {}

    def intern(self, path: tuple[str, ...]) -> DataType:
        """Return the canonical :class:`DataType` for a root path."""
        existing = self._by_path.get(path)
        if existing is not None:
            return existing
        data_type = DataType(len(self._by_id), path)
        self._by_path[path] = data_type
        self._by_id.append(data_type)
        self._by_name.setdefault(path[-1].lower(), []).append(data_type)
        return data_type

    def get(self, path: tuple[str, ...]) -> DataType | None:
        return self._by_path.get(path)

    def by_id(self, type_id: int) -> DataType:
        return self._by_id[type_id]

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(self._by_id)

    def __contains__(self, data_type: DataType) -> bool:
        return self._by_path.get(data_type.path) is data_type

    def match_label(self, label: str) -> list[DataType]:
        """All data types matching a guard label (Section VI).

        A label is a dot-separated name sequence; it matches a type whose
        path *ends with* that sequence.  A bare label like ``author``
        therefore matches every ``author`` type anywhere in the shape,
        and a user disambiguates with a longer suffix such as
        ``book.author`` vs ``journal.author``.  Matching is
        case-insensitive, like the rest of the language.  Only the types
        whose name is the label's last part are compared.
        """
        want = tuple(part.lower() for part in label.split("."))
        width = len(want)
        named = self._by_name.get(want[-1], [])
        if width == 1:
            return list(named)
        return [
            data_type
            for data_type in named
            if len(data_type.path) >= width
            and tuple(part.lower() for part in data_type.path[-width:]) == want
        ]


_shape_type_ids = itertools.count(1)


@dataclass(eq=False, slots=True)
class ShapeType:
    """A vertex of a shape (identity-based: clones are distinct).

    Attributes
    ----------
    source:
        The backing :class:`DataType`, or ``None`` for a ``NEW`` type.
    out_name:
        The element name used when rendering instances of this type;
        starts as the source name (or the ``NEW`` label) and may be
        rewritten by ``TRANSLATE``.
    restrict_filter:
        For a ``RESTRICT``-ed type, the hidden shape whose presence
        (via closest relationships) filters the instances; ``None``
        otherwise.
    cloned_from:
        The shape type this one was cloned from, if any.
    accept_loss:
        True when the guard marked this type with ``!`` — information
        loss findings anchored here are accepted, not errors.
    synthesized:
        True when the type was invented by ``TYPE-FILL`` for a label
        missing from the source (as opposed to an intentional ``NEW``).
    origin:
        Transient evaluation link: the vertex of the *current source
        shape* this target type was created from (used by the ``*`` /
        ``**`` expansions and by composition).  ``None`` for new types.
    """

    source: Optional[DataType]
    out_name: str
    restrict_filter: Optional["Shape"] = None
    cloned_from: Optional["ShapeType"] = None
    accept_loss: bool = False
    synthesized: bool = False
    origin: Optional["ShapeType"] = None
    uid: int = field(default_factory=lambda: next(_shape_type_ids))

    @classmethod
    def for_source(cls, source: DataType) -> "ShapeType":
        return cls(source=source, out_name=source.name)

    @classmethod
    def new(cls, label: str) -> "ShapeType":
        """A brand-new type with no source backing (the ``NEW`` operator)."""
        return cls(source=None, out_name=label)

    def clone(self) -> "ShapeType":
        """A distinct copy sharing the same source (the ``CLONE`` operator)."""
        return ShapeType(
            source=self.source,
            out_name=self.out_name,
            restrict_filter=self.restrict_filter,
            cloned_from=self,
            accept_loss=self.accept_loss,
            synthesized=self.synthesized,
            origin=self.origin,
        )

    @property
    def is_new(self) -> bool:
        return self.source is None

    @property
    def base(self) -> Optional[DataType]:
        """The paper's ``baseType``: the underlying source data type."""
        return self.source

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return self is other

    def __str__(self) -> str:
        origin = self.source.dotted if self.source else "NEW"
        if self.source is not None and self.out_name == self.source.name:
            return origin
        return f"{origin}->{self.out_name}"

    def __repr__(self) -> str:
        return f"ShapeType({self}, uid={self.uid})"
