"""Data types and shape types.

Two distinct notions of "type" appear in the paper:

* A **data type** (:class:`DataType`) is the type of a vertex in the
  source data.  Per Definition 1's default, ``typeOf(v)`` is the
  concatenation of element names on the path from the document root to
  ``v`` — so a data type *is* a root path such as ``dblp.article.author``.
  Data types are interned in a :class:`TypeTable`, which holds their
  paths as an array and makes a ``DataType`` on first use.

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
import threading
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, Optional, TYPE_CHECKING

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
    """The data types of one document/collection, held as arrays.

    ``paths[i]`` is type ``i``'s root path; ids are dense, in the order
    the paths were first interned.  A :class:`DataType` is made the
    first time somebody asks for it (:meth:`by_id`, :meth:`match_label`,
    iteration) and then kept, so one table hands out one object per
    type.  The builder interns a path at a time (:meth:`intern`); a
    stored document's table comes whole from its paths
    (:meth:`of_paths`) and makes only the types a guard reaches.
    """

    def __init__(self) -> None:
        #: ``paths[type id]``: the type's root path.
        self.paths: list[tuple[str, ...]] = []
        self._ids: dict[tuple[str, ...], int] = {}
        #: ``_types[type id]``: the type's DataType, or ``None`` until made.
        self._types: list[Optional[DataType]] = []
        #: ``_names[type id]``: the type's element name, lower-cased;
        #: built on the first :meth:`match_label`.
        self._names: Optional[list[str]] = None
        self._lock = threading.Lock()

    @classmethod
    def of_paths(cls, paths: list[tuple[str, ...]]) -> "TypeTable":
        """The table whose type ``i`` is ``paths[i]``; makes no DataType.

        Two equal paths raise :class:`ValueError`: a root path names
        one type.
        """
        table = cls()
        table.paths = paths
        table._ids = dict(zip(paths, range(len(paths))))
        if len(table._ids) != len(paths):
            raise ValueError("two types have one path")
        table._types = [None] * len(paths)
        return table

    def intern(self, path: tuple[str, ...]) -> DataType:
        """Return the canonical :class:`DataType` for a root path."""
        type_id = self._ids.get(path)
        if type_id is not None:
            return self.by_id(type_id)
        data_type = DataType(len(self.paths), path)
        self._ids[path] = data_type.type_id
        self.paths.append(path)
        self._types.append(data_type)
        self._names = None
        return data_type

    def get(self, path: tuple[str, ...]) -> DataType | None:
        type_id = self._ids.get(path)
        return None if type_id is None else self.by_id(type_id)

    def by_id(self, type_id: int) -> DataType:
        data_type = self._types[type_id]
        if data_type is None:
            with self._lock:  # one object per type, however many threads ask
                data_type = self._types[type_id]
                if data_type is None:
                    if type_id < 0:
                        raise IndexError(f"type id {type_id} out of range")
                    data_type = self._types[type_id] = DataType(type_id, self.paths[type_id])
        return data_type

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[DataType]:
        return iter([self.by_id(type_id) for type_id in range(len(self.paths))])

    def __contains__(self, data_type: DataType) -> bool:
        type_id = data_type.type_id
        return 0 <= type_id < len(self._types) and self._types[type_id] is data_type

    def match_label(self, label: str) -> list[DataType]:
        """All data types matching a guard label (Section VI).

        A label is a dot-separated name sequence; it matches a type whose
        path *ends with* that sequence.  A bare label like ``author``
        therefore matches every ``author`` type anywhere in the shape,
        and a user disambiguates with a longer suffix such as
        ``book.author`` vs ``journal.author``.  Matching is
        case-insensitive, like the rest of the language.  Only the types
        whose name is the label's last part are compared, and only the
        matches are made.
        """
        want = tuple(part.lower() for part in label.split("."))
        width = len(want)
        names = self._names
        if names is None:  # lock-free: racing threads build equal lists
            names = self._names = list(map(str.lower, map(itemgetter(-1), self.paths)))
        paths, matches, type_id = self.paths, [], -1
        while True:
            try:
                type_id = names.index(want[-1], type_id + 1)
            except ValueError:
                return matches
            path = paths[type_id]
            if width == 1 or (
                len(path) >= width and tuple(part.lower() for part in path[-width:]) == want
            ):
                matches.append(self.by_id(type_id))


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
