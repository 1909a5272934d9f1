"""Exception hierarchy for the XMorph 2.0 reproduction.

Every error raised by the library derives from :class:`XMorphError` so
applications can catch a single base class.  The hierarchy mirrors the
processing pipeline described in the paper's Section VIII: parsing the XML
data, parsing the guard, type analysis, the guard type system (information
loss enforcement), rendering, and the storage layer.
"""

from __future__ import annotations


def _line_column(source: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of a character offset in ``source``."""
    offset = max(0, min(offset, len(source)))
    line = source.count("\n", 0, offset) + 1
    line_start = source.rfind("\n", 0, offset) + 1
    return line, offset - line_start + 1


class XMorphError(Exception):
    """Base class for all errors raised by this library."""

    #: Optional :class:`repro.lang.span.Span` pinpointing the error in
    #: its source text; populated by the language front end.
    span = None


class _LocatedSyntaxErrorMixin:
    """Shared machinery for syntax errors that point into source text.

    Errors are raised with whichever location is at hand — a raw
    character ``position``, 1-based ``line``/``column``, or a full
    ``span`` — and render the most precise form available.  A raiser
    that only knows the offset can upgrade the error to line:column
    later via :meth:`locate` once the source text is in scope.
    """

    def _init_location(self, message, position=None, line=None, column=None, span=None):
        if span is not None:
            position = span.start if position is None else position
            line = span.line if line is None else line
            column = span.column if column is None else column
        self.raw_message = message
        self.position = position
        self.line = line
        self.column = column
        self.span = span
        return self._format()

    def _format(self) -> str:
        if self.line is not None:
            where = f" (at line {self.line}"
            if self.column is not None:
                where += f", column {self.column}"
            return f"{self.raw_message}{where})"
        if self.position is not None:
            return f"{self.raw_message} (at offset {self.position})"
        return self.raw_message

    def locate(self, source: str):
        """Fill in line/column from ``position`` against ``source``."""
        if self.line is None and self.position is not None:
            self.line, self.column = _line_column(source, self.position)
            self.args = (self._format(),)
        return self


class XmlParseError(XMorphError):
    """Raised when an XML document cannot be parsed.

    Carries the 1-based ``line`` and ``column`` of the offending input
    position when available.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class GuardSyntaxError(_LocatedSyntaxErrorMixin, XMorphError):
    """Raised when an XMorph guard program cannot be tokenized or parsed.

    Reports 1-based ``line``/``column`` (matching :class:`XmlParseError`)
    and keeps the raw character ``position`` and, when the lexer/parser
    knows it, the full ``span`` of the offending text.
    """

    def __init__(
        self,
        message: str,
        position: int | None = None,
        line: int | None = None,
        column: int | None = None,
        span=None,
    ):
        super().__init__(self._init_location(message, position, line, column, span))


class TypeAnalysisError(XMorphError):
    """Raised by the type analysis stage (Section VIII).

    The canonical case is the paper's *semantic type error*: a label in the
    guard matches no type in the source shape (Section VI, outcome 1).
    """


class LabelMismatchError(TypeAnalysisError):
    """A guard label matches no type in the source shape.

    In the paper's type-system vocabulary this is a *type mismatch*; it is a
    hard error unless the guard is wrapped in ``TYPE-FILL``.
    """

    def __init__(self, label: str, suggestion: str | None = None, span=None):
        hint = f"; did you mean {suggestion!r}?" if suggestion else ""
        super().__init__(
            f"label {label!r} does not match any type in the source shape "
            f"(wrap the guard in TYPE-FILL to synthesize missing types){hint}"
        )
        self.label = label
        self.suggestion = suggestion
        self.span = span


class GuardTypeError(XMorphError):
    """Raised when a guard fails type enforcement (Section V).

    By default only strongly-typed guards (reversible transformations) are
    permitted.  ``CAST-NARROWING`` / ``CAST-WIDENING`` / ``CAST`` wrappers
    relax the enforcement; when they are absent this error carries the
    offending :class:`repro.typing.LossReport` as ``report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class RenderError(XMorphError):
    """Raised when a target shape cannot be rendered to XML."""


class QueryError(XMorphError):
    """Raised by the XQuery-lite engine for syntax or evaluation errors."""


class QuerySyntaxError(_LocatedSyntaxErrorMixin, QueryError):
    """Raised when an XQuery-lite query cannot be tokenized or parsed.

    Like :class:`GuardSyntaxError`, reports 1-based line/column; the
    parser entry point upgrades offset-only raises via :meth:`locate`.
    """

    def __init__(
        self,
        message: str,
        position: int | None = None,
        line: int | None = None,
        column: int | None = None,
        span=None,
    ):
        super().__init__(self._init_location(message, position, line, column, span))


class StorageError(XMorphError):
    """Raised by the storage engine (paged file, buffer pool, KV store).

    Storage-layer failures that recovery code must distinguish carry a
    stable ``code`` (``XM5xx``, continuing the analyzer's ``XMnnn``
    scheme; see ``docs/DIAGNOSTICS.md`` for XM1xx–XM4xx).
    """

    #: Stable diagnostic code, when the error class has one.
    code: str | None = None


class PageError(StorageError):
    """Raised for invalid page accesses (bad page id, overflow, corruption)."""


class FormatError(PageError):
    """A store file is not in the one on-disk format this build reads.

    Either the file is not a whole number of checksummed slots (refused
    at open, before anything is read or written), or a page's trailer
    names another version of the page format (refused at the first
    read, which is the meta page).  ``problem`` says which.  Nothing is
    migrated, truncated or rebuilt; the documents are re-shredded into
    a fresh store.  Damage that merely *breaks* a trailer is not this
    error: it stays :class:`ChecksumError`, which journal replay heals.
    """

    code = "XM500"

    def __init__(self, path: str, problem: str):
        super().__init__(
            f"[XM500] {path} {problem}; nothing is migrated or repaired in "
            "place — re-shred the source documents into a fresh store"
        )
        self.path = path


class ChecksumError(PageError):
    """A page's stored CRC-32 trailer does not match its contents.

    The page was torn (partial write), bit-rotted, or written to the
    wrong offset; the payload cannot be trusted.  ``xmorph fsck`` scans
    for these; recovery is replaying the journal or restoring a backup.
    """

    code = "XM510"

    def __init__(self, path: str, page_id: int, stored: int, computed: int):
        super().__init__(
            f"[XM510] checksum mismatch on page {page_id} of {path}: "
            f"stored 0x{stored:08x}, computed 0x{computed:08x}"
        )
        self.path = path
        self.page_id = page_id
        self.stored = stored
        self.computed = computed


class DatabaseLockedError(StorageError):
    """A conflicting handle holds the database's advisory lock.

    Writers take an exclusive lock, readers a shared one, so this fires
    for writer-vs-writer, writer-vs-reader and reader-vs-writer — any
    combination except reader-vs-reader (see ``docs/CONCURRENCY.md``).
    """

    code = "XM520"

    def __init__(self, path: str, wanted: str = "exclusive"):
        holder = "a writer" if wanted == "shared" else "another handle"
        super().__init__(
            f"[XM520] database {path!r} is locked by {holder} "
            f"(wanted a {wanted} lock; the store is single-writer, "
            "many-reader — close the conflicting handle first)"
        )
        self.path = path
        self.wanted = wanted


class InjectedFaultError(StorageError):
    """An armed failpoint injected a synthetic I/O failure (tests only)."""

    code = "XM530"

    def __init__(self, failpoint: str):
        super().__init__(f"[XM530] injected fault at failpoint {failpoint!r}")
        self.failpoint = failpoint


class TransformTimeoutError(StorageError):
    """A served transform missed its deadline (``repro.serve``).

    The worker thread cannot be killed mid-render; it keeps running and
    its (late) result is discarded.  ``serve.timeouts`` counts these.
    """

    code = "XM540"

    def __init__(self, name: str, guard: str, deadline: float):
        super().__init__(
            f"[XM540] transform of {name!r} missed its {deadline:.3f}s "
            f"deadline (guard {guard!r})"
        )
        self.name = name
        self.guard = guard
        self.deadline = deadline


class ReadOnlyDatabaseError(StorageError):
    """A mutation was attempted through a ``mode="r"`` database handle."""

    code = "XM550"

    def __init__(self, path: str, operation: str):
        super().__init__(
            f"[XM550] cannot {operation}: {path!r} is open read-only "
            '(reopen with mode="w" to mutate)'
        )
        self.path = path
        self.operation = operation


class DepthLimitError(StorageError):
    """A node is nested deeper than a type-sequence entry can label.

    A ``T`` entry stores its label's byte length in one byte, so a node
    more than 85 components deep cannot be sequenced; the document (or
    update batch) holding it is refused before it commits.
    """

    code = "XM560"

    def __init__(self, dewey: str, depth: int, limit: int):
        super().__init__(
            f"[XM560] node {dewey} is {depth} levels deep; a stored document "
            f"may nest at most {limit} levels"
        )
        self.depth = depth
        self.limit = limit


class RetiredDocumentError(StorageError):
    """A not-yet-rendered result was read after its document changed.

    ``Database.transform`` plans now and renders on first touch.  Once
    the document is updated or dropped, or the handle closed, the pages
    under the plan are no longer the ones it was compiled against, so a
    type sequence the result had not loaded yet is refused rather than
    rendered from mixed state.  Results rendered before the change keep
    answering.
    """

    code = "XM570"

    def __init__(self, name: str, reason: str):
        super().__init__(
            f"[XM570] document {name!r} was {reason} after this result was "
            "planned and before it was rendered; transform it again"
        )
        self.name = name
        self.reason = reason


class RequestTooLargeError(StorageError):
    """A serve request line ran past ``serve.server.MAX_REQUEST_BYTES``.

    The loop stops reading at the limit, so it cannot find where the
    next request starts: the refusal is the session's last response.
    """

    code = "XM580"

    def __init__(self, limit: int):
        super().__init__(
            f"[XM580] request line longer than {limit} bytes; the session ends here"
        )
        self.limit = limit


class CorruptRecordError(StorageError):
    """A stored record does not decode: a catalog record that is not a
    descriptor, or a shape record whose columns do not make a shape.

    The pages checksummed clean, so it was written wrong (or edited),
    not torn; ``xmorph fsck`` names the document.  Nothing is repaired.
    """

    code = "XM590"

    def __init__(self, message: str):
        super().__init__(f"[XM590] {message}")


class DocumentNotFoundError(StorageError):
    """Raised when a named document is absent from the database."""

    def __init__(self, name: str):
        super().__init__(f"no document named {name!r} in the database")
        self.name = name
