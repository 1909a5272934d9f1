"""An eXist-style native XML store (the paper's comparator, Section IX).

eXist 1.4 stores an XML document *in document order on disk pages*, so
dumping a document "is essentially that of reading the document from
disk to a String object" — the paper calls this the baseline's best
case.  Queries run over the in-memory DOM (eXist's local XML:DB API),
and result *reconstruction* walks and copies subtrees by navigation: an
equivalent of a large XMorph transformation needs one nested ``for``
per level ("471 variable bindings"!).

Both paths do the real work and count only what they do in the shared
:class:`SystemStats`:

* **dump** reads the document's pages in order (one block each, on a
  cold pool) and decodes the text;
* **query** evaluates XQuery-lite over the DOM and reads no page.

The comparison with XMorph is then measured wall time (Figures 10 and
14) and counted blocks (Figure 10's dump vs transform).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DocumentNotFoundError
from repro.storage.pages import PAGE_SIZE, BufferPool, PagedFile
from repro.storage.stats import SystemStats
from repro.xmltree.node import XmlForest
from repro.xmltree.parser import parse_forest
from repro.xmltree.serializer import serialize
from repro.xquery.evaluator import QueryContext, Sequence, evaluate
from repro.xquery import parser as xq_parser


@dataclass
class _StoredDocument:
    name: str
    first_page: int
    page_count: int
    byte_count: int
    forest: XmlForest  # the in-memory DOM eXist's local API works on


class ExistStore:
    """Documents in document order on pages, queried over their DOM."""

    def __init__(self, path: str, cache_pages: int = 2048):
        self.stats = SystemStats()
        self._file = PagedFile(path, self.stats)
        self.pool = BufferPool(self._file, capacity=cache_pages)
        self._documents: dict[str, _StoredDocument] = {}

    # -- storing ------------------------------------------------------------

    def store_document(self, name: str, source: str | XmlForest) -> _StoredDocument:
        forest = parse_forest(source) if isinstance(source, str) else source
        text = serialize(forest)
        first_page = self._file.page_count
        raw = text.encode()
        for offset in range(0, len(raw), PAGE_SIZE):
            page = self.pool.allocate()
            chunk = raw[offset : offset + PAGE_SIZE]
            buffer = self.pool.get(page)
            buffer[: len(chunk)] = chunk
            self.pool.mark_dirty(page)
        self.pool.flush()
        document = _StoredDocument(
            name=name,
            first_page=first_page,
            page_count=self._file.page_count - first_page,
            byte_count=len(raw),
            forest=forest,
        )
        self._documents[name] = document
        return document

    def _get(self, name: str) -> _StoredDocument:
        try:
            return self._documents[name]
        except KeyError:
            raise DocumentNotFoundError(name) from None

    # -- the paper's "best case": dump the whole document ---------------------

    def dump(self, name: str) -> str:
        """Read the document's pages in order and return the text."""
        document = self._get(name)
        pieces: list[bytes] = []
        for page in range(document.first_page, document.first_page + document.page_count):
            pieces.append(bytes(self.pool.get(page)))
        raw = b"".join(pieces)[: document.byte_count]
        return raw.decode()

    # -- path queries with reconstruction -------------------------------------

    def query(self, name: str, query_text: str) -> Sequence:
        """Evaluate an XQuery-lite query against a stored document's DOM."""
        document = self._get(name)
        expr = xq_parser.parse_query(query_text)
        return evaluate(expr, QueryContext.for_forest(document.forest, name))

    # -- maintenance -----------------------------------------------------------

    def drop_cache(self) -> None:
        self.pool.drop_cache()

    def close(self) -> None:
        self.pool.flush()
        self._file.close()

    def __enter__(self) -> "ExistStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

