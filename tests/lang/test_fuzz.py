"""Fuzz tests: the front ends never crash, only raise their own errors.

The parsers are fuzzed with Hypothesis and replay the committed seed
files under ``fuzz_corpus/<parser>/`` (one input per file: nesting and
label budgets, unterminated constructs, control characters, unicode).
The serve loop is fuzzed with whole sessions of hostile request lines.
"""

import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import GuardSyntaxError, QuerySyntaxError, XmlParseError
from repro.lang import parse_guard
from repro.serve import MAX_REQUEST_BYTES, serve_loop
from repro.storage import Database
from repro.xquery.parser import parse_query
from repro.xmltree import parse_forest

from tests.conftest import FIG1A

CORPUS = Path(__file__).parent / "fuzz_corpus"

#: Corpus directory -> (parser, the one error it may raise).
PARSERS = {
    "guard": (parse_guard, GuardSyntaxError),
    "query": (parse_query, QuerySyntaxError),
    "xml": (parse_forest, XmlParseError),
}

_guardish = st.text(
    alphabet="MORPHUTAEranslatecompsdbk[]()|!*, ->\n\t", max_size=80
)
_queryish = st.text(
    alphabet="forletwherturn$aibk/[]()<>{}='\"@,.*+- \n", max_size=80
)
_xmlish = st.text(alphabet="<>/abc&;!=\"' -", max_size=80)


class TestParserRobustness:
    @given(_guardish)
    def test_guard_parser_total(self, text):
        try:
            parse_guard(text)
        except GuardSyntaxError:
            pass  # the only acceptable failure mode

    @given(_queryish)
    def test_query_parser_total(self, text):
        try:
            parse_query(text)
        except QuerySyntaxError:
            pass

    @given(_xmlish)
    def test_xml_parser_total(self, text):
        try:
            parse_forest(text)
        except XmlParseError:
            pass

    @given(st.text(max_size=60))
    def test_guard_parser_arbitrary_unicode(self, text):
        try:
            parse_guard(text)
        except GuardSyntaxError:
            pass

    @given(st.text(max_size=60))
    def test_xml_parser_arbitrary_unicode(self, text):
        try:
            parse_forest(text)
        except XmlParseError:
            pass


def _seeds():
    for kind in sorted(PARSERS):
        for path in sorted((CORPUS / kind).glob("*.txt")):
            yield pytest.param(kind, path, id=f"{kind}/{path.stem}")


class TestCorpus:
    def test_every_parser_has_seeds(self):
        for kind in PARSERS:
            assert len(list((CORPUS / kind).glob("*.txt"))) >= 10, kind

    @pytest.mark.parametrize("kind, path", list(_seeds()))
    def test_seed_parses_or_raises_its_error(self, kind, path):
        parse, error = PARSERS[kind]
        text = path.read_text(encoding="utf-8")
        try:
            parse(text)
        except error:
            pass


# -- the serve loop ---------------------------------------------------------

GUARD = "MORPH author [ name ]"


def _is_request(line: bytes) -> bool:
    """Whether the loop would hand ``line`` to the pool as a transform."""
    try:
        request = json.loads(line.decode("utf-8", errors="replace"))
    except (ValueError, RecursionError):
        return False
    return (
        isinstance(request, dict)
        and isinstance(request.get("doc"), str)
        and isinstance(request.get("guard"), str)
    )


_valid = st.builds(
    lambda ident: json.dumps({"id": ident, "doc": "doc", "guard": GUARD}).encode(),
    st.integers(0, 99),
)
_commands = st.sampled_from(["stats", "metrics", "quit", "nope", 7]).map(
    lambda command: json.dumps({"cmd": command}).encode()
)
_random_bytes = st.binary(max_size=80)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3)
    ),
    max_leaves=6,
)
#: Well-formed JSON whose ``doc``/``guard`` are missing or not strings.
_wrong_types = st.fixed_dictionaries(
    {},
    optional={
        "id": _json_values,
        "doc": _json_values,
        "guard": _json_values,
        "cmd": _json_values,
        "stream": _json_values,
    },
).map(lambda request: json.dumps(request).encode())
#: A valid request cut short, with junk after the cut.
_garbled = st.tuples(_valid, st.integers(0, 60), st.binary(max_size=6)).map(
    lambda parts: parts[0][: parts[1]] + parts[2]
)
_deep = st.integers(1_000, 20_000).map(lambda depth: b"[" * depth)
_over_limit = st.just(b"x" * (MAX_REQUEST_BYTES + 1))

_hostile = (
    _random_bytes | _garbled | _wrong_types | _deep | _over_limit
).filter(lambda line: not _is_request(line))
_session = st.lists(_hostile | _valid | _commands, max_size=12).map(
    lambda lines: [line.replace(b"\n", b" ") for line in lines]
)


def _expected_responses(lines: list[bytes]) -> tuple[int, bool]:
    """``(responses, refused)`` a session owes: one response per
    non-blank line, until EOF, ``quit`` (no response) or an over-limit
    line (its XM580 refusal ends the session)."""
    owed = 0
    for line in lines:
        if len(line) > MAX_REQUEST_BYTES:
            return owed + 1, True
        text = line.decode("utf-8", errors="replace").strip()
        if not text:
            continue
        try:
            request = json.loads(text)
        except (ValueError, RecursionError):
            request = None
        if isinstance(request, dict) and request.get("cmd") == "quit":
            return owed, False
        owed += 1
    return owed, False


@pytest.fixture(scope="module")
def served_db(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "serve.db"
    with Database(str(path), durable=False) as database:
        database.store_document("doc", FIG1A)
        yield database


class TestServeLoop:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(lines=_session)
    @example(lines=[b"[" * 100_000, b'{"cmd": "stats"}'])
    @example(lines=[b"x" * (MAX_REQUEST_BYTES + 1), b'{"cmd": "stats"}'])
    def test_one_response_per_line_and_no_uncoded_errors(self, served_db, lines):
        for line in lines:
            text = line.decode("utf-8", errors="replace").strip()
            assume(not text.startswith(("GET ", "HEAD ")))  # the HTTP side door
        uncoded = served_db.stats.counter("serve.errors.uncoded")
        out = io.StringIO()
        serve_loop(served_db, io.BytesIO(b"\n".join(lines)), out, workers=2)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        owed, refused = _expected_responses(lines)
        assert len(responses) == owed
        for response in responses:
            assert response["ok"] or response.get("error"), response
        if refused:
            assert responses[-1]["code"] == "XM580"
        assert served_db.stats.counter("serve.errors.uncoded") == uncoded
