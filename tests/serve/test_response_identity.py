"""A served answer is byte for byte the line ``json.dumps`` would write.

The text sink writes an answer's XML already escaped as the body of a
JSON string (``TransformResult.xml_json``), and ``serve_loop`` frames
it by concatenation.  The wire format must not notice: every response
line equals ``json.dumps({"id": id, "ok": True, "xml": xml}) + "\\n"``
for the ``xml()`` of a serial transform, over Hypothesis documents whose
element text and attribute values hold what XML escapes *and* what JSON
escapes (``\\``, ``"``, controls, non-ASCII and astral characters), and
over ids of every JSON kind.
"""

import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import serve_loop
from repro.storage import Database

from tests.engine.test_compile_property import MARKUP_VALUES
from tests.strategies import documents

#: Apply to any forest over the a-d alphabet (placeholders fill in).
GUARDS = [
    "CAST (TYPE-FILL MORPH a [ b ])",
    "CAST (TYPE-FILL MORPH b [ c [ d ] ])",
    "CAST (TYPE-FILL MORPH d [ a c ])",
]

#: What JSON escapes, beside MARKUP_VALUES' XML markup.
JSON_VALUES = st.one_of(
    MARKUP_VALUES,
    st.sampled_from(["\\", '"', "\t", "\r", "\n", "\r\n", "é", "\u2028", "𝄞", '\\"&<\t𝄞']),
    st.text(alphabet='a\\"\t\r\n\x01\x7fé€𝄞&<', max_size=6),
)

IDS = st.one_of(
    st.integers(),
    st.text(max_size=6),
    st.none(),
    st.recursive(
        st.none() | st.integers() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=6,
    ),
)


class TestServedLineIdentity:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        forest=documents(attributes=True, values=JSON_VALUES, max_depth=3),
        ids=st.lists(IDS, min_size=len(GUARDS), max_size=len(GUARDS)),
    )
    def test_line_equals_json_dumps(self, forest, ids):
        with tempfile.TemporaryDirectory(prefix="xmorph-identity-") as scratch:
            with Database(os.path.join(scratch, "t.db"), durable=False) as db:
                db.store_document("doc", forest)
                requests = [
                    json.dumps({"id": request_id, "doc": "doc", "guard": guard})
                    for request_id, guard in zip(ids, GUARDS)
                ]
                out = io.StringIO()
                serve_loop(db, io.StringIO("\n".join(requests) + "\n"), out, workers=2)
                expected = [
                    json.dumps(
                        {"id": request_id, "ok": True, "xml": db.transform("doc", guard).xml()}
                    )
                    + "\n"
                    for request_id, guard in zip(ids, GUARDS)
                ]
        assert out.getvalue().splitlines(keepends=True) == expected

    def test_the_values_reach_the_answer(self, tmp_path):
        """Sentinel: the property above is not vacuous — JSON-escaped
        text and attribute values do reach a served line."""
        text = '<r><a b="q&quot;\\&#9;é𝄞">x "y" \\ &#13;&#10;é 𝄞 &amp;</a></r>'
        with Database(str(tmp_path / "s.db"), durable=False) as db:
            db.store_document("doc", text)
            out = io.StringIO()
            request = json.dumps({"id": {"n": [1, None]}, "doc": "doc", "guard": "MORPH a [ b ]"})
            serve_loop(db, io.StringIO(request + "\n"), out, workers=1)
            xml = db.transform("doc", "MORPH a [ b ]").xml()
        assert out.getvalue() == json.dumps({"id": {"n": [1, None]}, "ok": True, "xml": xml}) + "\n"
        assert '\\"' in out.getvalue() and "\\\\" in out.getvalue()
        assert "\\u00e9" in out.getvalue() and "\\ud834\\udd1e" in out.getvalue()
        assert 'b=\\"q&quot;' in out.getvalue()
