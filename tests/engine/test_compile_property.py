"""Property-based parity: the compiled emitter IS the reference.

The emitter's one correctness claim is identity with the interpretive
Render algorithm, ``tests.engine.oracle.reference_render``, on every plan: the tree sink node for node — names,
text, Dewey identifiers, provenance size and every render counter — and
the text sink byte for byte with ``serialize()`` of that tree.  We fuzz
the claim directly (it is :func:`tests.engine.test_parity.assert_parity`):
random small documents over a tiny tag alphabet (the shared
``tests.strategies`` corpus — small alphabets maximize repeated types
and interesting closest joins), with attributes drawn from the *same*
alphabet so that attributes and elements share types, and random guards
over that alphabet.  Text and attribute values are drawn from markup
(:data:`MARKUP_VALUES`), so every generated document exercises escaping.

Guards that fail to type-check on a particular document are out of
scope (no route runs).
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.engine.interpreter import Interpreter
from repro.errors import XMorphError

from tests.engine.test_parity import assert_parity
from tests.strategies import TAGS, documents

GUARD_FORMS = [
    "MORPH {x}",
    "MORPH {x} [ {y} ]",
    "MORPH {x} [ {y} [ {z} ] ]",
    "MORPH {x} [ {y} {z} ]",
    "MUTATE {x} [ {y} ]",
    "MORPH (RESTRICT {x} [ {y} ])",
    "MUTATE (NEW w) [ {x} {y} ]",
    "TYPE-FILL MORPH {x} [ {y} ]",
]


#: Values heavy on the characters XML escapes, alone and mixed; the
#: shared ``tests.strategies`` default stays plain for the other suites.
MARKUP_VALUES = st.one_of(
    st.sampled_from(
        ["", "x", "42", "&", "<", ">", '"', "'", "]]>", 'a<b & "c"', "&amp;lt;"]
    ),
    st.text(alphabet="ab &<>\"']", max_size=6),
)


@st.composite
def guards(draw):
    form = draw(st.sampled_from(GUARD_FORMS))
    x, y, z = (draw(st.sampled_from(TAGS)) for _ in range(3))
    return form.format(x=x, y=y, z=z)


class TestCompiledParityProperty:
    @given(forest=documents(attributes=True, values=MARKUP_VALUES), guard=guards())
    @settings(max_examples=120, deadline=None)
    def test_byte_identical(self, forest, guard):
        try:
            Interpreter(forest).compile(f"CAST ({guard})")
        except XMorphError:
            assume(False)
        assert_parity(forest, f"CAST ({guard})")

    def test_common_forms_do_compile(self):
        """Sentinel: the property above must not pass vacuously — the
        basic forms type-check on a plain document and reach the
        emitter."""
        forest = repro.parse_forest(
            "<r><a><b>x</b><c>1</c></a><a><b>y</b><c>2</c></a></r>"
        )
        for guard in ("MORPH a [ b ]", "MORPH a [ b [ c ] ]", "MUTATE b [ a ]"):
            _reference, tree, _text, _stats = assert_parity(forest, f"CAST ({guard})")
            assert tree.nodes_written > 0
