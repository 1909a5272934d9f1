"""Hypothesis strategies shared by the property-based test suites.

The core strategy generates small random XML forests over a tiny tag
alphabet.  A small alphabet is deliberate: it maximizes the chance of
repeated types, ambiguous labels and interesting closest relationships,
which is where the closeness machinery earns its keep.

The ``wide``/``values`` knobs and :func:`skewed_documents` exist for the
storage-update suites: incremental Dewey renumbering cares about long
sibling runs (many shifts per edit), empty-text nodes (zero-length
inline payloads) and overflow-length text (``V``-keyspace chunks that
must move with their node), none of which the default tree shapes hit
reliably.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.xmltree.node import XmlForest, XmlNode, attribute, element

TAGS = ["a", "b", "c", "d"]

_VALUES = st.sampled_from(["", "x", "y", "hello", "42"])

#: Text distribution for the update suites: heavy on the empty string
#: (sequence entries with zero-length payloads) and including one value
#: past INLINE_TEXT (1500), so shifted/deleted nodes carry overflow
#: chunks that the incremental engine must move or clear.
_SKEWED_VALUES = st.sampled_from(["", "", "", "x", "long " * 400])


@st.composite
def xml_trees(
    draw,
    max_depth: int = 4,
    max_children: int = 3,
    values: st.SearchStrategy = _VALUES,
    wide: bool = False,
    attributes: bool = False,
) -> XmlNode:
    """A random small element tree.

    ``attributes=True`` also draws up to two attributes per element,
    named from the same :data:`TAGS` as the elements: an attribute and
    a child element then share a data type (types are name paths), which
    is where "attribute or element?" has to be asked per node.

    ``wide=True`` occasionally emits a long run of same-named siblings
    (the deeply-skewed shape): renumbering edge cases live at sibling
    boundaries, so edits need trees where one parent holds many more
    children than the ``max_children`` default would produce.
    """
    name = draw(st.sampled_from(TAGS))
    text = draw(values)
    node = element(name, text=text)
    if attributes:
        for attr_name in draw(st.lists(st.sampled_from(TAGS), max_size=2, unique=True)):
            node.append(attribute(attr_name, draw(values)))
    if max_depth > 0:
        if wide and draw(st.booleans()):
            # A skewed run: 4-10 same-named leaf children.
            run_name = draw(st.sampled_from(TAGS))
            for _ in range(draw(st.integers(min_value=4, max_value=10))):
                node.append(element(run_name, text=draw(values)))
        count = draw(st.integers(min_value=0, max_value=max_children))
        for _ in range(count):
            node.append(
                draw(
                    xml_trees(
                        max_depth=max_depth - 1,
                        max_children=max_children,
                        values=values,
                        wide=wide,
                        attributes=attributes,
                    )
                )
            )
    return node


@st.composite
def xml_forests(draw, max_roots: int = 2, **tree_kwargs) -> XmlForest:
    """A random renumbered forest of one or more small trees."""
    count = draw(st.integers(min_value=1, max_value=max_roots))
    forest = XmlForest([draw(xml_trees(**tree_kwargs)) for _ in range(count)])
    return forest.renumber()


@st.composite
def documents(draw, **tree_kwargs) -> XmlForest:
    """A random single-rooted document wrapped in a fixed root tag.

    Wrapping in a constant root keeps every node reachable from one
    root, which mirrors real documents and makes closest joins total.
    """
    root = element("r")
    count = draw(st.integers(min_value=1, max_value=3))
    for _ in range(count):
        root.append(draw(xml_trees(**tree_kwargs)))
    return XmlForest([root]).renumber()


@st.composite
def skewed_documents(draw, max_depth: int = 3) -> XmlForest:
    """A document biased toward renumbering edge cases.

    Wide same-named sibling runs directly under the root (every edit at
    the front shifts the whole run), empty-text nodes, and
    overflow-length text values.
    """
    root = element("r")
    for _ in range(draw(st.integers(min_value=2, max_value=8))):
        root.append(
            draw(
                xml_trees(
                    max_depth=max_depth,
                    max_children=2,
                    values=_SKEWED_VALUES,
                    wide=True,
                )
            )
        )
    return XmlForest([root]).renumber()


#: How a generated guard term is written: plain, ``!``-marked (its loss
#: accepted), under a ``NEW`` wrapper, or ``CLONE``-d.
_TERM_FORMS = ["{}", "!{}", "(NEW n) [ {} ]", "CLONE {}"]


@st.composite
def _guard_terms(draw, depth: int = 1, max_depth: int = 3) -> str:
    """One pattern term over :data:`TAGS` plus ``z``, nested at most
    ``max_depth`` levels; a bracket sometimes repeats its first child
    (n copies of one label, the twins of the loss analysis)."""
    term = draw(st.sampled_from(TAGS + ["z"]))
    if depth < max_depth and draw(st.booleans()):
        children = draw(st.lists(_guard_terms(depth + 1, max_depth), min_size=1, max_size=2))
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            children += children[:1] * draw(st.integers(min_value=1, max_value=2))
        term = f"{term} [ {' '.join(children)} ]"
    return draw(st.sampled_from(_TERM_FORMS)).format(term)


@st.composite
def guards(draw, max_depth: int = 3) -> str:
    """A random guard over :data:`TAGS` plus the missing label ``z``.

    A ``MUTATE`` or ``MORPH`` of one or two top-level terms (a pattern
    forest; an ambiguous label also yields a target forest), each nested
    at most ``max_depth`` levels, where a term may be ``!``-marked (its
    loss accepted), a ``NEW`` wrapper or a ``CLONE`` and a bracket may
    repeat a label.  The guard may sit under ``TYPE-FILL`` (which
    synthesizes ``z``).  Wrapped in ``CAST`` so a lossy guard still
    renders.  Guards that do not fit a given document raise an
    ``XMorphError``; callers skip those.
    """
    terms = draw(st.lists(_guard_terms(max_depth=max_depth), min_size=1, max_size=2))
    operator = draw(st.sampled_from(["MUTATE", "MORPH"]))
    guard = f"{operator} {' '.join(terms)}"
    if draw(st.booleans()):
        guard = f"TYPE-FILL {guard}"
    return f"CAST ({guard})"
