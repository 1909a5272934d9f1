"""Property-based soundness of the evolution analyzer's verdicts.

The verdict the analyzer must never get wrong is **compatible**: it
promises the guard's output is unaffected by the evolution, so serving
can keep the cached plan and nobody re-validates anything.  We fuzz
that promise directly:

* The *evolution* is a random *reversible* (strongly-typed) guard
  applied to a random document — the paper's schema-evolution setting,
  where the arrangement changes but the data and its closest
  relationships survive exactly.

* For every random *test guard*, a ``compatible`` verdict must mean
  identical transform output under either arrangement (zero false
  compatibles), and a ``broken`` verdict must mean the guard actually
  fails at run time on the evolved document.

"Identical" is canonical-tree identity: byte-identical after sorting
siblings into a canonical order.  Sibling order is immaterial in the
shape model (a shape is an unordered tree — ``diff_shapes`` reports
reordered instances as "identical up to sibling order"), and an
evolution that merely permutes siblings renders in source document
order, so byte-level order can differ while the data, grouping and
nesting — everything the model promises — are the same.

``degraded`` is deliberately unasserted: it is the conservative bucket
(the output *may* differ — grouping, cardinality, loss status), and
conservatism there is allowed, exactly like the loss theorems' scope
in ``tests/integration/test_theorems.py``.
"""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.evolve import (
    VERDICT_BROKEN,
    VERDICT_COMPATIBLE,
    as_index,
    check_guard_evolution,
)
from repro.errors import XMorphError

from tests.strategies import TAGS, documents

#: Candidate rearrangements; only applications that type-check as
#: *reversible* on the concrete document are used as evolutions.
EVOLUTION_GUARDS = [
    "MUTATE r",
    "MUTATE a [ b ]",
    "MUTATE b [ a ]",
    "MUTATE c [ d ]",
    "MUTATE a [ b [ c ] ]",
    "MUTATE d [ c [ b ] ]",
]

TEST_GUARD_FORMS = [
    "MORPH {x}",
    "MORPH {x} [ {y} ]",
    "MUTATE {x} [ {y} ]",
]


def evolve_document(forest, evolution_guard):
    """The evolved document, or None when this evolution is not
    reversible on this instance (out of scope for the parity claim)."""
    try:
        if not repro.check(forest, evolution_guard).reversible:
            return None
        evolved = repro.transform(forest, evolution_guard)
    except XMorphError:
        return None
    # Round-trip through text: the evolved arrangement is a fresh
    # document, exactly as if the DBA had migrated the store.
    return repro.parse_forest(evolved.xml())


def run_forced(forest, guard):
    """Transform with loss force-accepted, as parity ground truth."""
    return repro.transform(forest, f"CAST ({guard})").xml()


def canonical(xml_text):
    """A sibling-order-insensitive normal form of a serialized result."""
    forest = repro.parse_forest(xml_text)

    def norm(node):
        return (node.name, (node.text or "").strip(), tuple(sorted(norm(c) for c in node.children)))

    return tuple(sorted(norm(root) for root in forest.roots))


class TestVerdictParity:
    @settings(max_examples=60, deadline=None)
    @given(
        documents(max_depth=3, max_children=3),
        st.sampled_from(EVOLUTION_GUARDS),
        st.sampled_from(TEST_GUARD_FORMS),
        st.sampled_from(TAGS),
        st.sampled_from(TAGS),
    )
    # The ambiguous label ``c`` pairs with ``d`` through ``r.d.b.c``
    # before the evolution and through the *other* ``c`` after it: equal
    # output shapes, different data (60 random examples rarely find it).
    @example(
        repro.parse_forest("<r><d><b><a><a/><a/><c/></a><c>x</c></b></d></r>"),
        "MUTATE a [ b ]",
        "MORPH {x} [ {y} ]",
        "c",
        "d",
    )
    def test_no_false_compatibles(self, forest, evolution, form, x, y):
        assume(x != y)
        new_forest = evolve_document(forest, evolution)
        assume(new_forest is not None)
        guard = form.format(x=x, y=y)
        verdict = check_guard_evolution(
            as_index(forest), as_index(new_forest), guard
        )
        if verdict.verdict != VERDICT_COMPATIBLE:
            return
        # Compatible promises: same output (canonical sibling order).
        old_output = run_forced(forest, guard)
        new_output = run_forced(new_forest, guard)
        assert canonical(old_output) == canonical(new_output), (
            f"false compatible: {guard!r} across {evolution!r}\n"
            f"old: {old_output}\nnew: {new_output}\n"
            f"diff:\n{verdict.evolution_text}"
        )

    @settings(max_examples=60, deadline=None)
    @given(
        documents(max_depth=3, max_children=3),
        st.sampled_from(EVOLUTION_GUARDS),
        st.sampled_from(TAGS),
        st.sampled_from(TAGS),
    )
    def test_broken_means_runtime_failure(self, forest, evolution, x, y):
        assume(x != y)
        new_forest = evolve_document(forest, evolution)
        assume(new_forest is not None)
        guard = f"MORPH {x} [ {y} ]"
        verdict = check_guard_evolution(
            as_index(forest), as_index(new_forest), guard
        )
        if verdict.verdict != VERDICT_BROKEN:
            return
        # Broken promises: the guard does not run on the evolved data
        # (even with loss force-accepted, a dangling label is fatal).
        try:
            run_forced(new_forest, guard)
        except XMorphError:
            return
        raise AssertionError(
            f"verdict said broken but {guard!r} ran on the evolved document"
        )

    @settings(max_examples=40, deadline=None)
    @given(documents(max_depth=3, max_children=3))
    def test_identity_evolution_never_degrades(self, forest):
        # Evolving a document to itself must leave every runnable guard
        # compatible: the diff is empty, so nothing can have changed.
        new_forest = repro.parse_forest(repro.serialize(forest))
        for tag in TAGS:
            verdict = check_guard_evolution(
                as_index(forest), as_index(new_forest), f"MORPH {tag}"
            )
            assert verdict.verdict in (VERDICT_COMPATIBLE, VERDICT_BROKEN)
            if verdict.verdict == VERDICT_BROKEN:
                # Only a guard that never matched can be non-compatible
                # here, and it must be broken on both sides.
                assert any(
                    "broken before the evolution" in d.message
                    for d in verdict.diagnostics
                )
