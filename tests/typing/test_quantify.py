"""Tests for quantified information loss against the predictions."""

import pytest
from hypothesis import assume, given, settings

import repro
from repro.errors import XMorphError
from repro.typing.quantify import quantify_loss

from tests.closeness.oracle import brute_force_loss
from tests.strategies import documents, guards
from tests.typing.oracle_cases import MEASURED


def run(forest, guard):
    result = repro.transform(forest, f"CAST ({guard})")
    return quantify_loss(forest, result), result


class TestReversibleTransformations:
    def test_identity_mutate(self, fig1a):
        quantity, _ = run(fig1a, "MUTATE data")
        assert quantity.reversible
        assert quantity.percent_lost == 0.0
        assert quantity.percent_added == 0.0

    def test_strongly_typed_swap(self, fig1a):
        report = repro.check(fig1a, "MUTATE author.name [ author ]")
        assert report.reversible
        quantity, _ = run(fig1a, "MUTATE author.name [ author ]")
        assert quantity.lost_edges == 0
        assert quantity.added_edges == 0


class TestWideningMeasured:
    def test_widening_guard_measures_added_edges(self, fig1c):
        guard = "MORPH author [ title name publisher [ name ] ]"
        report = repro.check(fig1c, guard)
        assert not report.non_additive  # predicted additive
        quantity, _ = run(fig1c, guard)
        assert quantity.added_edges > 0
        assert quantity.percent_added > 0

    def test_strongly_typed_same_guard_on_flat_instance(self, fig1a):
        guard = "MORPH author [ title name publisher [ name ] ]"
        quantity, _ = run(fig1a, guard)
        assert quantity.added_edges == 0


class TestNarrowingMeasured:
    def test_lossy_swap_drops_vertices(self, fig1a_optional_name):
        guard = "MUTATE author.name [ author ]"
        report = repro.check(fig1a_optional_name, guard)
        assert not report.inclusive  # predicted lossy
        quantity, _ = run(fig1a_optional_name, guard)
        assert quantity.lost_vertices > 0
        assert quantity.percent_lost > 0


class TestAccounting:
    def test_morph_subset_not_counted_as_loss(self, fig1a):
        # MORPH author [ name ]: titles/publishers omitted by type —
        # not loss under type-completeness scoping.
        quantity, _ = run(fig1a, "MORPH author [ name ]")
        assert quantity.lost_edges == 0
        assert quantity.lost_vertices == 0

    def test_new_nodes_counted_as_manufactured(self, fig1a):
        quantity, _ = run(fig1a, "MUTATE (NEW scribe) [ author ]")
        assert quantity.manufactured_vertices == 2  # one per author

    def test_summary_text(self, fig1c):
        quantity, _ = run(fig1c, "MORPH author [ title name publisher [ name ] ]")
        text = quantity.summary()
        assert "manufactures" in text and "%" in text

    def test_requires_rendered_result(self, fig1a):
        compiled = repro.Interpreter(fig1a).compile("MORPH author [ name ]")
        with pytest.raises(ValueError):
            quantify_loss(fig1a, compiled)

    def test_counts_are_consistent(self, fig1c):
        quantity, _ = run(fig1c, "MORPH author [ name book [ title ] ]")
        assert quantity.preserved_edges + quantity.lost_edges == quantity.source_edges


class TestAgainstOracle:
    """The closest join gives the figures the brute-force graphs give."""

    @settings(max_examples=60, deadline=None)
    @given(documents(max_depth=2, max_children=3, attributes=True), guards())
    def test_random_guards(self, forest, guard):
        try:
            result = repro.transform(forest, guard)
        except XMorphError:
            assume(False)
        assert quantify_loss(forest, result) == brute_force_loss(forest, result)

    @pytest.mark.parametrize("case", sorted(MEASURED))
    def test_measured_cases(self, case):
        # The oracle's figures; tests/typing/oracle_cases.py recomputes them.
        make, guard, expected = MEASURED[case]
        forest = make()
        assert quantify_loss(forest, repro.Interpreter(forest).transform(guard)) == expected
