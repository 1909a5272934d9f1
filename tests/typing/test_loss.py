"""Tests for the information-loss type system (Section V).

The paper's own examples are the ground truth:

* ``MORPH author [ name book [ title ] ]`` is strongly-typed on all
  three Figure 1 instances.
* ``MORPH author [ !title name publisher [ name ] ]`` is widening on
  instance (c) (titles become closest to both publishers).
* ``MUTATE name [ author ]`` is non-inclusive when author names are
  optional (a name-less author is dropped), but inclusive when every
  author has a name.
"""

import pytest

import repro
from repro.errors import GuardTypeError
from repro.typing import GuardType, LossKind

from tests.closeness.oracle import brute_force_closest_graph


def check(forest, guard):
    return repro.check(forest, guard)


class TestPaperExamples:
    def test_canonical_guard_strongly_typed_everywhere(self, fig1_all):
        for forest in fig1_all.values():
            report = check(forest, "MORPH author [ name book [ title ] ]")
            assert report.guard_type is GuardType.STRONGLY_TYPED

    def test_widening_on_grouped_instance(self, fig1c):
        report = check(fig1c, "MORPH author [ title name publisher [ name ] ]")
        assert report.guard_type is GuardType.WIDENING
        assert any(f.kind is LossKind.ADDED for f in report.findings)

    def test_same_guard_fine_on_flat_instance(self, fig1a):
        report = check(fig1a, "MORPH author [ title name publisher [ name ] ]")
        assert report.guard_type is GuardType.STRONGLY_TYPED

    def test_optional_name_swap_loses(self, fig1a_optional_name):
        # Section V: "any author that does not originally have a name
        # will be omitted from the result".
        report = check(fig1a_optional_name, "MUTATE author.name [ author ]")
        assert not report.inclusive
        assert report.guard_type in (GuardType.NARROWING, GuardType.WEAKLY_TYPED)
        lost = [f for f in report.findings if f.kind is LossKind.LOST]
        assert any(
            {f.source_type, f.target_type}
            == {"data.book.author", "data.book.author.name"}
            for f in lost
        )

    def test_swap_with_mandatory_name_is_reversible(self, fig1a):
        report = check(fig1a, "MUTATE author.name [ author ]")
        assert report.guard_type is GuardType.STRONGLY_TYPED

    def test_identity_mutate_reversible(self, fig1_all):
        for forest in fig1_all.values():
            report = check(forest, "MUTATE data")
            assert report.guard_type is GuardType.STRONGLY_TYPED
            assert not report.findings


class TestReportContents:
    def test_findings_name_the_lossy_pair(self, fig1c):
        report = check(fig1c, "MORPH author [ title name publisher [ name ] ]")
        added = [f for f in report.findings if f.kind is LossKind.ADDED]
        pairs = {frozenset((f.source_type, f.target_type)) for f in added}
        assert (
            frozenset(
                ("data.author.book.title", "data.author.book.publisher")
            )
            in pairs
        )

    def test_cards_recorded(self, fig1c):
        report = check(fig1c, "MORPH author [ title name publisher [ name ] ]")
        finding = next(f for f in report.findings if f.kind is LossKind.ADDED)
        assert str(finding.source_card) == "1..1"
        assert str(finding.predicted_card) == "2..2"

    def test_omitted_types_listed(self, fig1a):
        report = check(fig1a, "MORPH author [ name ]")
        assert "data.book.title" in report.omitted_types
        assert "data.book.publisher" in report.omitted_types

    def test_pretty_mentions_guard_type(self, fig1c):
        report = check(fig1c, "MORPH author [ title name publisher [ name ] ]")
        assert "widening" in report.pretty()

    def test_bang_marks_accepted(self, fig1c):
        report = check(fig1c, "MORPH author [ !title name publisher [ name ] ]")
        assert all(f.accepted for f in report.findings if f.kind is LossKind.ADDED)
        assert report.unaccepted() == []
        # The verdict itself is still truthful.
        assert report.guard_type is GuardType.WIDENING


class TestEnforcement:
    WIDENING = "MORPH author [ title name publisher [ name ] ]"

    def test_default_rejects_widening(self, fig1c):
        with pytest.raises(GuardTypeError) as info:
            repro.transform(fig1c, self.WIDENING)
        assert "widening" in str(info.value)
        assert info.value.report is not None

    def test_cast_widening_allows(self, fig1c):
        result = repro.transform(fig1c, f"CAST-WIDENING {self.WIDENING}")
        assert result.rendered is not None

    def test_cast_narrowing_does_not_allow_widening(self, fig1c):
        with pytest.raises(GuardTypeError):
            repro.transform(fig1c, f"CAST-NARROWING {self.WIDENING}")

    def test_cast_any_allows(self, fig1c):
        result = repro.transform(fig1c, f"CAST {self.WIDENING}")
        assert result.rendered is not None

    def test_bang_acceptance_allows_without_cast(self, fig1c):
        result = repro.transform(
            fig1c, "MORPH author [ !title name publisher [ name ] ]"
        )
        assert result.rendered is not None

    def test_narrowing_rejected_by_default(self, fig1a_optional_name):
        with pytest.raises(GuardTypeError) as info:
            repro.transform(fig1a_optional_name, "MUTATE author.name [ author ]")
        assert "narrowing" in str(info.value) or "lose" in str(info.value)

    def test_cast_narrowing_allows_loss(self, fig1a_optional_name):
        result = repro.transform(
            fig1a_optional_name, "CAST-NARROWING MUTATE author.name [ author ]"
        )
        assert result.rendered is not None

    def test_paper_section3_combined_wrapper(self, fig1a):
        # CAST-WIDENING (TYPE-FILL MUTATE author [ title ]) from Section III.
        result = repro.transform(
            fig1a, "CAST-WIDENING (TYPE-FILL MUTATE author [ title ])"
        )
        assert result.rendered is not None


class TestGroundTruthAgainstClosestGraphs:
    """Validate the *predictions* against brute-force closest graphs.

    For a type-complete transformation: if the analysis says reversible,
    the rendered output's closest graph (mapped to source vertices) must
    equal the source's; if it says additive, rendering must add an edge.
    """

    def graph_pair(self, forest, guard):
        source_graph = brute_force_closest_graph(forest)
        result = repro.transform(forest, f"CAST ({guard})")
        rendered = result.rendered

        def provenance_key(node):
            origin = rendered.source_of(node)
            return origin.dewey if origin is not None else ("new", node.name)

        result_graph = brute_force_closest_graph(rendered.forest, key=provenance_key)
        return source_graph, result_graph

    def test_identity_is_reversible(self, fig1a):
        source, rendered = self.graph_pair(fig1a, "MUTATE data")
        assert source == rendered

    def test_swap_is_reversible(self, fig1a):
        report = repro.check(fig1a, "MUTATE author.name [ author ]")
        assert report.reversible
        source, rendered = self.graph_pair(fig1a, "MUTATE author.name [ author ]")
        assert rendered.edges == source.edges

    def test_widening_adds_edges(self, fig1c):
        report = repro.check(fig1c, "MORPH author [ title name publisher [ name ] ]")
        assert not report.non_additive
        source, rendered = self.graph_pair(
            fig1c, "MORPH author [ title name publisher [ name ] ]"
        )
        assert rendered.added_edges(source) == set() or source.added_edges(rendered)

    def test_lossy_swap_drops_vertices(self, fig1a_optional_name):
        guard = "MUTATE author.name [ author ]"
        report = repro.check(fig1a_optional_name, guard)
        assert not report.inclusive
        result = repro.transform(fig1a_optional_name, f"CAST ({guard})")
        # The name-less author must be gone from the output.
        rendered_authors = [
            n for n in result.forest.iter_nodes() if n.name == "author"
        ]
        assert len(rendered_authors) == 1  # source had two


class TestDedupe:
    """`_dedupe` collapses symmetric pairs; `unaccepted` honours `!`."""

    @staticmethod
    def finding(kind, a, b, accepted=False):
        from repro.shape.cardinality import Card
        from repro.typing.loss import LossFinding

        return LossFinding(
            kind=kind,
            source_type=a,
            target_type=b,
            source_card=Card(0, 1),
            predicted_card=Card(1, 1),
            accepted=accepted,
        )

    def test_symmetric_pair_collapses(self):
        from repro.typing.loss import LossReport, _dedupe

        report = LossReport(
            findings=[
                self.finding(LossKind.LOST, "a.x", "a.y"),
                self.finding(LossKind.LOST, "a.y", "a.x"),
            ]
        )
        _dedupe(report)
        assert len(report.findings) == 1
        # The first orientation wins.
        assert report.findings[0].source_type == "a.x"

    def test_different_kinds_not_collapsed(self):
        from repro.typing.loss import LossReport, _dedupe

        report = LossReport(
            findings=[
                self.finding(LossKind.LOST, "a.x", "a.y"),
                self.finding(LossKind.ADDED, "a.y", "a.x"),
            ]
        )
        _dedupe(report)
        assert len(report.findings) == 2

    def test_distinct_pairs_survive(self):
        from repro.typing.loss import LossReport, _dedupe

        report = LossReport(
            findings=[
                self.finding(LossKind.LOST, "a.x", "a.y"),
                self.finding(LossKind.LOST, "a.x", "a.z"),
                self.finding(LossKind.LOST, "a.y", "a.x"),
            ]
        )
        _dedupe(report)
        assert len(report.findings) == 2

    def test_dedupe_keeps_accepted_flag_of_first(self):
        from repro.typing.loss import LossReport, _dedupe

        report = LossReport(
            findings=[
                self.finding(LossKind.ADDED, "a.x", "a.y", accepted=True),
                self.finding(LossKind.ADDED, "a.y", "a.x", accepted=False),
            ]
        )
        _dedupe(report)
        assert len(report.findings) == 1
        assert report.findings[0].accepted

    def test_unaccepted_filters_accepted(self):
        from repro.typing.loss import LossReport

        report = LossReport(
            findings=[
                self.finding(LossKind.LOST, "a.x", "a.y", accepted=True),
                self.finding(LossKind.LOST, "a.x", "a.z", accepted=False),
            ]
        )
        unaccepted = report.unaccepted()
        assert len(unaccepted) == 1
        assert unaccepted[0].target_type == "a.z"

    def test_bang_acceptance_reaches_report(self, fig1c):
        # The widening pair is accepted by `!`, so `unaccepted()` is
        # empty and enforcement lets the guard through un-CAST.
        guard = "MORPH author [ !title name publisher [ name ] ]"
        report = check(fig1c, guard)
        assert report.guard_type is GuardType.WIDENING
        assert report.findings  # the ADDED findings are still reported...
        assert all(f.accepted for f in report.findings)
        assert report.unaccepted() == []  # ...but all accepted

    def test_unaccepted_bang_free_guard_keeps_findings(self, fig1c):
        guard = "MORPH author [ title name publisher [ name ] ]"
        report = check(fig1c, guard)
        assert report.unaccepted() == report.findings != []
