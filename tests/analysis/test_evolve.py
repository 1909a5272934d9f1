"""Tests for the schema-evolution compatibility analyzer."""

import json

import pytest

import repro
from repro.analysis import (
    VERDICT_BROKEN,
    VERDICT_COMPATIBLE,
    VERDICT_DEGRADED,
    analyze_evolution,
    check_guard_evolution,
)
from repro.analysis.evolve import GuardSpec, load_guards
from repro.storage import Database

from tests.conftest import FIG1A, FIG1B

OLD_OPTIONAL = """
<data>
  <book><title>X</title><author><name>A</name></author></book>
  <book><title>Y</title><author><name>B</name></author></book>
</data>
"""

NEW_OPTIONAL = """
<data>
  <book><title>X</title><author><name>A</name></author></book>
  <book><title>Y</title></book>
</data>
"""

OLD_ISBN = "<catalog><book><title>X</title><isbn>1</isbn></book></catalog>"
NEW_ISBN = "<catalog><book><title>X</title></book></catalog>"


def codes(verdict):
    return {d.code for d in verdict.diagnostics}


class TestVerdicts:
    def test_compatible_across_regrouping(self):
        # The paper's Figure 1 (a)->(b): same data, books regrouped
        # under publishers.  A book-centric guard survives untouched.
        report = analyze_evolution(
            FIG1A, FIG1B, {"books": "MORPH book [ title author [ name ] ]"}
        )
        assert report.verdict_of("books") == VERDICT_COMPATIBLE
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 0

    def test_removed_type_breaks_guard(self):
        report = analyze_evolution(
            OLD_ISBN, NEW_ISBN, {"keep": "MORPH book [ title isbn ]"}
        )
        (verdict,) = report.verdicts
        assert verdict.verdict == VERDICT_BROKEN
        assert "XM601" in codes(verdict)
        assert report.exit_code() == 1

    def test_xm601_names_the_old_resolution(self):
        report = analyze_evolution(
            OLD_ISBN, NEW_ISBN, {"keep": "MORPH book [ title isbn ]"}
        )
        (finding,) = [
            d for d in report.verdicts[0].diagnostics if d.code == "XM601"
        ]
        assert "catalog.book.isbn" in finding.message
        assert finding.span is not None  # anchored at the isbn clause

    def test_xm601_related_note_points_at_the_shape_change(self):
        report = analyze_evolution(
            OLD_ISBN, NEW_ISBN, {"keep": "MORPH book [ title isbn ]"}
        )
        (finding,) = [
            d for d in report.verdicts[0].diagnostics if d.code == "XM601"
        ]
        assert finding.related is not None
        assert finding.related.source_name == "<evolution>"
        assert "removed: isbn" in finding.related.message
        # The related span selects the right line of the rendered diff.
        text = report.evolution_text
        start, end = finding.related.span.start, finding.related.span.end
        assert text[start:end] == "removed: isbn — was under book"

    def test_already_broken_guard_stays_broken_with_honest_message(self):
        report = analyze_evolution(
            FIG1A, FIG1B, {"shelves": "MORPH shelf [ book ]"}
        )
        (verdict,) = report.verdicts
        assert verdict.verdict == VERDICT_BROKEN
        assert any(
            "broken before the evolution" in d.message
            for d in verdict.diagnostics
        )

    def test_query_path_break_is_xm602(self):
        # The wildcard guard's output silently shrinks; only the query
        # notices the missing path.
        report = analyze_evolution(
            OLD_ISBN,
            NEW_ISBN,
            [
                GuardSpec(
                    "catalog",
                    "MORPH book [ * ]",
                    "for $b in /book return $b/isbn/text()",
                )
            ],
        )
        (verdict,) = report.verdicts
        assert verdict.verdict == VERDICT_BROKEN
        assert "XM602" in codes(verdict)

    def test_cardinality_loosening_degrades(self):
        report = analyze_evolution(
            OLD_OPTIONAL,
            NEW_OPTIONAL,
            {"books": "MORPH book [ title author [ name ] ]"},
        )
        (verdict,) = report.verdicts
        assert verdict.verdict == VERDICT_DEGRADED
        assert "XM605" in codes(verdict)
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 2

    def test_loss_status_change_degrades(self):
        # Regrouping by author name was loss-free; once a book can lack
        # an author, the same guard silently narrows.
        report = analyze_evolution(
            OLD_OPTIONAL, NEW_OPTIONAL, {"by_name": "MORPH name [ book ]"}
        )
        (verdict,) = report.verdicts
        assert verdict.verdict == VERDICT_DEGRADED
        (finding,) = [d for d in verdict.diagnostics if d.code == "XM604"]
        assert "strongly-typed" in finding.message
        assert "narrowing" in finding.message
        assert finding.hint is not None and "CAST" in finding.hint

    def test_resolution_drift_is_informational_only(self):
        report = analyze_evolution(
            FIG1A, FIG1B, {"books": "MORPH book [ title ]"}
        )
        (verdict,) = report.verdicts
        assert verdict.verdict == VERDICT_COMPATIBLE
        drift = [d for d in verdict.diagnostics if d.code == "XM606"]
        assert drift, "moving book under publisher should be noted"
        assert all(str(d.severity) == "info" for d in drift)

    def test_drift_onto_another_candidate_type_degrades(self):
        # MUTATE a [ b ] turns r.d.b.{a.c, c} into r.d.a.{c, b.c}.  The
        # label c pairs with d through r.d.b.c before and through the
        # other c after: the output shape is the same, the data is not.
        old = "<r><d><b><a><a/><a/><c/></a><c>x</c></b></d></r>"
        new = "<r><d><a><a/><a/><c/><b><c>x</c></b></a></d></r>"
        guard = "MORPH c [ d ]"
        assert repro.transform(old, f"CAST ({guard})").xml() == "<c>x<d/></c>"
        assert repro.transform(new, f"CAST ({guard})").xml() == "<c><d/></c>"
        (verdict,) = analyze_evolution(old, new, {"c": guard}).verdicts
        assert verdict.verdict == VERDICT_DEGRADED
        (finding,) = [d for d in verdict.warnings if d.code == "XM606"]
        assert "r.d.a.c" in finding.message

    def test_identical_shapes_are_all_compatible_with_no_noise(self):
        report = analyze_evolution(
            FIG1A, FIG1A, {"books": "MORPH book [ title author [ name ] ]"}
        )
        (verdict,) = report.verdicts
        assert verdict.verdict == VERDICT_COMPATIBLE
        assert verdict.diagnostics == []
        assert "identical" in report.evolution_text


class TestReport:
    def test_counts_and_summary(self):
        report = analyze_evolution(
            OLD_ISBN,
            NEW_ISBN,
            {"keep": "MORPH book [ title isbn ]", "titles": "MORPH book [ title ]"},
        )
        assert report.counts == {"compatible": 1, "degraded": 0, "broken": 1}
        assert "1 broken" in report.summary()

    def test_json_schema(self):
        report = analyze_evolution(
            OLD_ISBN, NEW_ISBN, {"keep": "MORPH book [ title isbn ]"}
        )
        payload = json.loads(report.render_json())
        assert payload["schema"] == "xmorph-evolve/v1"
        assert payload["counts"]["broken"] == 1
        assert payload["diff"]["changes"] == [
            {"kind": "removed", "name": "isbn", "detail": "was under book"}
        ]
        (guard,) = payload["guards"]
        assert guard["verdict"] == "broken"
        related = [
            d["related"] for d in guard["diagnostics"] if d.get("related")
        ]
        assert related and related[0]["source"] == "<evolution>"

    def test_text_report_shows_diff_and_verdict_sections(self):
        report = analyze_evolution(
            OLD_ISBN, NEW_ISBN, {"keep": "MORPH book [ title isbn ]"}
        )
        text = report.render_text()
        assert "== shape evolution ==" in text
        assert "removed: isbn" in text
        assert "== keep: broken ==" in text
        assert "= note: <evolution>:" in text

    def test_github_rendering_escapes_and_locates(self):
        report = analyze_evolution(
            OLD_ISBN,
            NEW_ISBN,
            [GuardSpec("keep", "MORPH book [ title isbn ]", path="g/keep.guard")],
        )
        rendered = report.render_github()
        assert rendered.startswith("::error ")
        assert "file=g/keep.guard" in rendered
        assert "line=1" in rendered and "col=" in rendered
        assert "\n" not in rendered.splitlines()[0]

    def test_guards_accepted_as_mapping_tuples_and_specs(self):
        by_map = analyze_evolution(FIG1A, FIG1B, {"g": "MORPH author [ name ]"})
        by_tuple = analyze_evolution(FIG1A, FIG1B, [("g", "MORPH author [ name ]")])
        by_spec = analyze_evolution(
            FIG1A, FIG1B, [GuardSpec("g", "MORPH author [ name ]")]
        )
        assert (
            by_map.verdict_of("g")
            == by_tuple.verdict_of("g")
            == by_spec.verdict_of("g")
            == VERDICT_COMPATIBLE
        )


class TestCorpusLoader:
    def test_load_guards_reads_sidecar_queries(self, tmp_path):
        (tmp_path / "a.guard").write_text("# comment\nMORPH book [ title ]\n")
        (tmp_path / "a.query").write_text("for $b in /book return $b/title\n")
        (tmp_path / "b.guard").write_text("MORPH author\n")
        (tmp_path / "ignored.txt").write_text("not a guard")
        specs = load_guards(str(tmp_path))
        assert [s.name for s in specs] == ["a", "b"]
        assert specs[0].query is not None and "/book" in specs[0].query
        assert specs[1].query is None
        assert specs[0].path.endswith("a.guard")

    def test_guard_comments_are_tolerated_by_the_analyzer(self, tmp_path):
        (tmp_path / "a.guard").write_text("# heading\nMORPH book [ title ]\n")
        report = analyze_evolution(OLD_ISBN, NEW_ISBN, load_guards(str(tmp_path)))
        assert report.verdict_of("a") == VERDICT_COMPATIBLE


class TestInterpreterApi:
    def test_check_evolution_single_guard(self):
        interpreter = repro.Interpreter(repro.parse_forest(OLD_ISBN))
        verdict = interpreter.check_evolution(NEW_ISBN, "MORPH book [ title isbn ]")
        assert verdict.verdict == VERDICT_BROKEN
        assert "XM601" in codes(verdict)

    def test_check_evolution_with_query(self):
        interpreter = repro.Interpreter(repro.parse_forest(OLD_ISBN))
        verdict = interpreter.check_evolution(
            NEW_ISBN,
            "MORPH book [ * ]",
            "for $b in /book return $b/isbn/text()",
        )
        assert verdict.verdict == VERDICT_BROKEN

    def test_check_guard_evolution_defaults_diff(self):
        old = repro.parse_forest(FIG1A)
        new = repro.parse_forest(FIG1B)
        from repro.analysis.evolve import as_index

        verdict = check_guard_evolution(
            as_index(old), as_index(new), "MORPH author [ name ]"
        )
        assert verdict.verdict == VERDICT_COMPATIBLE


class TestDatabaseIntegration:
    @pytest.fixture
    def db(self, tmp_path):
        database = Database(str(tmp_path / "evo.db"), durable=False)
        database.store_document("v1", OLD_OPTIONAL)
        database.store_document("v2", NEW_OPTIONAL)
        yield database
        database.close()

    def test_counters_flow_into_stats(self, db):
        report = db.check_evolution(
            "v1",
            "v2",
            {"titles": "MORPH book [ title ]", "by_name": "MORPH name [ book ]"},
        )
        assert report.counts["compatible"] == 1
        assert db.stats.counters["evolve.compatible"] == 1
        assert db.stats.counters["evolve.degraded"] == 1

    def test_cached_plans_keep_serving_hits(self, db):
        """The report changes no cache entry: a plan graded degraded is
        still right for the shape it was compiled on."""
        guards = {"a": "MORPH book [ title ]", "b": "MORPH name [ book ]"}
        before = {guard: db.transform("v1", guard).xml() for guard in guards.values()}
        entries = len(db.plan_cache)
        report = db.check_evolution("v1", "v2", guards)
        assert (report.counts["compatible"], report.counts["degraded"]) == (1, 1)
        assert len(db.plan_cache) == entries
        hits = db.plan_cache.stats()["hits"]
        for guard, text in before.items():
            assert db.transform("v1", guard).xml() == text
        assert db.plan_cache.stats()["hits"] == hits + len(guards)
        assert not [name for name in db.stats.counters if name.startswith("evolve.plans")]

    def test_unknown_guards_are_left_alone(self, db):
        other = "MORPH author [ name ]"
        db.transform("v1", other)
        old_fp = db.index("v1").fingerprint
        db.check_evolution("v1", "v2", {"a": "MORPH book [ title ]"})
        assert (other, old_fp) in db.plan_cache
