"""Smoke tests: every example must run cleanly and show its key output."""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "NO RESULTS" in out  # the unguarded query fails on (a)/(b)
        assert out.count("<result>") >= 5  # guarded query works everywhere
        assert "strongly-typed" in out

    def test_schema_evolution(self):
        out = run_example("schema_evolution.py")
        assert "v1 (denormalized)" in out and "v2 (normalized)" in out
        # Same facts on both versions; v1's grouping is per book (the
        # paper: results differ "only in the grouping"), v2's per author.
        assert out.count("Codd") >= 3
        assert "2 book(s)" in out
        assert "guard type:" in out

    def test_information_loss(self):
        out = run_example("information_loss.py")
        assert "BLOCKED" in out
        assert "ALLOWED" in out
        assert "widening" in out and "narrowing" in out
        assert "synthesized types: ['isbn']" in out

    def test_bibliography_database(self):
        out = run_example("bibliography_database.py")
        assert "blocks read during compile: 0" in out
        assert "vmstat analog" in out

    def test_data_integration(self):
        out = run_example("data_integration.py")
        assert "unified price report" in out
        assert "Transaction Processing : 55" in out  # north's price
        assert "Transaction Processing : 49" in out  # south's price
        assert "Transaction Processing: 49" in out  # cheapest wins

    def test_astronomy_catalog(self):
        out = run_example("astronomy_catalog.py")
        assert "<!ELEMENT datasets (dataset+)>" in out
        assert "guard type: strongly-typed" in out
        assert "streamed" in out
        assert "loses 0.0%" in out


EVOLUTIONS = os.path.join(EXAMPLES, "evolutions")
SCENARIOS = sorted(
    entry
    for entry in os.listdir(EVOLUTIONS)
    if os.path.isdir(os.path.join(EVOLUTIONS, entry))
)


class TestEvolutionCorpus:
    """Every corpus scenario's verdicts must match its expected.json."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_verdicts_match_expectations(self, scenario):
        import json

        from repro.analysis.evolve import analyze_evolution, load_guards

        root = os.path.join(EVOLUTIONS, scenario)
        with open(os.path.join(root, "old.xml")) as handle:
            old_xml = handle.read()
        with open(os.path.join(root, "new.xml")) as handle:
            new_xml = handle.read()
        with open(os.path.join(root, "expected.json")) as handle:
            expected = json.load(handle)
        guards = load_guards(os.path.join(root, "guards"))
        assert guards, f"{scenario} has no guards"
        report = analyze_evolution(old_xml, new_xml, guards)
        actual = {verdict.name: verdict.verdict for verdict in report.verdicts}
        assert actual == expected

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_cli_expect_mode(self, scenario):
        from repro.cli import main

        root = os.path.join(EVOLUTIONS, scenario)
        assert (
            main(
                [
                    "evolve",
                    os.path.join(root, "old.xml"),
                    os.path.join(root, "new.xml"),
                    "--guards",
                    os.path.join(root, "guards"),
                    "--format=json",
                    "--expect",
                    os.path.join(root, "expected.json"),
                ]
            )
            == 0
        )

    def test_corpus_covers_all_three_verdicts(self):
        import json

        seen = set()
        for scenario in SCENARIOS:
            with open(os.path.join(EVOLUTIONS, scenario, "expected.json")) as handle:
                seen.update(json.load(handle).values())
        assert seen == {"compatible", "degraded", "broken"}
