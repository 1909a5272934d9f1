"""Tests for the unified transformation report."""

import repro
from repro.engine.compile import CompiledRender
from repro.engine.report import full_report


class TestFullReport:
    def test_all_sections_present(self, fig1a):
        interpreter = repro.Interpreter(fig1a)
        result = interpreter.transform("MORPH author [ name ]")
        text = full_report(result, interpreter.index)
        for section in (
            "guard",
            "source shape",
            "target shape",
            "output schema (DTD)",
            "information loss",
            "label resolution",
            "statistics",
        ):
            assert section in text, section

    def test_compile_only_report(self, fig1a):
        interpreter = repro.Interpreter(fig1a)
        result = interpreter.compile("MORPH author [ name ]")
        text = full_report(result)
        assert "compile only" in text
        assert "source shape" not in text  # no index passed

    def test_contents_are_real(self, fig1c):
        interpreter = repro.Interpreter(fig1c)
        result = interpreter.transform(
            "MORPH author [ !title name publisher [ name ] ]"
        )
        result.xml()
        text = full_report(result, interpreter.index)
        assert "widening" in text
        assert "<!ELEMENT author" in text
        assert "data.author.book.title" in text
        assert "nodes read" in text

    def test_report_prints_the_first_renders_counts(self, fig1a, monkeypatch):
        """``xml()`` then the report: one text-sink render, no tree."""
        runs = []
        real = CompiledRender.run
        monkeypatch.setattr(
            CompiledRender, "run", lambda self, index: runs.append(index) or real(self, index)
        )
        interpreter = repro.Interpreter(fig1a)
        result = interpreter.transform("MORPH author [ name ]")
        assert "not rendered" in full_report(result)
        result.xml()
        text = full_report(result, interpreter.index)
        assert runs == []
        written, read, joins = result.render_counts
        assert f"nodes read {read}, written {written}, closest joins {joins}" in text
        assert "not rendered" not in text
