"""Tests for the bench harness: reporting tables and ASCII plots."""

import os

import pytest

from benchmarks.plots import AsciiChart, sparkline
from benchmarks.reporting import SeriesTable, format_seconds, write_report


class TestSparkline:
    def test_monotone(self):
        line = sparkline([1, 2, 3, 4])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_flat(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""


class TestAsciiChart:
    def test_render_contains_marks_and_legend(self):
        chart = AsciiChart("test chart", height=6, width=30)
        chart.add_series("linear", [(1, 1), (2, 2), (3, 3)])
        chart.add_series("flat", [(1, 2), (2, 2), (3, 2)])
        text = chart.render()
        assert "test chart" in text
        assert "* linear" in text
        assert "o flat" in text
        assert "*" in text.splitlines()[1]  # max point at the top row

    def test_axis_labels(self):
        chart = AsciiChart("axes", height=4, width=20)
        chart.add_series("s", [(0, 0), (10, 100)])
        text = chart.render()
        assert "100" in text
        assert "0" in text and "10" in text

    def test_no_data(self):
        assert "(no data)" in AsciiChart("empty").render()

    def test_single_point(self):
        chart = AsciiChart("dot", height=3, width=10)
        chart.add_series("s", [(1, 1)])
        assert "*" in chart.render()


class TestSeriesTable:
    def test_alignment(self):
        table = SeriesTable("t", "x", ["a", "b"])
        table.add_row(1, 10, 200.5)
        table.add_row(2, 3000, 0.25)
        lines = table.render().splitlines()
        assert lines[0] == "t"
        header = lines[2]
        assert header.split() == ["x", "a", "b"]

    def test_wrong_arity_rejected(self):
        table = SeriesTable("t", "x", ["a"])
        with pytest.raises(ValueError):
            table.add_row(1, 2, 3)

    def test_notes_rendered(self):
        table = SeriesTable("t", "x", ["a"])
        table.add_row(1, 2)
        table.note("hello")
        assert "note: hello" in table.render()

    def test_write_report(self, tmp_path):
        table = SeriesTable("t", "x", ["a"])
        table.add_row(1, 2)
        path = write_report("unit", table.render(), directory=str(tmp_path))
        assert os.path.exists(path)
        assert "t" in open(path).read()


class TestFormatSeconds:
    def test_ranges(self):
        assert format_seconds(0.0000005) == "0us"
        assert format_seconds(0.0005) == "500us"
        assert format_seconds(0.25) == "250.0ms"
        assert format_seconds(3.5) == "3.50s"
