"""Tests for the trace exporters: tree rendering and JSONL round trip."""

import json

from repro import obs
from repro.obs.export import render_tree, to_json_lines

from tests.obs.trace_reader import from_json_lines


def traced_run() -> obs.Tracer:
    tracer = obs.Tracer()
    with tracer.span("pipeline.compile", guard="MORPH a"):
        with tracer.span("lang.parse"):
            pass
        with tracer.span("typing.type-analysis") as analysis:
            analysis.annotate(types=3)
    with tracer.span("pipeline.render"):
        tracer.count("render.nodes_emitted", 12)
        tracer.observe("join.pairs", 4.0)
        tracer.gauge("buffer.hit_ratio", 0.75)
    return tracer


class TestRenderTree:
    def test_tree_structure_and_metrics(self):
        text = render_tree(traced_run())
        lines = text.splitlines()
        assert lines[0].startswith("pipeline.compile")
        assert "[guard=MORPH a]" in lines[0]
        assert lines[1].startswith("  lang.parse")
        assert lines[2].startswith("  typing.type-analysis")
        assert any(line.startswith("pipeline.render") for line in lines)
        assert "render.nodes_emitted = 12" in text
        assert "buffer.hit_ratio = 0.75" in text
        assert "join.pairs: count=1" in text

    def test_empty_tracer_renders_empty(self):
        assert render_tree(obs.Tracer()) == ""


class TestJsonLines:
    def test_every_line_is_valid_json(self):
        for line in to_json_lines(traced_run()).splitlines():
            json.loads(line)

    def test_header_and_record_types(self):
        records = [json.loads(line) for line in to_json_lines(traced_run()).splitlines()]
        assert records[0] == {"type": "trace", "version": 2}
        kinds = [record["type"] for record in records]
        assert kinds.count("span") == 4
        assert kinds[-1] == "metrics"

    def test_round_trip_preserves_structure(self):
        tracer = traced_run()
        trace = from_json_lines(to_json_lines(tracer))
        assert [root.name for root in trace.roots] == [
            "pipeline.compile",
            "pipeline.render",
        ]
        compile_record = trace.roots[0]
        assert [child.name for child in compile_record.children] == [
            "lang.parse",
            "typing.type-analysis",
        ]
        assert compile_record.attrs == {"guard": "MORPH a"}
        assert compile_record.children[1].attrs == {"types": 3}

    def test_round_trip_preserves_timings(self):
        tracer = traced_run()
        trace = from_json_lines(to_json_lines(tracer))
        live = tracer.roots[0]
        loaded = trace.roots[0]
        assert loaded.duration == live.duration
        assert loaded.start == 0.0  # starts are relative to the trace epoch
        child = loaded.children[0]
        assert child.start >= 0.0

    def test_round_trip_preserves_metrics(self):
        tracer = traced_run()
        trace = from_json_lines(to_json_lines(tracer))
        assert trace.metrics.as_dict() == tracer.metrics.as_dict()

    def test_trace_record_find(self):
        trace = from_json_lines(to_json_lines(traced_run()))
        assert trace.find("lang.parse").name == "lang.parse"
        assert trace.find("absent") is None
        assert "typing.type-analysis" in trace.span_names()

    def test_write_json_lines(self, tmp_path):
        path = obs.write_json_lines(traced_run(), str(tmp_path / "trace.jsonl"))
        content = open(path).read()
        assert content.endswith("\n")
        assert from_json_lines(content).find("pipeline.render") is not None
