"""The text sink: inputs from the retired streaming renderer's suite (the
assertion is :func:`tests.engine.test_parity.assert_parity`), plus what
only a text sink has — its statistics and how it hands text to ``out``."""

from io import StringIO

import pytest

import repro
from repro.engine.compile import CompiledRender
from repro.workloads import generate_dblp
from repro.xmltree.serializer import serialize

from tests.engine.test_parity import assert_parity

GUARDS = [
    "MORPH author [ name book [ title ] ]",
    "MORPH publisher [ name book [ title ] ]",
    "MUTATE data",
    "MUTATE book [ publisher [ name ] ]",
    "MORPH author [ name ] | TRANSLATE author -> writer",
    "MUTATE (NEW scribe) [ author ]",
    "MORPH (RESTRICT name [ author ])",
]


class TestAgreesWithBatchRenderer:
    @pytest.mark.parametrize("guard", GUARDS)
    def test_same_output_fig1a(self, fig1a, guard):
        assert_parity(fig1a, f"CAST ({guard})")

    @pytest.mark.parametrize("guard", GUARDS[:4])
    def test_same_output_fig1c(self, fig1c, guard):
        assert_parity(fig1c, f"CAST ({guard})")

    def test_dblp_medium_guard(self):
        assert_parity(generate_dblp(120), "CAST (MORPH author [ title [ year ] ])")

    def test_attributes_stream_into_start_tags(self):
        forest = repro.parse_document('<r><item id="i1"><price>3</price></item></r>')
        _ref, _tree, text, _stats = assert_parity(forest, "CAST (MORPH item [ id price ])")
        assert 'id="i1"' in text


class TestStreamingBehaviour:
    def test_stats_counted(self, fig1a):
        interpreter = repro.Interpreter(fig1a)
        compiled = interpreter.compile("MORPH author [ name ]")
        sink = StringIO()
        emitter = CompiledRender(compiled.target_shape, interpreter.index)
        stats = emitter.write(interpreter.index, sink)
        assert stats.nodes_written == 4  # 2 authors + 2 names
        assert stats.characters == len(sink.getvalue())
        assert stats.joins >= 1

    def test_incremental_writes(self):
        """Output arrives in several writes, between root instances — not
        as one string the size of the whole result."""

        class CountingSink:
            def __init__(self):
                self.pieces = []

            def write(self, text):
                self.pieces.append(text)

        interpreter = repro.Interpreter(generate_dblp(300))
        guard = "CAST MORPH author [ title [ year ] ]"
        compiled = interpreter.compile(guard)
        sink = CountingSink()
        emitter = CompiledRender(compiled.target_shape, interpreter.index)
        stats = emitter.write(interpreter.index, sink)
        whole = serialize(interpreter.transform(guard).forest)
        assert "".join(sink.pieces) == whole
        assert len(sink.pieces) > 3
        assert max(map(len, sink.pieces)) < len(whole) / 2
        assert stats.characters == len(whole)
