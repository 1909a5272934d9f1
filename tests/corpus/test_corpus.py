"""Run the golden-case corpus: exact semantics, pinned forever."""

import pytest

import repro

from tests.corpus.cases import CASES
from tests.engine.test_parity import assert_parity


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
class TestCorpus:
    def test_output(self, case):
        result = repro.transform(repro.parse_document(case.document), case.guard)
        expected = repro.parse_forest(case.expected)
        assert result.forest.canonical() == expected.canonical(), (
            f"{case.name}\n--- got ---\n{result.xml(indent=2)}"
            f"\n--- expected ---\n{repro.serialize(expected, indent=2)}"
        )

    def test_loss_verdict(self, case):
        result = repro.transform(repro.parse_document(case.document), case.guard)
        assert str(result.loss.guard_type) == case.loss, result.loss.pretty()

    def test_streaming_agrees(self, case):
        """Every corpus case: reference, tree sink and text sink agree,
        and the text is the pinned output."""
        _reference, _tree, text, _stats = assert_parity(
            repro.parse_document(case.document), case.guard
        )
        expected = repro.parse_forest(case.expected)
        assert repro.parse_forest(text).canonical() == expected.canonical()


def test_corpus_names_unique():
    names = [case.name for case in CASES]
    assert len(set(names)) == len(names)


def test_corpus_covers_all_operators():
    """The corpus exercises every language construct at least once."""
    text = " ".join(case.guard.upper() for case in CASES)
    for keyword in [
        "MORPH", "MUTATE", "TRANSLATE", "DROP", "CLONE", "NEW",
        "RESTRICT", "TYPE-FILL", "CAST", "|", "[*", "[**", "!",
    ]:
        assert keyword in text, f"corpus misses {keyword}"
