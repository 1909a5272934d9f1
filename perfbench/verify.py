"""The correctness gate: what a response and a store must equal.

Kept apart from the workloads so the self-tests can feed it a flipped
byte or a store that lost its last batch and see it refuse.
"""

from __future__ import annotations

import json

from repro.storage.database import Database
from repro.storage.fsck import fsck
from repro.xmltree.serializer import serialize


def response_matches(line: bytes, request_id, expected_xml: str) -> bool:
    """Is ``line`` the ``ok`` response to ``request_id`` carrying exactly
    ``expected_xml``?  Decodes the line, so it holds for any JSON
    spelling of the same response."""
    try:
        payload = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(payload, dict)
        and payload.get("ok") is True
        and payload.get("id") == request_id
        and payload.get("xml") == expected_xml
    )


def store_problems(path: str, expected: dict[str, str], reads=()) -> list[str]:
    """Check a closed store against what was acknowledged.

    ``expected`` maps document name to the XML text the store must hold;
    ``reads`` is ``(document, guard, expected output)`` triples.  Runs
    ``fsck``, then reopens the file read-only — a fresh handle sees only
    what reached the file — and compares every document re-serialized
    from its stored records, and every read.  Returns the problems found.
    """
    problems: list[str] = []
    report = fsck(path)
    if not report.ok:
        problems.append(f"fsck: {report.pretty()}")
    with Database(path, mode="r") as reopened:
        names = set(reopened.document_names())
        for name, text in expected.items():
            if name not in names:
                problems.append(f"{name}: missing after reopen")
            elif serialize(reopened.load_forest(name)) != text:
                problems.append(f"{name}: reopened document differs from what was acknowledged")
        for name, guard, output in reads:
            if name in names and reopened.transform(name, guard).xml() != output:
                problems.append(f"{name}: {guard!r} reads differently after reopen")
    return problems
