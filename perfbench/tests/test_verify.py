"""The correctness gate must refuse: a flipped byte, a lost batch.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import shutil

from perfbench import __main__ as cli
from perfbench import verify, workloads
from perfbench.workloads import ServeSmall, UpdateMix
from repro.storage.database import Database
from repro.storage.update import InsertSubtree


def _response(xml: str) -> bytes:
    return (json.dumps({"id": 3, "ok": True, "xml": xml}) + "\n").encode()


def test_response_with_one_byte_flipped_is_refused():
    xml = "<year>2001<ee>http://doi.example.org/1</ee></year>"
    good = _response(xml)
    assert verify.response_matches(good, 3, xml)
    flipped = bytearray(good)
    flipped[good.index(b"2001")] ^= 0x01
    assert not verify.response_matches(bytes(flipped), 3, xml)
    assert not verify.response_matches(good, 4, xml)
    assert not verify.response_matches(b'{"id": 3, "ok": false, "error": "x"}\n', 3, xml)
    assert not verify.response_matches(good[: len(good) // 2], 3, xml)


def test_store_that_lost_its_last_batch_is_refused(tmp_path):
    path = str(tmp_path / "a.db")
    before = str(tmp_path / "before.db")
    with Database(path) as db:
        db.store_document("doc", "<r><a>1</a></r>")
        db.flush()
        shutil.copy(path, before)
        db.insert_subtree("doc", (1,), "<a>2</a>")
    acknowledged = {"doc": "<r><a>1</a><a>2</a></r>"}
    assert verify.store_problems(path, acknowledged) == []
    problems = verify.store_problems(before, acknowledged)
    assert problems and "differs" in problems[0]


class _FlippedAnswer(ServeSmall):
    def setup(self):
        super().setup()  # warm-up still sees the right answers
        line, answer, request_id, xml, nbytes = self.requests[2]
        wrong = xml[:-2] + ("X" if xml[-2] != "X" else "Y") + xml[-1]
        self.requests[2] = (line, _response(wrong), request_id, wrong, nbytes)


class _LostBatch(UpdateMix):
    def verify(self, recorder):
        # Acknowledged to the client, never applied to the store.
        self.log.append(([InsertSubtree((1,), self.batch_donors[0])], None))
        super().verify(recorder)


def _run(monkeypatch, capsys, workload):
    monkeypatch.setitem(workloads.WORKLOADS, workload.name, workload)
    code = cli.main(["--workload", workload.name, "--smoke", "--seconds", "0.2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def test_wrong_response_fails_the_command(monkeypatch, capsys):
    code, result = _run(monkeypatch, capsys, _FlippedAnswer)
    assert code != 0
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_lost_batch_fails_the_command(monkeypatch, capsys):
    code, result = _run(monkeypatch, capsys, _LostBatch)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0
