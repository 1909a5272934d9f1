"""Structure, not numbers: the whole suite at smoke scale.

Asserts that every workload and metric ``BENCHMARK.json`` names is
printed, that nothing failed, that the trace files parse with every
span's parent present, and that the command refuses to run without the
program.  A later change that renames a public function the benchmark
calls fails here.  Run with ``python3 -m pytest perfbench/tests`` from
the repository root.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import OUT_DIR, REPO_ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def spec():
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_keeps_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert len(spec["command"]) <= 32 and all(len(part) <= 200 for part in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [metric for metric in spec["end_to_end"] if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(metric["bound"] for metric in spec["end_to_end"])
    # 4 + 22 runs per workload, each a run_seconds region plus set-up.
    assert (4 + 22 * len(spec["workloads"])) * (spec["run_seconds"] + 12) <= 3420


def test_smoke_suite_prints_every_declared_metric(spec):
    finished = subprocess.run(
        [sys.executable, "-m", "perfbench", "--smoke"],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    assert finished.returncode == 0, finished.stderr[-2000:]
    result = json.loads(finished.stdout.strip().splitlines()[-1])
    assert list(result)[-1] == "claim" and result["claim"] is None
    assert set(result["workloads"]) == {workload["name"] for workload in spec["workloads"]}
    for name, entry in result["workloads"].items():
        assert entry["correct"] and entry["failed_share"] == 0 and entry["attempted"] > 0
        assert set(entry["end_to_end"]) == {metric["name"] for metric in spec["end_to_end"]}
        assert set(entry["per_layer"]) == {metric["name"] for metric in spec["per_layer"]}
        assert all(value > 0 for value in entry["end_to_end"].values()), name
        _check_trace(OUT_DIR / f"trace-{name}.jsonl")
    assert json.loads((OUT_DIR / "result.json").read_text()) == result


def _check_trace(path):
    ids, parents, header = set(), [], None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["type"] == "header":
                header = record
            elif record["type"] == "span":
                ids.add(record["id"])
                parents.append(record["parent"])
                assert record["end"] >= record["start"] and NAME.match(record["name"])
            else:
                assert record["type"] == "hot" and record["count"] > 0
    assert header is not None and header["spans"] == len(ids) > 0
    assert all(parent == 0 or parent in ids for parent in parents)


def test_command_refuses_to_run_without_the_program(spec, tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark's files."""
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        REPO_ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    finished = subprocess.run(
        [*spec["command"], "--workload", "serve-small"]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    assert finished.returncode != 0
    assert finished.stdout.strip() == ""
