"""The whole suite: every workload, each run in a fresh subprocess.

A fresh process per run keeps caches, collector state and peak RSS of
one workload out of the next.  ``BENCHMARK.json`` is the one list of
workloads, metrics and bounds; this module reads it, checks that every
run printed exactly the declared metrics, prints them by name with unit
and sample counts, and writes ``perfbench/out/result.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys

from perfbench import OUT_DIR, REPO_ROOT
from perfbench.layers import EXACT

SMOKE_SECONDS = 0.3


def declared() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def report_run(workload: str, result: dict, notes: dict, out) -> None:
    """The human-readable report of one run."""
    problems = notes.pop("problems", [])
    share = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"== {workload}: {result['attempted']} checked, failed_share {share:.6f}", file=out)
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<42} {value:>14.4f} {unit}", file=out)
    print("  " + ", ".join(f"{key}={value}" for key, value in notes.items()), file=out)
    for problem in problems:
        print(f"  FAILED: {problem}", file=out)


def run_once(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One run in a subprocess; its stderr report passes through."""
    command = [
        sys.executable,
        "-m",
        "perfbench",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    if smoke:
        command.append("--smoke")
    finished = subprocess.run(
        command, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True, check=False
    )
    lines = finished.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(
            f"{workload} (trace {trace}) printed no result, exit {finished.returncode}"
        )
    result = json.loads(lines[-1])
    result["exit"] = finished.returncode
    return result


def run_suite(seed: int, seconds: float, smoke: bool) -> dict:
    spec = declared()
    wanted = {
        0: {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    }
    workloads = {}
    for workload in (entry["name"] for entry in spec["workloads"]):
        entry = workloads[workload] = {"attempted": 0, "failed": 0, "correct": True}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_once(workload, seed, seconds, trace, smoke)
            printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
            if printed != wanted[trace]:
                odd = set(printed.items()) ^ set(wanted[trace].items())
                raise RuntimeError(f"{workload}: metrics differ from BENCHMARK.json: {sorted(odd)}")
            entry[key] = {name: metric["value"] for name, metric in result["metrics"].items()}
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["correct"] = entry["correct"] and result["correct"] and result["exit"] == 0
        entry["failed_share"] = entry["failed"] / entry["attempted"]
    return {"seed": seed, "seconds": seconds, "smoke": smoke, "workloads": workloads, "claim": None}


def compare(first: dict, second: dict, out) -> bool:
    """Do two result sets of the same code agree?  End-to-end metrics
    within their own bound, count metrics exactly."""
    bounds = {metric["name"]: metric["bound"] for metric in declared()["end_to_end"]}
    agree = True
    for workload, one in first["workloads"].items():
        other = second["workloads"][workload]
        print(f"== repeat check: {workload}", file=out)
        for name, bound in bounds.items():
            a, b = one["end_to_end"][name], other["end_to_end"][name]
            difference = abs(a - b) / min(a, b)
            verdict = "ok" if difference <= bound else "DISAGREE"
            agree = agree and difference <= bound
            print(
                f"  {name:<42} {a:>12.4f} {b:>12.4f}  {difference:7.2%} of {bound:.0%}  {verdict}",
                file=out,
            )
        for name in sorted(EXACT):
            a, b = one["per_layer"][name], other["per_layer"][name]
            if a != b:
                agree = False
                print(f"  {name:<42} {a!r} != {b!r}  COUNT DIFFERS", file=out)
    return agree


def main(seed: int, seconds: float, smoke: bool, repeat_check: bool) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    results = [run_suite(seed, seconds, smoke)]
    if repeat_check:
        results.append(run_suite(seed, seconds, smoke))
    ok = all(entry["correct"] for result in results for entry in result["workloads"].values())
    if repeat_check:
        ok = compare(results[0], results[1], sys.stderr) and ok
    for index, result in enumerate(results):
        name = "result.json" if index == 0 else "result-repeat.json"
        with open(OUT_DIR / name, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")
    print(json.dumps(results[0]))
    return 0 if ok else 1
