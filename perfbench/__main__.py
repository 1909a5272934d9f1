"""``python3 -m perfbench``: one run, or the whole suite.

* ``--workload NAME --seed N --seconds S --trace 0|1`` is one run (what
  ``BENCHMARK.json``'s command is given): a report on stderr and, as the
  last line of stdout, ``{"correct", "attempted", "failed", "metrics"}``
  with the end-to-end metrics (``--trace 0``) or the per-layer metrics
  (``--trace 1``).
* Without ``--workload`` every workload runs in a fresh subprocess of
  its own, untraced then traced; see :mod:`perfbench.suite`.
"""

from __future__ import annotations

import argparse
import json
import sys

from perfbench import suite
from perfbench.corpus import FULL, SMOKE
from perfbench.harness import run_workload
from perfbench.workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None, help="timed region of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny corpora, one round: structure, not numbers"
    )
    parser.add_argument(
        "--repeat-check",
        action="store_true",
        help="run the suite twice and fail unless the two sets agree",
    )
    arguments = parser.parse_args(argv)
    seconds = arguments.seconds
    if seconds is None:
        seconds = suite.SMOKE_SECONDS if arguments.smoke else suite.declared()["run_seconds"]
    if arguments.workload is None:
        return suite.main(arguments.seed, seconds, arguments.smoke, arguments.repeat_check)

    result = run_workload(
        WORKLOADS[arguments.workload],
        arguments.seed,
        seconds,
        bool(arguments.trace),
        SMOKE if arguments.smoke else FULL,
    )
    notes = result.pop("notes")
    suite.report_run(arguments.workload, result, notes, sys.stderr)
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
