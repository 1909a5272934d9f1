"""One benchmark run: set up, timed rounds, verification, metrics.

A run is one workload in one process.  The timed region is a sequence
of *rounds*; every round replays the same seeded operation stream, so
the n-th operation of a round (its *slot*) is the same operation every
time and can be reduced over the rounds by a median.

The sandbox this runs in shares its cores: for periods of milliseconds
to minutes the same code runs at about half speed.  Three things keep
that out of the numbers (see README.md, "Method"):

* the run is pinned to one CPU (:func:`pin_to_one_cpu`);
* a fixed piece of interpreter work (:func:`calibration_kernel`) is
  timed before and after every round and at least every
  ``CALIBRATION_EVERY_S`` seconds inside it; the *speed* at such a point
  is its samples' mean over the kernel's time on the quiet reference
  box, and every time taken between two points is divided by the mean
  of their speeds;
* only the quieter half of the rounds is used.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

from perfbench import OUT_DIR
from perfbench.corpus import Scale
from perfbench.trace import Tracer

#: Share of a traced run's budget spent in traced rounds; the rest runs
#: untraced so the two can be compared (``trace.overhead_share``).
TRACED_SHARE = 0.55
#: Seconds :func:`calibration_kernel` takes on the reference box when
#: nothing else runs there.
CALIBRATION_NOMINAL_S = 0.0050
#: At most this long goes by between two calibration samples.
CALIBRATION_EVERY_S = 0.1
#: Samples taken back to back at every calibration point.
CALIBRATION_BURST = 3


def pin_to_one_cpu():
    """Keep the run (and the server process it starts) on one CPU;
    returns the affinity to restore afterwards.

    One closed-loop client never has two threads runnable at once, so
    nothing is lost; what is gained is that no hand-off between client,
    connection thread, pool worker and responder has to wake an idle
    CPU.  In a small VM that wake-up is slow and bimodal (the same
    request stream ran at 1,800 or 3,200 requests/s from one minute to
    the next until pinned), and it belongs to the hypervisor, not to the
    program.  The last allowed CPU is the one least used by the system.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


def calibration_kernel() -> float:
    """Seconds for a fixed piece of interpreter work (dict updates, string
    building, list churn): the machine's speed right now."""
    started = perf_counter()
    table: dict[int, int] = {}
    parts: list[str] = []
    for number in range(20000):
        key = (number * 7919) % 1009
        table[key] = table.get(key, 0) + number
        parts.append(str(key))
        if len(parts) == 64:
            "".join(parts)
            parts.clear()
    return perf_counter() - started


def percentile(samples, q: float) -> float:
    """Linear interpolation between order statistics."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


@dataclass
class Slot:
    """One operation of a round; seconds as measured."""

    latency: float
    #: From the end of the previous operation (or the start of the round)
    #: to the end of this one, calibration excluded: slot walls add up to
    #: the round's wall.
    wall: float
    main: bool
    read: bool
    #: Index of the last calibration point before the operation; the
    #: next point is the first one after it.
    point: int = 0


@dataclass
class Round:
    traced: bool
    bytes: int = 0
    slots: list[Slot] = field(default_factory=list)
    #: Speed at each calibration point, in time order: how much slower
    #: than the reference box the machine ran just then.
    points: list[float] = field(default_factory=list)

    @property
    def speed(self) -> float:
        """The machine's speed over the whole round: seconds measured in
        it, divided by this, are seconds at reference speed."""
        return statistics.mean(self.points)

    def at_reference_speed(self) -> list[Slot]:
        """The slots with their seconds divided by the speed around them."""
        adjusted = []
        for slot in self.slots:
            speed = (self.points[slot.point] + self.points[slot.point + 1]) / 2
            adjusted.append(
                Slot(slot.latency / speed, slot.wall / speed, slot.main, slot.read, slot.point)
            )
        return adjusted

    @property
    def wall(self) -> float:
        """Seconds at reference speed."""
        return sum(slot.wall for slot in self.at_reference_speed())


class Recorder:
    """What the client side of a workload observed."""

    def __init__(self, calibrating: bool = True) -> None:
        #: False for the throw-away recorders of warm-up operations.
        self.calibrating = calibrating
        self.rounds: list[Round] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer: Tracer | None = None
        self._round = Round(traced=False)
        self._mark = 0.0
        self._ended = 0.0
        self._calibrated = 0.0

    def calibrate(self) -> float:
        """A calibration point; returns the seconds it took."""
        started = perf_counter()
        samples = [calibration_kernel() for _ in range(CALIBRATION_BURST)]
        self._round.points.append(statistics.mean(samples) / CALIBRATION_NOMINAL_S)
        self._calibrated = perf_counter()
        return self._calibrated - started

    def start_round(self) -> None:
        self._round = Round(traced=self.tracer is not None)
        self.calibrate()
        self._mark = perf_counter()

    def end_round(self) -> Round:
        """Close the round: what followed the last operation (closing a
        store, say) is charged to it, so slot walls still add up."""
        finished = self._round
        if finished.slots:
            finished.slots[-1].wall += perf_counter() - self._mark
        self.calibrate()
        self.rounds.append(finished)
        return finished

    def start(self) -> float:
        if self.tracer is not None:
            return self.tracer.begin_op()
        return perf_counter()

    def stop(self, started: float, kind: str = "op") -> float:
        if self.tracer is not None:
            latency = self.tracer.end_op(started, kind)
        else:
            latency = perf_counter() - started
        self._ended = started + latency
        return latency

    def count(self, latency, nbytes, ok, main=True, read=False, why="") -> None:
        """One finished operation: its latency, user bytes, verdict
        (``ok=None``: the caller checks it later through :meth:`check`)."""
        current = self._round
        current.bytes += nbytes
        current.slots.append(
            Slot(latency, self._ended - self._mark, main, read, len(current.points) - 1)
        )
        self._mark = self._ended
        if ok is not None:
            self.check(ok, why)
        if self.calibrating and self._ended - self._calibrated > CALIBRATION_EVERY_S:
            self._mark += self.calibrate()

    def check(self, ok, why="") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(why or "wrong output")


def quiet_half(rounds: list[Round]) -> list[Round]:
    """The half of the rounds (at least three) the machine was fastest in."""
    keep = max(min(3, len(rounds)), len(rounds) // 2)
    return sorted(rounds, key=lambda r: r.speed)[:keep]


def typical_round(rounds: list[Round]) -> list[Slot]:
    """Slot by slot, the median over the rounds of the slot's cost at
    reference speed.

    A stall spoils one sample of one slot; it would spoil a whole
    round's total.
    """
    sizes = {len(r.slots) for r in rounds}
    if len(sizes) != 1:
        raise RuntimeError(f"rounds differ in length: {sorted(sizes)}")
    return [
        Slot(
            latency=statistics.median(slot.latency for slot in column),
            wall=statistics.median(slot.wall for slot in column),
            main=column[0].main,
            read=column[0].read,
        )
        for column in zip(*(r.at_reference_speed() for r in rounds))
    ]


def run_rounds(workload, recorder: Recorder, budget: float, min_rounds: int) -> None:
    deadline = perf_counter() + budget
    done = 0
    last = 0.0
    while done < min_rounds or perf_counter() + 0.5 * last < deadline:
        if recorder.tracer is not None:
            recorder.tracer.start_round()
            workload.traced_round()
        started = perf_counter()
        recorder.start_round()
        workload.round(recorder)
        recorder.end_round()
        last = perf_counter() - started
        done += 1


def reset_peak_rss() -> None:
    """Forget the RSS high-water mark so far (the benchmark's own
    reference rendering), where the kernel allows it."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_kb() -> int:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_workload(workload_class, seed: int, seconds: float, trace: bool, scale: Scale) -> dict:
    """Run one workload; returns ``correct/attempted/failed/metrics`` plus
    ``notes`` (sample counts and the like, for the human-readable report)."""
    from perfbench import layers

    affinity = pin_to_one_cpu()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{workload_class.name}-", dir=OUT_DIR)
    workload = workload_class(seed, scale, workdir)
    recorder = Recorder()
    try:
        workload.prepare()
        gc.collect()
        reset_peak_rss()
        setups = []
        for attempt in range(1 if trace else scale.setup_repeats):
            if attempt:
                workload.teardown()
            recorder.start_round()  # a "round" of calibration around the set-up
            started = perf_counter()
            workload.setup()
            elapsed = perf_counter() - started
            setups.append(elapsed / recorder.end_round().speed)
        recorder.rounds.clear()
        gc.collect()
        if trace:
            tracer = Tracer()
            try:
                tracer.install()
                workload.tracing(True)
                recorder.tracer = tracer
                run_rounds(workload, recorder, seconds * TRACED_SHARE, 1)
                recorder.tracer = None
                tracer.uninstall()
                workload.tracing(False)
                run_rounds(workload, recorder, seconds * (1 - TRACED_SHARE), 1)
                rounds = list(recorder.rounds)
                tracer.install()
                workload.tracing(True)
                recorder.tracer = tracer
                recorder.start_round()
                extras = workload.trace_extras(recorder)
                recorder.end_round()
            finally:
                recorder.tracer = None
                tracer.uninstall()
        else:
            run_rounds(workload, recorder, seconds, scale.min_rounds)
        space_ratio = workload.space_ratio()
        rss_kb = peak_rss_kb()
        workload.verify(recorder)
        workload.teardown()
        if trace:
            workload.merge_trace(tracer)
            tracer.write(OUT_DIR / f"trace-{workload.name}.jsonl")
            metrics, notes = layers.layer_metrics(tracer, rounds, extras)
        else:
            metrics, notes = end_to_end(
                recorder.rounds, setups, space_ratio, workload.peak_rss_kb(rss_kb)
            )
    finally:
        workload.teardown()  # idempotent; stops the server process on a failed run too
        shutil.rmtree(workdir, ignore_errors=True)
        if affinity is not None:
            os.sched_setaffinity(0, affinity)
    return {
        "correct": recorder.failed == 0,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": metrics,
        "notes": {**notes, "problems": recorder.problems},
    }


def end_to_end(rounds: list[Round], setups, space_ratio: float, rss_kb: int):
    quiet = quiet_half(rounds)
    typical = typical_round(quiet)
    main = [slot.latency for slot in typical if slot.main]
    reads = [slot.latency for slot in typical if slot.read]
    # Whole rounds for the rates: a cost the program pays every so many
    # operations (a generation-2 collection, say) is in every round's
    # total, but only in a slot's median if it hits the same slot in
    # most rounds.
    wall = statistics.median(r.wall for r in quiet)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (percentile(main, 0.50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(main, 0.90) * 1e3, "ms"),
        "read_p50_ms": (percentile(reads, 0.50) * 1e3, "ms"),
        "throughput_ops_s": (len(typical) / wall, "ops/s"),
        "xml_mb_s": (rounds[0].bytes / wall / 1e6, "MB/s"),
        "stored_bytes_per_user_byte": (space_ratio, "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    speeds = sorted(r.speed for r in rounds)
    notes = {
        "rounds": len(rounds),
        "rounds_used": len(quiet),
        "ops_per_round": len(typical),
        "main_ops_per_round": len(main),
        "read_ops_per_round": len(reads),
        "setups_s": [round(seconds, 4) for seconds in setups],
        "median_round_s": round(wall, 4),
        "machine_speed_min_median_max": [
            round(speeds[0], 3),
            round(statistics.median(speeds), 3),
            round(speeds[-1], 3),
        ],
        "calibration_points": sum(len(r.points) for r in rounds),
    }
    return metrics, notes
