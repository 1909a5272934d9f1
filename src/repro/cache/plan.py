"""The compiled-guard plan cache.

Everything the pipeline produces *before* rendering — the target shape,
the loss report, the evaluation — depends only on the guard text and the
document's adorned shape, never on the data.  That is the paper's
architectural asymmetry ("prior to rendering, only the adorned shapes
... are needed"), and it makes compiled plans safely reusable: two
documents with byte-identical shape descriptors compile every guard to
the same plan, and a document whose shape has not changed can skip the
lexer → parser → typing → algebra stages entirely on a repeat guard.

:func:`shape_fingerprint` turns a shape descriptor (the ``types`` /
``edges`` / ``counts`` dict the shredder stores) into a short stable
hash; :class:`PlanCache` is an LRU of :class:`CompiledPlan` entries
keyed by ``(guard text, fingerprint)``.  Hits, misses and evictions are
counted as ``plan_cache.*`` in the registry the cache is given (a
database's :class:`~repro.storage.stats.SystemStats`, which reports them
to the current tracer too, so ``EXPLAIN ANALYZE`` shows them).

Cached plans are shared between calls: treat the ``target_shape``,
``loss`` and ``evaluation`` of a cached result as immutable.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.interpreter import TransformResult
    from repro.storage.stats import SystemStats


def _canonical(value):
    """Rewrite a descriptor so JSON canonicalization is injective.

    ``json.dumps`` silently coerces non-string dict keys, so ``{1: x}``
    and ``{"1": x}`` would serialize — and therefore fingerprint —
    identically while describing different shapes.  Non-string keys are
    tagged with their type name behind a ``\\x00`` sentinel (which never
    appears in shredder-produced keys); string keys that do start with
    the sentinel are escaped the same way, keeping the mapping
    injective.  Descriptors with only ordinary string keys — everything
    the shredder writes — canonicalize exactly as before, so stored
    fingerprints remain valid.
    """
    if isinstance(value, dict):
        tagged = {}
        for key, item in value.items():
            if isinstance(key, str):
                name = "\x00str\x00" + key if key.startswith("\x00") else key
            else:
                name = f"\x00{type(key).__name__}\x00{key}"
            tagged[name] = _canonical(item)
        return tagged
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def shape_fingerprint(descriptor: dict) -> str:
    """A short, stable hash of a document's adorned-shape descriptor.

    The descriptor is the ``{"types": ..., "edges": ..., "counts": ...}``
    dict the shredder writes (:func:`repro.storage.shredder.shred`);
    canonical JSON makes the fingerprint independent of dict ordering,
    so a descriptor decoded from storage hashes identically to the one
    computed at shred time.  Dict keys are type-tagged before hashing
    (see :func:`_canonical`): descriptors differing only in ``1`` vs
    ``"1"`` keys must not share plans.

    A shredder's descriptor needs no tag, and its JSON is then already
    canonical: when the JSON reads back equal to the descriptor (so
    every key was a string) and holds no ``\\u0000`` (so no key starts
    with the sentinel), it is hashed as is, without rebuilding the
    descriptor through :func:`_canonical`.
    """
    try:
        canonical = _dumps(descriptor)
    except TypeError:  # keys of mixed types do not sort
        canonical = None
    if canonical is None or "\\u0000" in canonical or json.loads(canonical) != descriptor:
        canonical = _dumps(_canonical(descriptor))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True, slots=True)
class CompiledPlan:
    """One guard's compilation artifacts, reusable across renders."""

    guard: str
    fingerprint: str
    #: The checked result (``Interpreter.compile``): target shape, loss,
    #: evaluation and the plan's emitter, which keeps whichever sink
    #: functions renders have asked for so far.  It reads only the shape,
    #: so it serves every document whose fingerprint matches; each
    #: request gets a planned copy (``checked.planned(index)``).
    checked: "TransformResult"


class PlanCache:
    """An LRU cache of :class:`CompiledPlan` keyed by (guard, fingerprint).

    A plan depends on nothing but its key, so no write to the store
    makes one wrong: an update that changes a document's shape changes
    its fingerprint, and the old plans serve every document that still
    (or again) has the old one.  Entries leave only by LRU eviction or
    :meth:`clear`.

    The cache is thread-safe: one re-entrant lock guards the LRU map, so
    a :class:`~repro.serve.TransformPool`'s workers can hit it
    concurrently without corrupting the recency order.
    :meth:`get_or_compile` adds *single-flight* compilation on top:
    when N threads miss on the same key at once, one compiles while the
    rest wait on a per-key event and reuse the result —
    ``plan_cache.contended`` counts the waiters that would have
    duplicated work.  Every count goes to ``registry``.
    """

    def __init__(self, registry: "SystemStats", capacity: int = 64):
        self.registry = registry
        self.capacity = capacity
        self._lock = threading.RLock()
        self._plans: OrderedDict[tuple[str, str], CompiledPlan] = OrderedDict()
        #: Keys currently being compiled by some thread (single-flight).
        self._in_flight: dict[tuple[str, str], threading.Event] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: tuple[str, str]) -> bool:
        with self._lock:
            return key in self._plans

    def get(self, guard: str, fingerprint: str) -> Optional[CompiledPlan]:
        with self._lock:
            plan = self._plans.get((guard, fingerprint))
            if plan is None:
                self.registry.count("plan_cache.misses")
                return None
            self.registry.count("plan_cache.hits")
            self._plans.move_to_end((guard, fingerprint))
            return plan

    def put(self, plan: CompiledPlan) -> None:
        with self._lock:
            key = (plan.guard, plan.fingerprint)
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self.registry.count("plan_cache.evictions")

    def get_or_compile(
        self,
        guard: str,
        fingerprint: str,
        compile_plan: Callable[[], CompiledPlan],
    ) -> CompiledPlan:
        """A cached plan, compiling (single-flight) on miss.

        At most one thread runs ``compile_plan`` for a given key at a
        time; concurrent requesters block until it finishes, then re-read
        the cache.  If the compiling thread fails (or its plan was
        evicted before the waiter woke), the waiter takes over and
        compiles itself.
        """
        key = (guard, fingerprint)
        while True:
            with self._lock:
                plan = self._plans.get(key)
                if plan is not None:
                    self.registry.count("plan_cache.hits")
                    self._plans.move_to_end(key)
                    return plan
                pending = self._in_flight.get(key)
                if pending is None:
                    self.registry.count("plan_cache.misses")
                    pending = self._in_flight[key] = threading.Event()
                    leader = True
                else:
                    self.registry.count("plan_cache.contended")
                    leader = False
            if leader:
                try:
                    plan = compile_plan()
                    self.put(plan)
                    return plan
                finally:
                    with self._lock:
                        self._in_flight.pop(key, None)
                    pending.set()
            else:
                pending.wait()
                # Loop: either the leader's plan is now cached (hit), or
                # it failed/was evicted and this thread becomes the new
                # leader.

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def stats(self) -> dict:
        counter = self.registry.counter
        return {
            "entries": len(self),
            "capacity": self.capacity,
            **{
                name: counter(f"plan_cache.{name}")
                for name in ("hits", "misses", "evictions", "contended")
            },
        }
