"""``repro.cache`` — caching across the query pipeline.

Two caches make repeated guard evaluation cheap:

* the **plan cache** (:class:`PlanCache`): compiled guard plans keyed by
  ``(guard text, document shape fingerprint)``, so a repeat
  ``transform``/``stream_transform`` over any document with
  that shape skips the lexer → parser → typing → algebra stages entirely
  (every :class:`repro.storage.Database` holds one);
* the **closest-join memo** (on
  :class:`repro.closeness.index.BaseIndex`): per-type-pair closest-join
  maps shared between both sinks of every plan's emitter, invalidated
  together with the index's node sequences.

See ``docs/PERFORMANCE.md`` for the design and the metric catalogue
(``plan_cache.*``, ``join_cache.*``).
"""

from repro.cache.plan import CompiledPlan, PlanCache, shape_fingerprint

__all__ = ["CompiledPlan", "PlanCache", "shape_fingerprint"]
