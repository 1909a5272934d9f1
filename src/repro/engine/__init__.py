"""The XMorph engine: rendering, the interpreter pipeline, query guards.

* :mod:`repro.engine.render` — the Render algorithm (Section VII):
  recursive descent over the target shape, pairing parents with their
  closest children via Dewey-number sort-merge joins (the reference).
* :mod:`repro.engine.compile` — the same algorithm unrolled per plan
  into generated loops, with a tree sink and a text sink.
* :mod:`repro.engine.interpreter` — the full pipeline of Figure 8:
  parse → algebra → type analysis → loss check → shape → render.
* :mod:`repro.engine.guard` — query guards: couple a guard with an
  XQuery-lite query, transforming the data before evaluation; the query
  always runs over the rendered forest.
"""

from repro.engine.render import render, RenderResult
from repro.engine.interpreter import Interpreter, TransformResult
from repro.engine.guard import GuardedQuery, GuardOutcome

__all__ = [
    "render",
    "RenderResult",
    "Interpreter",
    "TransformResult",
    "GuardedQuery",
    "GuardOutcome",
]
