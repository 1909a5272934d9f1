"""The XMorph engine: rendering, the interpreter pipeline, query guards.

* :mod:`repro.engine.compile` — the Render algorithm (Section VII),
  planned once per guard and shape and unrolled into generated loops
  that pair parents with their closest children via Dewey-number
  sort-merge joins, with a tree sink and a text sink.
* :mod:`repro.engine.interpreter` — the full pipeline of Figure 8:
  parse → algebra → type analysis → loss check → shape → render.
* :mod:`repro.engine.guard` — query guards: couple a guard with an
  XQuery-lite query, transforming the data before evaluation; the query
  always runs over the rendered forest.
"""

from repro.engine.compile import RenderResult
from repro.engine.interpreter import Interpreter, TransformResult
from repro.engine.guard import GuardedQuery, GuardOutcome

__all__ = [
    "RenderResult",
    "Interpreter",
    "TransformResult",
    "GuardedQuery",
    "GuardOutcome",
]
