"""Closeness: type distances, the closest relation and closest graphs.

Definitions 1–2 of the paper: the *type distance* between two types is
the minimum tree distance over all vertex pairs with those types; two
vertices are *closest* when their distance equals the type distance of
their types.  The closest graph has a closest edge for every such pair.

:class:`DocumentIndex` computes exact type distances and closest pairs
from Dewey numbers (Section VII's closest join); :func:`closest_graph`
materializes a :class:`ClosestGraph` as the union of those joins over
every type pair, for the quantified-loss report and the reversibility
checks.
"""

from repro.closeness.index import BaseIndex, DocumentIndex
from repro.closeness.graph import ClosestGraph, closest_graph

__all__ = ["BaseIndex", "DocumentIndex", "ClosestGraph", "closest_graph"]
