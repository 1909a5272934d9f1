"""Baselines XMorph is compared against in the paper's evaluation.

:mod:`repro.baseline.existdb` models eXist 1.4, the native XML DBMS of
Section IX: documents stored in document order on disk pages, and an
XQuery evaluator over the document's DOM that reconstructs results by
tree navigation.
"""

from repro.baseline.existdb import ExistStore

__all__ = ["ExistStore"]
