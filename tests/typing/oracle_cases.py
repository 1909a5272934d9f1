"""The oracles at their full size: too slow for every tier-1 run.

Each case's :class:`LossQuantification` below is what
:func:`~tests.closeness.oracle.brute_force_loss` gives, which is also
what ``quantify_loss`` gave while it built its graphs by brute force.
``tests/typing/test_quantify.py`` holds the closest join to these
figures on every tier-1 run.  This module recomputes them with the
oracle, and runs ``tests/typing/test_loss_oracle.py``'s property (the
loss analysis against the all-pairs ``pairwise_loss``) on many more
examples.  Together that takes about two minutes, so the tier-1 run does
not collect it (its name does not match ``test_*.py``); run it by name:

    PYTHONPATH=src python -m pytest -q tests/typing/oracle_cases.py
"""

import pytest
from hypothesis import given, settings

import repro
from repro.closeness import closest_graph
from repro.typing.quantify import LossQuantification
from repro.workloads import generate_dblp, generate_nasa

from tests.closeness.oracle import brute_force_closest_graph, brute_force_loss
from tests.strategies import guards
from tests.typing.test_loss_oracle import SOURCES, assert_same_report

#: ``examples/astronomy_catalog.py``'s guard; its catalog is NASA-25.
ASTRONOMY_GUARD = "CAST MORPH dataset [ title keyword para year ]"

#: name -> (document factory, guard, the oracle's quantification).
MEASURED = {
    "nasa-25 astronomy catalog": (
        lambda: generate_nasa(25),
        ASTRONOMY_GUARD,
        LossQuantification(
            source_vertices=218,
            source_edges=670,
            preserved_edges=670,
            lost_edges=0,
            added_edges=0,
            lost_vertices=0,
            manufactured_vertices=0,
        ),
    ),
    "dblp-100 author title": (
        lambda: generate_dblp(100),
        "CAST MORPH author [ title ]",
        LossQuantification(
            source_vertices=328,
            source_edges=30877,
            preserved_edges=228,
            lost_edges=30649,
            added_edges=0,
            lost_vertices=0,
            manufactured_vertices=0,
        ),
    ),
    "dblp-100 whole document": (
        lambda: generate_dblp(100),
        "MUTATE dblp",
        LossQuantification(
            source_vertices=1022,
            source_edges=301571,
            preserved_edges=301571,
            lost_edges=0,
            added_edges=0,
            lost_vertices=0,
            manufactured_vertices=0,
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(MEASURED))
def test_oracle_gives_the_measured_figures(case):
    make, guard, expected = MEASURED[case]
    forest = make()
    assert brute_force_loss(forest, repro.Interpreter(forest).transform(guard)) == expected


@pytest.mark.parametrize(
    "make", [lambda: generate_dblp(25), lambda: generate_nasa(25)], ids=["dblp-25", "nasa-25"]
)
def test_join_graph_equals_the_oracle_graph(make):
    forest = make()
    assert closest_graph(forest) == brute_force_closest_graph(forest)


@settings(max_examples=1500, deadline=None)
@given(SOURCES, guards())
def test_loss_report_equals_the_pairwise_loop(forest, guard):
    assert_same_report(forest, guard)
