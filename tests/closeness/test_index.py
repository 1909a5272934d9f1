"""Tests for the document index: type distances and closest pairs.

The brute-force closest graph is the ground truth; the index must agree
with it on every input, including random forests (property tests).
"""

import hashlib

import pytest
from hypothesis import given, settings

from repro.closeness import DocumentIndex
from repro.closeness.index import group_by_prefix
from repro.shape.cardinality import Card
from repro.shape.shape import Shape
from repro.shape.types import ShapeType
from repro.workloads import generate_dblp, generate_nasa, generate_xmark
from repro.xmltree.dewey import pack

from tests.closeness.oracle import brute_force_closest_graph
from tests.strategies import documents, xml_forests


def data_type(index, dotted):
    for t in index.types():
        if t.dotted == dotted:
            return t
    raise AssertionError(f"no type {dotted}")


class TestTypeDistanceFig1:
    def test_sibling_types(self, fig1a):
        index = DocumentIndex(fig1a)
        publisher = data_type(index, "data.book.publisher")
        title = data_type(index, "data.book.title")
        # Section VII: "The (minimal) type distance from <publisher> to
        # <title> is two."
        assert index.type_distance(publisher, title) == 2

    def test_parent_child_types(self, fig1a):
        index = DocumentIndex(fig1a)
        book = data_type(index, "data.book")
        author = data_type(index, "data.book.author")
        assert index.type_distance(book, author) == 1

    def test_self_distance_zero(self, fig1a):
        index = DocumentIndex(fig1a)
        book = data_type(index, "data.book")
        assert index.type_distance(book, book) == 0

    def test_cross_subtree_distance(self, fig1a):
        index = DocumentIndex(fig1a)
        name = data_type(index, "data.book.author.name")
        publisher = data_type(index, "data.book.publisher")
        # name 1.1.2.1 to publisher 1.1.3: LCA book at level 1 -> 2 + 1.
        assert index.type_distance(name, publisher) == 3

    def test_symmetric(self, fig1b):
        index = DocumentIndex(fig1b)
        types = index.types()
        for first in types:
            for second in types:
                assert index.type_distance(first, second) == index.type_distance(
                    second, first
                )


class TestClosestPairsFig1:
    def test_paper_worked_example(self, fig1a):
        """Section VII: publisher 1.1.3 is closest to title 1.1.1 only."""
        index = DocumentIndex(fig1a)
        publisher = data_type(index, "data.book.publisher")
        title = data_type(index, "data.book.title")
        pairs = [
            (str(p.dewey), str(t.dewey)) for p, t in index.closest_pairs(publisher, title)
        ]
        assert pairs == [("1.1.3", "1.1.1"), ("1.2.3", "1.2.1")]

    def test_author_book_join(self, fig1a):
        """Section VII render step 2: authors CLOSE books."""
        index = DocumentIndex(fig1a)
        author = data_type(index, "data.book.author")
        book = data_type(index, "data.book")
        pairs = [(str(a.dewey), str(b.dewey)) for a, b in index.closest_pairs(author, book)]
        assert pairs == [("1.1.2", "1.1"), ("1.2.2", "1.2")]

    def test_same_type_yields_nothing(self, fig1a):
        index = DocumentIndex(fig1a)
        book = data_type(index, "data.book")
        assert list(index.closest_pairs(book, book)) == []

    def test_closest_partners_of_node(self, fig1a):
        index = DocumentIndex(fig1a)
        title = data_type(index, "data.book.title")
        mapping = index.closest_pair_map(data_type(index, "data.book.publisher"), title)
        titles = index.nodes_of(title)
        assert [str(titles[p].dewey) for p in mapping[0]] == ["1.1.1"]

    def test_grouped_instance_fanout(self, fig1c):
        # In (c), one author groups two books: author CLOSE book fans out.
        index = DocumentIndex(fig1c)
        author = data_type(index, "data.author")
        book = data_type(index, "data.author.book")
        pairs = list(index.closest_pairs(author, book))
        assert len(pairs) == 2
        assert {str(b.dewey) for _, b in pairs} == {"1.1.2", "1.1.3"}


class TestSequences:
    def test_document_order(self, fig1b):
        index = DocumentIndex(fig1b)
        for data_type_ in index.types():
            nodes = index.nodes_of(data_type_)
            assert [n.dewey for n in nodes] == sorted(n.dewey for n in nodes)

    def test_node_count(self, fig1a):
        index = DocumentIndex(fig1a)
        assert index.node_count() == fig1a.node_count()

    def test_type_of(self, fig1a):
        index = DocumentIndex(fig1a)
        for node in fig1a.iter_nodes():
            assert index.type_of(node).path == node.type_path()


class TestAgainstBruteForce:
    """The index must agree with the O(n²) ground truth."""

    def check(self, forest):
        index = DocumentIndex(forest)
        graph = brute_force_closest_graph(forest)
        # 1. Type distances equal brute-force minima.
        nodes = list(forest.iter_nodes())
        for first_type in index.types():
            for second_type in index.types():
                if first_type is second_type:
                    continue
                expected = None
                for v in index.nodes_of(first_type):
                    for w in index.nodes_of(second_type):
                        d = v.dewey.distance(w.dewey)
                        if d is not None and (expected is None or d < expected):
                            expected = d
                assert index.type_distance(first_type, second_type) == expected
        # 2. Closest pairs equal the graph's edges for each type pair.
        type_path = {node.dewey: node.type_path() for node in nodes}
        edges_by_types: dict = {}
        for edge in graph.edges:
            ends = frozenset(type_path[vertex] for vertex in edge)
            edges_by_types.setdefault(ends, set()).add(edge)
        for first_type in index.types():
            for second_type in index.types():
                if first_type is second_type:
                    continue
                pairs = {
                    frozenset((v.dewey, w.dewey))
                    for v, w in index.closest_pairs(first_type, second_type)
                }
                ends = frozenset((first_type.path, second_type.path))
                assert pairs == edges_by_types.get(ends, set())

    def test_fig1_instances(self, fig1_all):
        for forest in fig1_all.values():
            self.check(forest)

    @settings(max_examples=40, deadline=None)
    @given(documents(max_depth=3, max_children=3))
    def test_random_documents(self, forest):
        self.check(forest)


class TestPinnedDistances:
    """Every type pair's exact distance on the corpora, as a digest.

    The corpora are too large for the brute-force oracle (xmark-0.002
    alone has 283 types, 39,903 pairs over 3,124 nodes), so the values
    are pinned, as computed by a merge over ``Dewey`` objects that
    shares no code with the index's merge over label columns.
    xmark-0.002 is the corpus where 477 pairs differ from the
    path-derived distance a stored index uses.
    """

    PINNED = {
        "dblp-400": (
            lambda: generate_dblp(400),
            "cb3b54261d92c7460b8927d63357f47435133b2e298e136977a053cb252dac5f",
        ),
        "xmark-0.002": (
            lambda: generate_xmark(0.002),
            "51bc5883575ea0bbc20876ded61ddd024b21117e6d64c8d89aecb75b9acdc704",
        ),
        "nasa-25": (
            lambda: generate_nasa(25),
            "7d12212ad294aab114e73a5081706379e458bfc442ba7c0873a8ea8acb0e4ba5",
        ),
    }

    @pytest.mark.parametrize("corpus", sorted(PINNED))
    def test_every_pair_keeps_its_distance(self, corpus):
        make, pinned = self.PINNED[corpus]
        index = DocumentIndex(make())
        types = index.types()
        digest = hashlib.sha256()
        for i, first in enumerate(types):
            for second in types[i:]:
                line = f"{first.dotted} {second.dotted} {index.type_distance(first, second)}\n"
                digest.update(line.encode())
        assert digest.hexdigest() == pinned


def graph_pair_maps(forest):
    """Ground truth for every pair map, from the brute-force closest graph:
    ``{(anchor type path, partner type path): {anchor Dewey: [partner
    Deweys in document order]}}``.  Shares no code with ``index.py``."""
    type_path = {node.dewey: node.type_path() for node in forest.iter_nodes()}
    expected: dict = {}
    for edge in brute_force_closest_graph(forest).edges:
        v, w = tuple(edge)
        for anchor, partner in ((v, w), (w, v)):
            by_anchor = expected.setdefault((type_path[anchor], type_path[partner]), {})
            by_anchor.setdefault(anchor, []).append(partner)
    for by_anchor in expected.values():
        for partners in by_anchor.values():
            partners.sort()
    return expected


def check_pair_maps(index, forest):
    """Every ordered type pair (self pairs included): the map is aligned
    with the first type's positions, and each anchor's list is exactly
    its graph neighbours of the second type, in document order."""
    expected = graph_pair_maps(forest)
    for first in index.types():
        anchors = [node.dewey for node in index.nodes_of(first)]
        for second in index.types():
            partners = [node.dewey for node in index.nodes_of(second)]
            mapping = index.closest_pair_map(first, second)
            assert len(mapping) == len(anchors)
            got = {
                anchor: [partners[position] for position in group]
                for anchor, group in zip(anchors, mapping)
                if group is not None
            }
            assert got == expected.get((first.path, second.path), {}), (first, second)


def filter_of(spec, shape=None, parent=None):
    """The filter shape of ``RESTRICT t [ ... ]`` from ``(type, [child specs])``."""
    data_type, children = spec
    shape = Shape() if shape is None else shape
    vertex = shape.add_type(ShapeType.for_source(data_type))
    if parent is not None:
        shape.add_edge(parent, vertex, Card(1, 1))
    for child in children:
        filter_of(child, shape, vertex)
    return shape


def passes(index, node, node_type, filter_shape, vertex):
    """RESTRICT for one node, straight from Definition 1: under every
    filter child, some *other* node at exactly the type distance passes
    the child's own filter.  O(n·m) per edge, no grouping."""
    for child in filter_shape.children(vertex):
        if child.source is None:
            continue
        wanted = index.type_distance(node_type, child.source)
        if wanted is None or not any(
            partner is not node
            and node.dewey.distance(partner.dewey) == wanted
            and passes(index, partner, child.source, filter_shape, child)
            for partner in index.nodes_of(child.source)
        ):
            return False
    return True


def check_restrict(index, filter_shape):
    root = filter_shape.roots()[0]
    nodes = index.nodes_of(root.source)
    fast = [nodes[position] for position in index.restrict_pass(root.source, filter_shape)]
    slow = [n for n in nodes if passes(index, n, root.source, filter_shape, root)]
    assert [n.dewey for n in fast] == [n.dewey for n in slow]


def check_guard_restricts(index, guard):
    """Every RESTRICT filter a real guard compiles to, against ``passes``."""
    import repro

    result = repro.Interpreter(index).compile(guard)
    filters = [
        vertex.restrict_filter
        for vertex in result.target_shape.types()
        if vertex.restrict_filter is not None and vertex.source is not None
    ]
    assert filters
    for filter_shape in filters:
        check_restrict(index, filter_shape)


def check_random_restricts(index):
    """Hand-built filters over whatever types a random document has:
    every ordered pair ``t [ s ]`` (``t [ t ]`` included), and chains
    and fans over the first few types."""
    types = index.types()
    for first in types:
        for second in types:
            check_restrict(index, filter_of((first, [(second, [])])))
    for first in types[:4]:
        for second in types[:4]:
            for third in types[:4]:
                check_restrict(index, filter_of((first, [(second, [(third, [])])])))
                check_restrict(index, filter_of((first, [(second, []), (third, [])])))


class TestJoinPrimitives:
    """``group_by_prefix`` at arbitrary levels, nodes shallower than the
    prefix width included: two nodes share a group iff their LCA sits at
    or below the level."""

    @settings(max_examples=40, deadline=None)
    @given(xml_forests(max_roots=2, max_depth=3, max_children=3))
    def test_join_at_every_level(self, forest):
        nodes = list(forest.iter_nodes())
        labels = [pack(n.dewey) for n in nodes]
        for level in range(max(len(n.dewey) for n in nodes) + 1):
            expected = [
                (v.dewey, w.dewey)
                for v in nodes
                for w in nodes
                if v is not w and v.dewey.common_prefix_length(w.dewey) > level
            ]
            groups = group_by_prefix(labels, level + 1)
            group_of = {p: head for head, group in groups.items() for p in group}
            grouped = [
                (nodes[v].dewey, nodes[w].dewey)
                for v in range(len(nodes))
                for w in range(len(nodes))
                if v != w and v in group_of and group_of.get(w) == group_of[v]
            ]
            assert grouped == expected
            assert [position for group in groups.values() for position in group] == [
                position for position, n in enumerate(nodes) if len(n.dewey) > level
            ]


class TestClosestPairMapMemo:
    """The memoized per-type-pair join map shared by both renderers."""

    def test_fig1_instances(self, fig1_all):
        for forest in fig1_all.values():
            check_pair_maps(DocumentIndex(forest), forest)

    @settings(max_examples=25, deadline=None)
    @given(documents(max_depth=3, max_children=3))
    def test_random_documents(self, forest):
        check_pair_maps(DocumentIndex(forest), forest)

    @settings(max_examples=25, deadline=None)
    @given(xml_forests(max_roots=3, max_depth=2, max_children=3))
    def test_random_forests(self, forest):
        check_pair_maps(DocumentIndex(forest), forest)

    def test_workload_in_memory_and_stored(self, tmp_path):
        from repro.storage import Database
        from repro.workloads import generate_dblp

        forest = generate_dblp(60)
        check_pair_maps(DocumentIndex(forest), forest)
        with Database(str(tmp_path / "dblp.db")) as db:
            db.store_document("dblp", forest)
            check_pair_maps(db.index("dblp"), forest)

    def test_anchors_of_one_group_share_its_list(self, fig1c):
        # In (c) both books of an author meet it at the author: one group.
        index = DocumentIndex(fig1c)
        book = data_type(index, "data.author.book")
        name = data_type(index, "data.author.name")
        mapping = index.closest_pair_map(book, name)
        assert mapping[0] is mapping[1]

    def test_second_lookup_is_cached(self, fig1a):
        index = DocumentIndex(fig1a)
        author = data_type(index, "data.book.author")
        title = data_type(index, "data.book.title")
        first = index.closest_pair_map(author, title)
        assert index.join_cache_misses == 1
        again = index.closest_pair_map(author, title)
        assert again is first
        assert index.join_cache_hits == 1

    def test_drop_join_cache_forgets(self, fig1a):
        index = DocumentIndex(fig1a)
        author = data_type(index, "data.book.author")
        title = data_type(index, "data.book.title")
        first = index.closest_pair_map(author, title)
        index.drop_join_cache()
        again = index.closest_pair_map(author, title)
        assert again is not first
        assert again[0] is not first[0]
        assert index.join_cache_misses == 2


class TestRestrictPass:
    """The grouped RESTRICT semi-join vs the per-node definition."""

    def test_restrict_single_level(self, fig1a):
        check_guard_restricts(DocumentIndex(fig1a), "CAST MORPH (RESTRICT name [ author ])")

    def test_restrict_nested_filter(self, fig1a):
        check_guard_restricts(
            DocumentIndex(fig1a), "CAST MORPH (RESTRICT book [ author [ name ] ])"
        )

    def test_restrict_multiple_requirements(self, fig1a):
        check_guard_restricts(
            DocumentIndex(fig1a), "CAST MORPH (RESTRICT book [ author publisher ])"
        )

    def test_fig1_instances(self, fig1_all):
        for forest in fig1_all.values():
            check_random_restricts(DocumentIndex(forest))

    @settings(max_examples=20, deadline=None)
    @given(documents(max_depth=3, max_children=2))
    def test_random_documents(self, forest):
        check_random_restricts(DocumentIndex(forest))

    @settings(max_examples=20, deadline=None)
    @given(xml_forests(max_roots=3, max_depth=2, max_children=2))
    def test_random_forests(self, forest):
        check_random_restricts(DocumentIndex(forest))

    def test_restrict_workload(self, tmp_path):
        from repro.storage import Database
        from repro.workloads import generate_dblp

        guard = "CAST MORPH (RESTRICT article [ ee crossref ])"
        forest = generate_dblp(60)
        check_guard_restricts(DocumentIndex(forest), guard)
        with Database(str(tmp_path / "dblp.db")) as db:
            db.store_document("dblp", forest)
            check_guard_restricts(db.index("dblp"), guard)

    def test_self_type_group_excluded(self, fig1a):
        # A node is never its own closest partner, and at type distance 0
        # it has no other: RESTRICTing a type on itself keeps nothing.
        index = DocumentIndex(fig1a)
        author = data_type(index, "data.book.author")
        shape = filter_of((author, [(author, [])]))
        check_restrict(index, shape)
        assert index.restrict_pass(author, shape) == []
