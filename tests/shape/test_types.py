"""``TypeTable.match_label`` finds a label's types through its name map."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shape.types import TypeTable

#: Mixed case and shared names, so buckets hold several paths and case
#: folding decides matches.
_NAMES = st.sampled_from(["a", "A", "b", "Bb", "bB", "name", "NAME", "x"])
_PATHS = st.lists(_NAMES, min_size=1, max_size=5).map(tuple)


def linear_match(table: TypeTable, label: str) -> list:
    """The definition: every type whose path ends with the label's parts,
    compared case-insensitively, in type id order."""
    want = tuple(part.lower() for part in label.split("."))
    width = len(want)
    return [
        data_type
        for data_type in table
        if len(data_type.path) >= width
        and tuple(part.lower() for part in data_type.path[-width:]) == want
    ]


@settings(max_examples=200, deadline=None)
@given(
    paths=st.lists(_PATHS, max_size=30),
    # Up to seven parts: longer than any path; "zz" matches nothing.
    labels=st.lists(
        st.lists(st.one_of(_NAMES, st.just("zz")), min_size=1, max_size=7).map(".".join),
        min_size=1,
        max_size=10,
    ),
)
def test_name_map_equals_the_linear_definition(paths, labels):
    table = TypeTable()
    for path in paths:
        table.intern(path)
    for label in labels:
        assert table.match_label(label) == linear_match(table, label)


def test_interning_after_a_lookup_extends_its_bucket():
    table = TypeTable()
    first = table.intern(("data", "author"))
    assert table.match_label("AUTHOR") == [first]
    second = table.intern(("data", "book", "Author"))
    assert table.match_label("author") == [first, second]
    assert table.match_label("book.author") == [second]
    assert table.match_label("data.book.author.x") == []
