"""Localized pattern extraction and the distance helper."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kgmend import GraphStore, LocalizedPattern, Tuple, ValidationConfig, classify, extract_pattern, traverse_r

from conftest import LABELS, center_with_parallels, hub_graph, random_center, random_graph, read_through
from oracle import side_adjacency, undirected_dist
from test_acceptance import _ball_edges_oracle

PROPERTY_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FIXTURE_A_CENTER = Tuple("India", "contains", "Gorakhpur")

FIXTURE_A_BALL = {
    "Earth", "Gurgaon", "Sikkim", "ZTE", "Leander_Paes",
    "Uttar_Pradesh", "Gorakhpur", "Anurag_Kashyap", "India",
}


def test_undirected_dist_basics():
    g = GraphStore()
    g.add_tuple(Tuple("a", "r", "b"))
    g.add_tuple(Tuple("c", "r", "b"))
    assert undirected_dist(g, "a", "a", 3) == 0
    assert undirected_dist(g, "a", "b", 3) == 1
    assert undirected_dist(g, "a", "c", 3) == 2   # direction is ignored
    g.add_tuple(Tuple("x", "r", "y"))
    assert undirected_dist(g, "a", "x", 5) is None
    assert undirected_dist(g, "a", "c", 1) is None
    assert undirected_dist(g, "a", "nowhere", 2) is None


def test_fixture_a_radius_one_vertices(fixture_a):
    p = extract_pattern(fixture_a, FIXTURE_A_CENTER, 1)
    assert p.vertices == frozenset(FIXTURE_A_BALL)
    assert p.edges == frozenset(fixture_a.all_tuples())
    assert p.center == FIXTURE_A_CENTER


def test_hypothetical_center_reaches_both_sides():
    g = GraphStore()
    g.add_tuple(Tuple("a", "r", "b"))
    g.add_tuple(Tuple("c", "r", "d"))
    p = extract_pattern(g, Tuple("b", "x", "c"), 1)
    assert p.vertices == frozenset({"a", "b", "c", "d"})
    assert Tuple("b", "x", "c") in p.edges


def test_center_edge_always_included_even_when_absent():
    g = GraphStore()
    g.add_tuple(Tuple("a", "r", "b"))
    p = extract_pattern(g, Tuple("fresh1", "r", "fresh2"), 1)
    assert p.vertices == frozenset({"fresh1", "fresh2"})
    assert p.edges == frozenset({Tuple("fresh1", "r", "fresh2")})


def test_na_center_rejected(fixture_a):
    with pytest.raises(ValueError):
        extract_pattern(fixture_a, Tuple("India", "NA", "Gorakhpur"), 1)


def test_radius_must_be_positive(fixture_a):
    with pytest.raises(ValueError):
        extract_pattern(fixture_a, FIXTURE_A_CENTER, 0)


def test_star_fixture_respects_size_bound():
    g = GraphStore()
    for i in range(4):
        g.add_tuple(Tuple("h", "r", f"leaf{i}"))
    center = Tuple("h", "s", "t")
    p = extract_pattern(g, center, 1)
    d_max = 5                                     # h carries 4 out-edges plus the center
    assert len(p.vertices) == 6
    assert len(p.vertices) <= 2 * d_max**1 + 2


def test_dump_pattern_header(fixture_a):
    from kgmend.patterns import dump_pattern

    p = extract_pattern(fixture_a, FIXTURE_A_CENTER, 1)
    lines = dump_pattern(p).splitlines()
    assert lines[0] == "# center: India contains Gorakhpur, l=1"
    assert len(lines) == 1 + len(p.edges)
    assert "India\tcontains\tGorakhpur" in lines[1:]


def _ball_oracle(g: GraphStore, center: Tuple, l: int) -> frozenset[str]:
    """Predicate form: distance computed in g plus the center edge."""
    added = g.add_tuple(center)
    try:
        from_head = {v for v in g.vertices()
                     if (d := undirected_dist(g, center.head, v, cap=l)) is not None and d <= l}
        from_tail = {v for v in g.vertices()
                     if (d := undirected_dist(g, center.tail, v, cap=l)) is not None and d <= l}
    finally:
        if added:
            g.remove_tuple(center)
    return frozenset(from_head | from_tail)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 10_000), l=st.integers(1, 3))
def test_extract_pattern_matches_distance_predicate(seed, l):
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=9, max_edges=16)
    center = random_center(rng, g)
    p = extract_pattern(g, center, l)
    assert p.vertices == _ball_oracle(g, center, l)
    induced = {s for s in g.all_tuples()
               if s.head in p.vertices and s.tail in p.vertices}
    induced.add(center)
    assert p.edges == frozenset(induced)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 10_000), l=st.integers(1, 2))
def test_radius_monotone(seed, l):
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=9, max_edges=16)
    center = random_center(rng, g)
    smaller = extract_pattern(g, center, l)
    larger = extract_pattern(g, center, l + 1)
    assert smaller.vertices <= larger.vertices
    assert smaller.edges <= larger.edges


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), star=st.booleans(), l=st.integers(1, 3))
def test_pattern_adjacency_matches_the_reference(seed, star, l):
    """The walks read the edges of exactly the vertices within l - 1 of an
    endpoint: those with a walk table of one step or more, with the vertices
    of every hub table read (a hub endpoint's neighbours, through its
    two-step table), are the vertices whose edits evict the cached witness.
    Each listed step list and each one-step table is what the pattern's
    edges give that vertex, less the edges joining the endpoints. Not every
    such vertex gets a one-step table: a walk may reach it only with more
    steps left."""
    rng = random.Random(seed)
    if star:
        g = hub_graph(rng, rng.randint(50, 300))
    else:
        g = random_graph(rng, max_vertices=9, max_edges=16)
    center = center_with_parallels(rng, g)
    p = extract_pattern(g, center, l)
    assert p.walks == {}
    traverse_r(p, l)
    reference = side_adjacency(p)
    read = read_through(g, {v for v, steps in p.walks if steps})
    for (v, steps), table in p.walks.items():
        if isinstance(v, tuple):        # a hub table's key: it was read whole
            assert table is g.embedding_cache[v][0]
        elif steps is None:
            assert Counter(table) == Counter(reference[v]), v
        elif steps == 1:
            assert table == Counter((label,) for label, _ in reference[v]), v
    assert read == _ball_oracle(g, center, l - 1)      # the oracle's write drops the tables


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(("existing", "loop", "hypothetical")),
       l=st.integers(1, 3))
def test_lazy_fields_equal_the_ball_and_its_induced_edges(seed, kind, l):
    """`vertices` (the expanded vertices and their step targets) and `edges`
    (read off the store when first asked for) are criterion 3's reference,
    on stars, at head == tail and around a candidate not in the graph."""
    rng = random.Random(seed)
    g = hub_graph(rng, rng.randint(50, 300), extra=rng.randint(0, 20))
    leaf = f"leaf{rng.randrange(50)}"
    end = rng.choice(("hub", leaf))
    if kind == "existing":
        center = rng.choice(sorted(g.all_tuples()))
    elif kind == "loop":
        center = Tuple(end, rng.choice(LABELS), end)
    else:
        center = Tuple(end, rng.choice(LABELS), rng.choice(("fresh", leaf)))
        if center in g:
            g.remove_tuple(center)
    p = extract_pattern(g, center, l)
    assert (p.vertices, p.edges) == _ball_edges_oracle(g, center, l)


def test_a_label_check_reads_no_induced_edges(monkeypatch):
    """`classify` walks the store: on a hub graph it never reads a
    pattern's ball or the edges among its vertices."""
    rng = random.Random(7)
    g = hub_graph(rng, 300, extra=30)
    calls = []
    for name in ("vertices", "edges"):
        lazy = getattr(LocalizedPattern, name)

        def counted(self, lazy=lazy, name=name):
            calls.append(name)
            return lazy.func(self)

        monkeypatch.setattr(LocalizedPattern, name, property(counted))
    label = next(s.relation for s in g.all_tuples() if s.head == "hub")
    report = classify(g, Tuple("hub", label, "fresh"), ValidationConfig(delta=3))
    assert report.support_count > 0 and g.embedding_cache
    assert calls == []
    assert extract_pattern(g, Tuple("hub", label, "fresh"), 2).edges and calls == ["edges", "vertices"]
