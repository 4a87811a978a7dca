"""Localized patterns: the l-ball subgraph around a center tuple.

The pattern keeps every vertex within l undirected steps of the head OR of
the tail, the only reading consistent with walk enumeration expanding
independently from each endpoint. The center may be hypothetical (a
candidate not yet in the graph): its edge is always part of the pattern, so
a fresh entity pair still yields the minimal two-vertex pattern.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph_store import GraphStore, NA, Tuple


@dataclass(frozen=True)
class LocalizedPattern:
    center: Tuple
    radius: int
    vertices: frozenset[str]
    edges: frozenset[Tuple]

    def __post_init__(self):
        assert self.center.head in self.vertices and self.center.tail in self.vertices
        assert self.center in self.edges


def _neighbors(g: GraphStore, v: str):
    for s in g.out_edges(v):
        yield s.tail
    for s in g.in_edges(v):
        yield s.head


def _ball(g: GraphStore, center: Tuple, cap: int) -> set[str]:
    """Vertices within cap undirected steps of either center endpoint.

    One BFS over g seeded at both endpoints: the center edge would only join
    two vertices already at distance 0, so it shortens no distance.
    """
    seen = dict.fromkeys((center.head, center.tail), 0)
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        d = seen[x]
        if d == cap:
            continue
        for y in _neighbors(g, x):
            if y not in seen:
                seen[y] = d + 1
                queue.append(y)
    return set(seen)


def extract_pattern(g: GraphStore, center: Tuple, l: int) -> LocalizedPattern:
    """Build the localized pattern of radius l around center, over g plus center."""
    if l < 1:
        raise ValueError("pattern radius must be >= 1")
    if center.relation == NA:
        raise ValueError("cannot build a pattern around an NA-labeled center")
    vertices = _ball(g, center, l)
    edges = {center}
    for v in vertices:
        for s in g.out_edges(v):
            if s.tail in vertices:
                edges.add(s)
    return LocalizedPattern(
        center=center,
        radius=l,
        vertices=frozenset(vertices),
        edges=frozenset(edges),
    )


def dump_pattern(p: LocalizedPattern) -> str:
    """Debug dump: TSV tuple lines under a header comment."""
    lines = [f"# center: {p.center.head} {p.center.relation} {p.center.tail}, l={p.radius}"]
    for s in sorted(p.edges):
        lines.append(f"{s.head}\t{s.relation}\t{s.tail}")
    return "\n".join(lines) + "\n"
