"""Localized patterns: the l-ball subgraph around a center tuple.

The pattern keeps every vertex within l undirected steps of the head OR of
the tail, the only reading consistent with walk enumeration expanding
independently from each endpoint, and every edge among those vertices. One
BFS seeded at both endpoints finds both: it keeps every edge at each vertex
it expands, and a pass over the rim adds the edges between two vertices at
distance l. The center may be hypothetical (a candidate not yet in the
graph): its edge is always part of the pattern, so a fresh entity pair still
yields the minimal two-vertex pattern.
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


def extract_pattern(g: GraphStore, center: Tuple, l: int) -> LocalizedPattern:
    """Build the localized pattern of radius l around center, over g plus center."""
    if l < 1:
        raise ValueError("pattern radius must be >= 1")
    if center.relation == NA:
        raise ValueError("cannot build a pattern around an NA-labeled center")
    # the center edge joins two depth-0 vertices, so it shortens no distance
    depth = dict.fromkeys((center.head, center.tail), 0)
    edges = {center}
    queue = deque(depth)
    while queue and depth[queue[0]] < l:
        x = queue.popleft()
        d = depth[x] + 1
        for s in g.incident(x):
            edges.add(s)
            y = s.tail if s.head == x else s.head
            if y not in depth:
                depth[y] = d
                queue.append(y)
    # the queue now holds the depth-l rim: add the edges joining two rim vertices
    for x in queue:
        for s in g.out_edges(x):
            if s.tail in depth:
                edges.add(s)
    return LocalizedPattern(
        center=center,
        radius=l,
        vertices=frozenset(depth),
        edges=frozenset(edges),
    )


def dump_pattern(p: LocalizedPattern) -> str:
    """Debug dump: TSV tuple lines under a header comment."""
    lines = [f"# center: {p.center.head} {p.center.relation} {p.center.tail}, l={p.radius}"]
    for s in sorted(p.edges):
        lines.append(f"{s.head}\t{s.relation}\t{s.tail}")
    return "\n".join(lines) + "\n"
