"""Localized patterns: the l-neighborhood subgraph around a center tuple.

The center may be hypothetical (a candidate not yet in the graph); distances
are then computed over the graph plus the center edge, so a fresh entity pair
still yields the minimal two-vertex pattern.

Two neighborhood readings exist: "union" keeps every vertex within l of the
head OR of the tail, "intersection" requires both. Union is the default, it
is the only reading consistent with walk enumeration expanding independently
from each endpoint; the intersection variant is kept for study.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph_store import GraphStore, NA, Tuple

NEIGHBORHOODS = ("union", "intersection")


@dataclass(frozen=True)
class LocalizedPattern:
    center: Tuple
    radius: int
    vertices: frozenset[str]
    edges: frozenset[Tuple]
    center_hypothetical: bool

    def __post_init__(self):
        assert self.center.head in self.vertices and self.center.tail in self.vertices
        assert self.center in self.edges


def _neighbors(g: GraphStore, v: str):
    for s in g.out_edges(v):
        yield s.tail
    for s in g.in_edges(v):
        yield s.head


def _ball(g: GraphStore, start: str, cap: int, center: Tuple) -> set[str]:
    """Vertices within cap undirected steps of start, over g plus the center edge."""
    seen = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        d = seen[x]
        if d == cap:
            continue
        reachable = list(_neighbors(g, x))
        if x == center.head:
            reachable.append(center.tail)
        if x == center.tail:
            reachable.append(center.head)
        for y in reachable:
            if y not in seen:
                seen[y] = d + 1
                queue.append(y)
    return set(seen)


def extract_pattern(
    g: GraphStore,
    center: Tuple,
    l: int,
    neighborhood: str = "union",
) -> LocalizedPattern:
    """Build the localized pattern of radius l around center, over g plus center."""
    if l < 1:
        raise ValueError("pattern radius must be >= 1")
    if center.relation == NA:
        raise ValueError("cannot build a pattern around an NA-labeled center")
    if neighborhood not in NEIGHBORHOODS:
        raise ValueError(f"unknown neighborhood semantics {neighborhood!r}")
    head_ball = _ball(g, center.head, l, center)
    tail_ball = _ball(g, center.tail, l, center)
    if neighborhood == "union":
        vertices = head_ball | tail_ball
    else:
        vertices = head_ball & tail_ball
    vertices |= {center.head, center.tail}
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
        center_hypothetical=center not in g,
    )


def dump_pattern(p: LocalizedPattern) -> str:
    """Debug dump: TSV tuple lines under a header comment."""
    lines = [f"# center: {p.center.head} {p.center.relation} {p.center.tail}, l={p.radius}"]
    for s in sorted(p.edges):
        lines.append(f"{s.head}\t{s.relation}\t{s.tail}")
    return "\n".join(lines) + "\n"
