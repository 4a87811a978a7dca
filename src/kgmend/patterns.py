"""Localized patterns: the l-ball subgraph around a center tuple.

The pattern keeps every vertex within l undirected steps of the head OR of
the tail, the only reading consistent with walk enumeration expanding
independently from each endpoint, and every edge among those vertices. One
BFS seeded at both endpoints finds both: it keeps every edge at each vertex
it expands, and a pass over the rim adds the edges between two vertices at
distance l. The center may be hypothetical (a candidate not yet in the
graph): its edge is always part of the pattern, so a fresh entity pair still
yields the minimal two-vertex pattern.

The same BFS records the walk adjacency: the steps out of each vertex it
expands, the vertices within l - 1 of an endpoint. A walk of at most l steps
from an endpoint leaves no other vertex, so the rim needs no entry, and
`traverse_r` walks this adjacency as it is.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .graph_store import GraphStore, NA, Tuple


@dataclass(frozen=True)
class LocalizedPattern:
    """The l-ball around `center`, plus its walk adjacency.

    `adjacency[v]` lists a `(label, other end)` step for every edge at v,
    once for a loop, for each v within l - 1 of an endpoint, and nothing for
    the rim. Edges joining the two center endpoints are never steps (when
    head == tail, the loops there), so parallels of the center are not
    counted from both sides. It derives from the other fields and takes no
    part in equality.
    """
    center: Tuple
    radius: int
    vertices: frozenset[str]
    edges: frozenset[Tuple]
    adjacency: dict[str, list[tuple[str, str]]] = field(compare=False, repr=False)

    def __post_init__(self):
        assert self.center.head in self.vertices and self.center.tail in self.vertices
        assert self.center in self.edges


def extract_pattern(g: GraphStore, center: Tuple, l: int) -> LocalizedPattern:
    """Build the localized pattern of radius l around center, over g plus center."""
    if l < 1:
        raise ValueError("pattern radius must be >= 1")
    if center.relation == NA:
        raise ValueError("cannot build a pattern around an NA-labeled center")
    h, t = center.head, center.tail
    # the center edge joins two depth-0 vertices, so it shortens no distance
    depth = dict.fromkeys((h, t), 0)
    edges = {center}
    adjacency: dict[str, list[tuple[str, str]]] = {}
    queue = deque(depth)
    while queue and depth[queue[0]] < l:
        x = queue.popleft()
        d = depth[x] + 1
        # the far endpoint, when x is one: edges to it are never steps
        banned = t if x == h else h if x == t else None
        steps = adjacency[x] = []
        out, into = g.sides(x)
        for s in out:
            edges.add(s)
            y = s.tail
            if y != banned:
                steps.append((s.relation, y))
            if y not in depth:
                depth[y] = d
                queue.append(y)
        for s in into:
            y = s.head
            if y == x:              # a loop, already stepped from `out`
                continue
            edges.add(s)
            if y != banned:
                steps.append((s.relation, y))
            if y not in depth:
                depth[y] = d
                queue.append(y)
    # the queue now holds the depth-l rim: add the edges joining two rim vertices
    edges.update(g.edges_from(queue, depth))
    return LocalizedPattern(
        center=center,
        radius=l,
        vertices=frozenset(depth),
        edges=frozenset(edges),
        adjacency=adjacency,
    )


def dump_pattern(p: LocalizedPattern) -> str:
    """Debug dump: TSV tuple lines under a header comment."""
    lines = [f"# center: {p.center.head} {p.center.relation} {p.center.tail}, l={p.radius}"]
    for s in sorted(p.edges):
        lines.append(f"{s.head}\t{s.relation}\t{s.tail}")
    return "\n".join(lines) + "\n"
