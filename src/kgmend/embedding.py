"""Central-relation-focused path embedding of a localized pattern.

The embedding of a pattern is the multiset of canonicalized relation-label
sequences read off walk pairs through the center edge: a walk of `a` edges
starting at the head and a walk of `b` edges starting at the tail, a + b = l.
Walks ignore edge direction, may revisit vertices, and never use an edge
whose endpoint set is the center's endpoint pair (parallels of the center
would otherwise be counted from both sides). The count of a sequence is the
number of distinct walk pairs producing it. The walks read the store's own
edges, memoised per vertex and step count on the pattern, except that a hub
keeps its one- and two-step tables on the store, counted once per snapshot
and shared by every pattern (`_full`).

The walks never read the center label, and `sim` compares only embeddings
with the same one, so `paths` leave it out and every label over the same
endpoints shares them; `counts` is the labeled view, with the label put in.

Two canonicalizations: "sorted" (default, a lexicographic sort of the whole
sequence), where putting the label in is one to one, so `sim` compares
`paths`; and "positional" (head walk reversed, then the center, marked "",
which no label can be, then the tail walk), where two paths can meet once it
is put in, such as a head walk (c) and a tail walk (c) under label c, so
`sim` compares `counts`. Embeddings of different modes never compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph_store import GraphStore
from .patterns import LocalizedPattern

MODES = ("sorted", "positional")
HUB_EDGES = 64      # edges that make a vertex a hub, whose walk tables the store keeps


@dataclass(frozen=True, slots=True)
class PathEmbedding:
    center_label: str
    radius: int
    mode: str
    paths: dict     # label-free canonical sequence (tuple of str) -> walk-pair count
    compared: dict = field(init=False, repr=False, compare=False)  # what `sim` reads
    size: int = field(init=False, repr=False, compare=False)    # the sum of all counts

    def __post_init__(self):
        compared = self.paths
        if self.mode == "positional":       # put the label in, summing paths that meet
            compared = {}
            for seq, n in self.paths.items():
                key = tuple(label or self.center_label for label in seq)
                compared[key] = compared.get(key, 0) + n
        object.__setattr__(self, "compared", compared)
        object.__setattr__(self, "size", sum(self.paths.values()))

    @property
    def counts(self) -> dict:
        """The labeled view: canonical sequence with the center label -> count."""
        if self.mode == "positional":
            return self.compared
        return {tuple(sorted((self.center_label,) + seq)): n for seq, n in self.paths.items()}


def _walks(g: GraphStore, ends: dict, memo: dict, v: str, steps: int) -> dict:
    """Label sequence -> number of distinct walks of `steps` edges from v over
    g's edges, memoised in `memo` by (v, steps). `ends` maps each center
    endpoint to the other, or None, and no step joins them. Any other
    vertex bans nothing, so its one-step table counts the labels of its
    edges, a loop once. Every other table reads v's steps, listed once in
    `memo[v, None]`, except that at a hub a one-step table, and an endpoint's
    two-step one, are read off the hub's full tables (`_at_hub_end`)."""
    found = memo.get((v, steps))
    if found is None:
        found = {}
        if steps == 0:
            found[()] = 1
        elif steps == 1 and v not in ends:
            out, into = g.sides(v)
            if len(out) + len(into) >= HUB_EDGES:
                found = _full(g, v, 1)[0]
            else:
                counts: dict = {}
                for s in out:
                    counts[s.relation] = counts.get(s.relation, 0) + 1
                for s in into:
                    if s.head != v:
                        counts[s.relation] = counts.get(s.relation, 0) + 1
                for label, n in counts.items():     # a loop costs less than a comprehension here
                    found[label,] = n
        else:
            listed = memo.get((v, None))
            if listed is None:
                banned = ends.get(v)            # the far endpoint, or None
                out, into = g.sides(v)
                if banned is not None and steps < 3 and len(out) + len(into) >= HUB_EDGES:
                    found = memo[v, steps] = _at_hub_end(g, memo, v, banned, steps)
                    return found
                listed = [(s.relation, s.tail) for s in out if s.tail != banned]
                # a loop at v came out of `out` already
                listed += [(s.relation, s.head) for s in into if s.head != v and s.head != banned]
                memo[v, None] = listed
            if steps == 1:
                for label, _ in listed:
                    key = (label,)
                    found[key] = found.get(key, 0) + 1
            else:
                for label, other in listed:
                    for seq, n in _walks(g, ends, memo, other, steps - 1).items():
                        key = (label,) + seq
                        found[key] = found.get(key, 0) + n
        memo[v, steps] = found
    return found


def _full(g: GraphStore, v: str, steps: int) -> tuple[dict, list]:
    """Hub v's table of `steps` (1 or 2) edges, banning none, and its loops'
    labels, kept in g's cache under (v, steps) and registered under v and,
    at two steps, v's neighbours, whose edges it read."""
    key = (v, steps)
    entry = g.embedding_cache.get(key)
    if entry is None:
        memo: dict = {}
        table = _walks(g, {v: None}, memo, v, steps)    # v, its own endpoint, bans nothing
        entry = (table, [s.relation for s in g.sides(v)[0] if s.tail == v])
        g.cache_embedding(key, entry, (w for w, k in memo if k))
    return entry


def _at_hub_end(g: GraphStore, memo: dict, v: str, far: str, steps: int) -> dict:
    """Hub endpoint v's table of `steps` (1 or 2) edges, far end `far`: its
    full table less each step (s,) over an edge s to `far`, at two steps with
    far's full one-step table after it, and a step to `far` after a loop at v.
    The memo entry ((v, 2), 2) registers a witness under the table's key."""
    one, loops = _full(g, v, 1)
    between = loops if far == v else [s.relation for s in g.edges_between(v, far)]
    if steps == 1:
        table, drops = one, [((label,), 1) for label in between]
    else:
        table = memo[(v, 2), 2] = _full(g, v, 2)[0]
        beyond = one if far == v else _walks(g, {}, {}, far, 1)
        drops = [((label,) + seq, n) for label in between for seq, n in beyond.items()]
        if far != v:
            drops += [((loop, label), 1) for loop in loops for label in between]
    table = dict(table)
    for key, n in drops:
        if table[key] == n:
            del table[key]      # `counts` compare as dicts: no zero count may stay
        else:
            table[key] -= n
    return table


def traverse_r(p: LocalizedPattern, l: int, mode: str = "sorted") -> PathEmbedding:
    """Compute the path embedding of pattern p at walk budget l, walking the
    store's edges around its endpoints.

    Requires 1 <= l <= p.radius so every enumerated walk stays inside the
    pattern. A pattern holding only its center edge embeds to the empty
    multiset.
    """
    if not 1 <= l <= p.radius:
        raise ValueError(f"need 1 <= l <= pattern radius, got l={l}, radius={p.radius}")
    if mode not in MODES:
        raise ValueError(f"unknown canonicalization mode {mode!r}")
    g, memo = p.store, p.walks
    head, center, tail = p.center
    ends = {head: tail, tail: head}
    paths: dict = {}
    for a in range(l + 1):
        for head_seq, hn in _walks(g, ends, memo, head, a).items():
            for tail_seq, tn in _walks(g, ends, memo, tail, l - a).items():
                if mode == "sorted":
                    key = tuple(sorted(head_seq + tail_seq))
                else:
                    key = head_seq[::-1] + ("",) + tail_seq
                paths[key] = paths.get(key, 0) + hn * tn
    return PathEmbedding(center_label=center, radius=l, mode=mode, paths=paths)


def sim(m1: PathEmbedding, m2: PathEmbedding) -> float:
    """Common-path count, the intersection size of the `compared` multisets,
    over the smaller multiset size, in [0, 1]. Zero when either embedding is
    empty (the cold-start convention: no side paths means no evidence). One
    pass over the smaller counts; the sums are integers, so the order of the
    pass cannot change the score."""
    if m1.center_label != m2.center_label:
        raise ValueError(f"center labels differ: {m1.center_label!r} vs {m2.center_label!r}")
    if m1.radius != m2.radius:
        raise ValueError(f"radii differ: {m1.radius} vs {m2.radius}")
    if m1.mode != m2.mode:
        raise ValueError(f"canonicalization modes differ: {m1.mode!r} vs {m2.mode!r}")
    small, large = m1.compared, m2.compared
    if not small or not large:
        return 0.0
    if len(small) > len(large):
        small, large = large, small
    get = large.get
    inter = 0
    for seq, n in small.items():
        other = get(seq)
        if other is not None:
            inter += n if n < other else other
    return inter / min(m1.size, m2.size)


def format_embedding(m: PathEmbedding) -> str:
    """One line per sequence, `label1,label2,...<TAB>count`, sorted."""
    lines = [f"{','.join(seq)}\t{n}" for seq, n in sorted(m.counts.items())]
    return "".join(line + "\n" for line in lines)
