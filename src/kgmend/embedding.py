"""Central-relation-focused path embedding of a localized pattern.

The embedding of a pattern is the multiset of canonicalized relation-label
sequences read off walk pairs through the center edge: a walk of `a` edges
starting at the head and a walk of `b` edges starting at the tail, a + b = l.
Walks ignore edge direction, may revisit vertices, and never use an edge
whose endpoint set is the center's endpoint pair (parallels of the center
would otherwise be counted from both sides). Each sequence carries the center
label plus the l side labels; the count is the number of distinct walk pairs
producing it.

The walks read the store's own edges around the pattern's endpoints; no
copy of them is made. The tables of walks from a vertex are memoised on the
pattern, and a one-step table at a vertex other than an endpoint only counts
its labels. The walks never read the center label, so a pattern relabeled
with another center label reuses them.

Two canonicalizations: "sorted" (default, lexicographic sort of the whole
sequence) and "positional" (head walk reversed, then center, then tail walk,
which preserves the actual walk layout for witness checks). Embeddings of
different modes never compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graph_store import GraphStore
from .patterns import LocalizedPattern

MODES = ("sorted", "positional")


@dataclass(frozen=True)
class PathEmbedding:
    center_label: str
    radius: int
    mode: str
    counts: dict  # canonical label sequence (tuple of str) -> walk-pair count

    @cached_property
    def size(self) -> int:
        """Total multiset size, the sum of all counts, computed once."""
        return sum(self.counts.values())

    def is_empty(self) -> bool:
        return not self.counts


def _walks(g: GraphStore, ends: dict, memo: dict, v: str, steps: int) -> dict:
    """Label sequence -> number of distinct walks of `steps` edges from v over
    g's edges, memoised in `memo` by (v, steps). `ends` maps each center
    endpoint to the other, and an edge joining them is never a step. Any
    other vertex bans nothing, so its one-step table counts the labels of its
    edges, a loop once. Every other table reads v's steps, listed once in
    `memo[v, None]`."""
    found = memo.get((v, steps))
    if found is None:
        found = {}
        if steps == 0:
            found[()] = 1
        elif steps == 1 and v not in ends:
            counts: dict = {}
            out, into = g.sides(v)
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
    counts: dict = {}
    for a in range(l + 1):
        for head_seq, hn in _walks(g, ends, memo, head, a).items():
            for tail_seq, tn in _walks(g, ends, memo, tail, l - a).items():
                if mode == "sorted":
                    key = tuple(sorted((center,) + head_seq + tail_seq))
                else:
                    key = tuple(reversed(head_seq)) + (center,) + tail_seq
                counts[key] = counts.get(key, 0) + hn * tn
    return PathEmbedding(center_label=center, radius=l, mode=mode, counts=counts)


def _check_comparable(m1: PathEmbedding, m2: PathEmbedding) -> None:
    if m1.center_label != m2.center_label:
        raise ValueError(f"center labels differ: {m1.center_label!r} vs {m2.center_label!r}")
    if m1.radius != m2.radius:
        raise ValueError(f"radii differ: {m1.radius} vs {m2.radius}")
    if m1.mode != m2.mode:
        raise ValueError(f"canonicalization modes differ: {m1.mode!r} vs {m2.mode!r}")


def sim(m1: PathEmbedding, m2: PathEmbedding) -> float:
    """Common-path count, the multiset intersection size, over the smaller
    multiset size, in [0, 1].

    Zero when either embedding is empty (the cold-start convention: no side
    paths means no evidence). One pass over the smaller counts; the sums are
    integers, so the order of the pass cannot change the score.
    """
    if m1.center_label != m2.center_label or m1.radius != m2.radius or m1.mode != m2.mode:
        _check_comparable(m1, m2)
    small, large = m1.counts, m2.counts
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
