"""Brute-force reference implementations for tiny inputs, used only by tests.

Everything here trades speed for literalness: a pattern's walk adjacency is
read off its whole edge set, walks are enumerated one edge at a time,
support subgraphs by explicit subset enumeration plus backtracking
monomorphism search, similarity by exhaustive matching search and by its
plain formula, the escalation scan by one pairwise `sim` per occurrence, a
record's repair by an explicit sort of its decided labels, a graph file by
the identifier rule on every cell. Hard input caps keep runtimes sane; none of this is
reachable from the CLI.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from kgmend.embedding import sim
from kgmend.graph_store import NA, GraphFormatError, GraphStore, Tuple, identifier
from kgmend.patterns import LocalizedPattern, extract_pattern
from kgmend.repair import ACCEPTED, HELD, REJECTED, REPAIRED, RepairDecision
from kgmend.validation import (
    INVALID,
    UNKNOWN,
    VALID,
    SupportReport,
    gather_evidence,
    support_from_evidence,
    witness_embedding,
)

MAX_WALK_VERTICES = 12
MAX_WALK_RADIUS = 3
MAX_SUPPORT_GRAPH = 12
MAX_SIM_VERTICES = 10


@dataclass(frozen=True)
class MatchWitness:
    """A label- and adjacency-preserving vertex bijection between two subgraphs."""
    mapping: dict
    pairs: int


def _pattern_adjacency(p: LocalizedPattern):
    banned = frozenset((p.center.head, p.center.tail))
    adj = {v: [] for v in p.vertices}
    for e in sorted(p.edges):
        if frozenset((e.head, e.tail)) == banned:
            continue
        adj[e.head].append((e, e.tail))
        if e.tail != e.head:
            adj[e.tail].append((e, e.head))
    return adj


def side_adjacency(p: LocalizedPattern) -> dict[str, list[tuple[str, str]]]:
    """Undirected adjacency over pattern edges, minus center-endpoint parallels:
    the reference for the steps `traverse_r` lists and counts at the vertices
    within l - 1 of an endpoint."""
    h, t = p.center.head, p.center.tail
    banned = {(h, t), (t, h)}       # endpoint set {h, t}, or the loop at h when h == t
    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in p.vertices}
    for e in p.edges:
        if (e.head, e.tail) in banned:
            continue
        adj[e.head].append((e.relation, e.tail))
        if e.tail != e.head:
            adj[e.tail].append((e.relation, e.head))
    return adj


def enumerate_central_walks(p: LocalizedPattern, l: int, mode: str = "sorted",
                            max_vertices: int = MAX_WALK_VERTICES) -> dict:
    """Exhaustively enumerate walk pairs through the center; returns the multiset.

    Ground truth for traverse_r: same exclusion rule, same canonicalization,
    one count per distinct (head walk, tail walk) pair. A caller may raise
    the vertex cap for a pattern whose walks are few, such as a star's.
    """
    if len(p.vertices) > max_vertices:
        raise ValueError(f"oracle caps patterns at {max_vertices} vertices")
    if not 1 <= l <= MAX_WALK_RADIUS:
        raise ValueError(f"oracle caps l at {MAX_WALK_RADIUS}")
    if l > p.radius:
        raise ValueError("l must not exceed the pattern radius")
    adj = _pattern_adjacency(p)

    def all_walks(v: str, steps: int):
        # a walk is the exact sequence of traversed edges
        if steps == 0:
            yield ((), ())
            return
        for edge, other in adj[v]:
            for labels, edges in all_walks(other, steps - 1):
                yield ((edge.relation,) + labels, (edge,) + edges)

    center = p.center.relation
    counts: Counter = Counter()
    for a in range(l + 1):
        head_walks = list(all_walks(p.center.head, a))
        tail_walks = list(all_walks(p.center.tail, l - a))
        for head_labels, _ in head_walks:
            for tail_labels, _ in tail_walks:
                if mode == "sorted":
                    key = tuple(sorted((center,) + head_labels + tail_labels))
                else:
                    key = tuple(reversed(head_labels)) + (center,) + tail_labels
                counts[key] += 1
    return dict(counts)


def _edge_induced_vertices(edges) -> set[str]:
    verts = set()
    for e in edges:
        verts.add(e.head)
        verts.add(e.tail)
    return verts


def _monomorphism_exists(edges, pattern: LocalizedPattern, pinned: dict) -> bool:
    """Is there an injective vertex map sending every edge onto a pattern edge?

    Label and direction must be preserved; `pinned` fixes the center
    correspondence up front.
    """
    edge_list = sorted(edges)
    pattern_edges = pattern.edges
    pattern_vertices = sorted(pattern.vertices)

    def extend(i: int, mapping: dict) -> bool:
        if i == len(edge_list):
            return True
        e = edge_list[i]
        head_candidates = [mapping[e.head]] if e.head in mapping else pattern_vertices
        for hv in head_candidates:
            if e.head not in mapping and hv in mapping.values():
                continue
            m1 = dict(mapping)
            m1[e.head] = hv
            if e.tail in m1:
                tail_candidates = [m1[e.tail]]
            else:
                tail_candidates = [v for v in pattern_vertices if v not in m1.values()]
            for tv in tail_candidates:
                if Tuple(hv, e.relation, tv) not in pattern_edges:
                    continue
                m2 = dict(m1)
                m2[e.tail] = tv
                if extend(i + 1, m2):
                    return True
        return False

    return extend(0, dict(pinned))


def exact_support(
    g: GraphStore,
    pattern: LocalizedPattern,
    size_cap: int,
    exclude: Tuple | None = None,
) -> list[frozenset]:
    """All support subgraphs of g for the given pattern, as edge sets.

    A support subgraph lives inside the localized pattern of some other
    occurrence s' of the center label, contains s', has at most size_cap
    edges, and maps into `pattern` by a label-preserving monomorphism that
    sends s' to the pattern's center.
    """
    if g.degree_stats()[1] > MAX_SUPPORT_GRAPH:
        raise ValueError(f"oracle caps graphs at {MAX_SUPPORT_GRAPH} vertices")
    if size_cap < 1:
        raise ValueError("size_cap must be >= 1")
    found: set[frozenset] = set()
    for occurrence in g.tuples_with_relation(pattern.center.relation):
        if occurrence == pattern.center or occurrence == exclude:
            continue
        loop_occurrence = occurrence.head == occurrence.tail
        loop_center = pattern.center.head == pattern.center.tail
        if loop_occurrence != loop_center:
            continue    # endpoints cannot correspond injectively
        occ_pattern = extract_pattern(g, occurrence, pattern.radius)
        side_edges = sorted(occ_pattern.edges - {occurrence})
        pinned = {
            occurrence.head: pattern.center.head,
            occurrence.tail: pattern.center.tail,
        }
        for size in range(0, min(size_cap - 1, len(side_edges)) + 1):
            for extra in combinations(side_edges, size):
                candidate = frozenset((occurrence,) + extra)
                if candidate in found:
                    continue
                if _monomorphism_exists(candidate, pattern, pinned):
                    found.add(candidate)
    return sorted(found, key=lambda fs: sorted(fs))


def _common_edges(p1: LocalizedPattern, p2: LocalizedPattern, mapping: dict) -> set[Tuple]:
    common = set()
    for e in p1.edges:
        if e.head in mapping and e.tail in mapping:
            if Tuple(mapping[e.head], e.relation, mapping[e.tail]) in p2.edges:
                common.add(e)
    return common


def _prune_uncovered(mapping: dict, p1: LocalizedPattern, p2: LocalizedPattern) -> dict:
    """Drop matched vertices not touched by any common edge, to a fixpoint."""
    current = dict(mapping)
    while True:
        common = _common_edges(p1, p2, current)
        covered = _edge_induced_vertices(common)
        keep = {u: v for u, v in current.items() if u in covered}
        if len(keep) == len(current):
            return current
        current = keep


def best_common_match(p1: LocalizedPattern, p2: LocalizedPattern) -> MatchWitness:
    """Largest center-pinned matching between subgraphs of the two patterns.

    Exhaustive search over partial injective vertex maps; a map is valid once
    every matched vertex is covered by a common edge, so the witness pair of
    subgraphs is edge-induced on both sides.
    """
    if len(p1.vertices) > MAX_SIM_VERTICES or len(p2.vertices) > MAX_SIM_VERTICES:
        raise ValueError(f"oracle caps patterns at {MAX_SIM_VERTICES} vertices")
    if p1.center.relation != p2.center.relation:
        raise ValueError("center labels differ")
    pinned = {p1.center.head: p2.center.head, p1.center.tail: p2.center.tail}
    if len(set(pinned.values())) != len(pinned):
        # degenerate loop centers; only meaningful when both centers are loops
        if p1.center.head != p1.center.tail:
            return MatchWitness(mapping={}, pairs=0)
    free1 = sorted(p1.vertices - set(pinned))
    free2 = sorted(p2.vertices - set(pinned.values()))
    best = {"witness": MatchWitness(mapping={}, pairs=0)}

    def consider(mapping: dict) -> None:
        pruned = _prune_uncovered(mapping, p1, p2)
        if p1.center.head not in pruned or p1.center.tail not in pruned:
            return      # the center edge itself failed to match
        if len(pruned) > best["witness"].pairs:
            best["witness"] = MatchWitness(mapping=pruned, pairs=len(pruned))

    def search(i: int, mapping: dict) -> None:
        if len(mapping) + (len(free1) - i) <= best["witness"].pairs:
            return      # cannot beat the incumbent
        if i == len(free1):
            consider(mapping)
            return
        u = free1[i]
        for v in free2:
            if v not in mapping.values():
                m = dict(mapping)
                m[u] = v
                search(i + 1, m)
        search(i + 1, mapping)

    search(0, dict(pinned))
    return best["witness"]


def exact_sim(p1: LocalizedPattern, p2: LocalizedPattern) -> float:
    """Matched-pair count of the best center-pinned matching over min pattern size."""
    witness = best_common_match(p1, p2)
    return witness.pairs / min(len(p1.vertices), len(p2.vertices))


def reference_sim(m1, m2) -> float:
    """`sim` as its formula reads: the sum of per-sequence minima over the
    smaller multiset size, 0.0 when either side is empty, and a ValueError
    naming the first field in which the two embeddings are not comparable."""
    if m1.center_label != m2.center_label:
        raise ValueError(f"center labels differ: {m1.center_label!r} vs {m2.center_label!r}")
    if m1.radius != m2.radius:
        raise ValueError(f"radii differ: {m1.radius} vs {m2.radius}")
    if m1.mode != m2.mode:
        raise ValueError(f"canonicalization modes differ: {m1.mode!r} vs {m2.mode!r}")
    return multiset_sim(m1.counts, m2.counts)


def multiset_sim(c1: dict, c2: dict) -> float:
    """The similarity formula over two labeled walk multisets, such as two of
    `enumerate_central_walks`'s: the sum of per-sequence minima over the
    smaller multiset size, 0.0 when either side is empty."""
    if not c1 or not c2:
        return 0.0
    common = sum(min(n, c2.get(seq, 0)) for seq, n in c1.items())
    return common / min(sum(c1.values()), sum(c2.values()))


def undirected_dist(g: GraphStore, u: str, v: str, cap: int) -> int | None:
    """Shortest edge-count path ignoring direction, None when > cap or unreachable."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if not g.degree(u) or not g.degree(v):
        return 0 if u == v else None
    if u == v:
        return 0
    seen = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        d = seen[x]
        if d == cap:
            continue
        for e in g.incident(x):
            y = e.tail if e.head == x else e.head
            if y not in seen:
                seen[y] = d + 1
                if y == v:
                    return d + 1
                queue.append(y)
    return None


def pairwise_support_from_evidence(g: GraphStore, s: Tuple, cfg, ev,
                                   ignore: frozenset = frozenset()):
    """The label check with one pairwise `sim` per scanned occurrence.

    The reference for `kgmend.validation.support_from_evidence`, whose scan
    reads a posting index instead: this is the same decision with the scan
    spelled out, one occurrence at a time in sorted order.
    """
    witnesses = [ev.centers[i] for i, v in enumerate(ev.sims) if v > cfg.theta]
    count = len(witnesses)
    escalated = False
    if count < cfg.delta:
        sampled = {c for c, _ in ev.centers}
        scanned = 0
        for center in g.tuples_with_relation(s.relation):
            if count >= cfg.delta or scanned >= cfg.scan_cap:
                break
            if center == s or center in sampled or center in ignore:
                continue
            escalated = True
            scanned += 1
            if sim(ev.candidate, witness_embedding(g, center, cfg)) > cfg.theta:
                witnesses.append((center, False))
                count += 1
    if count >= cfg.delta:
        status = VALID
    else:
        between = [e for e in g.edges_between(s.head, s.tail) if e != s and e not in ignore]
        if any(e.relation != s.relation for e in between):
            status = INVALID       # a differently labeled fact already links the endpoints
        elif not between and any(e != s and e not in ignore
                                 for v in (s.head, s.tail) for e in g.incident(v)):
            status = INVALID       # the endpoints are known but nothing supports this link
        else:
            status = UNKNOWN
    # the invalidity argument is only proven at l = 1
    return SupportReport(tuple=s, support_count=count, status=status, witnesses=witnesses,
                         escalated=escalated, heuristic=status == INVALID and cfg.l > 1)


def joint_order(rows: list) -> list:
    """`(label, p, joint, ...)` rows sorted descending by joint, then by p,
    then by label: the order of `kgmend.joint_scores`, by a plain sort."""
    return sorted(rows, key=lambda row: (-row[2], -row[1], row[0]))


def reference_repair_tuple(g: GraphStore, rec, cfg, context_ignore: frozenset = frozenset()):
    """A record's repair spelled out over (label, p, joint, report) rows.

    The reference for `kgmend.repair.repair_tuple`, which ranks through
    `joint_scores`' order with a link function that samples and decides each
    label once: this decides Top-1, and when it fails every other Top-k label,
    then walks Top-1 and the rest in `joint_order`. Its `checks` count what
    `repair_tuple` must decide: Top-1, then each alternative whose p reaches
    the winner's joint, since none below it could outrank the winner, or all
    of them when nothing passes.
    """
    top_label, top_p = rec.candidates[0]
    if top_label == NA or top_p < cfg.p_th:
        return RepairDecision(rec.id, rec.head, rec.tail, initial=NA, final=NA,
                              status=REJECTED, joint=0.0, support=0)
    vcfg = cfg.validation
    ignore = context_ignore | {Tuple(rec.head, top_label, rec.tail)}

    def passes(report) -> bool:
        return report.status == VALID or (report.status == UNKNOWN and cfg.unknown_policy == "accept")

    top_k = []          # the first k distinct non-NA labels, in candidate order
    for label, p in rec.candidates:
        if label != NA and label not in [seen for seen, _ in top_k] and len(top_k) < cfg.k:
            top_k.append((label, p))
    rows = []           # (label, p, joint, report); Top-1 is not NA, so it comes first
    for label, p in top_k:
        s = Tuple(rec.head, label, rec.tail)
        ev = gather_evidence(g, s, vcfg, ignore)
        rows.append((label, p, p * ev.link, support_from_evidence(g, s, vcfg, ev, ignore)))
        if len(rows) == 1 and passes(rows[0][3]):
            break
    for label, _, joint, report in rows[:1] + joint_order(rows[1:]):
        if passes(report):
            checks = 1 if label == top_label else 1 + sum(row[1] >= joint for row in rows[1:])
            return RepairDecision(rec.id, rec.head, rec.tail, initial=top_label, final=label,
                                  status=ACCEPTED if label == top_label else REPAIRED,
                                  joint=joint, support=report.support_count, checks=checks)
    held = cfg.unknown_policy == "hold" and any(row[3].status == UNKNOWN for row in rows)
    return RepairDecision(rec.id, rec.head, rec.tail, initial=top_label, final=NA,
                          status=HELD if held else REJECTED, joint=0.0,
                          support=rows[0][3].support_count, checks=len(rows))


def tuple_by_rule(line: str, lineno: int) -> Tuple:
    """One graph line read with `identifier` on every cell.

    The reference for `kgmend.graph_store.parse_tuple_line`, and through it for
    `read_tuples`, whose chunks of plain lines skip `identifier`: the same
    Tuple, or the same `GraphFormatError` message.
    """
    cells = line.split("\t")
    if len(cells) != 3:
        raise GraphFormatError(
            f"line {lineno}: expected head<TAB>relation<TAB>tail, got {len(cells)} fields")
    try:
        head, relation, tail = map(identifier, cells)
    except ValueError as exc:
        raise GraphFormatError(f"line {lineno}: {exc}") from None
    if relation == NA:
        raise GraphFormatError(f"line {lineno}: relation label NA is not storable")
    return Tuple(head, relation, tail)


def read_tuples_by_rule(path) -> list[Tuple]:
    """A graph file split at LF only, its blank and `#` lines skipped, and
    every other line read by `tuple_by_rule`: the reference for
    `kgmend.graph_store.read_tuples`."""
    text = Path(path).read_bytes().decode("utf-8-sig", errors="surrogateescape")
    return [tuple_by_rule(line, lineno) for lineno, line in enumerate(text.split("\n"), start=1)
            if line.strip() and not line.lstrip().startswith("#")]
