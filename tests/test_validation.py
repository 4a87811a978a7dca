"""Tri-state classification, deterministic sampling, escalation, the witness cache."""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgmend import (
    BenchmarkSpec,
    GraphStore,
    INVALID,
    PredictionRecord,
    RepairConfig,
    Tuple,
    UNKNOWN,
    VALID,
    ValidationConfig,
    benchmark_generate,
    classify,
    embedding,
    inject_errors,
    repair,
    repair_instance,
    validation,
)
from kgmend.embedding import MODES, PathEmbedding, sim, traverse_r
from kgmend.patterns import extract_pattern
from kgmend.validation import (
    Evidence,
    candidate_embedding,
    gather_evidence,
    sample_centers,
    support_from_evidence,
    witness_embedding,
)

from conftest import (HUB_THRESHOLDS, LABELS, cache_registrations, center_with_parallels, count_postings,
                      hub_edges, random_graph, read_through, registered_under)
from oracle import pairwise_support_from_evidence, undirected_dist


def cfg_l1(**kw) -> ValidationConfig:
    kw.setdefault("sample_size", 4)
    return ValidationConfig(l=1, **kw)


def context_graph(occurrences: int = 3, label: str = "born_in") -> GraphStore:
    """Every occurrence of `label` ships with one head-side context edge."""
    g = GraphStore()
    for i in range(occurrences):
        g.add_tuple(Tuple(f"p{i}", label, f"c{i}"))
        g.add_tuple(Tuple(f"p{i}", "works_in", f"w{i}"))
    return g


def test_config_rejects_bad_values():
    for kw in ({"l": 0}, {"theta": 1.0}, {"theta": -0.1}, {"delta": 0},
               {"sample_size": 0}, {"mode": "shuffled"}, {"scan_cap": -1}, {"l": 11}):
        with pytest.raises(ValueError):
            ValidationConfig(**kw)


def test_sampling_is_deterministic_per_version():
    g = context_graph(occurrences=12)
    cfg = cfg_l1()
    first = sample_centers(g, "born_in", cfg)
    second = sample_centers(g, "born_in", cfg)
    assert first == second
    g.bump_version()
    assert sample_centers(g, "born_in", cfg) != first     # the version seeds the draw
    assert len(first) == cfg.sample_size
    assert all(not from_aux for _, from_aux in first)


def test_sampling_excludes_the_candidate_itself():
    g = context_graph(occurrences=5)
    cfg = cfg_l1(sample_size=4)
    target = Tuple("p0", "born_in", "c0")
    centers = [c for c, _ in sample_centers(g, "born_in", cfg, exclude=target)]
    assert target not in centers
    assert len(centers) == 4


def test_sample_centers_skips_the_excluded_occurrence():
    g = context_graph(occurrences=5)
    occurrences = g.tuples_with_relation("born_in")
    for target in occurrences:
        centers = [c for c, _ in sample_centers(g, "born_in", cfg_l1(), exclude=target)]
        assert sorted(centers) == [s for s in occurrences if s != target]
    # an absent tuple that sorts between occurrences excludes none of them
    absent = Tuple("p2", "born_in", "c9")
    seen = set()
    for seed in range(10):
        centers = [c for c, _ in sample_centers(g, "born_in", cfg_l1(seed=seed), exclude=absent)]
        assert len(set(centers)) == 4
        seen.update(centers)
    assert seen == set(occurrences)


def test_small_index_returns_everything():
    g = context_graph(occurrences=2)
    centers = sample_centers(g, "born_in", cfg_l1(sample_size=10))
    assert len(centers) == 2


def test_aux_source_tops_up_sample():
    g = context_graph(occurrences=2)
    aux = context_graph(occurrences=20)
    g.aux_source = aux
    centers = sample_centers(g, "born_in", cfg_l1(sample_size=10))
    assert len(centers) == 10
    assert sum(1 for _, from_aux in centers if not from_aux) == 2
    assert sum(1 for _, from_aux in centers if from_aux) == 8


def _reference_picks(cfg: ValidationConfig, r: str, exclude, version: int, realm: str,
                     n: int, k: int) -> list[int]:
    """`random.Random(seed).sample(range(n), k)`, seeded with the blake2b
    digest of the draw's inputs, as the sampler seeds."""
    material = repr((cfg.seed, r, exclude, version, realm)).encode()
    seed = int.from_bytes(hashlib.blake2b(material, digest_size=8).digest(), "big")
    return random.Random(seed).sample(range(n), k)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 300), seed=st.integers(0, 5), data=st.data())
def test_each_draw_makes_a_fresh_generators_picks(n, seed, data):
    """A draw's picks are those of a fresh `random.Random(seed).sample`,
    whichever draws came before it and whichever of `sample`'s branches (a
    pool of n, or a set of the k picks) n and k select, at k = 1, k = n or
    any k between: a cheaper sampler that picks otherwise fails here."""
    k = data.draw(st.sampled_from((1, n)) | st.integers(1, n))
    cfg = cfg_l1(sample_size=k, seed=seed)
    g = GraphStore()
    for i in range(n):
        g.add_tuple(Tuple(f"p{i}", "r", f"c{i}"))
    order = g.tuples_with_relation("r")
    for j in data.draw(st.lists(st.integers(-1, n - 1), min_size=1, max_size=4)):
        exclude = order[j] if j >= 0 else None
        rest = [c for c in order if c != exclude]
        expected = rest if len(rest) < k else \
            [rest[i] for i in _reference_picks(cfg, "r", exclude, g.version, "native", len(rest), k)]
        assert [c for c, _ in sample_centers(g, "r", cfg, exclude=exclude)] == expected


def test_native_and_aux_picks_are_those_random_would_make():
    cfg = cfg_l1(sample_size=10, seed=7)
    native = context_graph(occurrences=30)
    order = native.tuples_with_relation("born_in")
    exclude = order[4]
    picks = _reference_picks(cfg, "born_in", exclude, native.version, "native", 29, 10)
    assert sample_centers(native, "born_in", cfg, exclude=exclude) == \
        [(order[i + (i >= 4)], False) for i in picks]
    g = context_graph(occurrences=3)
    g.bump_version()
    g.aux_source = aux = context_graph(occurrences=40)
    exclude = Tuple("p1", "born_in", "c1")
    aux_order = aux.tuples_with_relation("born_in")
    picks = _reference_picks(cfg, "born_in", exclude, aux.version, "aux", 40, 8)
    assert sample_centers(g, "born_in", cfg, exclude=exclude) == \
        [(c, False) for c in g.tuples_with_relation("born_in") if c != exclude] + \
        [(aux_order[i], True) for i in picks]


def test_support_counts_similar_witnesses():
    g = context_graph(occurrences=3)
    g.add_tuple(Tuple("p9", "works_in", "w9"))
    report = classify(g, Tuple("p9", "born_in", "c9"), cfg_l1())
    assert report.support_count == 3
    assert {c for c, _ in report.witnesses} == {Tuple(f"p{i}", "born_in", f"c{i}") for i in range(3)}


def test_theta_is_a_strict_bound():
    # both sides have 2 context paths and share exactly 1: sim is 1/2 sharp
    g = GraphStore()
    for i in range(3):
        g.add_tuple(Tuple(f"p{i}", "born_in", f"c{i}"))
        g.add_tuple(Tuple(f"p{i}", "works_in", f"w{i}"))
        g.add_tuple(Tuple(f"p{i}", "drives", f"d{i}"))
    g.add_tuple(Tuple("p9", "works_in", "w9"))
    g.add_tuple(Tuple("p9", "plays", "y9"))
    s = Tuple("p9", "born_in", "c9")
    at = classify(g, s, replace(cfg_l1(), theta=0.5, scan_cap=0))
    assert at.support_count == 0
    below = classify(g, s, replace(cfg_l1(), theta=0.49, scan_cap=0))
    assert below.support_count == 3


def test_escalation_finds_witness_outside_sample():
    # 30 decoys with foreign context, 1 twin; tiny sample may miss the twin
    g = GraphStore()
    for i in range(30):
        g.add_tuple(Tuple(f"d{i}", "born_in", f"dc{i}"))
        g.add_tuple(Tuple(f"d{i}", "unrelated", f"du{i}"))
    g.add_tuple(Tuple("twin", "born_in", "tc"))
    g.add_tuple(Tuple("twin", "works_in", "tw"))
    g.add_tuple(Tuple("p9", "works_in", "w9"))
    s = Tuple("p9", "born_in", "c9")
    cfg = ValidationConfig(l=1, sample_size=2, seed=0)
    report = classify(g, s, cfg)
    assert report.status == VALID
    assert report.support_count == 1
    twins = [c for c, _ in report.witnesses]
    assert twins == [Tuple("twin", "born_in", "tc")]
    no_scan = classify(g, s, replace(cfg, scan_cap=0))
    assert no_scan.support_count == 0      # the sample of 2 misses the twin
    assert not no_scan.escalated
    assert report.escalated


def test_scan_cap_limits_escalation():
    g = GraphStore()
    for i in range(40):
        g.add_tuple(Tuple(f"d{i:02d}", "born_in", f"dc{i:02d}"))
        g.add_tuple(Tuple(f"d{i:02d}", "unrelated", f"du{i:02d}"))
    # the lone twin sorts last in canonical occurrence order
    g.add_tuple(Tuple("zz_twin", "born_in", "tc"))
    g.add_tuple(Tuple("zz_twin", "works_in", "tw"))
    g.add_tuple(Tuple("p9", "works_in", "w9"))
    s = Tuple("p9", "born_in", "c9")
    capped = ValidationConfig(l=1, sample_size=2, seed=3, scan_cap=5)
    report = classify(g, s, capped)
    sampled = {c for c, _ in sample_centers(g, "born_in", capped, exclude=s)}
    assert Tuple("zz_twin", "born_in", "tc") not in sampled
    assert report.support_count == 0
    assert report.escalated


def window_graph(decoys: int) -> GraphStore:
    """born_in occurrences in sorted order: the candidate and an ignorable
    twin, two decoys to sample, `decoys` more decoys, and a twin."""
    g = GraphStore()
    for head in ("a_self", "b_ignored", "z_twin"):
        g.add_tuple(Tuple(head, "born_in", f"{head}_c"))
        g.add_tuple(Tuple(head, "works_in", f"{head}_w"))
    for head in ["c_sampled0", "c_sampled1"] + [f"d{i:02d}" for i in range(decoys)]:
        g.add_tuple(Tuple(head, "born_in", f"{head}_c"))
        g.add_tuple(Tuple(head, "unrelated", f"{head}_u"))
    return g


@pytest.mark.parametrize("ignore_self", [False, True])
@pytest.mark.parametrize("decoys, found", [(4, True), (5, False)])
def test_scan_window_counts_only_eligible_occurrences(decoys, found, ignore_self):
    # s, the ignored twin and the two sampled decoys sort before the twin and
    # use up none of the 5 scanned places, even when s is ignored as well: the
    # twin is the 5th eligible occurrence behind 4 decoys, and the 6th behind 5
    g = window_graph(decoys)
    cfg = ValidationConfig(l=1, scan_cap=5)
    s, twin = Tuple("a_self", "born_in", "a_self_c"), Tuple("z_twin", "born_in", "z_twin_c")
    ignore = frozenset([Tuple("b_ignored", "born_in", "b_ignored_c")] + [s] * ignore_self)
    cand = candidate_embedding(g, s, cfg)
    centers = [(Tuple(f"c_sampled{i}", "born_in", f"c_sampled{i}_c"), False) for i in range(2)]
    ev = Evidence(candidate=cand, centers=centers,
                  sims=[sim(cand, witness_embedding(g, c, cfg)) for c, _ in centers])
    report = support_from_evidence(g, s, cfg, ev, ignore)
    assert report == pairwise_support_from_evidence(g, s, cfg, ev, ignore)
    assert report.escalated
    assert report.witnesses == ([(twin, False)] if found else [])


def test_postings_serve_every_ignore_set_and_are_kept_across_writes(monkeypatch):
    g = window_graph(1)     # born_in: a_self, b_ignored, c_sampled0, c_sampled1, d00, z_twin
    g.add_tuple(Tuple("p9", "works_in", "p9_w"))
    s = Tuple("p9", "born_in", "p9_c")
    cfg = ValidationConfig(l=1, delta=3)
    ev = Evidence(candidate=candidate_embedding(g, s, cfg), centers=[], sims=[])
    twins = [Tuple(head, "born_in", f"{head}_c") for head in ("a_self", "b_ignored", "z_twin")]
    listed, _ = count_postings(monkeypatch)

    def witnesses(ignore=frozenset(), **changes) -> list:
        checked = replace(cfg, **changes)
        report = support_from_evidence(g, s, checked, ev, ignore)
        assert report == pairwise_support_from_evidence(g, s, checked, ev, ignore)
        _assert_cache_coherent(g)
        return [c for c, _ in report.witnesses]

    assert witnesses(frozenset(twins[:2])) == twins[2:]    # the index lists the ignored twins too
    assert witnesses() == twins                            # and a later caller reads them there
    assert listed == Counter(g.tuples_with_relation("born_in"))     # each listed once
    kept = g.postings["born_in"][1, "sorted"]
    g.add_tuple(Tuple("a0", "works_in", "a0_w"))           # far from every cached pattern,
    assert g.postings["born_in"][1, "sorted"] is kept      # so the index stays as it was
    _assert_cache_coherent(g)
    early = Tuple("a0", "born_in", "a0_c")
    g.add_tuple(early)                                     # it sorts before every listed one
    assert kept[2] == {early}                              # and waits for the next scan
    listed.clear()
    assert witnesses() == [early] + twins[:2]
    assert listed == Counter([early])                      # which lists it alone
    assert witnesses(delta=4, scan_cap=6) == [early] + twins[:2]    # z_twin is 7th of 7
    assert witnesses(delta=4, scan_cap=7) == [early] + twins
    assert listed == Counter([early])


def test_classify_outside_an_overlay_lists_what_a_write_queued():
    # repair_instance lists pending occurrences as its snapshot opens; with no
    # snapshot, the label's next scan lists them, as classify's does here
    g = window_graph(1)
    g.add_tuple(Tuple("p9", "works_in", "p9_w"))
    s = Tuple("p9", "born_in", "p9_c")
    cfg = ValidationConfig(l=1, sample_size=1, delta=6)
    assert classify(g, s, cfg).escalated
    early = Tuple("a0", "born_in", "a0_c")
    g.add_tuple(Tuple("a0", "works_in", "a0_w"))
    g.add_tuple(early)                      # it sorts before every listed occurrence
    lists, _, pending = g.postings["born_in"][1, "sorted"]
    assert pending == {early}
    report = classify(g, s, cfg)
    assert not pending and early in lists[("works_in",)]
    assert early in [c for c, _ in report.witnesses]
    _assert_cache_coherent(g)


def test_a_write_beside_a_listed_occurrence_relists_it_under_its_new_sequences():
    # d00 is listed under its `unrelated` context alone; a works_in edge at its
    # head evicts its witness, and the store strikes it off and queues it, so
    # the next scan lists it under the candidate's sequence and finds it
    g = window_graph(1)
    g.add_tuple(Tuple("p9", "works_in", "p9_w"))
    s = Tuple("p9", "born_in", "p9_c")
    cfg = ValidationConfig(l=1, delta=4)
    ignore = frozenset(Tuple(head, "born_in", f"{head}_c") for head in ("a_self", "b_ignored", "z_twin"))
    ev = Evidence(candidate=candidate_embedding(g, s, cfg), centers=[], sims=[])
    decoy = Tuple("d00", "born_in", "d00_c")
    assert support_from_evidence(g, s, cfg, ev, ignore).witnesses == []
    assert decoy in g.postings["born_in"][1, "sorted"][0][("unrelated",)]
    g.add_tuple(Tuple("d00", "works_in", "d00_w"))
    _assert_cache_coherent(g)
    report = support_from_evidence(g, s, cfg, ev, ignore)
    assert report == pairwise_support_from_evidence(g, s, cfg, ev, ignore)
    assert report.witnesses == [(decoy, False)]
    _assert_cache_coherent(g)


def test_checks_with_different_ignore_sets_share_one_posting_index(monkeypatch):
    # outside an overlay no tuple is provisional, so a check that ignores one
    # twin and a check that ignores the other read the index the first built;
    # the candidate's bare endpoints share no sequence, so only building walks
    g = window_graph(1)
    s = Tuple("p9", "born_in", "p9_c")
    cfg = ValidationConfig(l=1, delta=3)
    ev = Evidence(candidate=candidate_embedding(g, s, cfg), centers=[], sims=[])
    walked = Counter()

    def counted(source, center, cfg):
        walked[center] += 1
        return witness_embedding(source, center, cfg)

    monkeypatch.setattr(validation, "witness_embedding", counted)
    for ignore in (frozenset([Tuple("a_self", "born_in", "a_self_c")]),
                   frozenset([Tuple("b_ignored", "born_in", "b_ignored_c")])):
        report = support_from_evidence(g, s, cfg, ev, ignore)
        assert report.escalated and not report.witnesses
    assert walked == Counter(g.tuples_with_relation("born_in"))     # each walked once
    assert {label: list(indexes) for label, indexes in g.postings.items()} == {"born_in": [(1, "sorted")]}
    _assert_cache_coherent(g)


def test_a_check_inside_an_overlay_must_ignore_what_the_overlay_inserted():
    g = context_graph(occurrences=3)
    s, other = Tuple("p0", "born_in", "x"), Tuple("q", "born_in", "y")
    committed = Tuple("p1", "born_in", "c1")
    cfg = cfg_l1(delta=5)
    with g.overlay([s, other, committed]) as inserted:
        ev = gather_evidence(g, s, cfg, inserted)
        for ignore in (frozenset([s]), frozenset()):
            with pytest.raises(ValueError, match="overlay inserted"):
                support_from_evidence(g, s, cfg, ev, ignore)
        with pytest.raises(ValueError, match="overlay inserted"):
            classify(g, s, cfg)
        assert inserted is g.provisional and inserted == {s, other}
        for ignore in (inserted, inserted | {committed}):   # the provisional set or more
            assert support_from_evidence(g, s, cfg, ev, ignore) == \
                pairwise_support_from_evidence(g, s, cfg, ev, ignore)
            _assert_cache_coherent(g)
    # the index outlives the overlay and lists the committed occurrences alone,
    # but for p0's: removing s at p0 evicted its witness, which waits for a scan
    lists, _, pending = g.postings["born_in"][1, "sorted"]
    assert g.provisional == frozenset() and pending == {Tuple("p0", "born_in", "c0")}
    assert {c for found in lists.values() for c in found} == set(g.tuples_with_relation("born_in")) - pending
    _assert_cache_coherent(g)
    assert classify(g, s, cfg, frozenset([other])).tuple == s   # outside one, any set will do


def test_the_records_of_one_snapshot_share_one_posting_index_per_label(monkeypatch):
    # no write happens inside repair_instance's overlay, so every escalated
    # label's index is built once, even with a re-predicted committed fact
    # last, and lists each occurrence once
    escalated = set()

    def recorded(g, s, cfg, ev, ignore=frozenset()):
        report = support_from_evidence(g, s, cfg, ev, ignore)
        if report.escalated:
            escalated.add(s.relation)
        return report

    monkeypatch.setattr(repair, "support_from_evidence", recorded)
    listed, _ = count_postings(monkeypatch)
    g, records, _ = benchmark_generate(
        BenchmarkSpec(records=60, labels=3, occurrences_per_label=10, seed=0))
    committed = Tuple("e00_0a", "rel00", "e00_0b")
    assert committed in g
    records = inject_errors(records, rate=0.3, seed=0)
    records.append(PredictionRecord("again", committed.head, committed.tail, (("rel00", 0.9),)))
    repair_instance(g, records, RepairConfig())
    assert escalated and {label: list(indexes) for label, indexes in g.postings.items()} == \
        {label: [(2, "sorted")] for label in escalated}
    assert listed and set(listed.values()) == {1}
    _assert_cache_coherent(g)


def test_classify_invalid_when_other_label_links_endpoints():
    g = context_graph(occurrences=3)
    g.add_tuple(Tuple("p9", "visited", "c9"))
    report = classify(g, Tuple("p9", "born_in", "c9"), cfg_l1())
    assert report.status == INVALID
    assert not report.heuristic          # at l = 1 invalidity is not a guess


def test_classify_invalid_when_endpoints_known_but_unlinked():
    g = context_graph(occurrences=3)
    g.add_tuple(Tuple("p9", "visited", "x"))
    report = classify(g, Tuple("p9", "born_in", "c9"), cfg_l1())
    assert report.status == INVALID


def test_classify_unknown_for_fresh_entities():
    g = context_graph(occurrences=3)
    report = classify(g, Tuple("ghost", "born_in", "nowhere"), cfg_l1())
    assert report.status == UNKNOWN


def test_heuristic_flag_set_above_radius_one():
    g = context_graph(occurrences=3)
    g.add_tuple(Tuple("p9", "visited", "c9"))
    report = classify(g, Tuple("p9", "born_in", "c9"), ValidationConfig(l=2, sample_size=4))
    assert report.status == INVALID
    assert report.heuristic


def test_ignored_tuples_do_not_testify():
    g = context_graph(occurrences=3)
    provisional = Tuple("p9", "visited", "c9")
    g.add_tuple(provisional)
    report = classify(g, Tuple("p9", "born_in", "c9"), cfg_l1(),
                      ignore=frozenset([provisional]))
    # with the provisional edge ignored the endpoints are bare again
    assert report.status == UNKNOWN


def test_committed_candidate_does_not_testify_for_itself():
    # s is already in the graph, has no same-label support, and its head has
    # another edge: its own edge is neither "between" evidence nor the only
    # incident edge, so the other edge makes it Invalid
    g = GraphStore()
    s = Tuple("p9", "born_in", "c9")
    g.add_tuple(s)
    g.add_tuple(Tuple("p9", "visited", "x"))
    report = classify(g, s, cfg_l1())
    assert report.support_count == 0
    assert report.status == INVALID


def test_na_candidate_rejected():
    g = context_graph()
    with pytest.raises(ValueError):
        classify(g, Tuple("a", "NA", "b"), cfg_l1())


# -- witness cache coherence ---------------------------------------------------

_VERTEX = st.sampled_from([f"v{i}" for i in range(6)])
_EDGE = st.builds(Tuple, _VERTEX, st.sampled_from(("r", "s")), _VERTEX)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("add"), _EDGE),
    st.tuples(st.just("remove"), st.integers(0, 40)),
    st.tuples(st.just("read"), st.none()),
    st.tuples(st.just("overlay"), st.lists(_EDGE, max_size=3)),
), max_size=20)


def _read_witnesses(g: GraphStore, cfgs: list[ValidationConfig]) -> None:
    for center in sorted(g.all_tuples()):
        for cfg in cfgs:
            witness_embedding(g, center, cfg)


def _within(g: GraphStore, center: Tuple, radius: int) -> set:
    """The vertices within `radius` undirected steps of an endpoint of center."""
    ends = {center.head, center.tail}
    return ends | {v for v in g.vertices() for end in ends
                   if undirected_dist(g, end, v, radius) is not None}


def _compared(e: PathEmbedding) -> dict:
    """The multiset `sim` compares: in sorted mode the label-free paths, which
    putting the center label back in maps one to one onto the labeled view;
    in positional mode the labeled view, where paths can meet."""
    return e.paths if e.mode == "sorted" else e.counts


def _fresh_table(g: GraphStore, v: str, steps: int) -> tuple[dict, list]:
    """v's walks of `steps` edges over all its edges, by brute force, and the
    sorted labels of v's loops: what a store keeps for a hub."""
    walks = Counter({((), v): 1})
    for _ in range(steps):
        longer = Counter()
        for (seq, x), n in walks.items():
            for s in g.incident(x):
                longer[seq + (s.relation,), s.tail if s.head == x else s.head] += n
        walks = longer
    table = Counter()
    for (seq, _), n in walks.items():
        table[seq] += n
    return dict(table), sorted(s.relation for s in g.incident(v) if s.head == s.tail)


def _assert_cache_coherent(g: GraphStore) -> None:
    """Every cached entry is what a fresh build gives now: a witness
    (center, l, mode) its embedding, a hub's walk table (v, steps) its fresh
    count. The reverse index registers each live key under at least what it
    read: a table under v, and at two steps v's neighbours; a witness under
    the vertices and live tables whose edits must evict it, which together
    read the edges of at least the vertices within l - 1 of an endpoint. A
    key may stay listed where an evicted entry under it read, and a vertex
    holds a key bare or a set of two or more. A label's posting index under
    (l, mode) lists, in Tuple order, every occurrence up to its last indexed
    one that is neither pending nor provisional, under exactly the sequences
    of a fresh embedding, which is the cached one; it lists nothing else, and
    what is pending is stored and up to that last one."""
    for key, cached in g.embedding_cache.items():
        registered = registered_under(g, key)
        if len(key) == 2:
            v, steps = key
            table, loops = cached
            assert (table, sorted(loops)) == _fresh_table(g, v, steps)
            assert g.degree(v) >= embedding.HUB_EDGES
            assert registered >= (_within(g, Tuple(v, "", v), 1) if steps == 2 else {v})
            continue
        center, l, mode = key
        assert cached == traverse_r(extract_pattern(g, center, l), l, mode)
        assert all(v in g.embedding_cache for v in registered if isinstance(v, tuple))
        assert read_through(g, registered) >= _within(g, center, l - 1)
    assert all(type(held) is not set or len(held) > 1 for held in g._cache_keys.values())
    for label, indexes in g.postings.items():
        order = g.tuples_with_relation(label)
        for (l, mode), (lists, last, pending) in indexes.items():
            below = [c for c in order if c <= last]
            assert pending <= set(below)
            assert not any(c in g.provisional for found in lists.values() for c in found)
            assert all((c, l, mode) in g.embedding_cache for found in lists.values() for c in found)
            fresh: dict = {}
            for c in below:
                if c not in pending and c not in g.provisional:
                    for seq in _compared(traverse_r(extract_pattern(g, c, l), l, mode)):
                        fresh.setdefault(seq, []).append(c)
            assert {seq: found for seq, found in lists.items() if found} == fresh


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=60, deadline=None)
@given(initial=st.lists(_EDGE, max_size=12), ops=_OPS)
def test_cached_witnesses_equal_fresh_builds_after_any_mutation(mode, initial, ops):
    """Also with walk tables kept for every vertex, which the witnesses read."""
    for edges in HUB_THRESHOLDS:
        with hub_edges(edges):
            _witnesses_after_mutations(mode, initial, ops)


def _witnesses_after_mutations(mode, initial, ops) -> None:
    cfgs = [ValidationConfig(l=l, mode=mode) for l in (1, 2, 3)]
    g = GraphStore()
    for s in initial:
        g.add_tuple(s)
    _read_witnesses(g, cfgs)
    for op, arg in ops:
        if op == "add":
            g.add_tuple(arg)
        elif op == "remove":
            stored = sorted(g.all_tuples())
            if stored:
                g.remove_tuple(stored[arg % len(stored)])
        elif op == "read":
            _read_witnesses(g, cfgs)
        else:
            with g.overlay(arg):
                _assert_cache_coherent(g)
                _read_witnesses(g, cfgs)
                _assert_cache_coherent(g)
        _assert_cache_coherent(g)


@pytest.mark.parametrize("l", [1, 2])
def test_an_edge_between_rim_vertices_keeps_the_cached_witness(l):
    """A cached witness is registered only under the vertices its walks step
    from, so an edge joining two rim vertices (at distance l, where no walk
    steps from) evicts nothing, and the kept entry is still a fresh build."""
    g = GraphStore()
    for a, b, c in (("h", "x1", "x2"), ("t", "y1", "y2")):
        g.add_tuple(Tuple(a, "s", b))
        g.add_tuple(Tuple(b, "s", c))
    center = Tuple("h", "r", "t")
    g.add_tuple(center)
    cfg = ValidationConfig(l=l)
    cached = witness_embedding(g, center, cfg)
    rim = ("x1", "y1") if l == 1 else ("x2", "y2")
    assert g.add_tuple(Tuple(rim[0], "s", rim[1]))
    assert g.embedding_cache[(center, l, cfg.mode)] is cached
    _assert_cache_coherent(g)
    assert g.add_tuple(Tuple("h", "q", rim[0]))            # an edge at an endpoint evicts
    assert (center, l, cfg.mode) not in g.embedding_cache


@pytest.mark.parametrize("l", [2, 3])
def test_an_edge_at_a_ring_vertex_evicts_the_cached_witness(l):
    """The walks read a ring vertex's (depth l - 1) edges through its
    one-step table, so the entry is registered under it too: a new edge there
    evicts it, and the rebuilt embedding counts the new label."""
    g = GraphStore()
    for a, b, c in (("h", "x1", "x2"), ("t", "y1", "y2")):
        g.add_tuple(Tuple(a, "s", b))
        g.add_tuple(Tuple(b, "s", c))
    center = Tuple("h", "r", "t")
    g.add_tuple(center)
    cfg = ValidationConfig(l=l)
    cached = witness_embedding(g, center, cfg)
    ring = ("x1", "y1") if l == 2 else ("x2", "y2")        # depth l - 1
    assert g.add_tuple(Tuple(ring[0], "q", "fresh"))
    assert (center, l, cfg.mode) not in g.embedding_cache
    _assert_cache_coherent(g)
    assert witness_embedding(g, center, cfg) != cached


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), l=st.integers(1, 3), mode=st.sampled_from(MODES))
def test_a_witness_is_registered_under_each_vertex_within_l_minus_one(seed, l, mode):
    """With no hub, a cached witness is registered under exactly the vertices
    within l - 1 of an endpoint, whose edges its walks read, though its
    endpoints' l-step tables are never built; a write at any of them evicts it."""
    rng = random.Random(seed)
    g = random_graph(rng)
    center = rng.choice(sorted(g.all_tuples()))
    cfg = ValidationConfig(l=l, mode=mode)
    key = (center, l, mode)
    witness_embedding(g, center, cfg)
    near = _within(g, center, l - 1)
    assert registered_under(g, key) == near
    for v in sorted(near):
        witness_embedding(g, center, cfg)
        edge = Tuple(v, "z", "fresh")
        assert g.add_tuple(edge) and key not in g.embedding_cache
        assert g.remove_tuple(edge)


def test_a_rebuild_that_reads_less_is_evicted_at_most_once_where_it_no_longer_reads():
    """An eviction strikes the key off the written vertices alone. Rebuilt
    with a smaller read set, the entry stays listed under a vertex it no
    longer reads: the next write there may evict it, and leaves that vertex
    with no registration, so a second write there keeps it. The vertices the
    rebuild reads again keep the key bare."""
    g = GraphStore()
    for a, b, c in (("h", "x1", "x2"), ("t", "y1", "y2")):
        g.add_tuple(Tuple(a, "s", b))
        g.add_tuple(Tuple(b, "s", c))
    center = Tuple("h", "r", "t")
    g.add_tuple(center)
    cfg = ValidationConfig(l=3)
    key = (center, cfg.l, cfg.mode)
    witness_embedding(g, center, cfg)
    assert registered_under(g, key) == {"h", "t", "x1", "x2", "y1", "y2"}
    assert g.remove_tuple(Tuple("h", "s", "x1"))       # x1 and x2 fall out of reach
    assert key not in g.embedding_cache
    witness_embedding(g, center, cfg)
    assert registered_under(g, key) == {"h", "t", "x2", "y1", "y2"}
    assert all(g._cache_keys[v] == key for v in ("h", "t", "y1", "y2"))
    kept = []
    for label in ("q", "u"):
        cached = witness_embedding(g, center, cfg)
        assert g.add_tuple(Tuple("x2", label, "fresh"))
        kept.append(g.embedding_cache.get(key) is cached)
        assert "x2" not in g._cache_keys
        _assert_cache_coherent(g)
    assert kept[1]


def test_an_edge_at_a_hub_neighbour_drops_the_hub_table_and_what_read_it():
    """Witnesses at a hub read its neighbours' edges through its two-step
    table, and are registered under the table's key, not under each
    neighbour: a new edge at a neighbour drops the table and every witness
    that read it, and the rebuilt ones count the new label. An edge two
    steps from the hub keeps them, and the witness elsewhere stays."""
    g = GraphStore()
    for i in range(embedding.HUB_EDGES):
        g.add_tuple(Tuple("H", "r", f"x{i}"))
        g.add_tuple(Tuple(f"x{i}", "s", f"y{i}"))
    g.add_tuple(Tuple("a", "r", "b"))
    cfg = ValidationConfig(l=2)
    at_hub = [Tuple("H", "r", f"x{i}") for i in range(3)]
    cached = {s: witness_embedding(g, s, cfg) for s in at_hub + [Tuple("a", "r", "b")]}
    keys = {s: (s, cfg.l, cfg.mode) for s in cached}
    assert {key for v, key in cache_registrations(g) if v == ("H", 2)} == {keys[s] for s in at_hub}
    assert all("x9" not in registered_under(g, keys[s]) for s in at_hub)
    assert g.add_tuple(Tuple("y9", "q", "fresh"))          # two steps from H
    assert all(g.embedding_cache[keys[s]] is e for s, e in cached.items())
    _assert_cache_coherent(g)
    assert g.add_tuple(Tuple("x9", "q", "fresh"))          # a neighbour of H, no witness's endpoint
    assert ("H", 2) not in g.embedding_cache and ("H", 1) in g.embedding_cache
    assert [s for s in cached if keys[s] in g.embedding_cache] == [Tuple("a", "r", "b")]
    _assert_cache_coherent(g)
    assert all(witness_embedding(g, s, cfg) != cached[s] for s in at_hub)
    _assert_cache_coherent(g)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), l=st.integers(1, 3), mode=st.sampled_from(MODES))
def test_a_records_shared_embedding_under_each_label_equals_a_fresh_build(seed, l, mode):
    """Walks read no center label and never step over an edge between the
    endpoints, so one label's candidate paths, read under every other label,
    one absent from the graph included, give the evidence a fresh build gives."""
    rng = random.Random(seed)
    g = random_graph(rng)
    center = center_with_parallels(rng, g)     # existing, hypothetical or head == tail
    cfg = ValidationConfig(l=l, mode=mode)
    first = gather_evidence(g, center, cfg).candidate
    for label in LABELS + ("absent",):
        s = Tuple(center.head, label, center.tail)
        shared = gather_evidence(g, s, cfg, paths=first.paths)
        assert shared.candidate.paths is first.paths
        assert shared.candidate == candidate_embedding(g, s, cfg)
        assert shared == gather_evidence(g, s, cfg)


# -- the indexed scan against the pairwise scan --------------------------------

# more vertices than the cache test, so that an added edge can miss every cached pattern
_SCAN_EDGE = st.builds(Tuple, st.sampled_from([f"v{i}" for i in range(10)]),
                       st.sampled_from(("r", "s")), st.sampled_from([f"v{i}" for i in range(10)]))
_CHECK = st.tuples(
    st.one_of(_SCAN_EDGE, st.integers(0, 40)),     # any candidate, or a stored one by index
    st.builds(ValidationConfig, l=st.integers(1, 2), theta=st.sampled_from((0.0, 0.2, 0.5)),
              delta=st.integers(1, 3), sample_size=st.integers(1, 3),
              scan_cap=st.sampled_from((0, 1, 2, 5, 200)), mode=st.sampled_from(MODES),
              seed=st.integers(0, 3)),
    st.lists(st.integers(0, 40), max_size=4),      # ignored stored tuples, by index
    st.booleans(),                                 # ignore the candidate too, as repair_tuple does
)
_CHECKS = st.lists(_CHECK, min_size=1, max_size=4)  # several callers share one snapshot's postings
_SCAN_OPS = st.lists(st.one_of(
    st.tuples(st.just("add"), _SCAN_EDGE),
    st.tuples(st.just("remove"), st.integers(0, 40)),
    st.tuples(st.just("check"), _CHECKS),
    st.tuples(st.just("overlay"), st.tuples(st.lists(_SCAN_EDGE, max_size=3), _CHECKS)),
), max_size=16)


def _check_against_pairwise(g: GraphStore, check, provisional: frozenset = frozenset()) -> None:
    s, cfg, picks, ignore_s = check
    stored = sorted(g.all_tuples())
    if isinstance(s, int):
        if not stored:
            return
        s = stored[s % len(stored)]
    ignore = provisional | {stored[i % len(stored)] for i in picks if stored}
    if ignore_s:
        ignore |= {s}
    ev = gather_evidence(g, s, cfg, ignore)
    assert support_from_evidence(g, s, cfg, ev, ignore) == \
        pairwise_support_from_evidence(g, s, cfg, ev, ignore)


@settings(max_examples=150, deadline=None)
@given(initial=st.lists(_SCAN_EDGE, max_size=20), ops=_SCAN_OPS)
def test_indexed_scan_equals_the_pairwise_scan(initial, ops):
    """Also with walk tables kept for every vertex, whose drops evict what read them."""
    for edges in HUB_THRESHOLDS:
        with hub_edges(edges):
            _scans_after_mutations(initial, ops)


def _scans_after_mutations(initial, ops) -> None:
    g = GraphStore()
    for s in initial:
        g.add_tuple(s)
    for op, arg in ops:
        if op == "add":
            g.add_tuple(arg)
        elif op == "remove":
            stored = sorted(g.all_tuples())
            if stored:
                g.remove_tuple(stored[arg % len(stored)])
        elif op == "check":
            for check in arg:
                _check_against_pairwise(g, check)
                _assert_cache_coherent(g)
        else:
            edges, checks = arg
            with g.overlay(edges):
                for check in checks:
                    _check_against_pairwise(g, check, frozenset(edges))
                    _assert_cache_coherent(g)
        _assert_cache_coherent(g)
