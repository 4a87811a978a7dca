"""Seeded inputs for the kgmend `enhance` benchmark, standard library only.

This module does not import kgmend on purpose: a later change to the
package's own generator (`evalkit.benchmark_generate`) must not shift a
workload. It follows the same planted-motif scheme: every relation label
`relNN` has its own head-side context label `ctxhNN` and tail-side context
label `ctxtNN`, planted around each stored occurrence and around each
record's entity pair, so a correct candidate's neighbourhood looks like the
stored occurrences of its label and a swapped one does not. `write` puts
`graph.tsv`, `predictions.jsonl` and `gold.jsonl` into a directory.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

NA = "NA"
LABELS = 20
DISTRACTORS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    records: int
    occurrences_per_label: int
    error_rate: float       # share of records whose Top-1 and Top-2 labels are swapped
    slice_size: int
    hub_leaves: int = 0     # leaf edges of the single hub vertex
    hub_every: int = 0      # the hub links to the head of every n-th record


WORKLOADS = {w.name: w for w in (
    Workload(
        name="noisy_stream",
        why="criterion-6 shape at 30% swaps and slices of 1,000: the escalation scan "
            "makes 84% of sim calls (scan sim 23% of enhance_s, pattern building 31%); "
            "load and save are minor",
        records=2000, occurrences_per_label=20, error_rate=0.3, slice_size=1000),
    Workload(
        name="slice_churn",
        why="the same inputs at slices of 100: every overlay and commit clears the "
            "witness cache, so writes interleave with reads and pattern work dominates",
        records=2000, occurrences_per_label=20, error_rate=0.3, slice_size=100),
    Workload(
        name="clean_hub",
        why="a 105k-edge graph with one hub and 0% errors: load and save dominate, "
            "hub records set p99, and the escalation scan is nearly bypassed",
        records=1000, occurrences_per_label=1667, error_rate=0.0, slice_size=1000,
        hub_leaves=2000, hub_every=50),
)}


def _context(head: str, tail: str, i: int, suffix: str) -> list[tuple[str, str, str]]:
    return [(head, f"ctxh{i:02d}", f"xh_{suffix}"), (tail, f"ctxt{i:02d}", f"xt_{suffix}")]


def build(w: Workload, seed: int):
    """Graph edges, prediction records and gold labels for one workload and seed."""
    rng = random.Random(seed)
    labels = [f"rel{i:02d}" for i in range(LABELS)]
    edges: list[tuple[str, str, str]] = []
    for i in range(LABELS):
        for j in range(w.occurrences_per_label):
            head, tail = f"e{i:02d}_{j}a", f"e{i:02d}_{j}b"
            edges.append((head, labels[i], tail))
            edges.extend(_context(head, tail, i, f"{i:02d}_{j}"))
    edges.extend(("hub", "hubleaf", f"leaf{k}") for k in range(w.hub_leaves))

    # every label gets the same number of records and exactly error_rate of the
    # records are swapped, so that a seed changes which records, not how much work
    record_labels = [n % LABELS for n in range(w.records)]
    rng.shuffle(record_labels)
    swapped = set(rng.sample(range(w.records), round(w.error_rate * w.records)))
    records, gold = [], []
    for n, i in enumerate(record_labels):
        rid, head, tail = f"r{n:05d}", f"h{n:05d}", f"t{n:05d}"
        edges.extend(_context(head, tail, i, rid))
        if w.hub_every and n % w.hub_every == 0:
            edges.append(("hub", "hubref", head))
        top_p = 0.55 + 0.3 * rng.random()
        others = [lab for lab in labels if lab != labels[i]]
        rng.shuffle(others)
        probs = sorted((rng.uniform(0.01, top_p / 2) for _ in range(DISTRACTORS)), reverse=True)
        candidates = [(labels[i], round(top_p, 6))]
        candidates += [(others[j], round(p, 6)) for j, p in enumerate(probs)]
        if rng.random() < 0.2:
            candidates.append((NA, round(candidates[-1][1] / 2, 6)))
        if n in swapped:
            (l0, p0), (l1, p1) = candidates[0], candidates[1]
            candidates[0], candidates[1] = (l1, p0), (l0, p1)
        records.append({"id": rid, "head": head, "tail": tail,
                        "candidates": [{"relation": r, "p": p} for r, p in candidates]})
        gold.append({"id": rid, "relation": labels[i]})
    return edges, records, gold


def write(w: Workload, seed: int, out: Path) -> dict:
    """Write the three input files into out; return their paths and contents."""
    edges, records, gold = build(w, seed)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"graph": out / "graph.tsv", "predictions": out / "predictions.jsonl",
             "gold": out / "gold.jsonl"}
    paths["graph"].write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in edges), encoding="utf-8")
    paths["predictions"].write_text("".join(json.dumps(rec) + "\n" for rec in records),
                                    encoding="utf-8")
    paths["gold"].write_text("".join(json.dumps(g) + "\n" for g in gold), encoding="utf-8")
    return {"paths": paths, "edges": edges, "records": records, "gold": gold}

