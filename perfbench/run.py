"""Benchmark of `kgmend enhance` on three stream shapes, plus a traced per-layer run.

    python3 perfbench/run.py --workload noisy_stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the root of a source checkout; the program under test is the
`src/kgmend` package there, nothing installed. Each run generates the
workload's inputs from the seed (untimed, `gen.py`), then drives the CLI
command `enhance` in a fresh child process, one command at a time, with the
default `--workers 1`, until `--seconds` have passed. The load is a batch:
the whole prediction file is consumed by one closed-loop client. With
`--trace 1` untraced and traced commands alternate, and the per-layer
metrics come from the traced command's spans (`tracer.py`).

The run pins itself and its children to one CPU and times a fixed reference
kernel on it just before and just after every command (`speed.py`). Every
time a command reports is multiplied by `speed.REFERENCE_S` over the
kernel's mean time around it, so times are at the reference speed: the
host's own changes of speed cancel, and the program's do not. The metric
notes give the median speed factor and the times as measured.

Every command's output is checked: one decision per record, precision at
least the Top-1 precision of the input, the enhanced graph reloading to
exactly the input plus the accepted and repaired finals, and the same
SHA-256 digests of decision log and graph on every command that runs the
same program on the same inputs, in this run or an earlier one. Metric lines
go to standard output; its last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
DIGESTS = WORK / "digests.json"
TIME_LIMIT_S = 165.0        # every run ends well inside 180 s
KEPT = ("Accepted", "Repaired")

sys.path.insert(0, str(BENCH))
import gen  # noqa: E402
import speed  # noqa: E402
from tracer import layer_metrics, load_spans, nearest_rank  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BASELINE = json.loads((BENCH / "baseline.json").read_text(encoding="utf-8"))


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def import_program():
    """Import kgmend from this checkout's `src`, never from anywhere else."""
    if not (SRC / "kgmend" / "cli.py").is_file():
        raise SetupError(f"no program to measure: {SRC / 'kgmend'} is missing")
    sys.path.insert(0, str(SRC))
    import kgmend
    if Path(kgmend.__file__).resolve().parent != (SRC / "kgmend").resolve():
        raise SetupError(f"kgmend imported from {kgmend.__file__}, not from {SRC}")
    return kgmend


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kgmend").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Inputs:
    def __init__(self, w: gen.Workload, seed: int) -> None:
        self.workload = w
        self.dir = WORK / f"{w.name}-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        built = gen.write(w, seed, self.dir / "inputs")
        self.paths = built["paths"]
        self.edges = set(built["edges"])
        self.ids = [rec["id"] for rec in built["records"]]
        self.gold = {g["id"]: g["relation"] for g in built["gold"]}
        top1 = [rec["candidates"][0]["relation"] for rec in built["records"]]
        predicted = [(rid, r) for rid, r in zip(self.ids, top1) if r != gen.NA]
        hits = sum(1 for rid, r in predicted if self.gold[rid] == r)
        self.top1_precision = hits / len(predicted) if predicted else 0.0


class Command:
    """One `enhance` child process and what its output check found."""

    def __init__(self, inputs: Inputs, mode: str, n: int, deadline: float) -> None:
        out = inputs.dir / f"{mode}{n}"
        out.mkdir()
        self.files = {"report": out / "report.json", "spans": out / "spans.jsonl",
                      "decisions": out / "decisions.jsonl", "graph": out / "graph.tsv",
                      "metrics": out / "metrics.jsonl"}
        cmd = [sys.executable, str(BENCH / "probe.py"), "--mode", mode,
               "--report", str(self.files["report"])]
        if mode == "traced":
            cmd += ["--spans", str(self.files["spans"])]
        cmd += ["--", "enhance",
                "--graph", str(inputs.paths["graph"]),
                "--predictions", str(inputs.paths["predictions"]),
                "--slice-size", str(inputs.workload.slice_size), "--workers", "1",
                "--out-decisions", str(self.files["decisions"]),
                "--out-graph", str(self.files["graph"]),
                "--metrics", str(self.files["metrics"])]
        # timed commands share one hash seed, which steadies their timing; traced
        # commands keep a random one, so equal digests also show that the output
        # does not depend on set iteration order
        env = dict(os.environ)
        if mode == "timed":
            env["PYTHONHASHSEED"] = "0"
        else:
            env.pop("PYTHONHASHSEED", None)
        self.error = None
        self.report: dict = {}
        before = speed.kernel_s()
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=max(1.0, deadline - start))
        except subprocess.TimeoutExpired:
            self.error = "timed out"
            return
        self.enhance_s = time.monotonic() - start
        # multiplies this command's measured times into times at the reference speed
        self.scale = speed.REFERENCE_S / ((before + speed.kernel_s()) / 2)
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            self.error = f"exit {proc.returncode}: {' | '.join(tail)}"
            return
        self.report = json.loads(self.files["report"].read_text(encoding="utf-8"))
        self.setup_s = self.report["setup_s"]
        self.decisions = [json.loads(line) for line in
                          self.files["decisions"].read_text(encoding="utf-8").splitlines()]
        self.digests = (sha256(self.files["decisions"]), sha256(self.files["graph"]))

    def check(self, inputs: Inputs, kgmend, verified: set) -> None:
        """Run the output check; a failure is kept in `error`."""
        if self.error is None:
            self.error = self._check(inputs, kgmend, verified)

    def _check(self, inputs: Inputs, kgmend, verified: set):
        seen = Counter(d["id"] for d in self.decisions)
        wrong = [rid for rid in inputs.ids if seen[rid] != 1]
        if wrong or len(seen) != len(inputs.ids):
            return f"{len(wrong)} records without exactly one decision, {len(seen)} ids decided"
        self.score = score(self.decisions, inputs.gold)
        if self.score["precision"] < inputs.top1_precision:
            return (f"precision {self.score['precision']:.4f} below the input's Top-1 "
                    f"precision {inputs.top1_precision:.4f}")
        if self.digests not in verified:
            expected = inputs.edges | {(d["head"], d["final"], d["tail"])
                                       for d in self.decisions if d["status"] in KEPT}
            if set(kgmend.load_graph(self.files["graph"]).all_tuples()) != expected:
                return "--out-graph does not reload to the input plus the kept finals"
            verified.add(self.digests)
        return None

    def late_slice_ms_per_record(self) -> float:
        slices = [json.loads(line) for line in
                  self.files["metrics"].read_text(encoding="utf-8").splitlines()]
        late = slices[-max(1, len(slices) // 4):]
        records = [sum(s["counts"].values()) for s in late]
        seconds = sum(s["per_tuple_seconds"] * n for s, n in zip(late, records))
        return 1000 * seconds / sum(records)


def score(decisions: list, gold: dict) -> dict:
    tp = sum(1 for d in decisions if d["final"] != gen.NA and d["final"] == gold[d["id"]])
    kept = sum(1 for d in decisions if d["final"] != gen.NA)
    truth = sum(1 for d in decisions if gold[d["id"]] != gen.NA)
    return {"tp": tp, "kept": kept, "truth": truth,
            "precision": tp / kept if kept else 0.0, "recall": tp / truth if truth else 0.0,
            "held_terminal": sum(1 for d in decisions if d.get("terminal"))}


def check_digests(commands: list, inputs: Inputs) -> None:
    """The same program on the same inputs must give the same outputs, in any run."""
    key = ":".join([inputs.workload.name, str(inputs.workload.slice_size), source_digest(),
                    *(sha256(inputs.paths[k]) for k in ("graph", "predictions"))])
    store = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    first = store.get(key)
    for c in commands:
        if c.error:
            continue
        if first is None:
            first = list(c.digests)
        elif list(c.digests) != first:
            c.error = f"digests differ from an earlier command: {c.digests} vs {first}"
    if first is not None and key not in store:
        store[key] = first
        DIGESTS.write_text(json.dumps(store, indent=1), encoding="utf-8")


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(commands: list, records: int, failed: int) -> dict:
    ok = [c for c in commands if not c.error]
    attempted = records * len(commands)
    # the i-th repair_tuple call is the same record in every command (same program,
    # same inputs, same hash seed), so each call's median over the commands is that
    # record's latency with the host's noise taken out of it
    calls = zip(*([c.scale * s for s in c.report["repair_tuple_s"]] for c in ok))
    samples = sorted(statistics.median(times) for times in calls)
    n = len(samples)
    runs = f"median of {len(ok)} commands"
    tail = f"over {n} repair_tuple calls, each the median of {len(ok)} commands"
    sc = ok[0].score if ok else {"tp": 0, "kept": 0, "truth": 0, "precision": 0.0, "recall": 0.0}

    def timed(name: str, value) -> tuple:
        """Median of value(c) at the reference speed, and as measured in the note."""
        return (median([c.scale * value(c) for c in ok]),
                f"{runs}; as measured {median([value(c) for c in ok]):.6g} {name}")

    return {
        "setup_s": timed("s", lambda c: c.setup_s),
        "enhance_s": timed("s", lambda c: c.enhance_s),
        "records_per_s": (median([records / (c.scale * c.report["run_s"]) for c in ok]),
                          f"{records} records per command, {runs}; as measured "
                          f"{median([records / c.report['run_s'] for c in ok]):.6g} records/s"),
        "record_ms_p50": (1000 * (nearest_rank(samples, 0.5) or 0.0), tail),
        "record_ms_p99": (1000 * (nearest_rank(samples, 0.99) or 0.0),
                          f"{tail}, {n - math.ceil(0.99 * n)} beyond"),
        "late_slice_ms_per_record": timed("ms", lambda c: c.late_slice_ms_per_record()),
        "peak_rss_mb": (median([c.report["max_rss_kb"] / 1024 for c in ok]), runs),
        "precision": (sc["precision"], f"{sc['tp']} / {sc['kept']} non-NA finals"),
        "recall": (sc["recall"], f"{sc['tp']} / {sc['truth']} gold non-NA"),
        "decided_share": ((attempted - failed) / attempted,
                          f"{attempted - failed} / {attempted} records; "
                          f"failed_share {failed} / {attempted}"),
    }


def per_layer(untraced: list, traced: list, records: int) -> dict:
    """Medians over the traced commands; shares divide by the untraced medians.

    Every time, traced or not, is at the reference speed.
    """
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    rows = []
    for c in traced:
        if c.error:
            continue
        spans = load_spans(c.files["spans"])
        c.files["spans"].unlink()
        m = layer_metrics(spans, records)
        m = {name: (c.scale * v if units.get(name) == "s" else v, base)
             for name, (v, base) in m.items()}
        m["stream.held_terminal"] = (c.score["held_terminal"], None)
        m["trace.enhance_s"] = (c.scale * c.enhance_s, None)
        rows.append(m)
    out = {}
    for name in rows[0] if rows else ():
        note = f"lower median of {len(rows)} traced commands"
        if rows[0][name][1] is not None:
            note += "; base " + " / ".join(f"{b:.6g}" for b in rows[0][name][1])
        out[name] = (statistics.median_low([r[name][0] for r in rows]), note)
    plain = [c for c in untraced if not c.error]
    enhance_s = median([c.scale * c.enhance_s for c in plain])
    setup_s = median([c.scale * c.setup_s for c in plain])
    traced_s = out.get("trace.enhance_s", (0.0,))[0]
    out["trace.overhead_ratio"] = (traced_s / enhance_s - 1 if enhance_s else 0.0,
                                   f"traced {traced_s:.4f} s / untraced {enhance_s:.4f} s "
                                   f"(median of {len(plain)} untraced commands) - 1")
    parts = {
        "share.scan_sim_of_enhance": (("embedding.sim.scan_self_s",), enhance_s, "enhance_s"),
        "share.pattern_of_enhance": (("patterns.extract_pattern.self_s",
                                      "embedding.traverse_r.self_s"), enhance_s, "enhance_s"),
        "share.load_of_setup": (("graph_store.load_graph.s",), setup_s, "setup_s"),
    }
    for name, (layers, whole, label) in parts.items():
        part = sum(out[layer][0] for layer in layers) if rows else 0.0
        out[name] = (part / whole if whole else 0.0,
                     f"traced {' + '.join(layers)} {part:.4f} s / untraced {label} {whole:.4f} s")
    return {e["name"]: out.get(e["name"], (0.0, "no traced command passed"))
            for e in SPEC["per_layer"]}


def measure(w: gen.Workload, seed: int, seconds: float, trace: bool, kgmend,
            started: float) -> dict:
    inputs = Inputs(w, seed)
    records = len(inputs.ids)
    # compile and cache the package's bytecode before the first timed command
    subprocess.run([sys.executable, "-c", "import kgmend.cli"], cwd=ROOT, check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})
    deadline = started + TIME_LIMIT_S
    untraced, traced = [], []
    t0 = time.monotonic()
    while True:
        lap = time.monotonic()
        untraced.append(Command(inputs, "timed", len(untraced), deadline))
        if trace:
            traced.append(Command(inputs, "traced", len(traced), deadline))
        now = time.monotonic()
        if now - t0 >= seconds or now + 2 * (now - lap) > deadline:
            break
    commands = untraced + traced
    verified: set = set()
    for c in commands:
        c.check(inputs, kgmend, verified)
    check_digests(commands, inputs)
    failed = sum(records for c in commands if c.error)
    result = {
        "workload": w.name, "seed": seed, "records": records, "inputs": inputs,
        "commands": commands, "failed": failed, "attempted": records * len(commands),
        "end_to_end": end_to_end(untraced, records, sum(records for c in untraced if c.error)),
    }
    if trace:
        result["per_layer"] = per_layer(untraced, traced, records)
    return result


def report(result: dict, trace: bool) -> dict:
    w = gen.WORKLOADS[result["workload"]]
    inputs = result["inputs"]
    print(f"== {w.name} seed {result['seed']}: {len(inputs.edges)} edges, {result['records']} "
          f"records, slice size {w.slice_size}; {w.why}")
    print(f"   input Top-1 precision {inputs.top1_precision:.4f}")
    for c in result["commands"]:
        if c.error:
            print(f"   FAILED command: {c.error}")
    factors = sorted(c.scale for c in result["commands"] if hasattr(c, "scale"))
    if factors:
        print(f"   host speed factor: median {median(factors):.4f}, range {factors[0]:.4f} to "
              f"{factors[-1]:.4f} over {len(factors)} commands (times below are measured "
              f"times multiplied by it)")
    good = [c for c in result["commands"] if not c.error]
    if good:
        dec, graph = good[0].digests
        base = BASELINE["workloads"].get(w.name, {}).get("digests", {}).get(str(result["seed"]))
        note = ("no baseline for this seed" if base is None else
                "same as baseline" if base == [dec, graph] else "DIFFERENT from baseline")
        print(f"   decisions sha256 {dec}\n   graph     sha256 {graph}\n"
              f"   ({note} at {BASELINE['commit']})")
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    metrics = {}
    for name, (value, note) in result[section].items():
        print(f"   {name:<46} {value:>14.6g} {units[name]:<10} {note}")
        metrics[name] = {"value": value, "unit": units[name]}
    print(f"   failed_share {result['failed']} / {result['attempted']} records "
          f"over {len(result['commands'])} commands")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main() -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        kgmend = import_program()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    speed.pin_to_one_cpu()
    names = sorted(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    for name in names:
        start = time.monotonic() if args.workload == "all" else started
        result = measure(gen.WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                         kgmend, start)
        outcomes[name] = report(result, bool(args.trace))
        shutil.rmtree(result["inputs"].dir, ignore_errors=True)
    if args.workload == "all":
        print(json.dumps({"correct": all(o["correct"] for o in outcomes.values()),
                          "workloads": outcomes}))
    else:
        print(json.dumps(outcomes[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
