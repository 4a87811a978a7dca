"""End-to-end command line behavior through click's test runner."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import kgmend
from kgmend import GraphStore, PredictionRecord, Tuple, load_graph, save_graph
from kgmend import cli
from kgmend.cli import main
from kgmend.repair import UNKNOWN_POLICIES, write_predictions

from conftest import DATA, GOLDEN


@pytest.fixture
def runner() -> CliRunner:
    return CliRunner()


def support_graph_file(tmp_path, occurrences=3):
    g = GraphStore()
    for i in range(occurrences):
        g.add_tuple(Tuple(f"a{i}", "r", f"b{i}"))
        g.add_tuple(Tuple(f"a{i}", "q", f"x{i}"))
    g.add_tuple(Tuple("h", "q", "xh"))
    path = tmp_path / "graph.tsv"
    save_graph(g, path)
    return path


def predictions_file(tmp_path, records):
    path = tmp_path / "preds.jsonl"
    write_predictions(records, path)
    return path


def test_embed_reproduces_golden_file(runner):
    result = runner.invoke(main, [
        "embed", "--graph", str(DATA / "fixture_b.tsv"),
        "--head", "India", "--relation", "C", "--tail", "Gorakhpur", "--l", "1",
    ])
    assert result.exit_code == 0
    assert result.stdout_bytes == (GOLDEN / "fixture_b_l1.txt").read_bytes()


@pytest.mark.parametrize("l, sort_paths, golden", [
    ("1", "off", "fixture_b_l1_positional.txt"),
    ("2", "off", "fixture_b_l2_positional.txt"),
    ("2", "on", "fixture_b_l2.txt"),
])
def test_embed_reproduces_the_golden_file_in_either_mode(runner, l, sort_paths, golden):
    # `embed` prints the labeled view: the center label put back into every path
    result = runner.invoke(main, [
        "embed", "--graph", str(DATA / "fixture_b.tsv"), "--head", "India",
        "--relation", "C", "--tail", "Gorakhpur", "--l", l, "--sort-paths", sort_paths,
    ])
    assert result.exit_code == 0
    assert result.stdout_bytes == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("option, value, message", [
    pytest.param("--head", "", "empty", id="--head"),
    pytest.param("--relation", "", "empty", id="--relation"),
    pytest.param("--tail", "", "empty", id="--tail"),
    pytest.param("--relation", "NA", "NA-labeled center", id="--relation-NA"),
])
def test_embed_rejects_a_bad_identifier_as_usage_error(runner, option, value, message):
    args = {"--head": "India", "--relation": "C", "--tail": "Gorakhpur"}
    args[option] = value
    result = runner.invoke(main, [
        "embed", "--graph", str(DATA / "fixture_b.tsv"), "--l", "1",
        *(part for item in args.items() for part in item),
    ])
    assert result.exit_code == 2
    assert message in result.stderr


def test_embed_rejects_a_radius_below_one(runner):
    # above the bound, walk enumeration would recurse l deep
    for l, message in (("0", "l must be >= 1"), ("1200", "l must be <= 10")):
        result = runner.invoke(main, [
            "embed", "--graph", str(DATA / "fixture_b.tsv"),
            "--head", "India", "--relation", "C", "--tail", "Gorakhpur", "--l", l,
        ])
        assert result.exit_code == 2
        assert message in result.stderr


def test_validate_emits_one_json_line_per_tuple(runner, tmp_path):
    graph = support_graph_file(tmp_path)
    tuples = tmp_path / "cand.tsv"
    tuples.write_text("h\tr\tt\nghost\tr\tnowhere\n")
    result = runner.invoke(main, [
        "validate", "--graph", str(graph), "--tuples", str(tuples),
        "--l", "1", "--sample-size", "4",
    ])
    assert result.exit_code == 0
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert [row["status"] for row in rows] == ["Valid", "Unknown"]
    assert rows[0]["support"] >= 1


def test_validate_rejects_na_tuples_with_exit_two(runner, tmp_path):
    graph = support_graph_file(tmp_path)
    tuples = tmp_path / "cand.tsv"
    tuples.write_text("h\tNA\tt\n")
    result = runner.invoke(main, [
        "validate", "--graph", str(graph), "--tuples", str(tuples),
    ])
    assert result.exit_code == 2
    assert "line 1" in result.stderr


def test_malformed_graph_exits_two(runner, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("only-one-field\n")
    result = runner.invoke(main, ["stats", "--graph", str(bad)])
    assert result.exit_code == 2


def test_graph_byte_that_is_not_utf8_exits_two_with_its_line(runner, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"a\tr\tb\nc\tr\td\xff\n")
    result = runner.invoke(main, ["stats", "--graph", str(bad)])
    assert result.exit_code == 2
    assert "line 2" in result.stderr


def test_malformed_aux_graph_exits_two(runner, tmp_path):
    graph = support_graph_file(tmp_path)
    preds = predictions_file(tmp_path, [PredictionRecord("n1", "h", "t", (("r", 0.9),))])
    aux = tmp_path / "aux.tsv"
    aux.write_text("only-one-field\n")
    label_map = tmp_path / "map.tsv"
    label_map.write_text("x\tr\n")
    result = runner.invoke(main, [
        "enhance", "--graph", str(graph), "--predictions", str(preds), "--aux-graph", str(aux),
        "--label-map", str(label_map),
    ])
    assert result.exit_code == 2
    assert "line 1" in result.stderr


@pytest.mark.parametrize("given", ["--aux-graph", "--label-map"])
def test_aux_graph_and_label_map_go_together(runner, tmp_path, given):
    graph = support_graph_file(tmp_path)
    preds = predictions_file(tmp_path, [PredictionRecord("n1", "h", "t", (("r", 0.9),))])
    # valid as an aux graph, malformed as a label map: neither may be read alone
    lone = tmp_path / "lone.tsv"
    lone.write_text("A\tx\tB\n")
    result = runner.invoke(main, [
        "enhance", "--graph", str(graph), "--predictions", str(preds), given, str(lone),
    ])
    assert result.exit_code == 2
    assert "must be given together" in result.stderr


def test_bad_config_value_exits_two(runner, tmp_path):
    graph = support_graph_file(tmp_path)
    tuples = tmp_path / "cand.tsv"
    tuples.write_text("h\tr\tt\n")
    result = runner.invoke(main, [
        "validate", "--graph", str(graph), "--tuples", str(tuples), "--l", "0",
    ])
    assert result.exit_code == 2


@pytest.mark.parametrize("option, value, message", [
    ("--k", "0", "k must be >= 1"),
    ("--p-th", "2", "p_th must be in [0, 1]"),
    ("--slice-size", "0", "must be at least 1"),
    ("--workers", "0", "must be at least 1"),
], ids=["k", "p-th", "slice-size", "workers"])
def test_bad_enhance_value_exits_two(runner, tmp_path, option, value, message):
    graph = support_graph_file(tmp_path)
    preds = predictions_file(tmp_path, [PredictionRecord("n1", "h", "t", (("r", 0.9),))])
    result = runner.invoke(main, [
        "enhance", "--graph", str(graph), "--predictions", str(preds), option, value,
    ])
    assert result.exit_code == 2
    assert message in result.stderr


# every command's knobs, spelled out: adding or removing one changes this test
_VALIDATION = {"l", "sample_size", "theta", "delta", "seed", "sort_paths"}
COMMAND_OPTIONS = {
    "enhance": _VALIDATION | {
        "graph", "predictions", "k", "p_th", "slice_size", "unknown_policy", "max_hold",
        "workers", "aux_graph", "label_map", "out_decisions", "out_graph", "metrics"},
    "validate": _VALIDATION | {"graph", "tuples_path"},
    "embed": {"graph", "head", "relation", "tail", "l", "sort_paths"},
    "predict-links": _VALIDATION - {"theta", "delta"} | {"graph", "tuples_path"},
    "inject-errors": {"predictions", "rate", "seed", "out"},
    "detect-errors": _VALIDATION | {"graph", "facts", "unknown_true"},
    "stats": {"graph"},
}


def test_each_command_takes_exactly_its_options():
    assert set(main.commands) == set(COMMAND_OPTIONS)
    for name, command in main.commands.items():
        assert {p.name for p in command.params} == COMMAND_OPTIONS[name], name


def test_stats_reports_counts(runner, tmp_path):
    graph = support_graph_file(tmp_path)
    result = runner.invoke(main, ["stats", "--graph", str(graph)])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["edges"] == 7
    assert payload["vertices"] == 11
    assert payload["relations"] == 2
    assert payload["d_max"] == 2


def test_predict_links_outputs_probabilities(runner, tmp_path):
    graph = support_graph_file(tmp_path)
    tuples = tmp_path / "cand.tsv"
    tuples.write_text("h\tr\tt\nghost\tr\tnowhere\n")
    result = runner.invoke(main, [
        "predict-links", "--graph", str(graph), "--tuples", str(tuples),
        "--l", "1", "--sample-size", "4",
    ])
    assert result.exit_code == 0
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert rows[0]["link"] == 1.0
    assert rows[1]["link"] == 0.0


def test_inject_errors_roundtrip(runner, tmp_path):
    records = [
        PredictionRecord(f"r{i}", f"h{i}", f"t{i}", (("a", 0.8), ("b", 0.5)))
        for i in range(20)
    ]
    preds = predictions_file(tmp_path, records)
    out = tmp_path / "perturbed.jsonl"
    result = runner.invoke(main, [
        "inject-errors", "--predictions", str(preds),
        "--rate", "1.0", "--seed", "3", "--out", str(out),
    ])
    assert result.exit_code == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(row["candidates"][0]["relation"] == "b" for row in lines)
    assert all(row["candidates"][0]["p"] == 0.8 for row in lines)
    # without --out the same records go to stdout
    result = runner.invoke(main, ["inject-errors", "--predictions", str(preds),
                                  "--rate", "1.0", "--seed", "3"])
    assert result.exit_code == 0
    assert result.stdout == out.read_text()


def test_inject_errors_rejects_bad_rate(runner, tmp_path):
    preds = predictions_file(tmp_path, [
        PredictionRecord("r0", "h", "t", (("a", 0.8),)),
    ])
    result = runner.invoke(main, [
        "inject-errors", "--predictions", str(preds), "--rate", "1.5",
    ])
    assert result.exit_code == 2


def test_detect_errors_scores_labeled_facts(runner, tmp_path):
    graph = support_graph_file(tmp_path)
    facts = tmp_path / "facts.tsv"
    facts.write_text("h\tr\tt\t1\nghost\tr\tnowhere\t0\n")
    result = runner.invoke(main, [
        "detect-errors", "--graph", str(graph), "--facts", str(facts),
        "--l", "1", "--sample-size", "4",
    ])
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["tp"] == 1 and report["tn"] == 1
    assert report["f_score"] == 1.0


def _every_command(tmp_path) -> dict:
    """Arguments that run each command to completion on small inputs."""
    graph = str(support_graph_file(tmp_path))
    tuples = tmp_path / "cand.tsv"
    tuples.write_text("h\tr\tt\nghost\tr\tnowhere\n")
    facts = tmp_path / "facts.tsv"
    facts.write_text("h\tr\tt\t1\nghost\tr\tnowhere\t0\n")
    preds = str(predictions_file(tmp_path, [
        PredictionRecord(f"n{i}", f"h{i}", "t", (("wrong", 0.8), ("r", 0.5))) for i in range(3)]))
    bad = tmp_path / "bad.tsv"
    bad.write_text("e\tr\n")
    return {
        "enhance": ["enhance", "--graph", graph, "--predictions", preds],
        "validate": ["validate", "--graph", graph, "--tuples", str(tuples)],
        "predict-links": ["predict-links", "--graph", graph, "--tuples", str(tuples)],
        "detect-errors": ["detect-errors", "--graph", graph, "--facts", str(facts)],
        "embed": ["embed", "--graph", graph, "--head", "h", "--relation", "r", "--tail", "t"],
        "stats": ["stats", "--graph", graph],
        "inject-errors": ["inject-errors", "--predictions", preds, "--rate", "0.5"],
        "stats, malformed graph": ["stats", "--graph", str(bad)],
    }


def test_every_command_leaves_the_collector_as_it_found_it(runner, tmp_path, collector):
    # a command called in process pauses the collector for its own run only,
    # and freezes nothing of its caller's
    found = {}
    for name, args in _every_command(tmp_path).items():
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            frozen = gc.get_freeze_count()
            result = runner.invoke(main, args)
            assert result.exit_code == (2 if "malformed" in name else 0), (name, result.output)
            found[name, enabled] = (gc.isenabled(), gc.get_freeze_count() - frozen)
    assert found == {key: (key[1], 0) for key in found}


def test_enhance_runs_its_stream_with_the_collector_paused(runner, tmp_path, monkeypatch, collector):
    # reading predictions and committing slices included
    seen = []
    real = cli.run_stream

    def recorded(*args, **kwargs):
        paused, started = not gc.isenabled(), len(collector)
        result = real(*args, **kwargs)
        seen.append((paused, len(collector) - started))
        return result

    monkeypatch.setattr(cli, "run_stream", recorded)
    gc.enable()
    result = runner.invoke(main, _every_command(tmp_path)["enhance"])
    assert result.exit_code == 0 and seen == [(True, 0)] and gc.isenabled()


@pytest.mark.parametrize("command, binding", [
    ("enhance", "run_stream"), ("validate", "classify"), ("predict-links", "predict_link")])
def test_a_value_error_past_the_inputs_is_not_a_usage_error(runner, tmp_path, monkeypatch,
                                                            command, binding):
    # only option parsing and file reading report ValueError as exit 2; a fault
    # in the work itself ends in a traceback
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, binding, broken)
    result = runner.invoke(main, _every_command(tmp_path)[command])
    assert result.exit_code == 1 and isinstance(result.exception, ValueError)


ENHANCE_OUTPUTS = ("--out-decisions", "--out-graph", "--metrics")


@pytest.mark.parametrize("option", ENHANCE_OUTPUTS)
def test_enhance_output_in_a_missing_directory_exits_two_before_any_work(
        runner, tmp_path, monkeypatch, option):
    # checked while options are parsed: no graph is loaded and no output is
    # written, where the run used to end in a traceback after writing the others
    monkeypatch.setattr(cli, "load_graph", lambda *args: pytest.fail("the graph was loaded"))
    outputs = {name: tmp_path / f"{name[2:]}.out" for name in ENHANCE_OUTPUTS}
    outputs[option] = tmp_path / "missing" / "out"
    args = _every_command(tmp_path)["enhance"]
    result = runner.invoke(main, args + [a for name, path in outputs.items() for a in (name, str(path))])
    assert result.exit_code == 2, result.output
    assert option in result.stderr and "does not exist" in result.stderr
    assert not any(path.exists() for path in outputs.values())


def test_inject_errors_out_in_a_missing_directory_exits_two_before_reading(
        runner, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "read_predictions", lambda *args: pytest.fail("the input was read"))
    args = _every_command(tmp_path)["inject-errors"]
    result = runner.invoke(main, args + ["--out", str(tmp_path / "missing" / "out.jsonl")])
    assert result.exit_code == 2 and "does not exist" in result.stderr


def test_an_output_directory_that_is_not_writable_exits_two(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "load_graph", lambda *args: pytest.fail("the graph was loaded"))
    readable = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: not mode & os.W_OK and readable(path, mode))
    args = _every_command(tmp_path)["enhance"]
    result = runner.invoke(main, args + ["--out-graph", str(tmp_path / "out.tsv")])
    assert result.exit_code == 2 and "is not writable" in result.stderr


def test_an_output_symlink_is_checked_at_its_target_and_saved_through(runner, tmp_path, monkeypatch):
    # a link in a writable directory onto a file in one that is not fails
    # first; onto a writable one, the link stays and its target takes the graph
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "out.tsv"
    link = tmp_path / "out.tsv"
    link.symlink_to(target)
    args = _every_command(tmp_path)["enhance"] + ["--out-graph", str(link)]
    readable = os.access
    with monkeypatch.context() as patch:
        patch.setattr(cli, "load_graph", lambda *args: pytest.fail("the graph was loaded"))
        patch.setattr(os, "access", lambda path, mode: (
            os.path.basename(path) != "data" or not mode & os.W_OK) and readable(path, mode))
        result = runner.invoke(main, args)
        assert result.exit_code == 2 and "is not writable" in result.stderr
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert link.is_symlink() and set(load_graph(target).all_tuples()) >= set(
        load_graph(tmp_path / "graph.tsv").all_tuples())


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_an_output_graph_on_stdout_is_written_to_the_pipe(tmp_path):
    # /dev/stdout on a pipe links to `pipe:[N]`, which names no path: the
    # graph goes down the pipe, and no directory check fails on that text
    src = Path(__file__).resolve().parent.parent / "src"
    args = _every_command(tmp_path)["enhance"] + ["--out-decisions", str(tmp_path / "d.jsonl"),
                                                  "--out-graph", "/dev/stdout"]
    result = subprocess.run([sys.executable, "-m", "kgmend.cli", *args], cwd=tmp_path,
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    (tmp_path / "piped.tsv").write_text(result.stdout)
    assert set(load_graph(tmp_path / "piped.tsv").all_tuples()) >= set(
        load_graph(tmp_path / "graph.tsv").all_tuples())


def test_an_output_file_in_the_working_directory_is_accepted(runner, tmp_path, monkeypatch):
    args = _every_command(tmp_path)["enhance"]
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, args + ["--out-graph", "out.tsv"])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "out.tsv").exists()


def test_version_is_the_package_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert result.output == f"kgmend, version {kgmend.__version__}\n"


def test_version_runs_from_a_source_checkout(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-m", "kgmend.cli", "--version"], cwd=tmp_path,
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"kgmend, version {kgmend.__version__}\n"


def test_enhance_writes_decisions_graph_and_metrics(runner, tmp_path):
    graph = support_graph_file(tmp_path)
    records = [PredictionRecord("n1", "h", "t", (("wrong", 0.8), ("r", 0.5)))]
    preds = predictions_file(tmp_path, records)
    decisions_path = tmp_path / "decisions.jsonl"
    out_graph = tmp_path / "enhanced.tsv"
    metrics = tmp_path / "metrics.jsonl"
    result = runner.invoke(main, [
        "enhance", "--graph", str(graph), "--predictions", str(preds),
        "--l", "1", "--sample-size", "4",
        "--out-decisions", str(decisions_path),
        "--out-graph", str(out_graph), "--metrics", str(metrics),
    ])
    assert result.exit_code == 0
    decision = json.loads(decisions_path.read_text())
    assert decision["status"] == "Repaired"
    assert decision["final"] == "r"
    assert "h\tr\tt" in out_graph.read_text().splitlines()
    slice_row = json.loads(metrics.read_text())
    assert slice_row["counts"]["Repaired"] == 1
    assert slice_row["malformed"] == 0
    assert "Repaired: 1" in result.stderr


def test_enhance_counts_malformed_lines_without_aborting(runner, tmp_path):
    graph = support_graph_file(tmp_path)
    preds = tmp_path / "preds.jsonl"
    metrics = tmp_path / "metrics.jsonl"
    good = '{"id": "n1", "head": "h", "tail": "t", "candidates": [{"relation": "r", "p": 0.9}]}\n'
    too_long = good.replace("n1", "n0").replace("0.9", "9" * 5000)   # past Python's int digit limit
    for bad in ("not json at all\n", "[" * 200_000 + "]" * 200_000 + "\n", too_long):
        preds.write_text(bad + good)
        result = runner.invoke(main, [
            "enhance", "--graph", str(graph), "--predictions", str(preds),
            "--l", "1", "--sample-size", "4", "--metrics", str(metrics),
        ])
        assert result.exit_code == 0
        assert json.loads(metrics.read_text())["malformed"] == 1
        assert [json.loads(line)["id"] for line in result.stdout.splitlines()] == ["n1"]
        result = runner.invoke(main, ["inject-errors", "--predictions", str(preds), "--rate", "0.5"])
        assert result.exit_code == 2
        assert "line 1" in result.stderr


def test_prediction_byte_that_is_not_utf8_is_a_malformed_record(runner, tmp_path):
    graph = support_graph_file(tmp_path)
    preds = tmp_path / "preds.jsonl"
    good = '{"id": "n%d", "head": "h", "tail": "t", "candidates": [{"relation": "r", "p": 0.9}]}\n'
    preds.write_bytes((good % 1).encode() + (good % 2).replace('"n2"', '"n2\xff"').encode("latin-1")
                      + (good % 3).encode())
    metrics = tmp_path / "metrics.jsonl"
    result = runner.invoke(main, [
        "enhance", "--graph", str(graph), "--predictions", str(preds),
        "--l", "1", "--sample-size", "4", "--metrics", str(metrics),
    ])
    assert result.exit_code == 0
    assert json.loads(metrics.read_text())["malformed"] == 1
    assert [json.loads(line)["id"] for line in result.stdout.splitlines()] == ["n1", "n3"]


# each of these was once committed by `enhance`, and its --out-graph file then
# failed to load, dropped the line as a comment or read the head back changed;
# a non-string id was decided under its str(), so `null` became "None"
BAD_FIELDS = {
    "empty": {"head": ""},
    "tab": {"head": "h\tx"},
    "cr": {"head": "h\rx"},
    "hash": {"head": "#h"},
    "space": {"head": " sp"},
    "null": {"head": None},
    "empty-relation": {"candidates": [{"relation": "", "p": 0.9}]},
    "surrogate": {"head": "\ud800"},
    "null-id": {"id": None},
    "number-id": {"id": 7},
}


@pytest.mark.parametrize("bad", list(BAD_FIELDS.values()), ids=list(BAD_FIELDS))
def test_bad_identifiers_are_malformed_records(runner, tmp_path, bad):
    graph = support_graph_file(tmp_path)
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"id": "n1", "head": "h", "tail": "t",
                                 "candidates": [{"relation": "r", "p": 0.9}], **bad}) + "\n")
    metrics = tmp_path / "metrics.jsonl"
    out_graph = tmp_path / "enhanced.tsv"
    result = runner.invoke(main, [
        "enhance", "--graph", str(graph), "--predictions", str(preds),
        "--l", "1", "--sample-size", "4", "--unknown-policy", "accept",
        "--metrics", str(metrics), "--out-graph", str(out_graph),
    ])
    assert result.exit_code == 0
    assert json.loads(metrics.read_text())["malformed"] == 1
    assert set(load_graph(out_graph).all_tuples()) == set(load_graph(graph).all_tuples())
    result = runner.invoke(main, ["inject-errors", "--predictions", str(preds), "--rate", "0.5"])
    assert result.exit_code == 2
    assert "line 1" in result.stderr


def test_duplicate_record_id_is_a_malformed_record(runner, tmp_path):
    graph = support_graph_file(tmp_path)
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(json.dumps({
        "id": rid, "head": "h", "tail": tail, "candidates": [{"relation": "r", "p": 0.9}],
    }) + "\n" for rid, tail in (("x", "t1"), ("x", "t2"), ("y", "t3"))))
    metrics = tmp_path / "metrics.jsonl"
    result = runner.invoke(main, [
        "enhance", "--graph", str(graph), "--predictions", str(preds),
        "--l", "1", "--sample-size", "4", "--metrics", str(metrics),
    ])
    assert result.exit_code == 0
    assert json.loads(metrics.read_text())["malformed"] == 1
    decided = [(d["id"], d["tail"]) for d in map(json.loads, result.stdout.splitlines())]
    assert decided == [("x", "t1"), ("y", "t3")]     # the first record with the id is kept
    result = runner.invoke(main, ["inject-errors", "--predictions", str(preds), "--rate", "0.5"])
    assert result.exit_code == 2
    assert "line 2: duplicate id 'x'" in result.stderr


_NAMES = st.text(st.sampled_from(["a", "h", "N", "A", " ", "\t", "\r", "\n", "#", "\x0c", "\x85"]),
                 max_size=3)
_CANDIDATES = st.lists(st.tuples(st.one_of(_NAMES, st.sampled_from(["r", "q", "NA"])),
                                 st.sampled_from([0.9, 0.5, 0.1])), min_size=1, max_size=3)
_RECORDS = st.lists(st.tuples(st.one_of(st.none(), _NAMES), _NAMES, _CANDIDATES), max_size=6)


@settings(max_examples=30, deadline=None)
@given(_RECORDS)
def test_enhanced_graph_reloads_as_input_plus_kept_finals(records):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        graph = support_graph_file(tmp)
        preds = tmp / "preds.jsonl"
        preds.write_text("".join(json.dumps({
            "id": f"n{i}", "head": head, "tail": tail,
            "candidates": [{"relation": r, "p": p}
                           for r, p in sorted(candidates, key=lambda c: -c[1])],
        }) + "\n" for i, (head, tail, candidates) in enumerate(records)))
        decisions, metrics, out_graph = tmp / "dec.jsonl", tmp / "m.jsonl", tmp / "out.tsv"
        result = CliRunner().invoke(main, [
            "enhance", "--graph", str(graph), "--predictions", str(preds),
            "--l", "1", "--sample-size", "4", "--unknown-policy", "accept",
            "--slice-size", "2", "--out-decisions", str(decisions),
            "--metrics", str(metrics), "--out-graph", str(out_graph),
        ])
        assert result.exit_code == 0, result.output
        log = [json.loads(line) for line in decisions.read_text().splitlines()]
        malformed = sum(json.loads(line)["malformed"] for line in metrics.read_text().splitlines())
        assert len(log) + malformed == len(records)
        kept = {Tuple(d["head"], d["final"], d["tail"]) for d in log
                if d["status"] in ("Accepted", "Repaired")}
        assert set(load_graph(out_graph).all_tuples()) == set(load_graph(graph).all_tuples()) | kept


def test_enhance_uses_auxiliary_graph_for_cold_labels(runner, tmp_path):
    g = GraphStore()
    g.add_tuple(Tuple("h", "q", "xh"))
    graph = tmp_path / "graph.tsv"
    save_graph(g, graph)
    aux_lines = []
    for i in range(12):
        aux_lines.append(f"A{i}\txr\tB{i}\n")
        aux_lines.append(f"A{i}\txq\tX{i}\n")
    aux = tmp_path / "aux.tsv"
    aux.write_text("".join(aux_lines))
    label_map = tmp_path / "map.tsv"
    label_map.write_text("xr\tr\nxq\tq\n")
    preds = predictions_file(tmp_path, [
        PredictionRecord("n1", "h", "t", (("r", 0.9),)),
    ])
    decisions_path = tmp_path / "decisions.jsonl"
    result = runner.invoke(main, [
        "enhance", "--graph", str(graph), "--predictions", str(preds),
        "--l", "1", "--sample-size", "4",
        "--aux-graph", str(aux), "--label-map", str(label_map),
        "--out-decisions", str(decisions_path),
    ])
    assert result.exit_code == 0
    assert json.loads(decisions_path.read_text())["status"] == "Accepted"


# -- no input ends in a traceback ----------------------------------------------

_BAD_BYTES = [b"\t", b"\r", b"#", b" ", b"NA", "\ufeff".encode(), b"\xff"]
_NAME_BYTES = st.sampled_from([b"a", b"b", b"r", b"q"])
_FIELD = st.lists(st.one_of(_NAME_BYTES, st.sampled_from(_BAD_BYTES)), min_size=1, max_size=3)


def _tsv_lines(fields: int, last=None):
    """A file of well-formed `fields`-column lines, or one that mixes in lines
    of the tokens an input file must reject."""
    good = st.lists(_NAME_BYTES, min_size=fields, max_size=fields)
    if last is not None:
        good = st.tuples(st.lists(_NAME_BYTES, min_size=fields - 1, max_size=fields - 1),
                         last).map(lambda parts: [*parts[0], parts[1]])
    good = good.map(b"\t".join)
    bad = st.lists(_FIELD.map(b"".join), max_size=5).map(b"\t".join)
    return st.one_of(st.lists(good, max_size=6), st.lists(st.one_of(good, bad), max_size=6)).map(
        lambda lines: b"".join(x + b"\n" for x in lines))


_JSON_NAME = st.sampled_from(["a", "b", "r", "q", "NA", "#a", "a\tb", " a", "\ud800", "", 7])
_P = st.sampled_from([0.9, 0.5, 0.1, 1.5, -1, "0.5", None, True])
_RECORD_LINE = st.builds(
    lambda rid, head, tail, cands: json.dumps({
        "id": rid, "head": head, "tail": tail,
        "candidates": [{"relation": r, "p": p} for r, p in cands]}).encode(),
    st.sampled_from(["x", "y", "z"]), _JSON_NAME, _JSON_NAME,
    st.lists(st.tuples(_JSON_NAME, _P), max_size=3))
_ODD_LINE = st.sampled_from([
    b"[" * 100_000,
    b'{"id": "big", "head": "a", "tail": "b", "candidates": [{"relation": "r", "p": 0.'
    + b"9" * 5000 + b"}]}",
    b'{"id": "big", "head": "a", "tail": "b", "candidates": [{"relation": "r", "p": '
    + b"9" * 5000 + b"}]}",
    "\ufeff".encode()
    + b'{"id": "bom", "head": "a", "tail": "b", "candidates": [{"relation": "r", "p": 1}]}',
    b'{"id": "x", "head": "a\xff", "tail": "b", "candidates": [{"relation": "r", "p": 1}]}',
])
_PREDICTIONS = st.lists(st.one_of(_RECORD_LINE, _ODD_LINE, _FIELD.map(b"".join)), max_size=6).map(
    lambda lines: b"".join(x + b"\n" for x in lines))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(graph=_tsv_lines(3), aux=_tsv_lines(3), label_map=_tsv_lines(2), tuples=_tsv_lines(3),
       facts=_tsv_lines(4, st.sampled_from([b"1", b"0", b"2", b""])), predictions=_PREDICTIONS,
       center=st.lists(_JSON_NAME.filter(lambda x: isinstance(x, str)), min_size=3, max_size=3),
       slice_size=st.integers(1, 3))
def test_no_input_ends_in_a_traceback(graph, aux, label_map, tuples, facts, predictions, center,
                                      slice_size):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {"graph": graph, "aux": aux, "map": label_map, "tuples": tuples, "facts": facts,
                 "preds": predictions}
        for name, content in files.items():
            (tmp / name).write_bytes(content)
        out_graph = tmp / "out.tsv"
        aux_flag, map_flag = ["--aux-graph", str(tmp / "aux")], ["--label-map", str(tmp / "map")]
        enhance = ["enhance", "--graph", str(tmp / "graph"), "--predictions", str(tmp / "preds"),
                   "--l", "1", "--sample-size", "2", "--slice-size", str(slice_size),
                   "--out-graph", str(out_graph)]
        commands = [[*enhance, "--unknown-policy", policy, *flags] for policy in UNKNOWN_POLICIES
                    for flags in ([], aux_flag + map_flag, aux_flag, map_flag)]
        commands += [
            ["validate", "--graph", str(tmp / "graph"), "--tuples", str(tmp / "tuples")],
            ["predict-links", "--graph", str(tmp / "graph"), "--tuples", str(tmp / "tuples")],
            ["detect-errors", "--graph", str(tmp / "graph"), "--facts", str(tmp / "facts")],
            ["embed", "--graph", str(tmp / "graph"), "--head", center[0], "--relation", center[1],
             "--tail", center[2], "--l", "2"],
            ["stats", "--graph", str(tmp / "graph")],
            ["inject-errors", "--predictions", str(tmp / "preds"), "--rate", "0.5"],
        ]
        for args in commands:
            out_graph.unlink(missing_ok=True)
            result = CliRunner().invoke(main, args)
            assert result.exit_code in (0, 2), (args, result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit), \
                (args, result.exception)
            if args[0] == "enhance" and result.exit_code == 0:
                load_graph(out_graph)
