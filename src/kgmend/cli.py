"""Command line entry points for graph enhancement and its diagnostics."""

from __future__ import annotations

import functools
import json
import os
from collections import Counter
from contextlib import contextmanager

import click

import kgmend

from .embedding import format_embedding
from .evalkit import detect_errors, inject_errors, read_labeled_facts
from .graph_store import Tuple, collector_paused, identifier, load_graph, read_tuples, save_graph
from .repair import (
    UNKNOWN_POLICIES,
    RepairConfig,
    iter_prediction_lines,
    predict_link,
    read_predictions,
    write_json_lines,
)
from .stream import integrate_aux, load_label_map
from .stream import run as run_stream
from .validation import ValidationConfig, candidate_embedding, classify

_FILE_IN = click.Path(exists=True, dir_okay=False)


def _in_a_writable_directory(ctx, param, path):
    """An output path as given, or a usage error if the directory a file (not
    a device or pipe) is saved in, through any symlink, is missing or not
    writable: click's `writable` reads only a file that exists. Options are
    parsed before any input is read, so a bad path fails before the work."""
    if path is not None and (os.path.isfile(path) or not os.path.exists(path)):
        directory = os.path.dirname(os.path.realpath(path))
        if not os.path.isdir(directory):
            raise click.BadParameter(f"directory {directory!r} does not exist", ctx, param)
        if not os.access(directory, os.W_OK | os.X_OK):
            raise click.BadParameter(f"directory {directory!r} is not writable", ctx, param)
    return path


# an option that names a file the command writes
_output_option = functools.partial(click.option, type=click.Path(dir_okay=False, writable=True),
                                   callback=_in_a_writable_directory)


@contextmanager
def _usage_errors():
    """Report a ValueError raised in the block as a usage error (exit 2): a
    bad option value, or a malformed input file, whose readers raise
    `GraphFormatError`, `NALabelError` or `PredictionFormatError`."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


_VCFG = ValidationConfig()
_RCFG = RepairConfig()

# every validation flag, each declared once; a command names the ones it reads
_VALIDATION_FLAGS = {
    "l": click.option("--l", "l", type=int, default=_VCFG.l, show_default=True,
                      help="Pattern radius."),
    "sample_size": click.option("--sample-size", type=int, default=_VCFG.sample_size,
                                show_default=True, help="Occurrences sampled per relation label."),
    "theta": click.option("--theta", type=float, default=_VCFG.theta, show_default=True,
                          help="Similarity threshold a witness must exceed."),
    "delta": click.option("--delta", type=int, default=_VCFG.delta, show_default=True,
                          help="Witness count required for Valid."),
    "seed": click.option("--seed", type=int, default=_VCFG.seed, show_default=True,
                         help="Sampling seed."),
    "sort_paths": click.option("--sort-paths", type=click.Choice(["on", "off"]),
                               default="on" if _VCFG.mode == "sorted" else "off",
                               show_default=True, help="Order-insensitive path canonicalization."),
}


def validation_options(*flags):
    """Add the named validation flags, all of them when none is named; the
    command receives them as one `vcfg`, with its other fields at their defaults."""
    flags = flags or tuple(_VALIDATION_FLAGS)

    def decorate(fn):
        @functools.wraps(fn)
        def command(**kwargs):
            fields = {name: kwargs.pop(name) for name in flags}
            if "sort_paths" in fields:
                fields["mode"] = "sorted" if fields.pop("sort_paths") == "on" else "positional"
            with _usage_errors():
                vcfg = ValidationConfig(**fields)
            return fn(vcfg=vcfg, **kwargs)

        for name in reversed(flags):
            command = _VALIDATION_FLAGS[name](command)
        return command
    return decorate


@click.group()
@click.version_option(kgmend.__version__, prog_name="kgmend")
def main() -> None:
    """Validate and repair relation labels before merging tuples into a graph."""
    # every command is bulk work over a graph that holds no reference cycle and
    # lives until the command exits, so it runs with the collector paused
    click.get_current_context().with_resource(collector_paused())


@main.command()
@click.option("--graph", required=True, type=_FILE_IN, help="Committed graph TSV.")
@click.option("--predictions", required=True, type=_FILE_IN,
              help="Candidate tuples, JSON lines.")
@validation_options()
@click.option("--k", type=int, default=_RCFG.k, show_default=True,
              help="Repair candidates considered per record.")
@click.option("--p-th", type=float, default=_RCFG.p_th, show_default=True,
              help="Probability floor for the initial instance.")
@click.option("--slice-size", type=int, default=1000, show_default=True)
@click.option("--unknown-policy", type=click.Choice(UNKNOWN_POLICIES),
              default=_RCFG.unknown_policy, show_default=True)
@click.option("--max-hold", type=int, default=_RCFG.max_hold_iterations, show_default=True,
              help="Retries before a held record is closed out.")
@click.option("--workers", type=int, default=1, show_default=True,
              help="Accepted for compatibility; has no effect, records are repaired serially.")
@click.option("--aux-graph", type=_FILE_IN, help="Auxiliary graph TSV for cold labels.")
@click.option("--label-map", type=_FILE_IN, help="TSV aux_label<TAB>target_label.")
@_output_option("--out-decisions", help="Decision log, JSON lines.")
@_output_option("--out-graph", help="Enhanced graph TSV.")
@_output_option("--metrics", help="Per-slice metrics, JSON lines.")
def enhance(graph, predictions, vcfg, k, p_th, slice_size, unknown_policy, max_hold,
            workers, aux_graph, label_map, out_decisions, out_graph, metrics):
    """Repair a prediction stream and commit the accepted tuples."""
    with _usage_errors():
        cfg = RepairConfig(k=k, p_th=p_th, unknown_policy=unknown_policy,
                           max_hold_iterations=max_hold, validation=vcfg)
        if slice_size < 1 or workers < 1:
            raise ValueError("slice-size and workers must be at least 1")
        if bool(aux_graph) != bool(label_map):
            raise ValueError("--aux-graph and --label-map must be given together")
        g = load_graph(graph)
        if aux_graph:
            integrate_aux(g, aux_graph, load_label_map(label_map))
    stream = iter_prediction_lines(predictions)
    log, results = run_stream(g, stream, cfg, slice_size=slice_size)
    if out_decisions:
        write_json_lines(log, out_decisions)
    else:
        for dec in log:
            click.echo(dec.to_json())
    if out_graph:
        save_graph(g, out_graph)
    if metrics:
        write_json_lines(results, metrics)
    counts = Counter(dec.status for dec in log)
    summary = ", ".join(f"{status}: {n}" for status, n in sorted(counts.items()))
    click.echo(f"records: {len(log)} ({summary or 'none'})", err=True)


@main.command()
@click.option("--graph", required=True, type=_FILE_IN)
@click.option("--tuples", "tuples_path", required=True, type=_FILE_IN,
              help="Candidate tuples TSV.")
@validation_options()
def validate(graph, tuples_path, vcfg):
    """Classify each tuple as Valid, Invalid or Unknown."""
    with _usage_errors():
        g = load_graph(graph)
        candidates = read_tuples(tuples_path)
    for s in candidates:
        report = classify(g, s, vcfg)
        click.echo(json.dumps({
            "head": s.head, "relation": s.relation, "tail": s.tail,
            "status": report.status, "support": report.support_count,
            "escalated": report.escalated, "heuristic": report.heuristic,
        }))


@main.command()
@click.option("--graph", required=True, type=_FILE_IN)
@click.option("--head", required=True)
@click.option("--relation", required=True)
@click.option("--tail", required=True)
@validation_options("l", "sort_paths")
def embed(graph, head, relation, tail, vcfg):
    """Print the path embedding of one center tuple, one path per line."""
    with _usage_errors():
        center = Tuple(identifier(head), identifier(relation), identifier(tail))
        emb = candidate_embedding(load_graph(graph), center, vcfg)
    click.echo(format_embedding(emb), nl=False)


@main.command("predict-links")
@click.option("--graph", required=True, type=_FILE_IN)
@click.option("--tuples", "tuples_path", required=True, type=_FILE_IN)
@validation_options("l", "sample_size", "seed", "sort_paths")
def predict_links(graph, tuples_path, vcfg):
    """Print linkage probabilities for candidate tuples."""
    with _usage_errors():
        g = load_graph(graph)
        candidates = read_tuples(tuples_path)
    for s in candidates:
        link = predict_link(g, s.head, s.tail, s.relation, vcfg)
        click.echo(json.dumps({
            "head": s.head, "relation": s.relation, "tail": s.tail, "link": link,
        }))


@main.command("inject-errors")
@click.option("--predictions", required=True, type=_FILE_IN)
@click.option("--rate", type=float, required=True, help="Fraction of records to swap.")
@click.option("--seed", type=int, default=0, show_default=True)
@_output_option("--out", help="Perturbed records; stdout when omitted.")
def inject_errors_cmd(predictions, rate, seed, out):
    """Swap Top-1 and Top-2 labels for a seeded fraction of records."""
    with _usage_errors():
        perturbed = inject_errors(read_predictions(predictions), rate, seed)
    if out:
        write_json_lines(perturbed, out)
    else:
        for rec in perturbed:
            click.echo(rec.to_json())


@main.command("detect-errors")
@click.option("--graph", required=True, type=_FILE_IN)
@click.option("--facts", required=True, type=_FILE_IN,
              help="TSV head<TAB>relation<TAB>tail<TAB>1|0.")
@validation_options()
@click.option("--unknown-true", is_flag=True,
              help="Count Unknown facts as predicted true.")
def detect_errors_cmd(graph, facts, vcfg, unknown_true):
    """Score truth detection over labeled held-out facts."""
    with _usage_errors():
        report = detect_errors(load_graph(graph), read_labeled_facts(facts), vcfg,
                               unknown_is_true=unknown_true)
    click.echo(report.to_json())


@main.command()
@click.option("--graph", required=True, type=_FILE_IN)
def stats(graph):
    """Print vertex, edge, relation and degree counts."""
    with _usage_errors():
        g = load_graph(graph)
    d_max, vertices, edges = g.degree_stats()
    click.echo(json.dumps({
        "vertices": vertices, "edges": edges,
        "relations": len(g.relations()), "d_max": d_max,
    }))


if __name__ == "__main__":
    main()
