"""Storage-layer behavior: set semantics, indexes, overlays, flat files."""

from __future__ import annotations

import gc
import itertools
import operator
import os
import random
import stat
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgmend import (GraphFormatError, GraphStore, NALabelError, Tuple, ValidationConfig, extract_pattern,
                    graph_store, load_graph, save_graph)
from kgmend.evalkit import read_labeled_facts
from kgmend.graph_store import parse_tuple_line, read_tuples
from kgmend.repair import PredictionFormatError, iter_prediction_lines
from kgmend.stream import integrate_aux, load_label_map
from kgmend.validation import sample_centers

from conftest import cache_registrations, random_graph
from oracle import read_tuples_by_rule, tuple_by_rule


def small_graph() -> GraphStore:
    g = GraphStore()
    g.add_tuple(Tuple("a", "r", "b"))
    g.add_tuple(Tuple("b", "r", "c"))
    g.add_tuple(Tuple("a", "s", "c"))
    return g


def test_add_is_idempotent_set_semantics():
    g = small_graph()
    assert len(g) == 3
    assert g.add_tuple(Tuple("a", "r", "b")) is False
    assert len(g) == 3


def test_na_label_never_stored():
    g = GraphStore()
    with pytest.raises(NALabelError):
        g.add_tuple(Tuple("a", "NA", "b"))
    assert len(g) == 0


def test_remove_missing_tuple_is_noop():
    g = small_graph()
    assert g.remove_tuple(Tuple("x", "r", "y")) is False
    assert len(g) == 3


def test_vertices_disappear_at_zero_degree():
    g = GraphStore()
    g.add_tuple(Tuple("a", "r", "b"))
    g.add_tuple(Tuple("b", "r", "c"))
    g.remove_tuple(Tuple("a", "r", "b"))
    assert set(g.vertices()) == {"b", "c"}


def test_degree_counts_both_directions_and_loops():
    g = GraphStore()
    g.add_tuple(Tuple("a", "r", "b"))
    g.add_tuple(Tuple("b", "s", "a"))
    g.add_tuple(Tuple("a", "t", "a"))
    # the loop contributes one out plus one in at the same vertex
    assert g.degree("a") == 4
    assert g.degree("b") == 2


def test_degree_stats_recomputes_after_removal():
    g = GraphStore()
    for i in range(4):
        g.add_tuple(Tuple("hub", "r", f"v{i}"))
    assert g.degree_stats()[0] == 4
    g.remove_tuple(Tuple("hub", "r", "v0"))
    g.remove_tuple(Tuple("hub", "r", "v1"))
    d_max, vertices, edges = g.degree_stats()
    assert (d_max, vertices, edges) == (2, 3, 2)


def test_tuples_with_relation_canonical_order():
    g = GraphStore()
    g.add_tuple(Tuple("z", "r", "a"))
    g.add_tuple(Tuple("a", "r", "z"))
    g.add_tuple(Tuple("a", "r", "b"))
    order = g.tuples_with_relation("r")
    assert order == sorted(order, key=lambda s: (s.head, s.tail))
    assert g.tuples_with_relation("missing") == ()


def _dicts(g: GraphStore) -> dict:
    """Copies of the store's dicts, by attribute name."""
    return {name: dict(held) for name, held in vars(g).items() if type(held) is dict}


def test_a_label_the_store_never_held_leaves_no_trace():
    g, aux = small_graph(), GraphStore()
    aux.add_tuple(Tuple("x", "r", "y"))
    g.aux_source = aux
    before = [(store.relations(), len(store), _dicts(store)) for store in (g, aux)]
    found = (g.tuples_with_relation("missing"), aux.tuples_with_relation("missing"),
             Tuple("a", "missing", "b") in g, sample_centers(g, "missing", ValidationConfig()),
             sample_centers(g, "missing", ValidationConfig(), exclude=Tuple("a", "missing", "b")))
    assert [(store.relations(), len(store), _dicts(store)) for store in (g, aux)] == before
    assert found == ((), (), False, [], [])


def test_a_loaded_relation_index_costs_a_list_slot_per_edge(tmp_path):
    # a set took about 77 bytes per edge
    path = tmp_path / "g.tsv"
    path.write_text("".join(f"e{i}\tr{i % 7}\te{(i * 31) % 20_000}\n" for i in range(20_000)))
    index = load_graph(path)._by_relation
    assert len(index) == 7 and all(type(occurrences) is list for occurrences in index.values())
    assert sum(map(sys.getsizeof, index.values())) <= 10 * 20_000 + 64 * len(index)


def test_edges_between_covers_both_orientations():
    g = GraphStore()
    g.add_tuple(Tuple("a", "r", "b"))
    g.add_tuple(Tuple("b", "s", "a"))
    g.add_tuple(Tuple("a", "t", "a"))
    assert g.edges_between("a", "b") == {Tuple("a", "r", "b"), Tuple("b", "s", "a")}
    assert g.edges_between("b", "a") == g.edges_between("a", "b")
    assert g.edges_between("a", "a") == {Tuple("a", "t", "a")}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), loops=st.booleans())
def test_edges_between_equals_both_out_lists_on_random_graphs(seed, loops):
    """On random graphs, with and without loops, the edges read off the
    endpoint with fewer edges are those the two endpoints' out-lists give."""
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=8, max_edges=rng.choice((6, 30)), loops=loops)
    for u, v in itertools.product(sorted(g.vertices()) + ["fresh"], repeat=2):
        out = [g.sides(u)[0], g.sides(v)[0]]
        assert g.edges_between(u, v) == {s for s in out[0] if s.tail == v} | {s for s in out[1] if s.tail == u}


def test_overlay_adds_then_restores():
    g = small_graph()
    before = set(g.all_tuples())
    v0 = g.version
    extra = [Tuple("c", "r", "d"), Tuple("a", "r", "b")]  # second one already present
    with g.overlay(extra):
        assert Tuple("c", "r", "d") in g
        assert len(g) == 4
        assert g.version > v0
    assert set(g.all_tuples()) == before
    assert g.version > v0 + 1


def test_overlay_yields_the_tuples_it_inserted():
    g = small_graph()
    new = [Tuple("c", "r", "d"), Tuple("d", "s", "a")]
    # a stored tuple and a repeated one are not inserted, so not yielded
    with g.overlay([new[0], Tuple("a", "r", "b"), new[1], new[0]]) as inserted:
        assert inserted == frozenset(new)
        assert isinstance(inserted, frozenset)
    with g.overlay([]) as inserted:
        assert inserted == frozenset()


def test_overlay_restores_on_error():
    g = small_graph()
    before = set(g.all_tuples())
    with pytest.raises(RuntimeError):
        with g.overlay([Tuple("c", "r", "d")]):
            raise RuntimeError("boom")
    assert set(g.all_tuples()) == before



def test_overlay_rolls_back_a_failed_insert():
    g = small_graph()
    before, v0 = set(g.all_tuples()), g.version
    with pytest.raises(NALabelError):
        with g.overlay([Tuple("c", "s", "a"), Tuple("c", "NA", "b")]):
            pass
    assert_store_matches(g, before)
    assert g.version > v0

def test_mutation_evicts_exactly_the_patterns_holding_an_endpoint():
    g = small_graph()
    g.cache_embedding("ab", "e1", frozenset({"a", "b"}))
    g.cache_embedding("bc", "e2", frozenset({"b", "c"}))
    g.cache_embedding("xy", "e3", frozenset({"x", "y"}))
    g.add_tuple(Tuple("q", "r", "z"))              # touches no cached pattern
    assert set(g.embedding_cache) == {"ab", "bc", "xy"}
    g.add_tuple(Tuple("q", "s", "a"))              # a is only in "ab"
    assert g.embedding_cache == {"bc": "e2", "xy": "e3"}
    # the write strikes "ab" off a alone: b still lists it
    assert cache_registrations(g) == {("b", "ab"), ("b", "bc"), ("c", "bc"), ("x", "xy"), ("y", "xy")}
    g.remove_tuple(Tuple("b", "r", "c"))           # both endpoints in "bc"
    assert g.embedding_cache == {"xy": "e3"}
    assert cache_registrations(g) == {("x", "xy"), ("y", "xy")}
    with g.overlay([Tuple("y", "r", "y")]):        # a self-loop at y, then its removal
        assert g.embedding_cache == {}
    assert cache_registrations(g) == {("x", "xy")}
    g.add_tuple(Tuple("y", "r", "x"))              # an empty cache stays empty
    assert g.embedding_cache == {}


def test_a_key_registered_again_stays_bare_under_each_vertex():
    """`cache_embedding` takes its vertices repeated or not, and a vertex
    that lists the key already, from an entry evicted through another
    vertex, keeps it bare: no one-element set."""
    g = small_graph()
    g.cache_embedding("ab", "e1", ["a", "b", "a"])
    assert g._cache_keys == {"a": "ab", "b": "ab"}
    g.add_tuple(Tuple("q", "s", "a"))
    assert g.embedding_cache == {} and g._cache_keys == {"b": "ab"}
    g.cache_embedding("ab", "e2", ["b", "c", "b"])
    g.cache_embedding("bc", "e3", ["b", "c"])
    g.cache_embedding("bc", "e3", ["c"])
    assert g._cache_keys == {"b": {"ab", "bc"}, "c": {"ab", "bc"}}
    g.add_tuple(Tuple("c", "s", "q"))              # drops both entries, and c's listing
    assert g.embedding_cache == {} and g._cache_keys == {"b": {"ab", "bc"}}


def test_parse_tuple_line_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError, match="line 7"):
        parse_tuple_line("a\tb", 7)
    with pytest.raises(GraphFormatError, match="line 3.*NA"):
        parse_tuple_line("a\tNA\tb", 3)
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_tuple_line("a\t\tb", 2)


def test_load_rejects_na_with_line_number(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("a\tr\tb\n\n# comment\nc\tNA\td\n")
    with pytest.raises(GraphFormatError, match="line 4"):
        load_graph(path)


def test_save_load_roundtrip_is_canonical(tmp_path):
    g = GraphStore()
    g.add_tuple(Tuple("z", "r", "y"))
    g.add_tuple(Tuple("a", "s", "b"))
    g.add_tuple(Tuple("a", "r", "b"))
    path = tmp_path / "g.tsv"
    save_graph(g, path)
    assert path.read_text() == "a\tr\tb\na\ts\tb\nz\tr\ty\n"
    assert set(load_graph(path).all_tuples()) == set(g.all_tuples())


class _FailingCell(str):
    """A cell whose formatting raises its `error`, as a full disk or a Ctrl-C
    would midway through a save."""

    def __format__(self, spec):
        raise self.error


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()])
def test_a_save_that_fails_midway_leaves_the_old_file_whole(tmp_path, error):
    """The lines go to a file beside the target, moved onto it only once all
    are written: a save that raises after writing more than a buffer's worth
    leaves the old file byte for byte, and no other file behind."""
    path = tmp_path / "g.tsv"
    path.write_bytes(b"old\tr\tgraph\n")
    g = GraphStore()
    for i in range(2_000):
        g.add_tuple(Tuple(f"h{i:04}", "r", f"t{i}"))
    cell = _FailingCell("h1500")
    cell.error = error
    g.add_tuple(Tuple(cell, "r", "t"))
    with pytest.raises(type(error)):
        save_graph(g, path)
    assert path.read_bytes() == b"old\tr\tgraph\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_pipe_is_saved_to_in_place(tmp_path):
    """A target that is no regular file, a pipe or a device, is written as it
    is, never replaced by a file."""
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    read = []
    reader = threading.Thread(target=lambda: read.append(pipe.read_text()), daemon=True)
    reader.start()
    save_graph(small_graph(), pipe)
    reader.join(timeout=10)
    assert not reader.is_alive() and read == ["a\tr\tb\na\ts\tc\nb\tr\tc\n"]
    assert stat.S_ISFIFO(pipe.stat().st_mode) and list(tmp_path.iterdir()) == [pipe]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_a_pipe_named_through_dev_fd_is_saved_to_in_place():
    """`/dev/fd/N` is a link whose text, `pipe:[N]`, names no path: the pipe
    is written through the link, not resolved to a file beside that text."""
    r, w = os.pipe()
    with os.fdopen(r, encoding="utf-8") as reader:
        try:
            save_graph(small_graph(), f"/dev/fd/{w}")
        finally:
            os.close(w)
        assert reader.read() == "a\tr\tb\na\ts\tc\nb\tr\tc\n"


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks")
def test_a_symlink_is_saved_through_to_its_target(tmp_path):
    """The link stays a link, and the file it names holds the new graph."""
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "g.tsv"
    target.write_text("old\tr\tgraph\n")
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    save_graph(small_graph(), link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == "a\tr\tb\na\ts\tc\nb\tr\tc\n"
    assert sorted(tmp_path.rglob("*")) == [tmp_path / "data", target, link]


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o755], ids=oct)
def test_a_saved_file_keeps_its_permissions(tmp_path, mode):
    path = tmp_path / "g.tsv"
    path.write_text("old\tr\tgraph\n")
    path.chmod(mode)
    save_graph(small_graph(), path)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_text() == "a\tr\tb\na\ts\tc\nb\tr\tc\n"


# cells that share prefixes, hold the control characters `identifier` keeps
# (\x00-\x08 are not whitespace), or are not ASCII: where an order by string
# keys and Tuple order could part
_SORT_TOKENS = ["a", "ab", "b", "A", "~", "\x00", "\x01", "\x08", "\u00e9", "\u00df", "\u4e00",
                "\U0001f600"]
_SORT_CELL = st.lists(st.sampled_from(_SORT_TOKENS), min_size=1, max_size=3).map("".join)
_SORT_TUPLE = st.builds(Tuple, _SORT_CELL, st.one_of(st.sampled_from(["r", "r\x00", "ra"]), _SORT_CELL),
                        _SORT_CELL)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tuples=st.lists(_SORT_TUPLE, max_size=40))
def test_canonical_orders_are_tuple_order(tuples):
    # `tuples_with_relation` keeps each label in Tuple order, and `save_graph`
    # merges those runs in one stable sort by the head string; both must give
    # exactly what `sorted` gives by comparing Tuples
    g = GraphStore()
    for s in tuples:
        g.add_tuple(s)
    for r in {s.relation for s in tuples}:
        assert g.tuples_with_relation(r) == sorted(s for s in set(tuples) if s.relation == r)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.tsv"
        save_graph(g, path)
        written = path.read_text(encoding="utf-8")
    assert written == "".join(f"{s.head}\t{s.relation}\t{s.tail}\n" for s in sorted(set(tuples)))


_BOM_INPUTS = {
    "graph": (read_tuples, "a\tr\tb\nb\ts\tc\n"),
    "predictions": (lambda path: list(iter_prediction_lines(path)),
                    '{"id": "1", "head": "a", "tail": "b", "candidates": [{"relation": "r", "p": 1}]}\n'
                    '{"id": "2", "head": "b", "tail": "c", "candidates": [{"relation": "s", "p": 1}]}\n'),
    "label-map": (load_label_map, "x\tr\ny\ts\n"),
    "labeled-facts": (read_labeled_facts, "a\tr\tb\t1\nc\ts\td\t0\n"),
}
_TSV_INPUTS = ("graph", "label-map", "labeled-facts")


@pytest.mark.parametrize("reader, text", _BOM_INPUTS.values(), ids=_BOM_INPUTS)
def test_readers_skip_a_leading_byte_order_mark(tmp_path, reader, text):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert reader(plain) and reader(marked) == reader(plain)


@pytest.mark.parametrize("reader, text", _BOM_INPUTS.values(), ids=_BOM_INPUTS)
def test_readers_accept_crlf_endings(tmp_path, reader, text):
    lf, crlf = tmp_path / "lf", tmp_path / "crlf"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    assert reader(lf) and reader(crlf) == reader(lf)


def test_a_plain_crlf_graph_takes_the_one_pass_parse(tmp_path, monkeypatch):
    plain, mixed = tmp_path / "plain.tsv", tmp_path / "mixed.tsv"
    plain.write_bytes(b"a\tr\tb\r\n" * 9 + b"k\tr\tv\r\n" * 9 + b"last\tr\tline")
    mixed.write_bytes(b"a\tr\tb\r\n" * 9 + b"# comment\r\n\r\nx y\ts\tz\r\n" + b"k\tr\tv\r\n" * 9
                      + b"last\tr\tline")
    calls = []
    rule = graph_store.identifier
    monkeypatch.setattr(graph_store, "identifier", lambda value: calls.append(value) or rule(value))
    for hint in (graph_store._CHUNK_HINT, 16):      # one chunk, then chunks of three lines
        monkeypatch.setattr(graph_store, "_CHUNK_HINT", hint)
        calls.clear()
        assert read_tuples(plain) == ([Tuple("a", "r", "b")] * 9 + [Tuple("k", "r", "v")] * 9
                                      + [Tuple("last", "r", "line")])
        assert calls == []
        assert read_tuples(mixed) == ([Tuple("a", "r", "b")] * 9 + [Tuple("x y", "s", "z")]
                                      + [Tuple("k", "r", "v")] * 9 + [Tuple("last", "r", "line")])


# a cell that breaks the identifier rule, in a line's second field: a first
# cell led by `#` would make the line a comment
_BAD_CELLS = {"empty": b"", "hash-led": b"#x", "inner-cr": b"x\ry", "not-utf8": b"\xff"}


@pytest.mark.parametrize("reader, text", [_BOM_INPUTS[name] for name in _TSV_INPUTS], ids=_TSV_INPUTS)
@pytest.mark.parametrize("bad", _BAD_CELLS.values(), ids=_BAD_CELLS)
def test_every_tsv_reader_numbers_lines_and_checks_cells_alike(tmp_path, reader, text, bad):
    # a comment, a blank line and a CRLF line, then the bad cell on line 4
    good = text.encode().split(b"\n")[0]
    cells = good.split(b"\t")
    cells[1] = bad
    path = tmp_path / "input.tsv"
    path.write_bytes(b"# a comment\n\n" + good + b"\r\n" + b"\t".join(cells) + b"\n")
    with pytest.raises(ValueError) as rule:
        graph_store.identifier(bad.decode("utf-8", errors="surrogateescape"))
    with pytest.raises(GraphFormatError) as exc:
        reader(path)
    assert str(exc.value) == f"line 4: {rule.value}"


def test_a_lone_cr_does_not_end_a_graph_line(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_bytes(b"a\tr\tb\n# comment\n\nx\tr\ty\rz\n")
    with pytest.raises(GraphFormatError, match=r"^line 4: 'y\\rz' .* CR"):
        load_graph(path)


def test_a_lone_cr_does_not_end_a_prediction_line(tmp_path):
    path = tmp_path / "preds.jsonl"
    record = '{{"id": "{}", "head": "a", "tail": "b", "candidates": [{{"relation": "r", "p": 1}}]}}'
    path.write_bytes(f"{record.format('r1')}\r{record.format('r2')}\n".encode())
    [item] = iter_prediction_lines(path)
    assert isinstance(item, PredictionFormatError) and str(item).startswith("line 1: ")


# -- a graph file read a chunk at a time -----------------------------------------

_HINT = 100         # characters per chunk in these tests: a few lines each
_GOOD_ODD = {"comment": "# a comment\n", "blank": "\n", "crlf": "c\tr\td\r\n",
             "non-ascii": "\u00e9\tr\tb\n"}
_BAD_ODD = {"NA": "a\tNA\tb\n", "malformed": "a\tb\n"}
_PLACES = ("first", "middle", "last")


def _chunk(i: int, odd: str | None = None, place: str = "middle") -> list[str]:
    """Lines that `readlines(_HINT)` returns as one chunk, with `odd` as its
    first line, among its plain lines or as its last: the lines before the last
    add up to `_HINT` characters exactly, and the last goes past it."""
    first, middle, last = (odd if place == p else None for p in _PLACES)
    fill = _HINT - len(first or "") - len(middle or "")
    sizes = [fill // 4] * 3 + [fill - 3 * (fill // 4)]
    plain = [f"h{i}_{j}\tr{j % 2}\t" + "t" * (n - len(f"h{i}_{j}") - 5) + "\n"
             for j, n in enumerate(sizes)]
    return [*filter(None, [first, *plain[:2], middle, *plain[2:]]), last or plain[0]]


def _write_chunks(path: Path, chunks: list[list[str]]) -> None:
    path.write_bytes("".join(itertools.chain.from_iterable(chunks)).encode())
    with graph_store.open_input(path) as fh:    # the file splits where the test means it to
        assert list(iter(lambda: fh.readlines(_HINT), [])) == chunks


def one_object_per_string(tuples) -> bool:
    """Equal strings among the fields of these Tuples, one read's, are one object."""
    first: dict = {}
    return all(first.setdefault(x, x) is x for s in tuples for x in s)


def test_a_multi_chunk_graph_reads_as_line_by_line(tmp_path, monkeypatch):
    monkeypatch.setattr(graph_store, "_CHUNK_HINT", _HINT)
    odd_chunks = [_chunk(i, odd, place)
                  for i, (odd, place) in enumerate(itertools.product(_GOOD_ODD.values(), _PLACES))]
    path = tmp_path / "g.tsv"
    _write_chunks(path, [_chunk(100), *odd_chunks, _chunk(101), ["x\tr\ty"]])   # no LF at the end
    got = read_tuples(path)
    assert got == read_tuples_by_rule(path) and len(got) == 66 + 6 + 1   # plain, odd that store, last
    assert all(type(s) is Tuple for s in got)
    assert one_object_per_string(got)
    for (name, bad), place in itertools.product(_BAD_ODD.items(), _PLACES):
        chunks = [_chunk(100), *odd_chunks]
        chunks.insert(5, _chunk(5, bad, place))
        _write_chunks(path, chunks)
        message = _outcome(read_tuples, path)
        assert message == _outcome(read_tuples_by_rule, path) and message.startswith("line "), (name, place)


def test_a_chunk_of_plain_lines_takes_one_regex_pass(tmp_path, monkeypatch):
    monkeypatch.setattr(graph_store, "_CHUNK_HINT", _HINT)
    monkeypatch.setattr(graph_store, "parse_tuple_line", None)      # never called
    path = tmp_path / "g.tsv"
    _write_chunks(path, [_chunk(i) for i in range(3)] + [_chunk(3, _GOOD_ODD["crlf"], "last")])
    assert read_tuples(path) == read_tuples_by_rule(path)


# -- the one-pass parse against the identifier rule ---------------------------

_NAMES = [b"a", b"rel", b"e_1", b"x y", b"a#b"]
_ODD = [b" ", b"#", b"\t", b"\r", b"\r\n", b"\x0b", b"\x1c", b"\x7f", b"NA", "\ufeff".encode(),
        "\u00a0".encode(), "\u00e9".encode(), b"\xff"]


def _with_odd_token(cells, odd, at, where):
    """The cells, one of them with `odd` put before, after or inside it, or in its place."""
    cell = cells[at]
    cells[at] = {"before": odd + cell, "after": cell + odd, "inside": cell[:1] + odd + cell[1:],
                 "instead": odd}[where]
    return (b"\t" if isinstance(cell, bytes) else "\t").join(cells)


_GRAPH_LINE = st.one_of(
    st.builds(_with_odd_token, st.lists(st.sampled_from(_NAMES), min_size=3, max_size=3),
              st.sampled_from([b"", *_ODD]), st.integers(0, 2),
              st.sampled_from(["before", "after", "inside", "instead"])),
    st.lists(st.lists(st.sampled_from([*_NAMES, *_ODD]), max_size=3).map(b"".join),
             min_size=2, max_size=4).map(b"\t".join),
    st.sampled_from([b"", b"   ", b"# a comment", b" #\tx"]),
)
_GRAPH_FILE = st.tuples(
    st.sampled_from([b"", "\ufeff".encode()]),
    st.lists(st.tuples(_GRAPH_LINE, st.sampled_from([b"\n", b"\r\n"])), max_size=6),
    st.sampled_from([b"", b"x\tr\ty"]),       # a last line without LF
).map(lambda f: f[0] + b"".join(line + end for line, end in f[1]) + f[2])


def _outcome(read, *args):
    try:
        return read(*args)
    except GraphFormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(content=_GRAPH_FILE)
def test_read_tuples_follows_the_identifier_rule_on_every_line(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.tsv"
        path.write_bytes(content)
        got = _outcome(read_tuples, path)
        assert got == _outcome(read_tuples_by_rule, path)
    if isinstance(got, list):
        assert all(type(s) is Tuple for s in got)
        assert one_object_per_string(got)
    # a file stops at its first bad line, so hold every line to the rule on its own too
    text = content.decode("utf-8-sig", errors="surrogateescape")
    for lineno, line in enumerate(text.split("\n"), start=1):
        assert _outcome(parse_tuple_line, line, lineno) == _outcome(tuple_by_rule, line, lineno)


_ODD_CHARS = [chr(c) for c in range(128)] + ["\x85", "\xa0", "\u00e9", "\u3000", "\ufeff", "\udcff"]


def test_parse_tuple_line_follows_the_identifier_rule_for_any_one_odd_character():
    for odd, at, where in itertools.product(_ODD_CHARS, range(3), ("before", "after", "inside", "instead")):
        line = _with_odd_token(["a", "rel", "x y"], odd, at, where)
        assert _outcome(parse_tuple_line, line, 1) == _outcome(tuple_by_rule, line, 1), repr(line)


# -- the collector during a load ----------------------------------------------

def test_load_graph_sets_off_no_collection(tmp_path, collector):
    path = tmp_path / "g.tsv"
    path.write_text("".join(f"e{i}\tr{i % 7}\te{(i * 31) % 20_000}\n" for i in range(20_000)))
    gc.enable()
    gc.collect()
    collector.clear()
    g = load_graph(path)
    started = len(collector)    # before the test allocates anything tracked
    assert started == 0 and len(g) == 20_000


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("bad", [False, True], ids=["good", "bad"])
def test_load_graph_leaves_the_collector_as_it_found_it(tmp_path, collector, enabled, bad):
    path = tmp_path / "g.tsv"
    lines = [f"e{i}\tr\te{i + 1}\n" for i in range(1_000)]
    if bad:
        lines[500] = "e\tr\n"
    path.write_text("".join(lines))
    (gc.enable if enabled else gc.disable)()
    if bad:
        with pytest.raises(GraphFormatError, match="^line 501: "):
            load_graph(path)
    else:
        assert len(load_graph(path)) == 1_000
    assert gc.isenabled() == enabled


def _aux_files(tmp_path, graph_lines):
    graph, label_map = tmp_path / "aux.tsv", tmp_path / "map.tsv"
    graph.write_text("".join(graph_lines))
    label_map.write_text("r0\tq0\nr1\tq1\nr2\tNA\n")
    return graph, load_label_map(label_map)


def test_integrate_aux_sets_off_no_collection(tmp_path, collector):
    path, label_map = _aux_files(
        tmp_path, [f"e{i}\tr{i % 7}\te{(i * 31) % 20_000}\n" for i in range(20_000)])
    gc.enable()
    gc.collect()
    collector.clear()
    aux = integrate_aux(GraphStore(), path, label_map)
    started = len(collector)    # before the test allocates anything tracked
    assert started == 0 and aux.relations() == ["q0", "q1"]
    assert len(aux) == sum(i % 7 < 2 for i in range(20_000))


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("bad", [False, True], ids=["good", "bad"])
def test_integrate_aux_leaves_the_collector_as_it_found_it(tmp_path, collector, enabled, bad):
    lines = [f"e{i}\tr0\te{i + 1}\n" for i in range(1_000)]
    if bad:
        lines[500] = "e\tr0\n"
    path, label_map = _aux_files(tmp_path, lines)
    (gc.enable if enabled else gc.disable)()
    g = GraphStore()
    if bad:
        with pytest.raises(GraphFormatError, match="^line 501: "):
            integrate_aux(g, path, label_map)
        assert g.aux_source is None
    else:
        assert len(integrate_aux(g, path, label_map)) == 1_000 and g.aux_source is not None
    assert gc.isenabled() == enabled


# -- the store against a plain set of Tuples ----------------------------------

MODEL_VERTICES = ("a", "b", "c")
MODEL_LABELS = ("r", "s")
AUX_LABELS = ("x", "y", "z", "u")
AUX_MAP = {"x": "r", "y": "r", "z": "s"}       # u is not mapped
model_tuples = st.builds(Tuple, st.sampled_from(MODEL_VERTICES), st.sampled_from(MODEL_LABELS),
                         st.sampled_from(MODEL_VERTICES))
model_steps = st.one_of(
    st.tuples(st.just("add"), model_tuples),
    st.tuples(st.just("remove"), model_tuples),
    st.tuples(st.just("overlay"), st.lists(model_tuples, max_size=4)),
    # a new store from a graph file of these lines, None a comment, some of them repeated
    st.tuples(st.just("load"), st.lists(st.one_of(model_tuples, st.none()), max_size=16)
              .map(lambda lines: lines + lines[::-2])),
    # an aux store from a file of these lines, each `x` line also as `y`: both map to r
    st.tuples(st.just("aux"), st.lists(st.builds(Tuple, st.sampled_from(MODEL_VERTICES),
                                                 st.sampled_from(AUX_LABELS),
                                                 st.sampled_from(MODEL_VERTICES)), max_size=8)
              .map(lambda lines: lines + [s._replace(relation="y") for s in lines if s.relation == "x"])),
)


def assert_store_matches(g: GraphStore, model: set) -> None:
    stored = {s: s for s in g.all_tuples()}
    assert set(stored) == model and len(g) == len(model)

    def same(found, want):
        found = list(found)
        assert len(found) == len(set(found)) and set(found) == set(want)
        assert all(s is stored[s] for s in found)      # the stored object, not a copy

    for v in MODEL_VERTICES:
        out, into = g.sides(v)
        same(out, {s for s in model if s.head == v})
        same(into, {s for s in model if s.tail == v})
        same(g.incident(v), {s for s in model if v in (s.head, s.tail)})
        assert g.degree(v) == sum((s.head == v) + (s.tail == v) for s in model)
        assert (v in set(g.vertices())) == any(v in (s.head, s.tail) for s in model)
    for u, v in itertools.product(MODEL_VERTICES, repeat=2):
        same(g.edges_between(u, v), {s for s in model if {s.head, s.tail} == {u, v}})
    for u, v in itertools.product(MODEL_VERTICES, repeat=2):
        # a pattern reads the edges among its vertices off `sides`
        center = Tuple(u, "x", v)
        ball = {u, v} | {w for s in model if {s.head, s.tail} & {u, v} for w in (s.head, s.tail)}
        same(extract_pattern(g, center, 1).edges - {center},
             {s for s in model if s.head in ball and s.tail in ball})
    assert g.relations() == sorted({s.relation for s in model})
    for r in MODEL_LABELS:
        same(g.tuples_with_relation(r), {s for s in model if s.relation == r})
        assert list(g.tuples_with_relation(r)) == sorted(s for s in model if s.relation == r)
    for s in itertools.starmap(Tuple, itertools.product(MODEL_VERTICES, MODEL_LABELS,
                                                        MODEL_VERTICES)):
        assert (s in g) == (s in model)


def _snapshot(g: GraphStore, vertices) -> dict:
    return {v: (g._out.get(v), g._in.get(v), [list(side) for side in g.sides(v)])
            for v in vertices}


def assert_as_found(g: GraphStore, before: dict) -> None:
    """Every vertex of a `_snapshot` holds the same entry objects, bare or
    list, and the same edge objects in the same order."""
    after = _snapshot(g, before)
    for v in before:
        (out, into, sides), (out_now, into_now, sides_now) = before[v], after[v]
        assert out_now is out and into_now is into, v      # the same entry, bare or list
        for side, side_now in zip(sides, sides_now):
            assert len(side_now) == len(side) and all(map(operator.is_, side_now, side)), v


def _graph_file(tmp: str, lines: list) -> Path:
    """A graph file of these lines, None a comment."""
    path = Path(tmp) / "g.tsv"
    path.write_text("".join("# c\n" if s is None else "\t".join(s) + "\n" for s in lines))
    return path


def loaded(lines: list) -> GraphStore:
    """`load_graph` of a file of these lines (None a comment), read a few lines
    at a time, held to a store that took them by `add_tuple` in file order."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(graph_store, "_CHUNK_HINT", 16):
        g = load_graph(_graph_file(tmp, lines))
    return assert_built_alike(g, filter(None, lines))


def integrated(lines: list) -> GraphStore:
    """The aux store `integrate_aux` builds from a file of these lines under
    `AUX_MAP`, held to a store that took the mapped ones by `add_tuple`."""
    g = GraphStore()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(graph_store, "_CHUNK_HINT", 16):
        aux = integrate_aux(g, _graph_file(tmp, lines), AUX_MAP)
    assert g.aux_source is aux and len(g) == 0
    return assert_built_alike(aux, (s._replace(relation=AUX_MAP[s.relation])
                                    for s in lines if s.relation in AUX_MAP))


def assert_built_alike(g: GraphStore, tuples) -> GraphStore:
    """g, which must hold what a store that took `tuples` by `add_tuple`
    holds, in the same layout and order."""
    by_add = GraphStore()
    for s in tuples:
        by_add.add_tuple(s)
    assert len(g) == len(by_add)
    assert_store_matches(g, set(by_add.all_tuples()))
    for v in MODEL_VERTICES:
        # the entries `sides(v)` reads: each bare or a list alike, in the same order
        for held, want in ((g._out.get(v), by_add._out.get(v)), (g._in.get(v), by_add._in.get(v))):
            assert type(held) is type(want) and held == want, v
    for r in MODEL_LABELS:
        assert g.tuples_with_relation(r) == by_add.tuples_with_relation(r)
    return g


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(model_steps, max_size=12))
def test_store_indexes_match_a_set_of_tuples(steps):
    g, model = GraphStore(), set()
    for op, arg in steps:
        if op == "add":
            assert g.add_tuple(arg) == (arg not in model)
            model.add(arg)
        elif op == "remove":
            assert g.remove_tuple(arg) == (arg in model)
            model.discard(arg)
        elif op == "load":
            g, model = loaded(arg), set(filter(None, arg))
        elif op == "aux":
            integrated(arg)
        else:
            before = _snapshot(g, MODEL_VERTICES)
            with g.overlay(arg):
                assert_store_matches(g, model | set(arg))
            assert_as_found(g, before)
        assert_store_matches(g, model)
        assert saved(g) == "".join(f"{s.head}\t{s.relation}\t{s.tail}\n" for s in sorted(model))


def saved(g: GraphStore) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.tsv"
        save_graph(g, path)
        return path.read_text(encoding="utf-8")


# -- the adjacency layout -------------------------------------------------------

def test_one_edge_on_a_side_is_held_bare_and_more_in_a_list():
    g = GraphStore()
    ab, ac, cb = Tuple("a", "r", "b"), Tuple("a", "s", "c"), Tuple("c", "r", "b")
    g.add_tuple(ab)
    assert g._out == {"a": ab} and g._in == {"b": ab}
    assert g.sides("a") == ((ab,), ()) and g.degree("a") == 1    # not len(ab), which is 3
    assert list(g.incident("b")) == [ab] and g.edges_between("b", "a") == {ab}
    g.add_tuple(ac)
    g.add_tuple(cb)
    assert g._out["a"] == [ab, ac] and g._in["b"] == [ab, cb]
    assert g.sides("a")[0] is g._out["a"] and g.degree("a") == 2
    g.remove_tuple(Tuple("a", "r", "b"))        # an equal copy, first in both lists
    assert g._out["a"] is ac and g._in["b"] is cb
    g.remove_tuple(ac)
    assert g._out == {"c": cb} and g._in == {"b": cb}


def test_an_overlay_leaves_every_vertex_as_it_found_it():
    g = GraphStore()
    for i in range(2_000):
        g.add_tuple(Tuple("hub", f"r{i % 3}", f"x{i}"))
    g.add_tuple(Tuple("p", "r0", "q"))
    g.add_tuple(Tuple("x7", "r1", "hub"))
    extra = [Tuple("hub", "r9", "x5"), Tuple("hub", "r9", "new"), Tuple("p", "r1", "q"),
             Tuple("q", "r0", "p"), Tuple("x7", "r2", "x8"), Tuple("n", "r0", "m"),
             Tuple("hub", "r0", "x0")]                  # the last one is stored already
    touched = {v for s in extra for v in (s.head, s.tail)}
    before, count = _snapshot(g, touched), len(g)
    with g.overlay(extra) as inserted:
        assert len(inserted) == 6 and len(g) == count + 6
        assert g.sides("hub")[0][-2:] == [extra[0], extra[1]]
        assert g._out["p"] == [Tuple("p", "r0", "q"), extra[2]] and g._out["n"] is extra[5]
    assert_as_found(g, before)
    assert len(g) == count and "n" not in g._out and "m" not in g._in


def test_removing_from_the_middle_of_a_hub_keeps_the_indexes_matching():
    g, model, order = GraphStore(), set(), []
    spokes = [Tuple("a", "r", f"x{i}") for i in range(150)]
    for s in itertools.chain(spokes, itertools.starmap(
            Tuple, itertools.product(MODEL_VERTICES, MODEL_LABELS, MODEL_VERTICES))):
        g.add_tuple(s)
        model.add(s)
        order.append(s)
    doomed = spokes + [s for s in order if s.head == "a" and s not in spokes][:3]
    random.Random(18).shuffle(doomed)
    for s in doomed:
        assert g.remove_tuple(Tuple(*s))
        model.discard(s)
        assert_store_matches(g, model)
        assert list(g.sides("a")[0]) == [t for t in order if t.head == "a" and t in model]
