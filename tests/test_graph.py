import io
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rolekit as rk
from reference import (CYCLE3, block_counts, count_chunk_ids_reduceat,
                       edge_array, edge_set, planted_oracle, planted_skips,
                       rng, spec_texts)


# ---------------------------------------------------------------------------
# edge-list parsing
# ---------------------------------------------------------------------------

def test_load_basic():
    g = rk.load_edge_list("0 1\n1 2\n")
    assert g.n == 3
    assert edge_set(g) == {(0, 1), (1, 2)}


def test_load_one_indexed():
    g = rk.load_edge_list("1 2\n", one_indexed=True)
    assert g.n == 2
    assert edge_set(g) == {(0, 1)}


def test_from_edges_counts_a_repeated_edge_once():
    # the COO -> CSR build sums one byte per entry: 256 and more copies of
    # an edge still give one entry, and the entries are float 1.0
    edges = np.array([(0, 1)] * 300 + [(1, 0), (1, 0)], dtype=np.int32)
    g = rk.DirectedGraph.from_edges(2, edges)
    for m in (g.adj, g.adj_t):
        assert m.dtype == np.float64 and m.data.tolist() == [1.0, 1.0]
    assert edge_set(g) == {(0, 1), (1, 0)}


def test_load_duplicates_collapse():
    g = rk.load_edge_list("0 1 350\n0 1 42\n", ignore_weights=True)
    assert edge_set(g) == {(0, 1)}
    assert g.num_edges == 1


def test_load_skips_comments_and_blanks():
    g = rk.load_edge_list("# header\n% pajek-ish\n\n0 1\n")
    assert edge_set(g) == {(0, 1)}


def test_load_malformed_line_number():
    with pytest.raises(rk.EdgeListParseError, match="line 2"):
        rk.load_edge_list("0 1\n0 x\n")


def test_load_negative_id():
    with pytest.raises(rk.EdgeListParseError, match="negative"):
        rk.load_edge_list("0 -1\n", one_indexed=True)


def test_load_weight_column_rejected_when_strict():
    with pytest.raises(rk.EdgeListParseError, match="weight"):
        rk.load_edge_list("0 1 3.5\n", ignore_weights=False)


def test_load_node_count_override():
    g = rk.load_edge_list("0 1\n", n=5)
    assert g.n == 5
    with pytest.raises(ValueError):
        rk.load_edge_list("0 7\n", n=3)


def test_edge_list_roundtrip():
    # node 4 has no edge: only the "# n=5" line carries it back
    g = rk.DirectedGraph.from_edges(5, [(0, 1), (2, 2), (3, 0)])
    buf = io.StringIO()
    rk.save_edge_list(g, buf)
    again = rk.load_edge_list(buf.getvalue())
    assert again.n == 5
    assert edge_set(again) == edge_set(g)


@pytest.mark.parametrize("text, kwargs, n", [
    ("# n=6\n0 1\n", {}, 6),
    ("# n=6\n1 2\n", {"one_indexed": True}, 6),
    ("# n=6\n0 1\n", {"n": 9}, 9),       # an explicit count wins
    ("# n=6\n0 4\n", {"n": 5}, 5),
    ("#  n=6\n0 1\n", {}, 2),            # not the line save_edge_list writes
    ("# graph\n# n=6\n0 1\n", {}, 2),   # only the first line counts
    ("0 1\n# n=6\n", {}, 2),
    # str.strip takes \x1c as whitespace, as bytes.strip would not
    ("# n=6\x1c\n0 1\n", {}, 6),
])
def test_load_node_count_line(text, kwargs, n):
    assert rk.load_edge_list(text, **kwargs).n == n


@pytest.mark.parametrize("text, kwargs, message", [
    ("# n=3\n0 1\n1 3\n", {}, "line 3: node id 3 >= node count 3"),
    ("# n=3\n1 4\n", {"one_indexed": True},
     "line 2: node id 3 >= node count 3"),
    ("# n=9\n0 7\n", {"n": 3}, "line 2: node id 7 >= node count 3"),
    ("0 7\n", {"n": 3}, "line 1: node id 7 >= node count 3"),
    ("# n=9223372036854775808\n0 1\n", {},
     "line 1: node count 9223372036854775808 outside 0..9223372036854775807"),
    ("0 1\n", {"n": 2 ** 63},
     "node count 9223372036854775808 outside 0..9223372036854775807"),
    ("", {"n": -1}, "node count -1 outside 0..9223372036854775807"),
])
def test_load_id_beyond_node_count_names_its_line(text, kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        rk.load_edge_list(text, **kwargs)


def test_partition_roundtrip():
    p = rk.RolePartition.from_labels([2, 0, 1, 1])
    buf = io.StringIO()
    rk.save_partition(p, buf)
    again = rk.load_partition(buf.getvalue())
    assert np.array_equal(again.labels, p.labels)
    assert again.k == p.k


# ---------------------------------------------------------------------------
# parser fuzzing: every input parses or raises ValueError
# ---------------------------------------------------------------------------

# Node ids stay <= 1e4 because a graph allocates O(max id); words carry no
# decimal digits, so no token they form parses as a larger id.
_ids = st.integers(-3, 10 ** 4).map(str)
_words = st.text(st.characters(blacklist_categories=("Nd", "Cs")),
                 max_size=4)
_tokens = st.one_of(_ids, _words, st.sampled_from(
    ["#", "%", "1.5", "+3", "07", "1e3", "-0", "nan", "0x1"]))


def _joined(items, sep):
    return st.tuples(st.lists(items, max_size=5),
                     st.sampled_from(sep)).map(lambda t: t[1].join(t[0]))


_edge_texts = _joined(_joined(_tokens, [" ", "\t", " \t ", ","]),
                      ["\n", "\r\n", "\r"])


@settings(max_examples=300, deadline=None)
@given(_edge_texts, st.booleans(), st.booleans(), st.booleans(),
       st.none() | st.integers(-2, 10 ** 4 + 2))
def test_load_edge_list_parses_or_raises_value_error(text, as_bytes,
                                                     one_indexed,
                                                     ignore_weights, n):
    try:
        g = rk.load_edge_list(text.encode() if as_bytes else text,
                              one_indexed=one_indexed,
                              ignore_weights=ignore_weights, n=n)
    except ValueError:
        return
    edges = edge_array(g)
    assert (edges >= 0).all() and (edges < g.n).all()


@pytest.mark.parametrize("line", ["9223372036854775808 0",
                                  "0 99999999999999999999999"])
def test_load_node_id_beyond_int64_names_its_line(line):
    with pytest.raises(rk.EdgeListParseError, match="line 2: node id"):
        rk.load_edge_list(f"0 1\n{line}\n")


# ---------------------------------------------------------------------------
# whole-buffer parse against the line loop
# ---------------------------------------------------------------------------

def _outcome(data, mode="rb", **kwargs):
    """The node count and edges load_edge_list gives, or its error; a path
    is read as a file opened in ``mode``."""
    try:
        if isinstance(data, Path):
            encoding = None if "b" in mode else "utf-8"
            with open(data, mode, encoding=encoding) as fh:
                g = rk.load_edge_list(fh, **kwargs)
        else:
            g = rk.load_edge_list(data, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)
    return g.n, edge_array(g).tolist()


def _assert_buffer_parse_matches_line_loop(data, mode="rb", **kwargs):
    whole = _outcome(data, mode, **kwargs)
    with mock.patch("rolekit.graph._parse_buffer", return_value=None):
        assert whole == _outcome(data, mode, **kwargs)
    return whole


# Texts in the grammar save_edge_list writes: ids of up to 19 digits, so
# that some fall outside it, and node-count first lines.
_fast_lines = st.one_of(
    st.tuples(st.integers(0, 10 ** 4).map(str),
              st.sampled_from([" ", "\t", " \t "]),
              st.integers(0, 10 ** 4).map(str),
              st.sampled_from(["", " ", "\t"])).map("".join),
    st.sampled_from(["", " ", "0 999999999999999999",
                     "0 0000000000000000001"]))
# Texts in the exact form save_edge_list writes, ids of up to 19 digits.
_written_texts = st.tuples(
    st.sampled_from(["", "# n=10001\n", "# n=5\n", "% x\n"]),
    st.lists(st.tuples(st.integers(0, 10 ** 4), st.integers(0, 10 ** 4)).map(
        lambda ids: f"{ids[0]} {ids[1]}\n"), max_size=6).map("".join),
    st.sampled_from(["", "0 999999999999999999\n",
                     "0 0000000000000000001\n"])).map("".join)
_fast_texts = st.tuples(
    st.sampled_from(["", "# n=10001\n", "# n=5\n", "% x\n", "#\n"]),
    _joined(_fast_lines, ["\n", "\r\n", "\r"]),
    st.sampled_from(["", "\n", "\r\n"])).map("".join) | _written_texts


@settings(max_examples=300, deadline=None)
@given(_edge_texts | _fast_texts, st.booleans(), st.booleans(),
       st.booleans(), st.none() | st.integers(-2, 10 ** 4 + 2))
def test_buffer_parse_matches_line_loop(text, as_bytes, one_indexed,
                                        ignore_weights, n):
    _assert_buffer_parse_matches_line_loop(
        text.encode() if as_bytes else text, one_indexed=one_indexed,
        ignore_weights=ignore_weights, n=n)


@pytest.mark.parametrize("data", [
    " \n\t\n\n",                           # blank only
    "0 1\r\n2 3\r\n\r\n4 0\r\n",          # CRLF endings
    "# n=6\r\n0 1\r\n",
    "# graph\n% pajek\n# n=6\n0 1\n",       # a leading comment block
    "% n=6\n0 1\n",
    "07 1\n",
    "+3 1\n",
    "0 12345678901234567890\n",             # 20 digits
    "0 00000000000000000001\n",             # 20 digits, small value
    "0 1\n9223372036854775807 0\n",         # 2**63 - 1 on line 2
    "0 1\n9223372036854775806 0\n",
    b"0 1\n\xff 2\n",                        # invalid UTF-8
    "0 1\n# mid-file\n1 2\n",
    "0 1\n1\n",
    "0 1 2\n",                              # a weight column
    "0 1\r2 3\n",
    "\u0663 1\n",                           # a non-ASCII digit
    "# n=3\r0 1\r1 2\r",                    # lone \r endings
    "# n=6\x1c\n0 1\n",                     # str whitespace on line 1
    "# \u00e9\n0 1\n",                        # a non-ASCII comment header
    "\ufeff0 1\n",                          # a UTF-8 byte order mark
])
@pytest.mark.parametrize("one_indexed", [False, True])
@pytest.mark.parametrize("ignore_weights", [False, True])
@pytest.mark.parametrize("n", [None, 3, 10])
def test_buffer_parse_matches_line_loop_literals(tmp_path, data, one_indexed,
                                                 ignore_weights, n):
    # a str, bytes, a binary file and a text-mode file give one outcome
    raw = data.encode() if isinstance(data, str) else data
    path = tmp_path / "g.txt"
    path.write_bytes(raw)
    outcomes = [_assert_buffer_parse_matches_line_loop(
        form, mode, one_indexed=one_indexed, ignore_weights=ignore_weights,
        n=n) for form, mode in ((data, "rb"), (raw, "rb"), (path, "rb"),
                                (path, "r"))]
    assert outcomes.count(outcomes[0]) == len(outcomes)


def test_load_takes_a_lone_surrogate_in_a_comment():
    # a str is encoded with surrogatepass, so any str is taken
    text = "0 1\n# \ud800\n1 2\n"
    assert _assert_buffer_parse_matches_line_loop(text) == (3, [[0, 1],
                                                                [1, 2]])


def test_load_byte_order_mark_fails_on_line_1():
    for data in ("\ufeff0 1\n", b"\xef\xbb\xbf0 1\n"):
        with pytest.raises(rk.EdgeListParseError) as error:
            rk.load_edge_list(data)
        assert str(error.value) == \
            r"line 1: non-integer node id in ['\ufeff0', '1']"


def test_binary_file_decode_error_matches_bytes(tmp_path):
    # bytes are decoded whole, so the error names the position in the input
    data = b"0 1\n\xff 2\n"
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as direct:
        rk.load_edge_list(data)
    with open(path, "rb") as fh, pytest.raises(UnicodeDecodeError) as read:
        rk.load_edge_list(fh)
    assert str(read.value) == str(direct.value)
    assert "position 4" in str(direct.value)


@pytest.mark.parametrize("data, n, edges", [
    ("# n=6\n0 1\n\n5\t2\r\n", 6, {(0, 1), (5, 2)}),
    (b"0 1\n 2  3 \n", 4, {(0, 1), (2, 3)}),
    (b"# n=3\r0 1\r1 2\r", 3, {(0, 1), (1, 2)}),   # lone \r endings
    ("# n=6\x1c\n0 1\n", 6, {(0, 1)}),
    # a non-ASCII first line leaves an ASCII body to the buffer parse
    ("# \u00e9\n0 1\n", 2, {(0, 1)}),
    (b"# \xc3\xa9\n0 1\n", 2, {(0, 1)}),
])
def test_buffer_parse_takes_the_written_grammar(data, n, edges):
    with mock.patch("rolekit.graph._parse_lines",
                    side_effect=AssertionError("line loop used")):
        g = rk.load_edge_list(data)
    assert g.n == n and edge_set(g) == edges


def _id_count(body: bytes):
    # the number of ids _parse_buffer reads, or None when it declines the
    # body; a node count of int64's max passes every id of 18 digits. The
    # chunks tile the body, each ending after a newline or at its end.
    from rolekit.graph import _INT64_MAX, _chunks, _parse_buffer
    chunks = list(_chunks(body))
    assert [end for _, end in chunks[:-1]] == [
        start for start, _ in chunks[1:]]
    if chunks:
        assert chunks[0][0] == 0 and chunks[-1][1] == len(body)
        assert all(body[end - 1:end] == b"\n" for _, end in chunks[:-1])
    parsed = _parse_buffer(body, 0, _INT64_MAX)
    return None if parsed is None else parsed[1].size


# Bodies that _parse_buffer accepts (its id count) or declines (None): the
# written form, its near-misses and bodies outside the grammar.
_COUNT_ID_BODIES = [
    ("", 0),
    (" \n\t\n", 0),                         # blank lines only
    ("0 1\n2 11\n", 4),                     # the written form
    ("0 1\n2 " + "0" * 16 + "11\n", 4),      # an 18-digit id
    ("999999999999999999 0\n", 2),
    # two spaces; named, as its default id differs from the written
    # form's only in a run of spaces
    pytest.param("0  1\n2 11\n", 4, id="two_spaces"),
    ("0\t1\n2 11\n", 4),                    # a tab
    ("0 1\n2 11", 4),                        # no final newline
    ("0 1\n\n2 11\n", 4),                   # a blank line
    (" 0 1\n2 11\n", 4),                     # a leading space
    ("0 1 \n2 11\n", 4),                     # a trailing space
    ("0 1\r\n2 11\r\n", None),              # CRLF: the load makes it \n
    ("0 1\r2 11\n", None),                   # a lone \r, likewise
    ("0 1\n2 " + "0" * 17 + "11\n", None),   # a 19-digit id
    ("0 1\n2\n", None),                      # one id on a line
    ("0 1 2\n", None),                       # a third column
    ("0 1\n0", None),                        # a trailing lone id
    ("0 1 2 3\n", None),                     # two pairs on one line
    ("0\n1\n", None),                        # a pair across two lines
    ("0 1\n-2 3\n", None),                   # a sign
    ("0 1\n2 3x\n", None),                   # a letter
]


@pytest.mark.parametrize("body, ids", _COUNT_ID_BODIES)
@pytest.mark.parametrize("header", ["", "# n=12\n"])
def test_count_ids_accepts_or_declines(body, ids, header):
    assert _id_count(body.encode()) == ids
    for n in (None, 12):
        _assert_buffer_parse_matches_line_loop(header + body, n=n)


def test_count_ids_is_the_same_in_chunks_of_any_size(monkeypatch):
    # a chunk ends after the last newline before its size, or after its
    # line when that is longer; the check and the load then give what one
    # chunk gives, at every size
    bodies = [body for body, _ in (getattr(entry, "values", entry)
                                   for entry in _COUNT_ID_BODIES)]
    # two-line bodies, under 64 bytes: a size at every byte offset
    bodies += ["12 345\n6789\t0\n", "12 345\n\n6789 0", "12 345\n6789 0 1\n",
               "12 345\n67x9 0\n"]
    def results(body):
        # the check, and the load without a node count and with one that
        # an id in a later chunk exceeds
        return (_id_count(body.encode()), _outcome(body),
                _outcome(body, n=3))

    whole = {body: results(body) for body in bodies}
    for size in range(1, 65):
        monkeypatch.setattr("rolekit.graph._ID_CHUNK", size)
        for body in bodies:
            assert results(body) == whole[body]


@st.composite
def _chunk_texts(draw):
    # lines of two ids between runs of spaces and tabs, blank lines,
    # trailing whitespace, maybe no final newline, then maybe one extra
    # separator where the draw puts it: the features that could tell the
    # written form's shortcut from the reduceat over every separator
    ids = st.integers(0, 999).map(str)
    gap = st.sampled_from([" ", "\t", "  ", "\t\t", " \t"])
    lines = draw(st.lists(st.one_of(
        st.tuples(ids, gap, ids, st.sampled_from(["", " ", "\t"])).map(
            "".join),
        st.sampled_from(["", " ", "\t"])), max_size=6))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    seps = [i for i, c in enumerate(text) if c in " \t\n"]
    if seps and draw(st.booleans()):
        at = draw(st.sampled_from(seps))
        text = text[:at] + draw(st.sampled_from(" \t")) + text[at:]
    return text


@example(text="0  1\n2 3")   # a doubled separator, no final newline
@example(text="0 1\n2 3")
@example(text="0 1\n2 3\n")
@example(text="")
@given(text=st.one_of(_chunk_texts(),
                      st.text(alphabet="01 \t\n", max_size=24)))
@settings(max_examples=300, deadline=None)
def test_count_ids_matches_the_reduceat_form(text):
    # the written form's shortcut reads the separators where the reduceat
    # over each id's segment would: the same count, or None, on any chunk
    from rolekit.graph import _count_chunk_ids
    chars = np.frombuffer(text.encode(), dtype=np.uint8)
    assert _count_chunk_ids(chars) == count_chunk_ids_reduceat(chars)


def test_load_peak_memory_is_bounded(tmp_path, monkeypatch):
    # The graph's arrays take 16 bytes per edge: two int32 index arrays and
    # one float64 array of ones that adj and adj_t share. The parse holds
    # one copy of the text (about 9), the parsed ids (8: two int32) and the
    # transients of one chunk per thread (about 1.2 MB each), and sets the
    # peak (about 22.6 bytes per edge written, 27.6 tab-separated); the
    # build frees the ids before the transpose, and holds one byte per
    # entry, not eight, until the ones replace them. The bound leaves no
    # room for the ids beside the whole graph, int64 ids, more copies of
    # the text or a position array per id of the whole body beside the ids.
    # tracemalloc traces the worker thread too.
    import os
    import tracemalloc
    from rolekit.cli import bench_spec
    from rolekit.graph import _THREADED_EDGES
    g, _ = rk.generate_planted(bench_spec(4000, 3, 1))
    buf = io.StringIO()
    rk.save_edge_list(g, buf)
    first, body = buf.getvalue().split("\n", 1)
    tabbed = first + "\n" + body.replace(" ", "\t")
    path = tmp_path / "g.edges.txt"
    # the written form, then the same graph tab-separated, each from a
    # text-mode and a binary file, on one thread and on two
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, cpus=cpus: cpus, raising=False)
        for text in (buf.getvalue(), tabbed):
            path.write_text(text)
            for mode in ("r", "rb"):
                tracemalloc.start()
                try:
                    with open(path, mode) as fh:
                        loaded = rk.load_edge_list(fh)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert loaded.n == g.n
                assert loaded.num_edges == g.num_edges > _THREADED_EDGES
                assert peak < 28 * g.num_edges


# ---------------------------------------------------------------------------
# the whole-buffer parse on one thread and on two
# ---------------------------------------------------------------------------

def _csr_arrays(g):
    return [(m.indptr.dtype, m.indptr.tobytes(), m.indices.dtype,
             m.indices.tobytes(), m.data.dtype, m.data.tobytes())
            for m in (g.adj, g.adj_t)] + [g.n]


def _threaded_loads(monkeypatch, pools, data, **kwargs):
    """load_edge_list's outcome (the graph's CSR arrays, or the error's
    type and message) with one usable CPU and with two, and the number of
    worker pools each opened (``pools`` is the ``worker_pools`` fixture);
    no thread outlives either load."""
    import os
    import threading
    outcomes = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, cpus=cpus: cpus, raising=False)
        threads, opened = threading.active_count(), len(pools)
        try:
            outcomes.append(_csr_arrays(rk.load_edge_list(data, **kwargs)))
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
        assert threading.active_count() == threads
        outcomes.append(len(pools) - opened)
    return outcomes


@pytest.fixture(scope="module")
def written_above_the_gate():
    # the n=4000 bench graph as save_edge_list writes it: 144k edges in
    # six chunks, above _THREADED_EDGES
    from rolekit.cli import bench_spec
    from rolekit.graph import _THREADED_EDGES, _chunks
    g, _ = rk.generate_planted(bench_spec(4000, 3, 1))
    buf = io.StringIO()
    rk.save_edge_list(g, buf)
    text = buf.getvalue()
    assert g.num_edges > _THREADED_EDGES
    assert len(list(_chunks(text.encode()))) >= 4
    return text, _csr_arrays(g)


@pytest.mark.parametrize("form, kwargs", [
    ("written", {}),
    ("tabbed", {}),
    ("no_header", {}),
    ("written", {"n": 4100}),
    ("no_header", {"n": 4000}),
    ("one_indexed", {"one_indexed": True}),
    ("one_indexed_no_header", {"one_indexed": True}),
])
def test_threaded_parse_gives_the_serial_graph(monkeypatch, worker_pools,
                                               written_above_the_gate, form,
                                               kwargs):
    written, planted = written_above_the_gate
    header, body = written.split("\n", 1)
    if form.startswith("one_indexed"):
        pairs = np.array(body.split(), dtype=np.int64).reshape(-1, 2) + 1
        body = "".join(f"{a} {b}\n" for a, b in pairs.tolist())
    text = {"tabbed": header + "\n" + body.replace(" ", "\t"),
            "no_header": body, "one_indexed_no_header": body}.get(
                form, header + "\n" + body)
    # the buffer parse reads every form, on either path: the line loop,
    # which would give the same graph, never runs
    monkeypatch.setattr("rolekit.graph._parse_lines", mock.Mock(
        side_effect=AssertionError("line loop used")))
    serial, serial_pools, threaded, threaded_pools = _threaded_loads(
        monkeypatch, worker_pools, text, **kwargs)
    assert (serial_pools, threaded_pools) == (0, 1)
    assert threaded == serial
    if "n" in kwargs:
        assert serial[-1] == kwargs["n"]
    else:
        assert serial == planted


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("bad, message", [
    ("0 x", "non-integer node id in ['0', 'x']"),
    ("0 4000", "node id 4000 >= node count 4000"),
])
def test_threaded_parse_fails_as_the_serial_parse(monkeypatch, worker_pools,
                                                  written_above_the_gate,
                                                  where, bad, message):
    # the bad line in the first chunk, which the calling thread checks and
    # parses, or in the last, which the worker does
    lines = written_above_the_gate[0].splitlines(keepends=True)
    line_no = 3 if where == "first" else len(lines) - 1
    lines[line_no - 1] = bad + "\n"
    serial, _, threaded, _ = _threaded_loads(monkeypatch, worker_pools,
                                             "".join(lines))
    assert threaded == serial == (rk.EdgeListParseError,
                                  f"line {line_no}: {message}")


def _started(pair):
    """The (name, thread) of each of pair's two calls, in the order they
    started; pair returns their results in its argument order."""
    import threading
    started = []

    def call(name):
        def run():
            started.append((name, threading.get_ident()))
            return name
        return run
    assert pair(call("first"), call("second")) == ("first", "second")
    return started


@pytest.mark.parametrize("past_gate, cpus", [(-1, {0, 1}), (0, {0})])
def test_beside_runs_both_inline_below_the_gate_or_on_one_cpu(
        monkeypatch, worker_pools, past_gate, cpus):
    import os
    import threading
    from rolekit.graph import _THREADED_EDGES, _beside
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    here = threading.get_ident()
    with _beside(_THREADED_EDGES + past_gate) as pair:
        assert _started(pair) == [("first", here), ("second", here)]
    assert not worker_pools


def test_beside_opens_one_worker_per_context_above_the_gate(monkeypatch,
                                                           worker_pools):
    import os
    import threading
    from rolekit.graph import _THREADED_EDGES, _beside
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    here, threads = threading.get_ident(), threading.active_count()
    for contexts in (1, 2):
        with _beside(_THREADED_EDGES) as pair:
            for _ in range(3):
                ran_on = dict(_started(pair))
                assert ran_on["first"] == here != ran_on["second"]
        assert len(worker_pools) == contexts
        assert threading.active_count() == threads


def test_beside_joins_its_worker_when_first_raises(monkeypatch,
                                                  worker_pools):
    # the worker is still running second when first raises: the context
    # waits for it before the error leaves
    import os
    import threading
    import time
    from rolekit.graph import _THREADED_EDGES, _beside
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    threads, done = threading.active_count(), threading.Event()

    def second():
        time.sleep(0.05)
        done.set()
    with pytest.raises(ZeroDivisionError):
        with _beside(_THREADED_EDGES) as pair:
            pair(lambda: 1 / 0, second)
    assert done.is_set() and len(worker_pools) == 1
    assert threading.active_count() == threads


def test_load_reads_text_and_binary_files(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"# n=4\n0 1\n2 3\n")
    for mode in ("r", "rb"):
        with open(path, mode) as fh:
            g = rk.load_edge_list(fh)
        assert g.n == 4 and edge_set(g) == {(0, 1), (2, 3)}


@pytest.mark.parametrize("text, line", [("0 1\n0 100000000000\n", 2),
                                        ("0 100000000000 7\n0 1\n", 1)])
def test_load_inferred_node_count_is_bounded(monkeypatch, text, line):
    # rejected before the graph's O(n) index arrays are allocated
    monkeypatch.setattr(rk.DirectedGraph, "from_edges", classmethod(
        lambda cls, n, edges: pytest.fail("the graph was allocated")))
    with pytest.raises(rk.EdgeListParseError,
                       match=f"^line {line}: node id 100000000000 implies "
                             f"100000000001 nodes, .* --nodes"):
        rk.load_edge_list(text)


def test_load_inferred_node_count_limit(monkeypatch):
    # 2**20 nodes at least, else 16 per edge line, on either parse path
    assert rk.load_edge_list(f"0 {2 ** 20 - 1}\n").n == 2 ** 20
    with pytest.raises(rk.EdgeListParseError, match="^line 1: node id"):
        rk.load_edge_list(f"0 {2 ** 20}\n")
    monkeypatch.setattr("rolekit.graph._INFERRED_NODES_FLOOR", 4)
    for weight in ("", " 7"):
        assert rk.load_edge_list(f"0 1{weight}\n0 31\n").n == 32
        with pytest.raises(rk.EdgeListParseError,
                           match="^line 2: node id 32 implies 33 nodes, "
                                 "more than the 32 allowed for 2 edge"):
            rk.load_edge_list(f"0 1{weight}\n0 32\n")


_written_values = st.one_of(
    st.sampled_from([0, 9, 10, 2 ** 63 - 1]
                    + [10 ** k + d for k in range(1, 19) for d in (-1, 0)]),
    st.integers(0, 2 ** 63 - 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_written_values, _written_values), max_size=40),
       st.sampled_from([" ", ","]), st.booleans())
def test_written_pairs_match_the_f_string_lines(pairs, sep, narrow):
    # digits built as bytes: every digit count up to 19, each power of ten
    # and the number below it; the index dtype of a graph's columns too
    from rolekit.graph import _write_pairs
    values = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    if narrow and (values < 2 ** 31).all():
        values = values.astype(np.int32)
    buf = io.StringIO()
    _write_pairs(buf, values[:, 0], values[:, 1], sep)
    assert buf.getvalue() == "".join(f"{a}{sep}{b}\n" for a, b in pairs)


def test_save_peak_memory_is_one_block():
    # the lines are formatted from the CSR arrays a block of edges at a
    # time: a working set of about 80 bytes a line of one block, with no
    # (m, 2) edge array or any other array of one entry per edge
    import tracemalloc
    from rolekit.cli import bench_spec
    from rolekit.graph import _WRITE_BLOCK
    g, _ = rk.generate_planted(bench_spec(4000, 3, 1))
    assert g.num_edges > 100_000

    class Sink:
        lines = 0

        def write(self, text):
            self.lines += text.count("\n")
    sink = Sink()
    tracemalloc.start()
    try:
        rk.save_edge_list(g, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.lines == 1 + g.num_edges
    assert peak < 128 * _WRITE_BLOCK


def test_writes_in_blocks_match_one_row_per_write(monkeypatch):
    # blocks of every size up to the whole file, so that a block ends
    # inside a row, after an empty row, and at the end of the edges
    edges = [(0, 1), (2, 2), (3, 0), (1, 4), (4, 4), (0, 3), (2, 1), (0, 5)]
    g = rk.DirectedGraph.from_edges(7, edges)
    p = rk.RolePartition.from_labels([1, 0, 2, 2, 1, 0, 1])
    for block in range(1, 10):
        monkeypatch.setattr("rolekit.graph._WRITE_BLOCK", block)
        buf = io.StringIO()
        rk.save_edge_list(g, buf)
        assert buf.getvalue() == "# n=7\n" + "".join(
            f"{i} {j}\n" for i, j in edge_array(g))
        buf = io.StringIO()
        rk.save_partition(p, buf)
        assert buf.getvalue() == "node,cluster\n" + "".join(
            f"{node},{label}\n" for node, label in enumerate(p.labels))


_partition_rows = st.one_of(
    # covering rows 0..n-1 with arbitrary labels, in any order
    st.lists(st.integers(), max_size=20).flatmap(lambda labels: st.permutations(
        [f"{node},{label}" for node, label in enumerate(labels)])),
    st.lists(_joined(st.one_of(_tokens, st.integers().map(str)), [",", ", "]),
             max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["node,cluster", "node, cluster", "", "a,b"]),
       _partition_rows)
def test_load_partition_parses_or_raises_value_error(header, rows):
    text = "\n".join([header] + list(rows)) + "\n"
    try:
        p = rk.load_partition(text)
    except ValueError:
        return
    assert len(p) == sum(1 for row in rows if row.strip())
    assert (p.cluster_sizes() > 0).all()


def test_load_partition_label_beyond_int64_names_its_line():
    with pytest.raises(ValueError, match="line 3: cluster label"):
        rk.load_partition("node,cluster\n0,0\n1,9223372036854775808\n")


_BENCH_FIELDS = {
    "B": st.lists(st.lists(st.integers(0, 1), min_size=2, max_size=2),
                  min_size=2, max_size=2),
    "sizes": st.lists(st.integers(-1, 50), max_size=3),
    "p_in": st.floats(-0.5, 1.5),
    "p_out": st.floats(-0.5, 1.5),
    "seed": st.integers(-2, 2 ** 70),
}


@settings(max_examples=300, deadline=None)
@given(spec_texts(_BENCH_FIELDS))
def test_benchmark_spec_from_json_parses_or_raises_value_error(text):
    try:
        spec = rk.BenchmarkSpec.from_json(text)
    except ValueError:
        return
    assert spec.B.shape == (len(spec.sizes), len(spec.sizes))


# ---------------------------------------------------------------------------
# the graph's two builds and its one read-only data array
# ---------------------------------------------------------------------------

@pytest.fixture
def coo_builds(monkeypatch):
    """The COO matrices built during the test: from_edges builds one on its
    COO -> CSR path and none when it builds from ids in CSR order."""
    import scipy.sparse as sp
    built = []

    class CooSpy(sp.coo_matrix):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(sp, "coo_matrix", CooSpy)
    return built


def _built_both_ways(monkeypatch, coo_builds, build):
    """[the CSR arrays of build(), the COO matrices it built] on the path
    its input's order takes, then the same with the COO path forced."""
    from rolekit import graph
    outcomes = []
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(graph, "_in_csr_order",
                                lambda src, dst: False)
        before = len(coo_builds)
        outcomes += [_csr_arrays(build()), len(coo_builds) - before]
    return outcomes


@pytest.mark.parametrize("form", ["list", "int64", "int32"])
@pytest.mark.parametrize("n, edges", [
    pytest.param(0, [], id="empty"),
    pytest.param(5, [], id="no_edges"),
    pytest.param(2, [(0, 1)], id="single_edge"),
    pytest.param(3, [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)],
                 id="self_loops"),
    pytest.param(10, [(0, 1), (0, 3), (1, 2), (3, 0)],
                 id="trailing_isolated_nodes"),
    pytest.param(300, [(0, 299), (7, 7), (7, 8), (298, 0)], id="wide"),
])
def test_sorted_build_gives_the_coo_build_arrays(monkeypatch, coo_builds, n,
                                                 edges, form):
    # ids in CSR order build adj with no COO matrix; the COO -> CSR build
    # of the same ids gives the same indptr, indices and data, in bytes and
    # in dtypes, for adj and adj_t
    given = edges if form == "list" else np.array(
        edges, dtype=form).reshape(-1, 2)
    sorted_arrays, sorted_coo, coo_arrays, coo_coo = _built_both_ways(
        monkeypatch, coo_builds, lambda: rk.DirectedGraph.from_edges(n, given))
    assert (sorted_coo, coo_coo) == (0, 1)
    assert sorted_arrays == coo_arrays
    assert sorted_arrays[-1] == n


@pytest.mark.parametrize("edges", [
    [(0, 1), (0, 1), (1, 2)],
    [(0, 1), (1, 2), (1, 2), (2, 0)],
    [(2, 0)] * 3,
])
def test_sorted_input_with_a_duplicate_takes_the_coo_build(coo_builds, edges):
    # sources in order but a target repeated: the COO -> CSR build collapses
    # the duplicate, to the arrays of the deduplicated ids' sorted build
    deduplicated = sorted(set(edges))
    g = rk.DirectedGraph.from_edges(3, edges)
    assert len(coo_builds) == 1
    assert _csr_arrays(g) == _csr_arrays(
        rk.DirectedGraph.from_edges(3, deduplicated))
    assert len(coo_builds) == 1


def test_one_indexed_load_builds_in_csr_order(monkeypatch, coo_builds):
    text = "# n=5\n1 1\n1 4\n3 2\n3 5\n"
    sorted_arrays, sorted_coo, coo_arrays, coo_coo = _built_both_ways(
        monkeypatch, coo_builds,
        lambda: rk.load_edge_list(text, one_indexed=True))
    assert (sorted_coo, coo_coo) == (0, 1)
    assert sorted_arrays == coo_arrays
    assert edge_set(rk.load_edge_list(text, one_indexed=True)) == {
        (0, 0), (0, 3), (2, 1), (2, 4)}


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_written_graph_above_the_gate_builds_in_csr_order(
        monkeypatch, coo_builds, written_above_the_gate, cpus):
    # the n=4000 bench graph as written, 144k edges, parsed on one thread
    # and on two: the sorted build gives the arrays of the COO build and of
    # the planted graph
    import os
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    text, planted = written_above_the_gate
    sorted_arrays, sorted_coo, coo_arrays, coo_coo = _built_both_ways(
        monkeypatch, coo_builds, lambda: rk.load_edge_list(text))
    assert (sorted_coo, coo_coo) == (0, 1)
    assert sorted_arrays == coo_arrays == planted


def test_save_load_round_trip_builds_no_coo_matrix(coo_builds):
    # generate_planted's block-ordered ids take the COO -> CSR build; the
    # file save_edge_list writes from its graph is in CSR order, and loads
    # to the same arrays with no COO matrix
    spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[30, 20, 10], p_in=0.7,
                            p_out=0.2, seed=4)
    g, _ = rk.generate_planted(spec)
    assert len(coo_builds) == 1
    buf = io.StringIO()
    rk.save_edge_list(g, buf)
    assert _csr_arrays(rk.load_edge_list(buf.getvalue())) == _csr_arrays(g)
    assert len(coo_builds) == 1


@pytest.mark.parametrize("make", ["from_sorted_edges", "from_unsorted_edges",
                                  "generate_planted", "load_edge_list"])
def test_graph_data_is_one_read_only_array(make):
    spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[20, 20, 20], p_in=0.8,
                            p_out=0.1, seed=5)
    planted, _ = rk.generate_planted(spec)
    buf = io.StringIO()
    rk.save_edge_list(planted, buf)
    g = {"from_sorted_edges": lambda: rk.DirectedGraph.from_edges(
             planted.n, edge_array(planted)),
         "from_unsorted_edges": lambda: rk.DirectedGraph.from_edges(
             planted.n, edge_array(planted)[::-1]),
         "generate_planted": lambda: planted,
         "load_edge_list": lambda: rk.load_edge_list(buf.getvalue())}[make]()
    assert np.shares_memory(g.adj.data, g.adj_t.data)
    assert g.adj.data.dtype == np.float64 and (g.adj.data == 1.0).all()
    assert g.adj.data.nbytes == 8 * g.num_edges
    for m in (g.adj, g.adj_t):
        assert not m.data.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m.data[0] = 2.0
    assert (g.adj.data == 1.0).all()


def _reader_outputs(g, truth):
    """What each reader of the graph's arrays gives on ``g``, as bytes:
    beta_estimate, a refined browet factor, salton's factor, the reduced
    graph, the degrees and the written edge list."""
    beta = rk.beta_estimate(g, 3)
    browet = rk.browet_factor(g, rk.SimilarityConfig(r=3, beta=beta / 2))
    buf = io.StringIO()
    rk.save_edge_list(g, buf)
    return [beta, browet.iterations, browet.X.tobytes(),
            rk.salton_factor(g, 3).X.tobytes(),
            rk.extract_reduced(g, truth).density.tobytes(),
            *(d.tobytes() for d in rk.degrees(g)), buf.getvalue()]


@pytest.mark.parametrize("threaded", [False, True])
def test_readers_take_the_shared_read_only_data(monkeypatch, worker_pools,
                                                threaded):
    # on the formed Gram (n <= 400) and on the threaded Gram operator (above
    # _THREADED_EDGES, two usable CPUs), every reader gives on the graph's
    # one read-only array the bits of a copy with its own writable arrays
    import os
    from rolekit.cli import bench_spec
    from rolekit.graph import _THREADED_EDGES
    from rolekit.similarity import _DENSE_SVD_LIMIT
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    spec = (bench_spec(4000, 3, 1) if threaded else rk.BenchmarkSpec(
        B=CYCLE3, sizes=[100, 100, 100], p_in=0.9, p_out=0.1, seed=2))
    g, truth = rk.generate_planted(spec)
    assert (g.n <= _DENSE_SVD_LIMIT) != threaded
    assert (g.num_edges >= _THREADED_EDGES) == threaded
    writable = rk.DirectedGraph(n=g.n, adj=g.adj.copy(), adj_t=g.adj_t.copy())
    assert writable.adj.data.flags.writeable
    assert not np.shares_memory(writable.adj.data, writable.adj_t.data)
    assert _reader_outputs(g, truth) == _reader_outputs(writable, truth)
    assert bool(worker_pools) == threaded


# ---------------------------------------------------------------------------
# degrees
# ---------------------------------------------------------------------------

def test_degrees_single_edge():
    g = rk.DirectedGraph.from_edges(2, [(0, 1)])
    k_out, k_in = rk.degrees(g)
    assert k_out.tolist() == [1, 0] and k_in.tolist() == [0, 1]


def test_degrees_empty():
    g = rk.DirectedGraph.from_edges(3, [])
    k_out, k_in = rk.degrees(g)
    assert k_out.tolist() == [0, 0, 0] and k_in.tolist() == [0, 0, 0]


def test_degrees_shared_child():
    g = rk.DirectedGraph.from_edges(3, [(0, 2), (1, 2)])
    k_out, k_in = rk.degrees(g)
    assert k_out.tolist() == [1, 1, 0] and k_in.tolist() == [0, 0, 2]


def test_degree_sums_match_edge_count(cycle3_noisy):
    g, _ = cycle3_noisy
    k_out, k_in = rk.degrees(g)
    assert k_out.sum() == k_in.sum() == g.num_edges


def test_children_parents_consistent(cycle3_noisy):
    # the rows of adj_t list each node's parents
    g, _ = cycle3_noisy
    assert (g.adj_t != g.adj.T).nnz == 0


# ---------------------------------------------------------------------------
# planted-partition generator
# ---------------------------------------------------------------------------

def test_planted_deterministic_extremes():
    spec = rk.BenchmarkSpec(B=[[0, 1], [0, 0]], sizes=[2, 2], p_in=1.0,
                            p_out=0.0, seed=0)
    g, truth = rk.generate_planted(spec)
    assert edge_set(g) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert truth.labels.tolist() == [0, 0, 1, 1]


def test_planted_zero_probability():
    spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[5, 5, 5], p_in=0.0, p_out=0.0,
                            seed=1)
    g, _ = rk.generate_planted(spec)
    assert g.num_edges == 0


def test_planted_seed_reproducible():
    spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[20, 20, 20], p_in=0.6,
                            p_out=0.2, seed=99)
    g1, _ = rk.generate_planted(spec)
    g2, _ = rk.generate_planted(spec)
    assert edge_set(g1) == edge_set(g2)


def test_planted_arrays_do_not_depend_on_the_chunk_size(monkeypatch):
    # chunks of one and three uniforms end before most block pairs do, and
    # each block pair's last chunk draws past its end; the generator is
    # rewound to the uniform after the overshoot, so the arrays are the
    # default chunk's, bit for bit
    from rolekit.graph import _planted_edges
    for p_in, p_out in ((0.6, 0.2), (1.0, 0.05)):
        spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[13, 5, 9], p_in=p_in,
                                p_out=p_out, seed=4)
        whole = _planted_edges(spec)
        for chunk in (1, 3):
            monkeypatch.setattr("rolekit.graph._SKIP_CHUNK", chunk)
            np.testing.assert_array_equal(_planted_edges(spec), whole)
        monkeypatch.undo()
        assert whole.dtype == np.int32 and len(whole) > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("sizes, B, p_in, p_out", [
    ([13, 5, 9], CYCLE3, 0.6, 0.2),
    ([7, 7, 7], CYCLE3, 1.0, 0.0),            # every in-pair, no out-pair
    ([11, 4], [[1, 0], [1, 1]], 1e-300, 1.0),  # no in-pair, every out-pair
    ([1] * 6, np.eye(6, dtype=int).tolist(), 0.7, 0.3),  # blocks of one
    ([1, 17, 1, 3], np.ones((4, 4), dtype=int).tolist(), 0.5, 0.5),
    ([6, 9], [[0, 1], [1, 0]], 5e-324, 0.4),  # a ratio that overflows
])
def test_planted_graph_is_the_one_thread_stream(seed, sizes, B, p_in, p_out):
    # the edges, in their order, of the skip stream drawn one uniform at a
    # time: each block pair takes one uniform per edge and one past its
    # end, and p = 0 and p = 1 take none
    from rolekit.graph import _planted_edges
    spec = rk.BenchmarkSpec(B=B, sizes=sizes, p_in=p_in, p_out=p_out,
                            seed=31 + seed)
    want = planted_skips(spec)
    np.testing.assert_array_equal(_planted_edges(spec), want)
    g, truth = rk.generate_planted(spec)
    assert edge_set(g) == {tuple(e) for e in want.tolist()}
    assert truth.labels.tolist() == np.repeat(np.arange(len(sizes)),
                                              sizes).tolist()


def test_planted_graph_follows_the_oracle_law():
    # 3000 seeds of the skip sampler and 3000 others of the all-pairs
    # oracle: each pair's hit count against Binomial(3000, p) and against
    # the other's (chi-square over the 121 pairs), and each block pair's
    # edge count per seed against Binomial(pairs, p) by its mean and
    # variance; bounds of 4 standard deviations, set before the run
    sizes, B, p_in, p_out = [4, 7], np.array([[1, 0], [1, 1]]), 0.6, 0.03
    runs, n, roles = 3000, 11, np.repeat([0, 1], sizes)
    q = np.where(B == 1, p_in, p_out)  # per block pair
    p = q[roles][:, roles]             # per node pair
    pairs = np.outer(sizes, sizes)
    block_var = pairs * q * (1 - q)
    excess = (1 - 6 * q * (1 - q)) / block_var  # the binomial's kurtosis
    hits = {}
    for name, draw, seeds in (("sampler", rk.generate_planted, range(runs)),
                              ("oracle", planted_oracle,
                               range(runs, 2 * runs))):
        counts, blocks = np.zeros((n, n)), []
        for seed in seeds:
            g, truth = draw(rk.BenchmarkSpec(B=B, sizes=sizes, p_in=p_in,
                                             p_out=p_out, seed=seed))
            counts += g.adj.toarray()
            blocks.append(block_counts(g, truth))
        hits[name] = counts
        var = runs * p * (1 - p)
        chi2 = ((counts - runs * p) ** 2 / var).sum()
        assert chi2 < n * n + 4 * np.sqrt(2 * n * n), (name, chi2)
        blocks = np.array(blocks)
        mean_z = (blocks.mean(0) - pairs * q) / np.sqrt(block_var / runs)
        var_z = (blocks.var(0, ddof=1) / block_var - 1) / np.sqrt(
            (2 + excess) / runs)
        assert np.abs(mean_z).max() < 4 and np.abs(var_z).max() < 4, (
            name, mean_z, var_z)
    chi2 = ((hits["sampler"] - hits["oracle"]) ** 2
            / (2 * runs * p * (1 - p))).sum()
    assert chi2 < n * n + 4 * np.sqrt(2 * n * n), chi2


def test_planted_peak_memory_is_one_chunk_and_the_graph():
    # The sampler holds the edges found so far (8 bytes an edge) and the
    # arrays of one chunk of uniforms. The graph's build then peaks at the
    # graph itself (24 bytes an edge), as it frees the edges before the
    # transpose. The bound leaves no room for int64 ids, a second copy of
    # the edges, ids held through the transpose or a uniform per node pair.
    import tracemalloc
    from rolekit.cli import bench_spec
    from rolekit.graph import _SKIP_CHUNK
    spec = bench_spec(4000, 3, 1)
    tracemalloc.start()
    try:
        g, _ = rk.generate_planted(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.num_edges > 100_000
    assert peak < 28 * g.num_edges + 8 * _SKIP_CHUNK


def test_planted_edge_count_concentrates():
    # 3-cycle of 50-blocks: 7500 in-pairs at 0.9, 15000 out-pairs at 0.1;
    # every seed must fall within 4 sigma of the binomial expectation
    expected = 0.9 * 7500 + 0.1 * 15000
    sigma = np.sqrt(7500 * 0.9 * 0.1 + 15000 * 0.1 * 0.9)
    for seed in range(100):
        spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[50, 50, 50], p_in=0.9,
                                p_out=0.1, seed=seed)
        g, _ = rk.generate_planted(spec)
        assert abs(g.num_edges - expected) < 4 * sigma


def test_planted_self_block_includes_loops():
    spec = rk.BenchmarkSpec(B=[[1]], sizes=[4], p_in=1.0, p_out=0.0, seed=0)
    g, _ = rk.generate_planted(spec)
    assert g.num_edges == 16  # all ordered pairs, diagonal included


# ---------------------------------------------------------------------------
# reduced graph
# ---------------------------------------------------------------------------

def test_reduced_perfect_bipartite():
    spec = rk.BenchmarkSpec(B=[[0, 1], [0, 0]], sizes=[3, 3], p_in=1.0,
                            p_out=0.0, seed=0)
    g, truth = rk.generate_planted(spec)
    red = rk.extract_reduced(g, truth, threshold=0.5)
    assert red.density.tolist() == [[0.0, 1.0], [0.0, 0.0]]
    assert red.edges.astype(int).tolist() == [[0, 1], [0, 0]]


def test_reduced_empty_graph():
    g = rk.DirectedGraph.from_edges(4, [])
    p = rk.RolePartition(labels=np.array([0, 0, 1, 1]), k=2)
    red = rk.extract_reduced(g, p, threshold=0.1)
    assert red.density.max() == 0.0
    assert not red.edges.any()


def test_reduced_empty_cluster_rejected():
    g = rk.DirectedGraph.from_edges(2, [(0, 1)])
    p = rk.RolePartition(labels=np.array([0, 0]), k=2)
    with pytest.raises(ValueError, match="empty cluster"):
        rk.extract_reduced(g, p, threshold=0.1)


def test_reduced_reproduces_planted_structure():
    # noiseless planted graphs reproduce B exactly for any threshold in (0,1)
    for threshold in (0.05, 0.5, 0.95):
        spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[10, 10, 10], p_in=1.0,
                                p_out=0.0, seed=4)
        g, truth = rk.generate_planted(spec)
        red = rk.extract_reduced(g, truth, threshold=threshold)
        assert red.edges.astype(int).tolist() == CYCLE3


def test_reduced_diagonal_counts_self_loops():
    g = rk.DirectedGraph.from_edges(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    p = rk.RolePartition(labels=np.array([0, 0]), k=1)
    red = rk.extract_reduced(g, p, threshold=0.1)
    assert red.density[0, 0] == 1.0


@pytest.mark.parametrize("seed", range(12))
def test_reduced_counts_match_the_edge_array_formula(seed):
    # random graphs with self-loops and empty rows, random partitions
    gen = rng(seed)
    n = int(gen.integers(1, 60))
    k = int(gen.integers(1, n + 1))
    dense = gen.random((n, n)) < gen.uniform(0.0, 0.5)
    dense[gen.random(n) < 0.3] = False
    g = rk.DirectedGraph.from_edges(n, np.argwhere(dense))
    labels = np.concatenate([np.arange(k), gen.integers(0, k, n - k)])
    p = rk.RolePartition(labels=gen.permutation(labels), k=k)
    sizes = p.cluster_sizes()
    expected = block_counts(g, p) / np.outer(sizes, sizes).astype(float)
    np.testing.assert_array_equal(rk.extract_reduced(g, p).density, expected)


def test_reduced_peak_memory_is_bounded_by_nodes_times_roles():
    # M^T (A M) with the n x k membership matrix M: nothing per edge
    import tracemalloc
    from rolekit.cli import bench_spec
    g, truth = rk.generate_planted(bench_spec(4000, 3, 1))
    assert g.num_edges > 100_000
    tracemalloc.start()
    try:
        reduced = rk.extract_reduced(g, truth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * g.n * truth.k
    np.testing.assert_array_equal(
        reduced.density, block_counts(g, truth)
        / np.outer(truth.cluster_sizes(), truth.cluster_sizes()))


@pytest.mark.parametrize("call, message", [
    (lambda: rk.DirectedGraph.from_edges(3, [(0, 3)]),
     "edge endpoint out of range"),
    (lambda: rk.DirectedGraph.from_edges(3, [(-1, 0)]),
     "edge endpoint out of range"),
    (lambda: rk.extract_reduced(rk.DirectedGraph.from_edges(3, [(0, 1)]),
                                rk.RolePartition.from_labels([0, 1])),
     "partition length mismatch"),
])
def test_graph_guards_raise_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{message}$") as exc:
        call()
    assert type(exc.value) is ValueError
