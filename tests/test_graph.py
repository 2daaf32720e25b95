import io
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rolekit as rk
from reference import CYCLE3, edge_set, rng, spec_texts


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
                      ["\n", "\r\n"])


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
    edges = g.edge_array()
    assert (edges >= 0).all() and (edges < g.n).all()


@pytest.mark.parametrize("line", ["9223372036854775808 0",
                                  "0 99999999999999999999999"])
def test_load_node_id_beyond_int64_names_its_line(line):
    with pytest.raises(rk.EdgeListParseError, match="line 2: node id"):
        rk.load_edge_list(f"0 1\n{line}\n")


# ---------------------------------------------------------------------------
# whole-buffer parse against the line loop
# ---------------------------------------------------------------------------

def _outcome(data, **kwargs):
    """The node count and edges load_edge_list gives, or its error; a path
    is read as a binary file."""
    try:
        if isinstance(data, Path):
            with open(data, "rb") as fh:
                g = rk.load_edge_list(fh, **kwargs)
        else:
            g = rk.load_edge_list(data, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)
    return g.n, g.edge_array().tolist()


def _assert_buffer_parse_matches_line_loop(data, **kwargs):
    whole = _outcome(data, **kwargs)
    with mock.patch("rolekit.graph._parse_buffer", return_value=None):
        assert whole == _outcome(data, **kwargs)


# Texts in the grammar save_edge_list writes: ids of up to 19 digits, so
# that some fall outside it, and node-count first lines.
_fast_lines = st.one_of(
    st.tuples(st.integers(0, 10 ** 4).map(str),
              st.sampled_from([" ", "\t", " \t "]),
              st.integers(0, 10 ** 4).map(str),
              st.sampled_from(["", " ", "\t"])).map("".join),
    st.sampled_from(["", " ", "0 999999999999999999",
                     "0 0000000000000000001"]))
_fast_texts = st.tuples(
    st.sampled_from(["", "# n=10001\n", "# n=5\n", "% x\n", "#\n"]),
    _joined(_fast_lines, ["\n", "\r\n"]),
    st.sampled_from(["", "\n", "\r\n"])).map("".join)


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
])
@pytest.mark.parametrize("one_indexed", [False, True])
@pytest.mark.parametrize("ignore_weights", [False, True])
@pytest.mark.parametrize("n", [None, 3, 10])
def test_buffer_parse_matches_line_loop_literals(tmp_path, data, one_indexed,
                                                 ignore_weights, n):
    raw = data.encode() if isinstance(data, str) else data
    path = tmp_path / "g.txt"
    path.write_bytes(raw)
    for form in (data, raw, path):
        _assert_buffer_parse_matches_line_loop(
            form, one_indexed=one_indexed, ignore_weights=ignore_weights,
            n=n)


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
])
def test_buffer_parse_takes_the_written_grammar(data, n, edges):
    with mock.patch("rolekit.graph._parse_lines",
                    side_effect=AssertionError("line loop used")):
        g = rk.load_edge_list(data)
    assert g.n == n and edge_set(g) == edges


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


def test_writes_in_blocks_match_one_row_per_write(monkeypatch):
    monkeypatch.setattr("rolekit.graph._WRITE_BLOCK", 3)
    edges = [(0, 1), (2, 2), (3, 0), (1, 4), (4, 4), (0, 3), (2, 1)]
    g = rk.DirectedGraph.from_edges(6, edges)
    buf = io.StringIO()
    rk.save_edge_list(g, buf)
    assert buf.getvalue() == "# n=6\n" + "".join(
        f"{i} {j}\n" for i, j in g.edge_array())
    p = rk.RolePartition.from_labels([1, 0, 2, 2, 1, 0, 1])
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


def test_planted_row_chunks_draw_the_whole_block_stream(monkeypatch):
    # with 20 doubles per draw the blocks take 1-, 2- and 4-row chunks,
    # most with a shorter last chunk
    spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[13, 5, 9], p_in=0.6,
                            p_out=0.2, seed=4)
    whole, _ = rk.generate_planted(spec)
    monkeypatch.setattr("rolekit.graph._CHUNK_DOUBLES", 20)
    chunked, _ = rk.generate_planted(spec)
    assert np.array_equal(chunked.edge_array(), whole.edge_array())
    assert whole.num_edges > 0


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
