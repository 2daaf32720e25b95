import csv
import hashlib
import json
import math
import os
import re
import shlex
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rolekit as rk
from rolekit.cli import (EXIT_ERROR, EXIT_OK, EXIT_VALIDATION_FAILED,
                         SweepSpec, _grid_values, bench_spec, build_parser,
                         main, pairwise_inner_product_histogram, run_bench,
                         run_sweep)
from reference import CYCLE3, edge_array, edge_set, rng, spec_texts


def write_spec(tmp_path, sweep=False, **overrides):
    spec = {"B": CYCLE3, "sizes": [40, 40, 40], "p_in": 0.9, "p_out": 0.05,
            "seed": 9}
    if sweep:  # a sweep sets the probabilities per grid cell
        del spec["p_in"], spec["p_out"]
    spec.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_writes_graph_and_truth(tmp_path, capsys):
    spec = write_spec(tmp_path, p_in=1.0, p_out=0.0,
                      B=[[0, 1], [0, 0]], sizes=[2, 2])
    assert main(["generate", str(spec),
                 "--out-prefix", str(tmp_path / "run")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "edges=4" in out
    g = rk.load_edge_list((tmp_path / "run.edges.txt").read_text())
    assert edge_set(g) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    with open(tmp_path / "run.truth.csv") as fh:
        truth = rk.load_partition(fh)
    assert truth.labels.tolist() == [0, 0, 1, 1]


def test_generate_byte_identical_for_same_seed(tmp_path):
    spec = write_spec(tmp_path)
    main(["generate", str(spec), "--out-prefix", str(tmp_path / "a")])
    main(["generate", str(spec), "--out-prefix", str(tmp_path / "b")])
    assert (tmp_path / "a.edges.txt").read_bytes() == \
        (tmp_path / "b.edges.txt").read_bytes()
    assert (tmp_path / "a.truth.csv").read_bytes() == \
        (tmp_path / "b.truth.csv").read_bytes()


def _bench_spec_file(tmp_path, n, seed):
    spec = bench_spec(n, 3, seed)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"B": spec.B.tolist(),
                                "sizes": spec.sizes.tolist(),
                                "p_in": spec.p_in, "p_out": spec.p_out,
                                "seed": spec.seed}))
    return path


def _generated_digests(tmp_path, spec_path):
    assert main(["generate", str(spec_path),
                 "--out-prefix", str(tmp_path / "run")]) == EXIT_OK
    return {suffix: hashlib.sha256(
        (tmp_path / f"run{suffix}").read_bytes()).hexdigest()
        for suffix in (".edges.txt", ".truth.csv")}


def test_generate_output_digests_are_pinned(tmp_path):
    # the PCG64 stream contract: these files must not change by a byte
    # (digests of the 0.4.0 stream: geometric skips over each block pair)
    assert _generated_digests(tmp_path, _bench_spec_file(tmp_path, 600, 7)) \
        == {
        ".edges.txt": "1b29900794493c22aa8fb78bdf84892d"
                      "f7f47fa2ff5579492f59b794d8a74f0d",
        ".truth.csv": "8f01d874855e05bdb822d9bd1c02745f"
                      "dcd70c8dd9f2328fced378a408f95afc",
    }


def test_generate_output_digests_are_pinned_for_every_thread_count(
        tmp_path):
    # 4M pairs: the sampler draws them on one thread on every machine, so
    # these digests hold whatever the core count (no option or variable
    # sets a thread count)
    assert _generated_digests(tmp_path, _bench_spec_file(tmp_path, 2000, 7)) \
        == {
        ".edges.txt": "03ddb119afc8cb9d974d4d28d92c05a7"
                      "e9906f15cbfbfbe582ad3f98b38e7d0e",
        ".truth.csv": "3688a6b672ae780f8d92674d734abe25"
                      "730cea398256f89ea781917bf736b9c3",
    }


def test_generate_sampler_error_is_one_line_and_writes_nothing(
        tmp_path, monkeypatch, capsys):
    # the sampler fails on its second block pair: exit 1 with one error
    # line, and no output file or directory
    from rolekit import graph
    sample, calls = graph._block_hits, []

    def failing(*args):
        calls.append(1)
        if len(calls) == 2:
            raise MemoryError
        return sample(*args)
    monkeypatch.setattr("rolekit.graph._block_hits", failing)
    out = tmp_path / "out"
    assert main(["generate", str(_bench_spec_file(tmp_path, 2000, 7)),
                 "--out-prefix", str(out / "run")]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: MemoryError\n" and captured.out == ""
    assert not out.exists() and len(calls) == 2


def test_generate_bad_spec_is_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["generate", str(path),
                 "--out-prefix", str(tmp_path / "x")]) == EXIT_ERROR


_NO_OBJECT = "spec must be a JSON object, got list"


@pytest.mark.parametrize("spec, message", [
    ({}, "spec lacks required field(s): B, sizes, p_in, p_out, seed"),
    ({"B": CYCLE3, "sizes": [4, 4, 4], "p_in": 1.0, "seed": 1},
     "spec lacks required field(s): p_out"),
    ({"sizes": [4, 4, 4], "p_in": 1.0, "p_out": 0.0, "seed": 1},
     "spec lacks required field(s): B"),
    ({"B": CYCLE3, "sizes": [4, 4, 4], "p_in": 1.0, "p_out": 0.0},
     "spec lacks required field(s): seed"),
    ([CYCLE3], _NO_OBJECT),
    ({"B": CYCLE3, "sizes": [4, 4, 4], "p_in": 1.0, "p_out": 0.0,
      "seed": "x"},
     "spec field 'seed': invalid literal for an integer: \"x\""),
    ({"B": CYCLE3, "sizes": 4, "p_in": 1.0, "p_out": 0.0, "seed": 1},
     "sizes must be a list as long as B"),
])
def test_generate_malformed_spec_is_one_line_error(tmp_path, capsys, spec,
                                                   message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["generate", str(path),
                 "--out-prefix", str(tmp_path / "x")]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.edges.txt").exists()


@pytest.mark.parametrize("command, extra, names", [
    ("generate", {"pin": 0.9}, "'pin'"),
    ("generate", {"see\nd": 1}, "'see\\nd'"),
    ("sweep", {"realisations": 3}, "'realisations'"),
    ("sweep", {"p_in": 0.9, "p_out": 0.05}, "'p_in', 'p_out'"),
])
def test_unknown_spec_field_is_one_line_error(tmp_path, capsys, command,
                                              extra, names):
    if command == "generate":
        spec = write_spec(tmp_path, **extra)
        argv = ["generate", str(spec), "--out-prefix", str(tmp_path / "u")]
    else:
        spec = write_spec(tmp_path, sweep=True, grid_step=0.5,
                          realizations=1, r=3, k_mode="fixed", k=3, **extra)
        argv = ["sweep", str(spec), "--out", str(tmp_path / "u.csv")]
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == \
        f"error: spec has unknown field(s): {names}\n"
    assert list(tmp_path.glob("u.*")) == []


@pytest.mark.parametrize("command, field, value, kind", [
    ("generate", "seed", 1.5, "an integer"),
    ("generate", "seed", "7", "an integer"),
    ("generate", "seed", True, "an integer"),
    ("generate", "sizes", [40.9, 40, 40], "an integer array"),
    ("generate", "B", [[0, 1, 0], [0, 0, True], [1, 0, 0]],
     "an integer array"),
    ("generate", "p_in", True, "a number"),
    ("generate", "p_in", "0.5", "a number"),
    ("generate", "p_out", None, "a number"),
    ("sweep", "r", 2.9, "an integer"),
    ("sweep", "realizations", 2.5, "an integer"),
    ("sweep", "k", True, "an integer"),
    ("sweep", "beta", False, "a number"),
    ("sweep", "beta", None, "a number"),
    ("sweep", "grid_step", "0.5", "a number"),
    ("sweep", "measure", 1, "a string"),
])
def test_spec_value_of_wrong_json_type_is_one_line_error(
        tmp_path, capsys, command, field, value, kind):
    # no coercion: each of these parsed (truncated or cast) before
    if command == "generate":
        spec = write_spec(tmp_path, **{field: value})
        argv = ["generate", str(spec), "--out-prefix", str(tmp_path / "t")]
    else:
        base = dict(grid_step=0.5, realizations=1, r=3, k_mode="fixed", k=3)
        spec = write_spec(tmp_path, sweep=True, **{**base, field: value})
        argv = ["sweep", str(spec), "--out", str(tmp_path / "t.csv")]
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: spec field {field!r}: invalid literal for {kind}: "
        f"{json.dumps(value)}\n")
    assert list(tmp_path.glob("t.*")) == []


def test_spec_accepts_exact_json_types(tmp_path):
    # integers are numbers
    spec = write_spec(tmp_path, sweep=True, grid_step=0.5, realizations=1,
                      r=3, k_mode="fixed", k=3, beta=0, within_threshold=1)
    parsed = SweepSpec.from_json(spec.read_text())
    assert parsed.beta == 0.0 and parsed.within_threshold == 1.0
    assert isinstance(parsed.beta, float)
    assert isinstance(parsed.within_threshold, float)


def test_dotted_out_prefix_keeps_every_part(tmp_path):
    # runs under exp.1 and exp.2 must not overwrite each other's files
    spec = write_spec(tmp_path)
    for run in ("exp.1", "exp.2"):
        assert main(["generate", str(spec), "--out-prefix",
                     str(tmp_path / "o" / run)]) == EXIT_OK
    graph = tmp_path / "o" / "exp.1.edges.txt"
    assert main(["extract", str(graph), "-r", "3", "--k", "3",
                 "--save-factor", "--out-prefix",
                 str(tmp_path / "o" / "res.2024")]) == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
        "exp.1.edges.txt", "exp.1.truth.csv",
        "exp.2.edges.txt", "exp.2.truth.csv",
        "res.2024.factor.csv", "res.2024.factor.json",
        "res.2024.partition.csv", "res.2024.reduced.json",
        "res.2024.validation.json"]


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

@pytest.fixture
def generated(tmp_path):
    spec = write_spec(tmp_path)
    main(["generate", str(spec), "--out-prefix", str(tmp_path / "run")])
    return tmp_path / "run.edges.txt", tmp_path / "run.truth.csv"


def test_extract_end_to_end_perfect_recovery(tmp_path, generated):
    graph, truth = generated
    code = main(["extract", str(graph), "--out-prefix", str(tmp_path / "ex"),
                 "-r", "3", "--k", "3", "--seed", "5"])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "ex.validation.json").read_text())
    assert report["passed"] is True
    assert list(report) == ["min_within", "max_between", "passed", "failed",
                            "restarts_used", "objective", "k", "measure",
                            "beta", "iterations"]
    reduced = json.loads((tmp_path / "ex.reduced.json").read_text())
    assert reduced["k"] == 3 and reduced["threshold"] == 0.1
    with open(tmp_path / "ex.partition.csv") as fh:
        found = rk.load_partition(fh)
    with open(truth) as fh:
        expected = rk.load_partition(fh)
    assert rk.nmi(found, expected) == 1.0
    # the reduced graph matches B after aligning the recovered cluster ids:
    # found cluster i plays truth role perm[i]
    perm = np.argmax(rk.contingency(found, expected).n_xy, axis=1)
    edges = np.asarray(reduced["edges"])
    b = np.asarray(CYCLE3)
    assert np.array_equal(edges, b[np.ix_(perm, perm)])


def test_extract_peak_memory_is_near_the_graph_size(tmp_path):
    # One extract op on the ARPACK path holds the graph's two CSR halves
    # (24 bytes per edge) and, per phase, the load's ids and text, the
    # COO -> CSR build's ones or the solve's length-n vectors; no
    # concatenated [A | A^T], no int64 ids and no per-edge temporaries.
    # Measured 35.9 bytes per edge here.
    import tracemalloc
    from rolekit.cli import bench_spec
    graphs = {}
    for n in (600, 4000):  # the small op warms up lazily imported modules
        g, _ = rk.generate_planted(bench_spec(n, 3, 1))
        graphs[n] = tmp_path / f"g{n}.edges.txt", g.num_edges
        with open(graphs[n][0], "w") as fh:
            rk.save_edge_list(g, fh)
    del g
    argv = ["-r", "3", "--k", "3", "--out-prefix", str(tmp_path / "x")]
    assert main(["extract", str(graphs[600][0]), *argv]) == EXIT_OK
    path, edges = graphs[4000]
    assert edges > 100_000
    tracemalloc.start()
    try:
        assert main(["extract", str(path), *argv]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 44 * edges


def test_extract_scoreable_via_nmi_subcommand(tmp_path, generated, capsys):
    graph, truth = generated
    main(["extract", str(graph), "--out-prefix", str(tmp_path / "ex"),
          "-r", "3", "--k", "3", "--seed", "5"])
    capsys.readouterr()
    assert main(["nmi", str(tmp_path / "ex.partition.csv"),
                 str(truth)]) == EXIT_OK
    assert float(capsys.readouterr().out.strip()) == 1.0


@pytest.mark.parametrize("k, failed, restarts_used", [
    (3, [], 1), (5, ["between"], rk.EstimateConfig().max_restarts)])
def test_extract_validation_names_failed_checks(tmp_path, generated, k,
                                                failed, restarts_used):
    graph, _ = generated
    main(["extract", str(graph), "--out-prefix", str(tmp_path / "ex"),
          "-r", "5", "--k", str(k), "--seed", "1"])
    report = json.loads((tmp_path / "ex.validation.json").read_text())
    assert (report["passed"], report["failed"], report["restarts_used"]) \
        == (not failed, failed, restarts_used)


def test_extract_oversplit_exits_two(tmp_path, generated):
    graph, _ = generated
    code = main(["extract", str(graph), "--out-prefix", str(tmp_path / "ov"),
                 "-r", "5", "--k", "5", "--seed", "1", "--max-restarts", "5"])
    assert code == EXIT_VALIDATION_FAILED
    report = json.loads((tmp_path / "ov.validation.json").read_text())
    assert report["passed"] is False
    assert (tmp_path / "ov.partition.csv").exists()


def test_extract_on_the_complete_graph_writes_one_partition(tmp_path):
    # n = 600, on the Gram operator: this rank-1 graph's noise columns lie
    # far below round-off of the Perron column, and every call writes the
    # same partition
    g, _ = rk.generate_planted(rk.BenchmarkSpec(
        CYCLE3, [200, 200, 200], 1.0, 1.0, 0))
    path = tmp_path / "complete.edges.txt"
    with open(path, "w") as fh:
        rk.save_edge_list(g, fh)
    partitions = set()
    for run in range(4):
        out = tmp_path / f"run{run}"
        assert main(["extract", str(path), "-r", "3", "--k", "3",
                     "--out-prefix", str(out)]) == EXIT_VALIDATION_FAILED
        partitions.add((tmp_path / f"run{run}.partition.csv").read_bytes())
    assert len(partitions) == 1


def test_extract_on_the_complete_graph_is_byte_reproducible(tmp_path):
    # n = 600, rank 1: ARPACK meets an invariant subspace and draws its
    # restart vectors from the kernel's fixed stream, so the noise columns,
    # and with them validation.json's objective and the factor, are the
    # same bits in every call
    g, _ = rk.generate_planted(rk.BenchmarkSpec(
        CYCLE3, [200, 200, 200], 1.0, 1.0, 0))
    path = tmp_path / "complete.edges.txt"
    with open(path, "w") as fh:
        rk.save_edge_list(g, fh)
    outputs = set()
    for run in range(4):
        out = tmp_path / f"run{run}"
        assert main(["extract", str(path), "-r", "3", "--k", "3",
                     "--save-factor", "--out-prefix", str(out)]) \
            == EXIT_VALIDATION_FAILED
        outputs.add(tuple(
            (tmp_path / f"run{run}.{name}").read_bytes()
            for name in ("validation.json", "factor.csv", "partition.csv")))
    assert len(outputs) == 1


def test_extract_zero_restart_budget_is_one_line_error(tmp_path, generated,
                                                       capsys):
    graph, _ = generated
    code = main(["extract", str(graph), "--out-prefix", str(tmp_path / "z"),
                 "-r", "3", "--k", "3", "--max-restarts", "0"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: max_restarts must be >= 1")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["extract", "g.txt", "--k", "abc", "-r", "3", "--out-prefix", "x"],
     "rolekit extract: argument --k: invalid int value: 'abc'"),
    ([], "rolekit: the following arguments are required: command"),
])
def test_usage_error_is_one_line_error(capsys, argv, message):
    # exit 2 would read as "cluster validation failed"
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


def test_readme_command_lines_parse():
    # every "rolekit ..." line of the README's code blocks parses, and
    # together they show every subcommand
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    commands = [shlex.split(line)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("rolekit ")]
    for argv in commands:
        build_parser().parse_args(argv)
    assert {argv[0] for argv in commands} == {
        "generate", "extract", "nmi", "sweep", "hist", "bench"}


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["extract", "--help"])
    assert stop.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: rolekit extract")


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 149. GiB for an array"),
     "Unable to allocate 149. GiB for an array"),
    (MemoryError(), "MemoryError"),
])
def test_memory_error_is_one_line_error(tmp_path, capsys, exc, message):
    # a node count like "# n=20000000000" fails to allocate the graph
    graph = tmp_path / "g.txt"
    graph.write_text("# n=20000000000\n0 1\n")
    with mock.patch("rolekit.cli.load_edge_list", side_effect=exc):
        code = main(["extract", str(graph), "--out-prefix",
                     str(tmp_path / "m"), "-r", "3", "--k", "3"])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.glob("m.*")) == []


def test_extract_kmode_svd(tmp_path, generated, capsys):
    graph, _ = generated
    code = main(["extract", str(graph), "--out-prefix", str(tmp_path / "sv"),
                 "-r", "6", "--k-mode", "svd", "--seed", "5"])
    assert code == EXIT_OK
    est = json.loads((tmp_path / "sv.kestimate.json").read_text())
    assert est["method"] == "svd" and est["k"] == 3
    assert len(est["trace"]["sigma"]) == 6


def test_extract_kmode_kmoving(tmp_path, generated):
    graph, _ = generated
    code = main(["extract", str(graph), "--out-prefix", str(tmp_path / "km"),
                 "-r", "5", "--k-mode", "kmoving", "--seed", "5"])
    assert code == EXIT_OK
    est = json.loads((tmp_path / "km.kestimate.json").read_text())
    assert est["k"] == 3
    assert [s["k"] for s in est["trace"]["steps"]] == [5, 4, 3]


@pytest.mark.parametrize("k_mode,r,seed", [("hierarchical", 5, 5),
                                           ("hierarchical", 6, 11),
                                           ("kmoving", 5, 5),
                                           ("kmoving", 4, 11)])
def test_extract_estimator_randomness_never_reaches_the_output(
        tmp_path, generated, k_mode, r, seed):
    # the roles come from one validated clustering on the extract stream,
    # so an estimated k writes the bytes a known k of the same value does
    graph, _ = generated
    common = [str(graph), "-r", str(r), "--seed", str(seed)]
    main(["extract", *common, "--out-prefix", str(tmp_path / "est"),
          "--k-mode", k_mode])
    k = json.loads((tmp_path / "est.kestimate.json").read_text())["k"]
    assert k == 3
    main(["extract", *common, "--out-prefix", str(tmp_path / "known"),
          "--k", str(k)])
    for suffix in (".partition.csv", ".validation.json", ".reduced.json"):
        assert (tmp_path / f"est{suffix}").read_bytes() \
            == (tmp_path / f"known{suffix}").read_bytes(), suffix


@pytest.mark.parametrize("threshold", ["2", "-0.5", "nan"])
def test_extract_density_threshold_checked_before_the_pipeline(
        tmp_path, generated, capsys, monkeypatch, threshold):
    def never(*args, **kwargs):
        raise AssertionError("graph loaded despite a bad option")
    monkeypatch.setattr("rolekit.cli.load_edge_list", never)
    graph, _ = generated
    capsys.readouterr()
    code = main(["extract", str(graph), "--out-prefix", str(tmp_path / "d"),
                 "-r", "3", "--k", "3", "--density-threshold", threshold])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == f"error: density threshold must lie in [0, 1], " \
                  f"got {float(threshold)}\n"
    assert list(tmp_path.glob("d.*")) == []


@pytest.mark.parametrize("k", ["0", "-1"])
def test_extract_nonpositive_k_fails_before_the_graph_is_read(
        tmp_path, generated, capsys, monkeypatch, k):
    def never(*args, **kwargs):
        raise AssertionError("graph loaded despite a bad option")
    monkeypatch.setattr("rolekit.cli.load_edge_list", never)
    graph, _ = generated
    capsys.readouterr()
    code = main(["extract", str(graph), "--out-prefix", str(tmp_path / "k"),
                 "-r", "3", "--k", k])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: k must be >= 1, got {k}\n"
    assert list(tmp_path.glob("k.*")) == []


def test_negative_seed_fails_before_any_work(tmp_path, generated, capsys,
                                            monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("work started despite a negative seed")
    monkeypatch.setattr("rolekit.cli.load_edge_list", never)
    monkeypatch.setattr("rolekit.cli.generate_planted", never)
    graph, _ = generated
    capsys.readouterr()
    for argv in (["extract", str(graph), "--out-prefix", str(tmp_path / "s"),
                  "-r", "3", "--k", "3", "--seed", "-1"],
                 ["bench", "--sizes", "60", "--measures", "salton",
                  "--seed", "-1", "--out", str(tmp_path / "s.csv")]):
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert list(tmp_path.glob("s.*")) == []


@pytest.mark.parametrize("command, option, value, message", [
    ("extract", "--beta", "nan", "beta must be finite and >= 0, got nan"),
    ("extract", "--tol", "nan", "tol must be finite and positive, got nan"),
    ("extract", "--max-iter", "0", "max_iter must be >= 1, got 0"),
    ("hist", "--beta", "inf", "beta must be finite and >= 0, got inf"),
])
@pytest.mark.parametrize("measure", ["browet", "salton"])
def test_factor_options_checked_before_the_pipeline(
        tmp_path, generated, capsys, monkeypatch, command, option, value,
        message, measure):
    # salton reads none of them, yet a bad value is still an error
    def never(*args, **kwargs):
        raise AssertionError("graph loaded despite a bad option")
    monkeypatch.setattr("rolekit.cli.load_edge_list", never)
    graph, _ = generated
    extra = (["--out-prefix", str(tmp_path / "f"), "--k", "3"]
             if command == "extract" else ["--out", str(tmp_path / "f.csv")])
    capsys.readouterr()
    code = main([command, str(graph), "-r", "3", "--measure", measure,
                 option, value, *extra])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.glob("f.*")) == []


def _no_convergence_run(tmp_path, capsys, monkeypatch, n, options):
    # extract with every ARPACK call failing: exit 1, one error line, and
    # no file written
    import scipy.sparse.linalg as spla
    from rolekit.cli import _derived_seed, bench_spec
    g, _ = rk.generate_planted(bench_spec(n, 3, _derived_seed(3)))
    graph = tmp_path / "big.edges.txt"
    with open(graph, "w") as fh:
        rk.save_edge_list(g, fh)

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("No convergence (0/3 converged)",
                                       None, None)
    monkeypatch.setattr(spla, "eigsh", no_convergence)
    capsys.readouterr()
    code = main(["extract", str(graph), "--out-prefix", str(tmp_path / "a"),
                 "-r", "3", "--k", "3", *options])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ARPACK error") and err.count("\n") == 1
    assert list(tmp_path.glob("a.*")) == []


@pytest.mark.parametrize("options", [[], ["--beta", "0.001"],
                                     ["--measure", "salton"]])
def test_arpack_without_convergence_is_one_line_error(tmp_path, capsys,
                                                      monkeypatch, options):
    # n = 450 runs ARPACK on the Gram operator
    _no_convergence_run(tmp_path, capsys, monkeypatch, 450, options)


@pytest.mark.parametrize("options", [[], ["--measure", "salton"]])
def test_arpack_without_convergence_on_the_formed_gram_is_one_line_error(
        tmp_path, capsys, monkeypatch, options):
    # n = 300 runs ARPACK on the formed Gram, which can fail to converge
    # too
    _no_convergence_run(tmp_path, capsys, monkeypatch, 300, options)


@pytest.mark.parametrize("command", ["extract", "hist"])
@pytest.mark.parametrize("measure", ["browet", "salton"])
def test_zero_rank_is_one_line_error_for_both_measures(tmp_path, generated,
                                                      capsys, command,
                                                      measure):
    graph, _ = generated
    extra = (["--out-prefix", str(tmp_path / "z"), "--k", "1"]
             if command == "extract" else ["--out", str(tmp_path / "z.csv")])
    capsys.readouterr()
    code = main([command, str(graph), "-r", "0", "--measure", measure,
                 *extra])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == "error: rank r must be >= 1\n"
    assert list(tmp_path.glob("z.*")) == []


@pytest.mark.parametrize("command, option, value, message", [
    ("extract", "--beta", "nan", "beta must be finite and >= 0, got nan"),
    ("extract", "--beta", "inf", "beta must be finite and >= 0, got inf"),
    ("extract", "--tol", "nan", "tol must be finite and positive, got nan"),
    ("extract", "--max-iter", "0", "max_iter must be >= 1, got 0"),
    ("extract", "--within", "nan", "within_threshold must be finite, got nan"),
    ("extract", "--between", "inf",
     "between_threshold must be finite, got inf"),
    ("sweep", "within_threshold", math.nan,
     "within_threshold must be finite, got nan"),
    ("sweep", "beta", math.nan, "beta must be finite and >= 0, got nan"),
    ("extract", "--gap-factor", "nan", "gap_factor must be finite, got nan"),
    ("sweep", "gap_factor", math.nan, "gap_factor must be finite, got nan"),
])
def test_non_finite_option_is_one_line_error(tmp_path, generated, capsys,
                                             command, option, value, message):
    graph, _ = generated
    if command == "extract":
        argv = ["extract", str(graph), "--out-prefix", str(tmp_path / "nf"),
                "-r", "3", "--k", "3", option, value]
    else:
        spec = write_spec(tmp_path, sweep=True, grid_step=0.5,
                          realizations=1, r=3, k_mode="fixed", k=3,
                          **{option: value})
        argv = ["sweep", str(spec), "--out", str(tmp_path / "nf.csv")]
    capsys.readouterr()
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.glob("nf.*")) == []


@pytest.mark.parametrize("command", ["extract", "sweep"])
def test_svd_k_mode_below_rank_two_fails_before_any_work(
        tmp_path, generated, capsys, monkeypatch, command):
    def never(*args, **kwargs):
        raise AssertionError("work started despite a bad option")
    monkeypatch.setattr("rolekit.cli.load_edge_list", never)
    monkeypatch.setattr("rolekit.cli.generate_planted", never)
    graph, _ = generated
    if command == "extract":
        argv = ["extract", str(graph), "--out-prefix", str(tmp_path / "sv"),
                "-r", "1", "--k-mode", "svd"]
    else:
        spec = write_spec(tmp_path, sweep=True, grid_step=0.5,
                          realizations=1, r=1, k_mode="svd")
        argv = ["sweep", str(spec), "--out", str(tmp_path / "sv.csv")]
    capsys.readouterr()
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == "error: r must be >= 2\n"
    assert list(tmp_path.glob("sv.*")) == []


def test_extract_save_factor_sidecar(tmp_path, generated):
    graph, _ = generated
    main(["extract", str(graph), "--out-prefix", str(tmp_path / "fa"),
          "-r", "3", "--k", "3", "--save-factor"])
    meta = json.loads((tmp_path / "fa.factor.json").read_text())
    assert set(meta) == {"measure", "r", "beta", "iterations", "converged"}
    x = np.loadtxt(tmp_path / "fa.factor.csv", delimiter=",")
    assert x.shape == (120, 3)


def test_extract_salton_measure(tmp_path, generated):
    graph, truth = generated
    code = main(["extract", str(graph), "--out-prefix", str(tmp_path / "sa"),
                 "-r", "3", "--k", "3", "--measure", "salton", "--seed", "2"])
    assert code == EXIT_OK
    with open(tmp_path / "sa.partition.csv") as fh:
        found = rk.load_partition(fh)
    with open(truth) as fh:
        expected = rk.load_partition(fh)
    assert rk.nmi(found, expected) == 1.0


def test_isolated_top_ids_survive_generate_extract_nmi(tmp_path, capsys):
    # at this density the seed leaves the last node without an edge; the
    # "# n=300" line keeps it, so the partition covers all 300 nodes
    spec = write_spec(tmp_path, sizes=[100, 100, 100], p_in=0.006,
                      p_out=0.0, seed=5)
    run = str(tmp_path / "run")
    assert main(["generate", str(spec), "--out-prefix", run]) == EXIT_OK
    g = rk.load_edge_list((tmp_path / "run.edges.txt").read_text())
    assert g.n == 300 and edge_array(g).max() < 299
    main(["extract", f"{run}.edges.txt", "--out-prefix", run, "-r", "3",
          "--k", "3"])
    capsys.readouterr()
    assert main(["nmi", f"{run}.partition.csv", f"{run}.truth.csv"]) \
        == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == "" and 0.0 <= float(captured.out) <= 1.0


def test_extract_node_id_beyond_int64_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 9223372036854775808\n")
    assert main(["extract", str(path), "--out-prefix", str(tmp_path / "x"),
                 "-r", "1", "--k", "1"]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: line 2: node id 9223372036854775808 too large for a 64-bit "
        "index\n")


def test_extract_inferred_node_count_over_limit_is_one_line_error(
        tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n0 100000000000\n")
    assert main(["extract", str(path), "--out-prefix", str(tmp_path / "x"),
                 "-r", "1", "--k", "1"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: node id 100000000000 implies "
                          "100000000001 nodes")
    assert "--nodes" in err and err.count("\n") == 1


def test_extract_without_an_acceptable_k_writes_only_the_estimate(
        tmp_path, capsys):
    # over-rank (r = 2k) on a sparse benchmark graph: no k of the k-moving
    # scan validates, so the estimate is k = 0 and no roles are written.
    # At n = 2000 the angle bound proves every candidate unpassable, so no
    # candidate is clustered (at n = 200 the clustering at k = 6 reaches
    # min_within 0.899, which leaves no room for a bound below 0.9)
    spec = bench_spec(2000, 3, 1)
    path = write_spec(tmp_path, B=spec.B.tolist(), sizes=spec.sizes.tolist(),
                      p_in=spec.p_in, p_out=spec.p_out, seed=spec.seed)
    main(["generate", str(path), "--out-prefix", str(tmp_path / "g")])
    capsys.readouterr()
    code = main(["extract", str(tmp_path / "g.edges.txt"), "--out-prefix",
                 str(tmp_path / "ex"), "-r", "6", "--k-mode", "kmoving"])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err \
        == "no acceptable classification found (k=0)\n"
    est = json.loads((tmp_path / "ex.kestimate.json").read_text())
    assert est["k"] == 0
    assert [s["k"] for s in est["trace"]["steps"]] == [6, 5, 4, 3, 2, 1]
    for step in est["trace"]["steps"]:
        assert step["passed"] is False and "min_within" not in step
        assert step["min_within_bound"] < 0.9
    assert [p.name for p in tmp_path.glob("ex.*")] == ["ex.kestimate.json"]


@pytest.mark.parametrize("command, extra", [
    ("extract", ["--k", "1", "--out-prefix", "x"]), ("hist", [])])
def test_undecodable_graph_is_one_line_error(tmp_path, capsys, monkeypatch,
                                             command, extra):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_bytes(b"0 1\n\xff 2\n")
    assert main([command, "g.txt", "-r", "1", *extra]) == EXIT_ERROR
    assert capsys.readouterr() == ("", "error: 'utf-8' codec can't decode "
                                   "byte 0xff in position 4: invalid start "
                                   "byte\n")
    assert [p.name for p in tmp_path.iterdir()] == ["g.txt"]


def test_extract_outputs_do_not_depend_on_line_endings(tmp_path, generated):
    # the graph file is read as bytes, and \r\n and \r end a line as \n
    raw = generated[0].read_bytes()
    outputs = []
    for name, ending in (("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")):
        path = tmp_path / f"{name}.edges.txt"
        path.write_bytes(raw.replace(b"\n", ending))
        assert main(["extract", str(path), "--out-prefix",
                     str(tmp_path / f"{name}.ex"), "-r", "3", "--k", "3",
                     "--seed", "5", "--save-factor"]) == EXIT_OK
        outputs.append({p.name[len(name):]: p.read_bytes()
                        for p in tmp_path.glob(f"{name}.ex.*")})
    assert len(outputs[0]) == 5 and outputs.count(outputs[0]) == 3


def test_extract_missing_file_is_error(tmp_path):
    assert main(["extract", str(tmp_path / "nope.txt"), "--out-prefix",
                 str(tmp_path / "x"), "-r", "3", "--k", "3"]) == EXIT_ERROR


def test_extract_foodweb_scale_real_input(tmp_path):
    # 122-node noisy pipeline viability: completes and emits a 3-role
    # reduced graph; partition content is not asserted
    spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[40, 41, 41], p_in=0.25,
                            p_out=0.03, seed=22)
    g, _ = rk.generate_planted(spec)
    path = tmp_path / "web.txt"
    with open(path, "w") as fh:
        rk.save_edge_list(g, fh)
    code = main(["extract", str(path), "--out-prefix", str(tmp_path / "web"),
                 "-r", "3", "--k", "3", "--seed", "1"])
    assert code in (EXIT_OK, EXIT_VALIDATION_FAILED)
    reduced = json.loads((tmp_path / "web.reduced.json").read_text())
    assert reduced["k"] == 3
    assert len(reduced["density"]) == 3


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_grid_values_step_quarter():
    assert _grid_values(0.25) == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_sweep_row_count_and_corner(tmp_path):
    spec = SweepSpec(B=np.array(CYCLE3), sizes=np.array([40, 40, 40]),
                     seed=3, grid_step=0.5, realizations=1, r=3,
                     k_mode="fixed", k=3)
    rows = run_sweep(spec)
    assert len(rows) == 9
    cell = {(p_in, p_out): m for p_in, p_out, m, _, _ in rows}
    assert cell[(1.0, 0.0)] == 1.0
    assert cell[(0.5, 0.5)] <= 0.3 or math.isnan(cell[(0.5, 0.5)])


def test_sweep_cli_csv_shape(tmp_path):
    spec = write_spec(tmp_path, sweep=True, grid_step=0.5, realizations=1,
                      r=3, k_mode="fixed", k=3, measure="salton",
                      clusterer="kmeans")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(spec), "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == ["p_in", "p_out", "mean_nmi", "std_nmi", "mean_seconds"]
    assert len(rows) == 1 + 9
    assert rows[1][:2] == ["0.0", "0.0"]


def test_sweep_deterministic(tmp_path):
    spec = SweepSpec(B=np.array(CYCLE3), sizes=np.array([20, 20, 20]),
                     seed=5, grid_step=0.5, realizations=2, r=3,
                     k_mode="fixed", k=3)
    a = run_sweep(spec)
    b = run_sweep(spec)
    for row_a, row_b in zip(a, b):
        assert row_a[:4] == row_b[:4] or (
            math.isnan(row_a[2]) and math.isnan(row_b[2]))


def test_sweep_parallel_matches_serial():
    spec = SweepSpec(B=np.array(CYCLE3), sizes=np.array([20, 20, 20]),
                     seed=5, grid_step=0.5, realizations=1, r=3,
                     k_mode="fixed", k=3)
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    for row_s, row_p in zip(serial, parallel):
        assert row_s[:2] == row_p[:2]
        assert row_s[2] == row_p[2] or (math.isnan(row_s[2]) and
                                        math.isnan(row_p[2]))


def test_sweep_rows_are_the_same_in_worker_processes_at_the_corners():
    # grid {0, 0.5, 1}: the (0, 0) cell is the empty graph and the (1, 1)
    # cell the complete graph, whose noise columns come from ARPACK's
    # restart vectors; n = 450 runs on the Gram operator. A worker process
    # draws them from the same fixed stream, so every row is the same bits
    spec = SweepSpec(B=np.array(CYCLE3), sizes=np.array([150, 150, 150]),
                     seed=5, grid_step=0.5, realizations=2, r=3,
                     k_mode="fixed", k=3)
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    assert [row[:2] for row in serial][::4] == [(0.0, 0.0), (0.5, 0.5),
                                                (1.0, 1.0)]
    np.testing.assert_array_equal([row[:4] for row in serial],
                                  [row[:4] for row in parallel])


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records the number of workers
    asked for and maps in this process."""

    def __init__(self, recorded, max_workers):
        recorded.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def _pool_sizes(monkeypatch, cpus, workers):
    # the number of workers run_sweep asks its pool for on a 9-cell grid
    # with `cpus` usable CPUs; its rows are checked against a serial run
    recorded = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        lambda max_workers: _SerialPool(recorded, max_workers))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    spec = SweepSpec(B=np.array(CYCLE3), sizes=np.array([20, 20, 20]),
                     seed=5, grid_step=0.5, realizations=1, r=3,
                     k_mode="fixed", k=3)
    pooled = run_sweep(spec, workers=workers)
    np.testing.assert_array_equal([row[:4] for row in pooled],
                                  [row[:4] for row in run_sweep(spec)])
    return recorded


def test_sweep_pool_has_no_more_workers_than_cells(monkeypatch):
    # the pool starts all its workers at once, so more than one per cell
    # would only start idle processes
    assert _pool_sizes(monkeypatch, cpus=64, workers=64) == [9]


@pytest.mark.parametrize("cpus, workers, pooled", [(4, 5000, [4]),
                                                   (2, 3, [2]),
                                                   (1, 5000, [])])
def test_sweep_pool_has_no_more_workers_than_usable_cpus(monkeypatch, cpus,
                                                         workers, pooled):
    # nor more than one per CPU the process may run on; with one, the
    # cells run in this process and no pool starts
    assert _pool_sizes(monkeypatch, cpus, workers) == pooled


def test_sweep_workers_forked_after_threaded_gram_solves_give_the_same_rows(
        monkeypatch):
    # at p_in = 1 the cycle-3 graph of three 200-node blocks has 120k
    # edges, above _THREADED_EDGES: the serial run's solves take the
    # two-thread Gram product in this process, so the workers are forked
    # from a process that has run it; each solve's worker thread is gone
    # by then, and the workers' own solves give the same rows
    import threading
    from rolekit import similarity
    pools = []

    class PoolSpy(similarity.ThreadPoolExecutor):
        def __init__(self, *args):
            pools.append(self)
            super().__init__(*args)
    monkeypatch.setattr(similarity, "ThreadPoolExecutor", PoolSpy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    spec = SweepSpec(B=np.array(CYCLE3), sizes=np.array([200, 200, 200]),
                     seed=5, grid_step=0.5, realizations=1, r=3,
                     k_mode="fixed", k=3)
    threads = threading.active_count()
    serial = run_sweep(spec, workers=1)
    assert pools and threading.active_count() == threads
    parallel = run_sweep(spec, workers=2)
    np.testing.assert_array_equal([row[:4] for row in serial],
                                  [row[:4] for row in parallel])


_LAYOUT_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
_GRID_HALF = [0.0, 0.5, 1.0]


def _seed_of(*words):
    return int(np.random.SeedSequence(list(words)).generate_state(
        1, np.uint64)[0])


@pytest.fixture(scope="module")
def layout_realizations():
    """Per realization of the seed-3 cycle-3 sweep (grid step 0.25, two
    realizations): its truth, its factor rows and the seed of its
    clustering stream."""
    out = {}
    for i, p_in in enumerate(_LAYOUT_GRID):
        for j, p_out in enumerate(_LAYOUT_GRID):
            for t in (0, 1):
                g, truth = rk.generate_planted(rk.BenchmarkSpec(
                    CYCLE3, [40, 40, 40], p_in, p_out, _seed_of(3, i, j, t, 0)))
                x = rk.browet_factor(g, rk.SimilarityConfig(r=3)).X
                out[i, j, t] = truth, x, _seed_of(3, i, j, t, 1)
    return out


@pytest.mark.parametrize("clusterer", ["kmeans", "kmeans_validated"])
@pytest.mark.parametrize("k_mode", ["fixed", "kmoving", "hierarchical",
                                    "svd"])
def test_sweep_streams_follow_the_documented_layout(layout_realizations,
                                                    k_mode, clusterer):
    # a realization's clustering draws on its generator itself; only an
    # estimated k first spawns the estimator's stream from it, which moves
    # the child counter cluster_validated's own spawn reads
    spec = SweepSpec(B=np.array(CYCLE3), sizes=np.array([40, 40, 40]),
                     seed=3, grid_step=0.25, realizations=2, r=3,
                     k_mode=k_mode, k=3 if k_mode == "fixed" else 0,
                     clusterer=clusterer, max_restarts=3)
    cfg = rk.EstimateConfig(max_restarts=3)
    estimators = {"kmoving": lambda x, s: rk.k_moving(x, 3, s, cfg),
                  "hierarchical":
                      lambda x, s: rk.hierarchical_estimate(x, 3, s, cfg),
                  "svd": lambda x, s: rk.svd_estimate(x, 3)}

    def score(truth, x, seed):
        stream = rng(seed)
        k = 3
        if k_mode != "fixed":
            k = estimators[k_mode](x, stream.spawn(1)[0]).k
            if k == 0:
                return math.nan
        try:
            if clusterer == "kmeans":
                xn = rk.normalize_rows(x)
                model = rk.kmeans(xn, k, rk.kmeans_pp_init(xn, k, stream))
            else:
                model = rk.cluster_validated(x, k, stream, cfg)[0]
        except rk.DegenerateDataError:
            return math.nan
        return rk.nmi(truth, model.labels)

    expected = []
    for i, p_in in enumerate(_LAYOUT_GRID):
        for j, p_out in enumerate(_LAYOUT_GRID):
            scores = [score(*layout_realizations[i, j, t]) for t in (0, 1)]
            expected.append((p_in, p_out, np.mean(scores), np.std(scores)))
    rows = [row[:4] for row in run_sweep(spec)]
    np.testing.assert_array_equal(rows, expected)


def test_sweep_nan_rows_keep_grid_rectangular():
    # a beta this large diverges on every graph with edges; those cells
    # must come back NaN, in their places on the grid
    spec = SweepSpec(B=np.array(CYCLE3), sizes=np.array([20, 20, 20]),
                     seed=1, grid_step=0.5, realizations=1, r=3,
                     k_mode="fixed", k=3, beta=1e150)
    rows = run_sweep(spec)
    assert [row[:2] for row in rows] == [(p_in, p_out) for p_in in _GRID_HALF
                                         for p_out in _GRID_HALF]
    assert all(math.isnan(row[2]) for row in rows if row[:2] != (0.0, 0.0))


def test_sweep_corner_cells_score():
    # at the default beta the empty (0, 0) and the complete (1, 1) graph
    # have a factor like any other, so their cells score
    spec = SweepSpec(B=np.array(CYCLE3), sizes=np.array([20, 20, 20]),
                     seed=1, grid_step=0.5, realizations=2, r=3,
                     k_mode="fixed", k=3)
    cell = {row[:2]: row[2:4] for row in run_sweep(spec)}
    for corner in ((0.0, 0.0), (1.0, 1.0)):
        assert np.isfinite(cell[corner]).all()
        assert 0.0 <= cell[corner][0] <= 1.0


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_nonpositive_workers_is_one_line_error(tmp_path, capsys,
                                                     workers):
    spec = write_spec(tmp_path, sweep=True, grid_step=0.5, realizations=1,
                      r=3, k_mode="fixed", k=3)
    code = main(["sweep", str(spec), "--workers", workers,
                 "--out", str(tmp_path / "sweep.csv")])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == f"error: workers must be >= 1, got {workers}\n"
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("spec, message", [
    ({}, "spec lacks required field(s): B, sizes, seed, r"),
    ({"sizes": [4, 4, 4], "seed": 1, "r": 3, "k": 3},
     "spec lacks required field(s): B"),
    ({"B": CYCLE3, "sizes": [4, 4, 4], "r": 3, "k": 3},
     "spec lacks required field(s): seed"),
    ([CYCLE3], _NO_OBJECT),
    ({"B": CYCLE3, "sizes": [4, 4], "seed": 1, "r": 3, "k": 3},
     "sizes must be a list as long as B"),
    ({"B": CYCLE3, "sizes": [4, 4, 4], "seed": 1, "r": 3, "k": "three"},
     "spec field 'k': invalid literal for an integer: \"three\""),
])
def test_sweep_malformed_spec_is_one_line_error(tmp_path, capsys, spec,
                                                message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["sweep", str(path), "--out", str(tmp_path / "sweep.csv")])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("overrides, message", [
    ({"B": [[0, 1, 0], [0, 0, 1]]}, "B must be square"),
    ({"B": [[0, 1], [1, 0]], "sizes": [5, -1]}, "sizes must be positive"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
])
def test_sweep_template_checked_before_any_cell_runs(tmp_path, capsys,
                                                     monkeypatch, overrides,
                                                     message):
    def never(*args, **kwargs):
        raise AssertionError("sweep ran despite a bad spec")
    monkeypatch.setattr("rolekit.cli.run_sweep", never)
    spec = write_spec(tmp_path, sweep=True, grid_step=0.5, realizations=1,
                      r=2, k_mode="fixed", k=2, **overrides)
    code = main(["sweep", str(spec), "--workers", "2",
                 "--out", str(tmp_path / "sweep.csv")])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("k_mode, k, message", [
    ("fixed", 0, "k must be >= 1, got 0"),
    ("fixed", -2, "k must be >= 1, got -2"),
    ("guess", 3, "unknown k_mode 'guess'"),
])
def test_sweep_k_options_fail_as_extracts_do(tmp_path, capsys, monkeypatch,
                                             k_mode, k, message):
    def never(*args, **kwargs):
        raise AssertionError("sweep ran despite a bad k option")
    monkeypatch.setattr("rolekit.cli.run_sweep", never)
    spec = write_spec(tmp_path, sweep=True, grid_step=0.5, realizations=1,
                      r=3, k_mode=k_mode, k=k)
    assert main(["sweep", str(spec), "--out", str(tmp_path / "k.csv")]) \
        == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "k.csv").exists()


@pytest.mark.parametrize("r, k, message", [
    (3, 7, "k=7 exceeds node count 6"),
    (7, 3, "rank 7 exceeds node count 6"),
])
def test_sweep_rank_or_k_above_node_count_fails_before_any_cell_runs(
        tmp_path, capsys, monkeypatch, r, k, message):
    def never(*args, **kwargs):
        raise AssertionError("sweep ran despite a bad spec")
    monkeypatch.setattr("rolekit.cli.generate_planted", never)
    spec = write_spec(tmp_path, sweep=True, sizes=[2, 2, 2], grid_step=0.5,
                      realizations=2, r=r, k_mode="fixed", k=k)
    assert main(["sweep", str(spec), "--out", str(tmp_path / "s.csv")]) \
        == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "s.csv").exists()


_SWEEP_FIELDS = {
    "B": st.just(CYCLE3), "sizes": st.lists(st.integers(-1, 50), max_size=3),
    "seed": st.integers(-2, 2 ** 70), "grid_step": st.floats(-0.1, 0.6),
    "realizations": st.integers(-1, 5),
    "measure": st.sampled_from(["browet", "salton", "x"]),
    "clusterer": st.sampled_from(["kmeans", "kmeans_validated", "x"]),
    "r": st.integers(-1, 5),
    "k_mode": st.sampled_from(["fixed", "kmoving", "hierarchical", "svd"]),
    "k": st.integers(-1, 5), "beta": st.none() | st.floats(),
    "max_restarts": st.integers(-1, 60),
}


@settings(max_examples=300, deadline=None)
@given(spec_texts(_SWEEP_FIELDS))
def test_sweep_spec_from_json_parses_or_raises_value_error(text):
    try:
        spec = SweepSpec.from_json(text)
    except ValueError:
        return
    assert spec.B.dtype == spec.sizes.dtype == np.int64
    assert 1 <= spec.r <= spec.sizes.sum() and spec.realizations >= 1


def test_sweep_unexpected_error_propagates(monkeypatch):
    # only the library's expected failures score NaN; a fault surfaces
    def broken(*args, **kwargs):
        raise TypeError("broken factor")
    monkeypatch.setattr("rolekit.cli.compute_factor", broken)
    spec = SweepSpec(B=np.array(CYCLE3), sizes=np.array([20, 20, 20]),
                     seed=1, grid_step=0.5, realizations=1, r=3,
                     k_mode="fixed", k=3)
    with pytest.raises(TypeError, match="broken factor"):
        run_sweep(spec)


def test_sweep_spec_json_roundtrip_covers_every_field():
    spec = SweepSpec(B=np.array(CYCLE3), sizes=np.array([20, 20, 20]),
                     seed=4, grid_step=0.25, realizations=3, measure="salton",
                     clusterer="kmeans", r=4, k_mode="svd", k=0, beta=0.01,
                     gap_factor=2.5, within_threshold=0.8,
                     between_threshold=0.6, max_restarts=7)
    text = json.dumps({key: value.tolist() if isinstance(value, np.ndarray)
                       else value for key, value in vars(spec).items()})
    again = SweepSpec.from_json(text)
    for key, value in vars(spec).items():
        assert np.array_equal(getattr(again, key), value), key


# ---------------------------------------------------------------------------
# hist
# ---------------------------------------------------------------------------

def test_hist_noiseless_mass_only_at_zero_and_one(tmp_path):
    spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[30, 30, 30], p_in=1.0,
                            p_out=0.0, seed=2)
    g, _ = rk.generate_planted(spec)
    path = tmp_path / "g.txt"
    with open(path, "w") as fh:
        rk.save_edge_list(g, fh)
    out = tmp_path / "hist.csv"
    assert main(["hist", str(path), "-r", "3", "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == ["bin_low", "count"]
    assert len(rows) == 1 + 200
    nonzero = {row[0] for row in rows[1:] if int(row[1]) > 0}
    assert nonzero == {"0.00", "0.99"}


def test_hist_two_modes_under_noise():
    # five-role structure at p=(0.8, 0.2): a within-cluster mode near 1 and
    # a between-cluster mode below 0.7, separated by an empty band
    from reference import BLOCKS5
    spec = rk.BenchmarkSpec(B=BLOCKS5, sizes=[200] * 5, p_in=0.8,
                            p_out=0.2, seed=4)
    g, _ = rk.generate_planted(spec)
    f = rk.browet_factor(g, rk.SimilarityConfig(r=5))
    counts = pairwise_inner_product_histogram(f.X)
    lows = np.round(np.arange(-1.0, 0.995, 0.01), 10)
    total = counts.sum()
    within_mode = counts[lows >= 0.95].sum() / total
    between_mode = counts[(lows >= 0.3) & (lows < 0.7)].sum() / total
    valley = counts[(lows >= 0.7) & (lows < 0.95)].sum() / total
    assert within_mode >= 0.15
    assert between_mode >= 0.5
    assert valley <= 0.01


@pytest.mark.parametrize("block", [7, 512])
def test_hist_blocks_count_every_pair_once(block):
    # 7 does not divide 50, so the last block is short
    x = rng(3).standard_normal((50, 3))
    counts = pairwise_inner_product_histogram(x, block=block)
    xn = rk.normalize_rows(x)
    vals = (xn @ xn.T)[np.triu_indices(len(xn), 1)]
    edges = np.round(np.arange(-1.0, 1.005, 0.01), 10)
    expected = np.histogram(np.clip(np.round(vals, 9), -1.0, 1.0),
                            bins=edges)[0]
    assert counts.sum() == 50 * 49 // 2
    assert np.array_equal(counts, expected)


def test_hist_single_node_empty(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("0 0\n")
    out = tmp_path / "h.csv"
    assert main(["hist", str(path), "-r", "1", "--beta", "0",
                 "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    assert all(int(row[1]) == 0 for row in rows[1:])


def test_hist_node_guard(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("0 6000\n")
    assert main(["hist", str(path), "-r", "1"]) == EXIT_ERROR


def test_hist_node_limit_is_one_line_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("rolekit.cli.HIST_NODE_LIMIT", 3)
    path = tmp_path / "g.txt"
    path.write_text("0 1\n2 3\n")
    out = tmp_path / "h.csv"
    assert main(["hist", str(path), "-r", "1", "--out", str(out)]) \
        == EXIT_ERROR
    assert capsys.readouterr().err == \
        "error: histogram limited to n <= 3, got 4\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_single_repetition_csv(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--sizes", "60,120", "--measures", "salton",
                 "--repetitions", "1", "-r", "3", "--k", "3",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == ["n", "measure", "seconds"]
    assert [row[:2] for row in rows[1:]] == [["60", "salton"],
                                             ["120", "salton"]]
    assert all(float(row[2]) > 0 for row in rows[1:])


def test_bench_prints_log_log_slope_on_stderr(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", "60,120", "--measures", "salton",
                 "--repetitions", "1", "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == ["n", "measure", "seconds"] and len(rows) == 3
    ns, seconds = zip(*[(int(n), float(s)) for n, _, s in rows[1:]])
    slope = np.polyfit(np.log(ns), np.log(seconds), 1)[0]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"salton: log-log slope {slope:.2f}\n"


@pytest.mark.parametrize("sizes, measures, err", [
    ("60,120", "browet,browet", "browet: log-log slope 1.00\n"),
    ("60,120", "browet,salton", "browet: log-log slope 1.00\n"
                                "salton: log-log slope 2.00\n"),
    ("60,60", "salton", ""),
])
def test_bench_slope_fits_each_measure_over_its_own_rows(
        capsys, monkeypatch, sizes, measures, err):
    # the CSV on stdout is unchanged; a slope needs two distinct sizes
    def fake_bench(sizes, measures, repetitions, r, k, seed):
        power = {"browet": 1, "salton": 2}
        return [(n, m, (n / 60) ** power[m] / 100)
                for n in sizes for m in measures]
    monkeypatch.setattr("rolekit.cli.run_bench", fake_bench)
    assert main(["bench", "--sizes", sizes, "--measures", measures]) \
        == EXIT_OK
    rows = fake_bench([int(n) for n in sizes.split(",")],
                      measures.split(","), 1, 3, 3, 0)
    expected = "n,measure,seconds\r\n" + "".join(
        f"{n},{m},{s!r}\r\n" for n, m, s in rows)
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == err


def test_bench_salton_only_resolves_no_beta(capsys, monkeypatch):
    # n=9 leaves browet's beta no rank-3 gap; salton reads no beta
    assert main(["bench", "--sizes", "9", "-r", "3", "--measures", "salton",
                 "--repetitions", "1"]) == EXIT_OK
    captured = capsys.readouterr()
    rows = list(csv.reader(captured.out.splitlines()))
    assert [row[:2] for row in rows] == [["n", "measure"], ["9", "salton"]]
    assert captured.err == ""

    def never(*args, **kwargs):
        raise AssertionError("beta resolved for a salton-only run")
    monkeypatch.setattr("rolekit.similarity.beta_estimate", never)
    assert [row[:2] for row in run_bench([60], ["salton"], 1, 3, 3, 0)] \
        == [(60, "salton")]


@pytest.mark.parametrize("repetitions", [0, -2])
def test_bench_nonpositive_repetitions_is_rejected(tmp_path, capsys,
                                                   repetitions):
    with pytest.raises(ValueError, match="repetitions must be >= 1"):
        run_bench([60], ["salton"], repetitions, 3, 3, 0)
    out = tmp_path / "bench.csv"
    code = main(["bench", "--sizes", "60", "--measures", "salton",
                 "--repetitions", str(repetitions), "--out", str(out)])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == \
        f"error: repetitions must be >= 1, got {repetitions}\n"
    assert not out.exists()


@pytest.mark.parametrize("k", [0, -1])
def test_bench_nonpositive_k_is_one_line_error(tmp_path, capsys, k):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--sizes", "60", "--measures", "salton",
                 "--repetitions", "1", "--k", str(k), "--out", str(out)])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: k must be >= 1, got {k}\n"
    assert not out.exists()


@pytest.mark.parametrize("sizes, bad", [("0,60", 0), ("60,2", 2),
                                       ("-5", -5)])
def test_bench_size_below_k_fails_before_any_graph(tmp_path, capsys,
                                                   monkeypatch, sizes, bad):
    def never(*args, **kwargs):
        raise AssertionError("graph generated despite a bad size")
    monkeypatch.setattr("rolekit.cli.generate_planted", never)
    out = tmp_path / "bench.csv"
    code = main(["bench", "--sizes", sizes, "--measures", "salton",
                 "--repetitions", "1", "--k", "3", "--out", str(out)])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == \
        f"error: size {bad} is below k=3: every role needs a node\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# nmi subcommand
# ---------------------------------------------------------------------------

def test_nmi_subcommand_scores_files(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("node,cluster\n0,0\n1,0\n2,1\n3,1\n")
    b.write_text("node,cluster\n0,1\n1,1\n2,0\n3,0\n")
    assert main(["nmi", str(a), str(b)]) == EXIT_OK
    assert float(capsys.readouterr().out.strip()) == 1.0


@pytest.mark.parametrize("row, problem", [
    ("2", "expected 2 fields 'node,cluster', got 1"),
    ("2,1,0", "expected 2 fields 'node,cluster', got 3"),
    ("2,x", "non-integer field in '2,x'"),
    ("2,9223372036854775808",
     "cluster label 9223372036854775808 outside the 64-bit range"),
])
def test_nmi_malformed_partition_row_names_its_line(tmp_path, capsys, row,
                                                     problem):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(f"node,cluster\n0,0\n1,0\n\n{row}\n3,1\n")
    b.write_text("node,cluster\n0,1\n1,1\n2,0\n3,0\n")
    assert main(["nmi", str(a), str(b)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: line 5: {problem}\n"
