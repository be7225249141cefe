import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from graphdsp import basis_cache
from graphdsp.cli import _build_parser, main
from graphdsp.fileio import (
    read_edge_list,
    read_signal,
    write_edge_list,
    write_filter,
    write_points,
    write_signal,
)
from graphdsp import Graph, GraphFilter, cycle_graph, sbm_graph


def run(*argv):
    return main([str(a) for a in argv])


def tree_bytes(root):
    # manifest.json embeds the --out path, so it is not comparable across runs
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())
            if p.name != "manifest.json"}


# ---------------------------------------------------------------------------
# gen


def test_gen_cycle(tmp_path):
    out = tmp_path / "c"
    assert run("gen", "cycle", 4, "--out", out) == 0
    g = read_edge_list(out / "graph.tsv")
    assert np.array_equal(g.adjacency, cycle_graph(4).adjacency)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"][:2] == ["gen", "cycle"]
    assert "graph.tsv" in manifest["outputs"]


def test_gen_path(tmp_path):
    out = tmp_path / "p"
    assert run("gen", "path", 3, "--out", out) == 0
    g = read_edge_list(out / "graph.tsv")
    assert not g.directed
    assert np.count_nonzero(g.adjacency) == 4


def test_gen_regular_rejects_odd_product(tmp_path):
    assert run("gen", "regular", 5, 3, "--out", tmp_path / "r") == 1


def test_gen_regular(tmp_path):
    out = tmp_path / "r"
    assert run("gen", "regular", 8, 3, "--seed", 1, "--out", out) == 0
    g = read_edge_list(out / "graph.tsv")
    assert np.all(g.adjacency.sum(axis=0) == 3)


def test_gen_knn_flags(tmp_path):
    pts = np.random.default_rng(0).random((12, 2))
    ppath = tmp_path / "pts.csv"
    write_points(ppath, pts)
    out = tmp_path / "k"
    assert run("gen", "knn", ppath, 3, "--symmetrize", "--unweighted",
               "--out", out) == 0
    g = read_edge_list(out / "graph.tsv")
    assert not g.directed
    assert set(np.unique(g.adjacency)) <= {0.0, 1.0}


def test_gen_sbm_writes_truth_and_is_seeded(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("gen", "sbm", 30, 0.5, 0.05, "--seed", 3, "--out", a) == 0
    assert run("gen", "sbm", 30, 0.5, 0.05, "--seed", 3, "--out", b) == 0
    assert tree_bytes(a) == tree_bytes(b)
    labels = read_signal(a / "labels.csv")
    assert set(np.unique(labels)) == {-1.0, 1.0}
    c = tmp_path / "c"
    assert run("gen", "sbm", 30, 0.5, 0.05, "--seed", 4, "--out", c) == 0
    assert tree_bytes(a) != tree_bytes(c)


@pytest.mark.parametrize("n, p, q, seed", [(2, 1.0, 1.0, 0), (7, 0.5, 0.5, 1),
                                           (30, 0.5, 0.05, 3), (301, 0.2, 0.01, 8),
                                           (2100, 0.01, 0.001, 5), (40, 0.0, 0.0, 2)])
def test_gen_sbm_writes_the_dense_draws_bytes(n, p, q, seed, tmp_path, monkeypatch):
    # the row-block draw against the N x N one it replaces; a small block
    # splits even the small graphs' rows over several draws
    import graphdsp.graph
    rng = np.random.default_rng(seed)
    member = np.where(np.arange(n) < n // 2, 1.0, -1.0)
    prob = np.where(member[:, None] == member[None, :], p, q)
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    write_edge_list(tmp_path / "graph.tsv", Graph((upper | upper.T).astype(float)))
    write_signal(tmp_path / "labels.csv", member)
    for block in (graphdsp.graph.ROW_BLOCK, 3 * n + 1):
        monkeypatch.setattr(graphdsp.graph, "ROW_BLOCK", block)
        out = tmp_path / str(block)
        assert run("gen", "sbm", n, p, q, "--seed", seed, "--out", out) == 0
        for name in ("graph.tsv", "labels.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_of_cycle(tmp_path):
    gdir = tmp_path / "g"
    run("gen", "cycle", 4, "--out", gdir)
    out = tmp_path / "s"
    assert run("spectrum", gdir / "graph.tsv", "--out", out) == 0
    doc = json.loads((out / "spectrum.json").read_text())
    eig = [complex(re, im) for re, im in doc["eigenvalues"]]
    assert np.allclose(eig, [1, -1j, 1j, -1])
    assert doc["order"] == [0, 1, 2, 3]


def test_verbose_prints_the_decompose_record(tmp_path, capsys, monkeypatch):
    gdir = tmp_path / "g"
    run("gen", "cycle", 6, "--out", gdir)
    capsys.readouterr()
    for i in range(2):  # once per run: the handler leaves with the command
        # each run in a basis cache of its own, so that each decomposes
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / f"cache-v{i}"))
        assert run("--verbose", "spectrum", gdir / "graph.tsv", "--out", tmp_path / "v") == 0
        err = capsys.readouterr().err
        assert err.count("decompose: n=6 solver=eig folded_pairs=2") == 1
        assert "condition_path=svd" in err  # spectrum reports the exact condition
        assert err.count("basis_cache: miss solver=eig key=") == 1
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / f"cache-q{i}"))
        assert run("spectrum", gdir / "graph.tsv", "--out", tmp_path / "q") == 0
        assert capsys.readouterr().err == ""
    assert tree_bytes(tmp_path / "v") == tree_bytes(tmp_path / "q")


def knn_filter_inputs(tmp_path, *flags):
    """A 4-NN graph on 40 points (directed unless ``--symmetrize``), a
    filter and a signal."""
    write_points(tmp_path / "points.csv", np.random.default_rng(2).random((40, 2)))
    assert run("gen", "knn", tmp_path / "points.csv", 4, *flags,
               "--out", tmp_path / "g") == 0
    fpath, spath = tmp_path / "f.json", tmp_path / "s.csv"
    write_filter(fpath, GraphFilter([0.5, -0.25, 0.125]))
    write_signal(spath, np.arange(40.0))
    return tmp_path / "g" / "graph.tsv", fpath, spath


@pytest.mark.parametrize("flags", [(), ("--symmetrize",)], ids=["directed", "symmetrized"])
def test_verbose_filter_prints_one_spectral_radius_record(flags, tmp_path, capsys):
    inputs = knn_filter_inputs(tmp_path, *flags)
    capsys.readouterr()
    assert run("--verbose", "filter", *inputs, "--out", tmp_path / "f") == 0
    records = [line for line in capsys.readouterr().err.splitlines()
               if line.startswith("spectral_radius:")]
    assert len(records) == 1
    assert records[0].startswith("spectral_radius: n=40 path=krylov blocks=1 certified=1 ")


def test_spectrum_of_self_loop_graph_has_zero_variations(tmp_path):
    p = tmp_path / "id.tsv"
    p.write_text("src\tdst\tweight\n0\t0\t1.0\n1\t1\t1.0\n2\t2\t1.0\n")
    out = tmp_path / "s"
    assert run("spectrum", p, "--out", out) == 0
    doc = json.loads((out / "spectrum.json").read_text())
    assert np.abs(np.asarray(doc["variations"])).max() < 1e-12


def test_spectrum_of_defective_graph_exits_2(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("src\tdst\tweight\n0\t1\t1.0\n")  # single nilpotent block
    assert run("spectrum", p, "--out", tmp_path / "s") == 2


def test_missing_input_exits_1(tmp_path):
    assert run("spectrum", tmp_path / "nope.tsv", "--out", tmp_path / "s") == 1


# ---------------------------------------------------------------------------
# design and filter


def test_design_lowpass_on_cycle(tmp_path):
    gdir = tmp_path / "g"
    run("gen", "cycle", 4, "--out", gdir)
    out = tmp_path / "d"
    assert run("design", gdir / "graph.tsv", "--kind", "lowpass",
               "--degree", 3, "--out", out) == 0
    doc = json.loads((out / "design.json").read_text())
    assert doc["residual"] < 1e-10
    assert np.allclose(doc["achieved"], doc["desired"], atol=1e-9)
    taps = [complex(re, im) for re, im in
            json.loads((out / "filter.json").read_text())["taps"]]
    assert len(taps) == 4


def test_design_full_band_is_identity_filter(tmp_path):
    gdir = tmp_path / "g"
    run("gen", "cycle", 4, "--out", gdir)
    out = tmp_path / "d"
    assert run("design", gdir / "graph.tsv", "--kind", "bandpass:0:3",
               "--degree", 2, "--out", out) == 0
    taps = np.asarray(json.loads((out / "filter.json").read_text())["taps"])
    assert np.allclose(taps, [[1, 0], [0, 0], [0, 0]], atol=1e-9)


def test_design_rejects_malformed_kind(tmp_path):
    gdir = tmp_path / "g"
    run("gen", "cycle", 4, "--out", gdir)
    assert run("design", gdir / "graph.tsv", "--kind", "bandpass:9",
               "--degree", 2, "--out", tmp_path / "d") == 1
    assert run("design", gdir / "graph.tsv", "--kind", "notch",
               "--degree", 2, "--out", tmp_path / "d2") == 1


def test_filter_identity_taps_reproduce_signal(tmp_path):
    gdir = tmp_path / "g"
    run("gen", "cycle", 5, "--out", gdir)
    fpath = tmp_path / "ident.json"
    write_filter(fpath, GraphFilter([1.0]))
    spath = tmp_path / "s.csv"
    write_signal(spath, np.arange(5.0))
    out = tmp_path / "f"
    assert run("filter", gdir / "graph.tsv", fpath, spath, "--out", out) == 0
    assert np.array_equal(read_signal(out / "filtered.csv"), np.arange(5.0))


def test_filter_shift_taps_rotate_cycle_signal(tmp_path):
    gdir = tmp_path / "g"
    run("gen", "cycle", 4, "--out", gdir)
    fpath = tmp_path / "shift.json"
    write_filter(fpath, GraphFilter([0.0, 1.0]))
    spath = tmp_path / "s.csv"
    write_signal(spath, np.array([1.0, 2.0, 3.0, 4.0]))
    out = tmp_path / "f"
    assert run("filter", gdir / "graph.tsv", fpath, spath, "--out", out) == 0
    got = read_signal(out / "filtered.csv")
    assert np.allclose(got, [4.0, 1.0, 2.0, 3.0])


def test_filter_spectra_table_is_consistent(tmp_path):
    gdir = tmp_path / "g"
    run("gen", "cycle", 8, "--out", gdir)
    run("design", gdir / "graph.tsv", "--kind", "lowpass", "--degree", 5,
        "--out", tmp_path / "d")
    spath = tmp_path / "s.csv"
    write_signal(spath, np.random.default_rng(3).standard_normal(8))
    out = tmp_path / "f"
    assert run("filter", gdir / "graph.tsv", tmp_path / "d" / "filter.json",
               spath, "--spectra", "--out", out) == 0
    rows = (out / "spectra.csv").read_text().splitlines()
    assert rows[0].split(",")[0] == "index"
    for row in rows[1:]:
        cells = [float(x) for x in row.split(",")[1:]]
        before = complex(cells[0], cells[1])
        after = complex(cells[2], cells[3])
        resp = complex(cells[4], cells[5])
        assert abs(after - resp * before) < 1e-8


def test_filter_spectra_writes_the_plain_filters_bytes(tmp_path):
    # every run filters with rho certified by its bracket: plain filter
    # stores it in the graph's radius entry, and --spectra reads it there
    write_points(tmp_path / "points.csv", np.random.default_rng(6).random((400, 2)))
    assert run("gen", "knn", tmp_path / "points.csv", 8, "--out", tmp_path / "g") == 0
    fpath, spath = tmp_path / "f.json", tmp_path / "s.csv"
    write_filter(fpath, GraphFilter([0.5, -0.25, 0.125, 0.3]))
    write_signal(spath, np.random.default_rng(7).standard_normal(400))
    inputs = (tmp_path / "g" / "graph.tsv", fpath, spath)
    assert run("filter", *inputs, "--out", tmp_path / "plain") == 0
    plain = (tmp_path / "plain" / "filtered.csv").read_bytes()
    for name in ("cold", "warm"):
        assert run("filter", *inputs, "--spectra", "--out", tmp_path / name) == 0
        assert (tmp_path / name / "filtered.csv").read_bytes() == plain, name
        assert (tmp_path / name / "spectra.csv").exists()


def test_filter_with_malformed_filter_file_exits_1(tmp_path, capsys):
    gdir = tmp_path / "g"
    run("gen", "cycle", 4, "--out", gdir)
    fpath = tmp_path / "f.json"
    fpath.write_text('{"taps": [1.0, 2.0]}')
    spath = tmp_path / "s.csv"
    write_signal(spath, np.arange(4.0))
    assert run("filter", gdir / "graph.tsv", fpath, spath,
               "--out", tmp_path / "f") == 1
    assert capsys.readouterr().err.startswith("error: ")


def jordan_filter_inputs(tmp_path):
    gpath = tmp_path / "bad.tsv"
    # A = [[1, 0], [1, 1]]: one Jordan block, spectral radius 1
    gpath.write_text("src\tdst\tweight\n0\t0\t1.0\n0\t1\t1.0\n1\t1\t1.0\n")
    fpath = tmp_path / "f.json"
    write_filter(fpath, GraphFilter([0.5, 0.5]))
    spath = tmp_path / "s.csv"
    write_signal(spath, np.array([1.0, 2.0]))
    return gpath, fpath, spath


def test_filter_on_defective_graph_exits_2_before_writing(tmp_path):
    gpath, fpath, spath = jordan_filter_inputs(tmp_path)
    out = tmp_path / "f"
    assert run("filter", gpath, fpath, spath, "--spectra", "--out", out) == 2
    assert not (out / "filtered.csv").exists()


def test_filter_without_spectra_filters_a_defective_graph(tmp_path):
    # h(A/rho) s = 0.5 s + 0.5 A s needs no eigenbasis
    gpath, fpath, spath = jordan_filter_inputs(tmp_path)
    out = tmp_path / "f"
    assert run("filter", gpath, fpath, spath, "--out", out) == 0
    assert np.array_equal(read_signal(out / "filtered.csv"), [1.0, 2.5])
    assert not (out / "spectra.csv").exists()


@pytest.mark.parametrize("flags", [(), ("--symmetrize",)], ids=["directed", "symmetrized"])
def test_filter_on_a_knn_graph_builds_no_basis(flags, tmp_path, monkeypatch):
    # rho is certified on either graph, so no eigensolver sees the N x N
    # adjacency; the Arnoldi's Hessenberg matrix is 30 x 30
    import graphdsp.cli
    inputs = knn_filter_inputs(tmp_path, *flags)
    assert read_edge_list(inputs[0]).directed == (not flags)
    calls = []

    def spy(name, real=None):
        def record(*args, **kwargs):
            if real is None or args[0].shape == (40, 40):
                raise AssertionError(f"{name} called on the graph")
            calls.append(args[0].shape)
            return real(*args, **kwargs)
        return record

    monkeypatch.setattr(graphdsp.cli, "decompose", spy("decompose"))
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    out = tmp_path / "f"
    assert run("filter", *inputs, "--out", out) == 0
    assert sorted(p.name for p in out.iterdir()) == ["filtered.csv", "manifest.json"]
    assert calls and max(calls) <= (30, 30)


@pytest.mark.parametrize("flags", [(), ("--symmetrize",)], ids=["directed", "symmetrized"])
@pytest.mark.parametrize("command", [("spectrum",), ("design", "--kind", "lowpass",
                                                      "--degree", "3")],
                         ids=["spectrum", "design"])
def test_spectrum_and_design_compute_eigenvalues_alone_when_undirected(
        command, flags, tmp_path, monkeypatch):
    # an undirected basis has condition 1, so no eigenvector is needed; only
    # N x N solves count, not the Arnoldi's of its small Hessenberg matrix
    gpath = knn_filter_inputs(tmp_path, *flags)[0]
    directed = not flags
    calls = []

    def spy(name, fn):
        def call(x, *args, **kwargs):
            if np.shape(x) == (40, 40):
                calls.append(name)
            return fn(x, *args, **kwargs)
        return call

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    assert run(command[0], gpath, *command[1:], "--out", tmp_path / "o") == 0
    assert calls == (["eig"] if directed else ["eigvalsh"])


def test_spectrum_json_of_an_undirected_graph(tmp_path):
    gpath = knn_filter_inputs(tmp_path, "--symmetrize")[0]
    assert run("spectrum", gpath, "--out", tmp_path / "o") == 0
    doc = json.loads((tmp_path / "o" / "spectrum.json").read_text())
    w = np.linalg.eigvalsh(read_edge_list(gpath).adjacency)[::-1]
    assert np.array_equal([re for re, _ in doc["eigenvalues"]], w)
    assert doc["basis_condition"] == 1.0


# ---------------------------------------------------------------------------
# detect


def write_history(tmp_path, g, count, rng, spike=None):
    paths = []
    for i in range(count):
        vals = np.cos(np.arange(g.n) * 0.3) + 0.05 * rng.standard_normal(g.n)
        p = tmp_path / f"h{i}.csv"
        write_signal(p, vals)
        paths.append(p)
    vals = np.cos(np.arange(g.n) * 0.3) + 0.05 * rng.standard_normal(g.n)
    if spike is not None:
        vals[spike] += 10.0
    cur = tmp_path / "current.csv"
    write_signal(cur, vals)
    return paths, cur


def test_detect_without_filter_designs_highpass(tmp_path):
    gdir = tmp_path / "g"
    run("gen", "cycle", 12, "--out", gdir)
    g = read_edge_list(gdir / "graph.tsv")
    rng = np.random.default_rng(5)
    hist, cur = write_history(tmp_path, g, 3, rng, spike=4)
    out = tmp_path / "det"
    assert run("detect", gdir / "graph.tsv", "--history", *hist,
               "--current", cur, "--degree", 6, "--out", out) == 0
    doc = json.loads((out / "detection.json").read_text())
    assert doc["flagged"] is True
    assert doc["threshold"] > 0


def test_detect_quiet_current_not_flagged(tmp_path):
    gdir = tmp_path / "g"
    run("gen", "cycle", 12, "--out", gdir)
    g = read_edge_list(gdir / "graph.tsv")
    rng = np.random.default_rng(6)
    hist, cur = write_history(tmp_path, g, 3, rng)
    out = tmp_path / "det"
    assert run("detect", gdir / "graph.tsv", "--history", *hist,
               "--current", cur, "--threshold-scale", 2.0, "--out", out) == 0
    doc = json.loads((out / "detection.json").read_text())
    assert doc["flagged"] is False
    assert doc["offending_coefficients"] == []


def test_detect_accepts_filter_file(tmp_path):
    gdir = tmp_path / "g"
    run("gen", "cycle", 12, "--out", gdir)
    run("design", gdir / "graph.tsv", "--kind", "highpass", "--degree", 6,
        "--out", tmp_path / "d")
    g = read_edge_list(gdir / "graph.tsv")
    rng = np.random.default_rng(7)
    hist, cur = write_history(tmp_path, g, 3, rng, spike=2)
    out = tmp_path / "det"
    assert run("detect", gdir / "graph.tsv", "--history", *hist,
               "--current", cur, "--filter", tmp_path / "d" / "filter.json",
               "--out", out) == 0
    assert json.loads((out / "detection.json").read_text())["flagged"] is True


# ---------------------------------------------------------------------------
# classify


def make_two_clique_files(tmp_path, k=5, labeled=1):
    n = 2 * k
    a = np.zeros((n, n))
    for block in (range(k), range(k, n)):
        for i in block:
            for j in block:
                if i != j:
                    a[i, j] = 1.0
    a[k - 1, k] = a[k, k - 1] = 0.5
    gpath = tmp_path / "graph.tsv"
    write_edge_list(gpath, Graph(a))
    values = np.zeros(n)
    values[:labeled] = 1.0
    values[k:k + labeled] = -1.0
    lpath = tmp_path / "labels.csv"
    write_signal(lpath, values)
    return gpath, lpath


def test_classify_two_cliques(tmp_path):
    gpath, lpath = make_two_clique_files(tmp_path)
    out = tmp_path / "out"
    assert run("classify", gpath, lpath, "--alpha", 5.0, "--out", out) == 0
    rows = (out / "predictions.csv").read_text().splitlines()[1:]
    classes = [int(r.split(",")[2]) for r in rows]
    assert classes == [1] * 5 + [-1] * 5


@pytest.mark.parametrize("flags,path", [((), "cg"),
                                        (("--sweep", "0.5,2", "--runs", "1"), "factored")])
def test_verbose_classify_prints_its_solve_record(flags, path, tmp_path, capsys):
    gpath, lpath = make_two_clique_files(tmp_path)
    if flags:
        write_signal(tmp_path / "truth.csv", [1.0] * 5 + [-1.0] * 5)
        flags += ("--truth", tmp_path / "truth.csv")
    capsys.readouterr()
    assert run("--verbose", "classify", gpath, lpath, *flags, "--out", tmp_path / "c") == 0
    records = [line for line in capsys.readouterr().err.splitlines()
               if line.startswith("classify:")]
    assert len(records) == 1
    assert records[0].startswith(f"classify: n=10 form=shift path={path} ")
    assert float(records[0].split("residual=")[1]) <= 1e-8


def test_classify_singular_system_exits_2(tmp_path):
    k = 4
    n = 2 * k
    a = np.zeros((n, n))
    for block in (range(k), range(k, n)):
        for i in block:
            for j in block:
                if i != j:
                    a[i, j] = 1.0
    gpath = tmp_path / "graph.tsv"
    write_edge_list(gpath, Graph(a))
    values = np.zeros(n)
    values[0] = 1.0
    lpath = tmp_path / "labels.csv"
    write_signal(lpath, values)
    assert run("classify", gpath, lpath, "--alpha", 1.0,
               "--out", tmp_path / "out") == 2


def test_classify_sweep_writes_accuracy_table(tmp_path):
    gdir = tmp_path / "g"
    run("gen", "sbm", 30, 0.6, 0.05, "--seed", 2, "--out", gdir)
    # thin the true labels to make a partially known input
    truth = read_signal(gdir / "labels.csv")
    values = truth.copy()
    values[6:] = 0.0
    lpath = tmp_path / "labels.csv"
    write_signal(lpath, values)
    out = tmp_path / "sweep"
    assert run("classify", gdir / "graph.tsv", lpath,
               "--sweep", "0.5,1.0,2.0", "--truth", gdir / "labels.csv",
               "--runs", 3, "--seed", 5, "--out", out) == 0
    lines = (out / "accuracy.csv").read_text().splitlines()
    assert lines[0] == "alpha,ratio,mean_accuracy,std"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == pytest.approx(0.2)


@pytest.mark.parametrize("grid, rows, message", [
    ("standard", 199, None),
    ("1.0,half", None, "bad alpha grid '1.0,half'"),
    (" , ", None, "alpha grid is empty"),
])
def test_classify_sweep_grid(tmp_path, capsys, grid, rows, message):
    gpath, lpath = make_two_clique_files(tmp_path, labeled=2)
    truth = tmp_path / "truth.csv"
    write_signal(truth, np.repeat([1.0, -1.0], 5))
    out = tmp_path / "sweep"
    code = run("classify", gpath, lpath, "--sweep", grid, "--truth", truth,
               "--runs", 1, "--out", out)
    if rows is None:
        assert code == 1 and capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    else:
        assert code == 0
        assert len((out / "accuracy.csv").read_text().splitlines()) == rows + 1


def test_classify_sweep_requires_truth(tmp_path):
    gpath, lpath = make_two_clique_files(tmp_path)
    assert run("classify", gpath, lpath, "--sweep", "1.0",
               "--out", tmp_path / "out") == 1


def test_classify_truth_without_sweep_is_an_error(tmp_path, capsys):
    gpath, lpath = make_two_clique_files(tmp_path)
    assert run("classify", gpath, lpath, "--truth", lpath, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == "error: --truth is read only with --sweep\n"
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# rerun and manifests


def test_rerun_reproduces_bytes(tmp_path):
    first = tmp_path / "first"
    assert run("gen", "sbm", 25, 0.5, 0.1, "--seed", 9, "--out", first) == 0
    second = tmp_path / "second"
    assert run("rerun", first / "manifest.json", "--out", second) == 0
    assert tree_bytes(first) == tree_bytes(second)


def test_rerun_rejects_a_manifest_that_is_not_an_object(tmp_path, capsys):
    m = tmp_path / "manifest.json"
    m.write_text('["gen", "cycle", "4"]')
    assert run("rerun", m) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_rerun_rejects_a_recorded_out_without_a_directory(tmp_path, capsys):
    m = tmp_path / "manifest.json"
    m.write_text(json.dumps({"command": ["gen", "cycle", "4", "--out"],
                             "outputs": {"graph.tsv": "0" * 64}}))
    assert run("rerun", m, "--out", tmp_path / "o") == 1
    assert capsys.readouterr().err == f"error: {m}: recorded --out has no directory\n"


def test_rerun_out_is_appended_to_a_command_recorded_without_it(tmp_path):
    m, expected = tmp_path / "manifest.json", tmp_path / "cycle.tsv"
    write_edge_list(expected, cycle_graph(4))
    digest = hashlib.sha256(expected.read_bytes()).hexdigest()
    m.write_text(json.dumps({"command": ["gen", "cycle", "4"],
                             "outputs": {"graph.tsv": digest}}))
    out = tmp_path / "o"
    assert run("rerun", m, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == ["gen", "cycle", "4", "--out", str(out)]
    assert np.array_equal(read_edge_list(out / "graph.tsv").adjacency,
                          cycle_graph(4).adjacency)


def test_a_node_id_whose_keys_would_wrap_is_an_error(tmp_path, capsys):
    graph, labels = tmp_path / "huge.tsv", tmp_path / "labels.csv"
    graph.write_text("src\tdst\tweight\n0\t3037000499\t1\n")
    labels.write_text("node,re\n0,1\n")
    assert run("classify", graph, labels, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{graph}: node id 3037000499 too large" in err


def test_rerun_refuses_a_changed_input_and_writes_nothing(tmp_path, capsys):
    gdir, first = tmp_path / "g", tmp_path / "first"
    assert run("gen", "cycle", 4, "--out", gdir) == 0
    graph = gdir / "graph.tsv"
    assert run("spectrum", graph, "--out", first) == 0
    assert run("gen", "cycle", 5, "--out", gdir) == 0
    capsys.readouterr()
    second = tmp_path / "second"
    assert run("rerun", first / "manifest.json", "--out", second) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(graph) in err
    assert not second.exists()
    graph.unlink()
    assert run("rerun", first / "manifest.json", "--out", second) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(graph) in err
    assert not second.exists()


def test_manifest_outputs_are_the_files_written_in_order(tmp_path):
    g, identity = tmp_path / "g", tmp_path / "id.json"
    write_filter(identity, GraphFilter([1.0]))
    plain = ("filter", g / "graph.tsv", identity, g / "labels.csv")
    for name, argv, outputs in [
            ("g", ("gen", "sbm", 20, 0.5, 0.1, "--seed", 1), ["graph.tsv", "labels.csv"]),
            ("f", plain, ["filtered.csv"]),
            ("fs", plain + ("--spectra",), ["filtered.csv", "spectra.csv"])]:
        out = tmp_path / name
        assert run(*argv, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == {name: hashlib.sha256((out / name).read_bytes())
                                       .hexdigest() for name in outputs}
        assert list(manifest["outputs"]) == outputs
        assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, "manifest.json"])


def test_failing_before_the_first_write_leaves_no_out_directory(tmp_path, capsys):
    gdir = tmp_path / "g"
    assert run("gen", "cycle", 4, "--out", gdir) == 0
    out = tmp_path / "d"
    assert run("design", gdir / "graph.tsv", "--kind", "banana",
               "--degree", 2, "--out", out) == 1
    assert capsys.readouterr().err == "error: unknown filter kind 'banana'\n"
    assert not out.exists()


def test_manifest_hashes_inputs(tmp_path):
    gdir = tmp_path / "g"
    run("gen", "cycle", 4, "--out", gdir)
    out = tmp_path / "s"
    run("spectrum", gdir / "graph.tsv", "--out", out)
    manifest = json.loads((out / "manifest.json").read_text())
    digest = manifest["inputs"][str(gdir / "graph.tsv")]
    assert digest == hashlib.sha256((gdir / "graph.tsv").read_bytes()).hexdigest()


def record_cases(tmp_path):
    """Each command's argv and the files it reads, in the order of
    ``cli.INPUTS``: a directed 4-NN graph on 30 points with a filter and four
    signals, and a two-block graph with partial labels and its truth."""
    rng = np.random.default_rng(12)
    points, filt = tmp_path / "points.csv", tmp_path / "f.json"
    write_points(points, rng.random((30, 2)))
    write_filter(filt, GraphFilter([0.5, -0.25, 0.125]))
    s = [tmp_path / f"s{i}.csv" for i in range(4)]
    for p in s:
        write_signal(p, rng.standard_normal(30))
    graph, sbm, known = tmp_path / "knn" / "graph.tsv", tmp_path / "sbm", tmp_path / "known.csv"
    assert run("gen", "knn", points, 4, "--out", graph.parent) == 0
    assert run("gen", "sbm", 40, 0.5, 0.1, "--seed", 3, "--out", sbm) == 0
    truth = sbm / "labels.csv"
    y = np.array(read_signal(truth))
    y[rng.random(y.size) < 0.7] = 0.0
    write_signal(known, y)
    history = ["--history", *s[:3], "--current", s[3]]
    return {
        "gen-cycle": (["gen", "cycle", 5], []),
        "gen-knn": (["gen", "knn", points, 4], [points]),
        "gen-sbm": (["gen", "sbm", 20, 0.5, 0.1, "--seed", 3], []),
        "spectrum": (["spectrum", graph], [graph]),
        "design": (["design", graph, "--kind", "lowpass", "--degree", 3], [graph]),
        "filter": (["filter", graph, filt, s[0]], [graph, filt, s[0]]),
        "filter-spectra": (["filter", graph, filt, s[0], "--spectra"], [graph, filt, s[0]]),
        "detect": (["detect", graph, *history], [graph, *s]),
        "detect-filter": (["detect", graph, *history, "--filter", filt], [graph, filt, *s]),
        "classify": (["classify", sbm / "graph.tsv", known], [sbm / "graph.tsv", known]),
        "classify-sweep": (["classify", sbm / "graph.tsv", known, "--sweep", "1,2",
                            "--truth", truth, "--runs", 2],
                           [sbm / "graph.tsv", known, truth]),
    }


@pytest.mark.parametrize("case", ["gen-cycle", "gen-knn", "gen-sbm", "spectrum", "design",
                                  "filter", "filter-spectra", "detect", "detect-filter",
                                  "classify", "classify-sweep"])
def test_the_manifest_is_derived_from_the_parsed_command_line(case, tmp_path):
    argv, read = record_cases(tmp_path)[case]
    argv = [str(a) for a in (*argv, "--out", tmp_path / "out")]
    assert run(*argv) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    parsed = vars(_build_parser().parse_args(argv))
    del parsed["func"]
    assert manifest["config"] == parsed
    assert "seed" not in manifest
    if case.startswith("detect"):
        assert manifest["config"]["window"] == 3
        assert manifest["config"]["filter"] == (str(read[1]) if case == "detect-filter"
                                                else None)
    assert list(manifest["inputs"]) == [str(p) for p in read]
    assert manifest["inputs"] == {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                                  for p in read}


# ---------------------------------------------------------------------------
# top-level behavior


def test_help_exits_zero():
    assert run("--help") == 0


def test_unknown_command_exits_one():
    assert run("transmogrify") == 1


def test_no_arguments_exits_one():
    assert run() == 1


def run_python(code):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code], env=env).returncode


@pytest.mark.parametrize("module", ["networkx", "scipy"])
def test_cli_import_does_not_load(module):
    assert run_python(f"import sys, graphdsp.cli; sys.exit({module!r} in sys.modules)") == 0


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # with sys.modules["scipy"] = None any scipy import raises ImportError,
    # which no command catches, so each command and the budget search show
    # that they run on numpy alone
    rng = np.random.default_rng(4)
    points, filt = tmp_path / "points.csv", tmp_path / "filter.json"
    write_points(points, rng.random((30, 2)))
    write_filter(filt, GraphFilter([0.5, -0.25, 0.125]))
    signals = [tmp_path / f"s{i}.csv" for i in range(4)]
    for p in signals:
        write_signal(p, rng.standard_normal(30))
    commands = []
    for name, flags in (("directed", []), ("symmetric", ["--symmetrize"])):
        d = tmp_path / name
        g = str(d / "graph.tsv")
        commands += [["gen", "knn", str(points), "4", *flags, "--out", str(d)],
                     ["spectrum", g, "--out", str(d / "spectrum")],
                     ["filter", g, str(filt), str(signals[0]), "--spectra",
                      "--out", str(d / "filter")],
                     ["detect", g, "--history", *map(str, signals[:3]),
                      "--current", str(signals[3]), "--filter", str(filt),
                      "--out", str(d / "detect")],
                     ["design", g, "--kind", "lowpass", "--degree", "3",
                      "--out", str(d / "design")],
                     ["detect", g, "--history", *map(str, signals[:3]),
                      "--current", str(signals[3]), "--out", str(d / "detect_design")]]
        # plain filter certifies rho in numpy on either graph
        commands.append(["filter", g, str(filt), str(signals[0]),
                         "--out", str(d / "plain")])
    d = tmp_path / "sbm"
    graph, truth, labels = d / "graph.tsv", d / "labels.csv", tmp_path / "known.csv"
    commands += [["gen", "cycle", "8", "--out", str(tmp_path / "cycle")],
                 ["gen", "path", "8", "--out", str(tmp_path / "path")],
                 ["gen", "regular", "12", "3", "--out", str(tmp_path / "regular")],
                 ["gen", "sbm", "120", "0.3", "0.05", "--seed", "5", "--out", str(d)]]
    classify = [["classify", str(graph), str(labels), "--form", form,
                 "--out", str(d / form)] for form in ("shift", "laplacian")]
    classify.append(["classify", str(graph), str(labels), "--sweep", "standard",
                     "--runs", "2", "--truth", str(truth), "--out", str(d / "sweep")])
    code = (f"import sys\nsys.modules['scipy'] = None\n"
            f"import numpy as np\n"
            f"from graphdsp import classify_with_misfit_budget\n"
            f"from graphdsp.cli import main\n"
            f"from graphdsp.fileio import read_edge_list, read_labels, write_signal\n"
            f"codes = [main(argv) for argv in {commands!r}]\n"
            f"known = np.array(read_labels({str(truth)!r}).labels)\n"
            f"known[np.random.default_rng(6).random(known.size) < 0.8] = 0.0\n"
            f"write_signal({str(labels)!r}, known)\n"
            f"codes += [main(argv) for argv in {classify!r}]\n"
            f"g, y = read_edge_list({str(graph)!r}), read_labels({str(labels)!r})\n"
            f"for form in ('shift', 'laplacian'):\n"
            f"    classify_with_misfit_budget(g, y, 0.5, form)\n"
            f"sys.exit(codes != [0] * {len(commands) + len(classify)})")
    assert run_python(code) == 0
    for form in ("shift", "laplacian"):
        assert (d / form / "predictions.csv").exists()
    assert (d / "sweep" / "accuracy.csv").exists()


def test_gen_knn_leaves_numpy_ma_unloaded(tmp_path):
    points = tmp_path / "points.csv"
    write_points(points, np.random.default_rng(8).random((30, 2)))
    argv = ["gen", "knn", str(points), "4", "--out", str(tmp_path / "knn")]
    code = (f"import sys\nfrom graphdsp.cli import main\n"
            f"sys.exit(main({argv!r}) != 0 or 'numpy.ma' in sys.modules)")
    assert run_python(code) == 0


def test_classify_above_the_direct_limit_runs_without_scipy(tmp_path):
    g, truth = sbm_graph(2100, 0.01, 0.002, seed=3)
    values = np.array(truth.labels)
    values[np.random.default_rng(23).random(g.n) < 0.9] = 0.0
    graph, labels = tmp_path / "g.tsv", tmp_path / "labels.csv"
    write_edge_list(graph, g)
    write_signal(labels, values)
    commands = [["classify", str(graph), str(labels), "--form", form,
                 "--out", str(tmp_path / form)] for form in ("shift", "laplacian")]
    code = (f"import sys\nfrom graphdsp.cli import main\n"
            f"codes = [main(argv) for argv in {commands!r}]\n"
            f"sys.exit(codes != [0, 0] or 'scipy' in sys.modules)")
    assert run_python(code) == 0


def test_manifest_records_the_environment(tmp_path):
    out = tmp_path / "c"
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1")
    code = f"from graphdsp.cli import main; main(['gen', 'cycle', '4', '--out', {str(out)!r}])"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    manifest = json.loads((out / "manifest.json").read_text())
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    assert manifest["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "openblas_configuration": blas.get("openblas configuration")},
        "threads": {"OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": None},
        "cpus": basis_cache._cpus(),
        "simd": config["SIMD Extensions"]["found"],
        "machine": platform.machine(),
        "host": platform.node(),
        "sources": basis_cache._sources(),
    }
    assert isinstance(manifest["environment"]["blas"]["name"], str)


def test_manifest_records_null_for_a_blas_field_numpy_does_not_report(tmp_path,
                                                                      monkeypatch):
    blas = {"name": "accelerate", "version": "1"}
    for i, report in enumerate([{}, {"Build Dependencies": {}},
                                {"Build Dependencies": {"blas": blas}}]):
        monkeypatch.setattr(np, "show_config", lambda mode, report=report: report)
        assert run("gen", "cycle", 4, "--out", tmp_path / str(i)) == 0
        manifest = json.loads((tmp_path / str(i) / "manifest.json").read_text())
        expected = blas if i == 2 else {"name": None, "version": None}
        assert manifest["environment"]["blas"] == {**expected,
                                                   "openblas_configuration": None}
