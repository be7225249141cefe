import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from graphdsp.cli import main
from graphdsp.fileio import (
    read_edge_list,
    read_signal,
    write_edge_list,
    write_filter,
    write_points,
    write_signal,
)
from graphdsp import Graph, GraphFilter, cycle_graph


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


def test_verbose_prints_the_decompose_record(tmp_path, capsys):
    gdir = tmp_path / "g"
    run("gen", "cycle", 6, "--out", gdir)
    capsys.readouterr()
    for _ in range(2):  # once per run: the handler leaves with the command
        assert run("--verbose", "spectrum", gdir / "graph.tsv", "--out", tmp_path / "v") == 0
        err = capsys.readouterr().err
        assert err.count("decompose: n=6 solver=eig folded_pairs=2") == 1
        assert "condition_path=bound" in err
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


@pytest.mark.parametrize("flags,path", [((), "dense max_restarts=0"),
                                         (("--symmetrize",), "lanczos max_restarts=")],
                         ids=["directed", "symmetrized"])
def test_verbose_filter_prints_one_spectral_radius_record(flags, path, tmp_path, capsys):
    inputs = knn_filter_inputs(tmp_path, *flags)
    capsys.readouterr()
    assert run("--verbose", "filter", *inputs, "--out", tmp_path / "f") == 0
    records = [line for line in capsys.readouterr().err.splitlines()
               if line.startswith("spectral_radius:")]
    assert len(records) == 1
    assert records[0].startswith(f"spectral_radius: n=40 path={path}")


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
    # a directed graph's rho is the dense eigvals, an undirected one's Lanczos
    import graphdsp.cli
    inputs = knn_filter_inputs(tmp_path, *flags)
    directed = read_edge_list(inputs[0]).directed
    assert directed == (not flags)
    calls = []

    def spy(name):
        def record(*args, **kwargs):
            calls.append(name)
            if name != "eigvals" or not directed:
                raise AssertionError(f"{name} called")
            return real_eigvals(*args, **kwargs)
        return record

    real_eigvals = np.linalg.eigvals
    monkeypatch.setattr(graphdsp.cli, "decompose", spy("decompose"))
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name))
    out = tmp_path / "f"
    assert run("filter", *inputs, "--out", out) == 0
    assert sorted(p.name for p in out.iterdir()) == ["filtered.csv", "manifest.json"]
    assert calls == (["eigvals"] if directed else [])


@pytest.mark.parametrize("flags", [(), ("--symmetrize",)], ids=["directed", "symmetrized"])
@pytest.mark.parametrize("command", [("spectrum",), ("design", "--kind", "lowpass",
                                                      "--degree", "3")],
                         ids=["spectrum", "design"])
def test_spectrum_and_design_compute_eigenvalues_alone_when_undirected(
        command, flags, tmp_path, monkeypatch):
    # an undirected basis has condition 1, so no eigenvector is needed
    from graphdsp import spectral
    gpath = knn_filter_inputs(tmp_path, *flags)[0]
    directed = not flags
    calls = []

    def spy(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(spectral, "decompose", spy("decompose", spectral.decompose))
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    assert run(command[0], gpath, *command[1:], "--out", tmp_path / "o") == 0
    assert calls == (["decompose", "eig"] if directed else ["eigvalsh"])


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


def test_classify_sweep_requires_truth(tmp_path):
    gpath, lpath = make_two_clique_files(tmp_path)
    assert run("classify", gpath, lpath, "--sweep", "1.0",
               "--out", tmp_path / "out") == 1


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
    m.write_text(json.dumps({"command": ["gen", "cycle", "4", "--out"]}))
    assert run("rerun", m, "--out", tmp_path / "o") == 1
    assert capsys.readouterr().err.startswith("error: ")


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


def test_manifest_hashes_inputs(tmp_path):
    gdir = tmp_path / "g"
    run("gen", "cycle", 4, "--out", gdir)
    out = tmp_path / "s"
    run("spectrum", gdir / "graph.tsv", "--out", out)
    manifest = json.loads((out / "manifest.json").read_text())
    digest = manifest["inputs"][str(gdir / "graph.tsv")]
    import hashlib
    assert digest == hashlib.sha256((gdir / "graph.tsv").read_bytes()).hexdigest()


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


def test_spectrum_filter_and_detect_run_without_scipy(tmp_path):
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
    # plain filter takes a directed graph's rho from the dense eigvals
    commands.append(["filter", str(tmp_path / "directed" / "graph.tsv"), str(filt),
                     str(signals[0]), "--out", str(tmp_path / "directed" / "plain")])
    code = (f"import sys\nfrom graphdsp.cli import main\n"
            f"codes = [main(argv) for argv in {commands!r}]\n"
            f"sys.exit(codes != [0] * {len(commands)} or 'scipy' in sys.modules)")
    assert run_python(code) == 0
    # on an undirected graph above 20 nodes it runs Lanczos
    argv = ["filter", str(tmp_path / "symmetric" / "graph.tsv"), str(filt),
            str(signals[0]), "--out", str(tmp_path / "symmetric" / "plain")]
    code = (f"import sys\nfrom graphdsp.cli import main\n"
            f"sys.exit(main({argv!r}) != 0 or 'scipy' not in sys.modules)")
    assert run_python(code) == 0


def test_manifest_records_the_environment(tmp_path):
    out = tmp_path / "c"
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1")
    code = f"from graphdsp.cli import main; main(['gen', 'cycle', '4', '--out', {str(out)!r}])"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {"OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": None},
    }
