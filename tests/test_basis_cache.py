"""The per-user basis cache: hits are bit for bit the cold decomposition,
and anything wrong with the store costs a recomputation, never an error."""

import builtins
import errno
import hashlib
import json
import os

import numpy as np
import pytest

from graphdsp import Graph, GraphFilter, build_knn_graph, cycle_graph, spectral
from graphdsp import basis_cache
from graphdsp import graph as graph_module
from graphdsp.cli import main
from graphdsp.fileio import read_edge_list, write_filter, write_points, write_signal
from graphdsp.spectral import decompose, spectrum


def run(*argv):
    return main([str(a) for a in argv])


def outcome(sp):
    return sp.__dict__["_cache"]["cache"]


def entries(directory):
    return sorted(p for p in os.listdir(directory) if p.endswith(".npy")) \
        if os.path.isdir(directory) else []


def same_result(a, b):
    fields = ["eigenvalues", *(["vectors", "fourier"] if hasattr(a, "vectors") else [])]
    assert type(a) is type(b) and a.lambda_max_abs == b.lambda_max_abs
    for name in fields:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.strides == y.strides and not y.flags.writeable
        assert x.tobytes(order="A") == y.tobytes(order="A"), name


def knn(symmetrize=False):
    pts = np.random.default_rng(2).random((40, 2))
    return build_knn_graph(pts, 4, symmetrize=symmetrize)


GRAPHS = {"directed": lambda: knn(), "undirected": lambda: knn(True),
          "cycle": lambda: cycle_graph(6)}


@pytest.mark.parametrize("kind", sorted(GRAPHS))
@pytest.mark.parametrize("fn", [decompose, spectrum], ids=["decompose", "spectrum"])
def test_a_hit_is_the_cold_result_bit_for_bit(kind, fn, tmp_path, monkeypatch):
    cold = fn(GRAPHS[kind]())
    missed = fn(GRAPHS[kind](), cache=tmp_path)
    g = GRAPHS[kind]()

    def refuse(*args):
        raise AssertionError("a hit computed the spectral radius")

    with monkeypatch.context() as m:  # the hit restores rho, as stored
        m.setattr(graph_module, "_certified_radius", refuse)
        m.setattr(graph_module, "_dense_radius", refuse)
        hit = fn(g, cache=tmp_path)
        rho = g.spectral_radius
    assert (outcome(missed), outcome(hit)) == ("miss", "hit")
    assert hit.__dict__["_cache"]["key"] == missed.__dict__["_cache"]["key"]
    same_result(cold, missed)
    same_result(cold, hit)
    assert rho.hex() == cold.lambda_max_abs.hex()


def test_a_hit_builds_no_dense_adjacency(tmp_path, monkeypatch):
    real = graph_module._to_dense

    def refuse(rows, cols, vals, size):
        raise AssertionError("a dense adjacency was built")

    for kind, fn in (("directed", decompose), ("undirected", spectrum),
                     ("undirected", decompose)):
        fn(GRAPHS[kind](), cache=tmp_path)
        monkeypatch.setattr(graph_module, "_to_dense", refuse)
        g = GRAPHS[kind]()
        assert outcome(fn(g, cache=tmp_path)) == "hit"
        assert "_adjacency" not in g.__dict__
        monkeypatch.setattr(graph_module, "_to_dense", real)


def test_eigvalsh_and_eigh_entries_never_serve_each_other(tmp_path):
    g = knn(True)
    sp, b = spectrum(g, cache=tmp_path), decompose(g, cache=tmp_path)
    assert (outcome(sp), outcome(b)) == ("miss", "miss")
    assert sp.__dict__["_cache"]["key"] != b.__dict__["_cache"]["key"]
    assert len(entries(tmp_path)) == 2
    assert type(spectrum(g, cache=tmp_path)) is spectral.Spectrum
    assert type(decompose(g, cache=tmp_path)) is spectral.SpectralBasis


def test_the_exact_condition_of_the_svd_path_is_stored(tmp_path, monkeypatch):
    g = knn()
    exact = decompose(g).basis_condition
    # a limit just above the condition puts the bound over half of it
    with monkeypatch.context() as m:
        m.setattr(spectral, "DEFECTIVE_COND_LIMIT", 1.5 * exact)
        missed = decompose(knn(), cache=tmp_path)
        assert missed.__dict__["_condition"] == exact
        hit = decompose(knn(), cache=tmp_path)
        assert outcome(hit) == "hit" and hit.__dict__["_condition"] == exact
    # a basis accepted on its bound stores none, and computes it on first read
    other = tmp_path / "bound"
    decompose(knn(), cache=other)
    hit = decompose(knn(), cache=other)
    assert outcome(hit) == "hit" and "_condition" not in hit.__dict__
    assert hit.basis_condition == exact


def flip_last_byte(data):
    return data[:-1] + bytes([data[-1] ^ 1])


CORRUPTIONS = {
    "flipped data byte": flip_last_byte,
    "flipped digest byte": lambda data: data[:140] + bytes([data[140] ^ 1]) + data[141:],
    "truncated": lambda data: data[:len(data) // 2],
    "empty": lambda data: b"",
    "trailing bytes": lambda data: data + b"\0",
    "not an array file": lambda data: b"PK\x03\x04" + data[4:],
    "shape beyond the data": lambda data: data.replace(b"(40, 40)", b"(40, 99)", 1),
}


@pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
def test_a_corrupted_entry_is_recomputed_and_rewritten(corrupt, tmp_path):
    cold = decompose(knn())
    decompose(knn(), cache=tmp_path)
    [name] = entries(tmp_path)
    path = tmp_path / name
    good = path.read_bytes()
    path.write_bytes(CORRUPTIONS[corrupt](good))
    again = decompose(knn(), cache=tmp_path)
    assert outcome(again) == "miss"
    same_result(cold, again)
    assert path.read_bytes() == good
    assert outcome(decompose(knn(), cache=tmp_path)) == "hit"


def test_a_different_blas_thread_setting_misses(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert outcome(decompose(knn(), cache=tmp_path)) == "miss"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert outcome(decompose(knn(), cache=tmp_path)) == "miss"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert outcome(decompose(knn(), cache=tmp_path)) == "hit"
    assert len(entries(tmp_path)) == 2


def test_a_changed_source_misses(tmp_path, monkeypatch):
    decompose(knn(), cache=tmp_path)
    monkeypatch.setattr(basis_cache, "_sources", lambda: "another version")
    assert outcome(decompose(knn(), cache=tmp_path)) == "miss"


def test_without_a_cache_nothing_is_read_or_written(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))

    def refuse(*args):
        raise AssertionError("the cache was used")

    for name in ("_key", "_read", "store"):
        monkeypatch.setattr(basis_cache, name, refuse)
    for kind in ("directed", "undirected"):
        for fn in (decompose, spectrum):
            assert "_cache" not in fn(GRAPHS[kind]()).__dict__
    assert list(tmp_path.iterdir()) == []


def test_another_cpu_count_misses(tmp_path, monkeypatch):
    # with no thread variable set, OpenBLAS runs on as many threads as the
    # process may use CPUs
    for v in basis_cache.THREAD_VARIABLES:
        monkeypatch.delenv(v, raising=False)
    cpus = basis_cache._cpus()
    assert outcome(decompose(knn(), cache=tmp_path)) == "miss"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus + 1)),
                        raising=False)
    assert outcome(decompose(knn(), cache=tmp_path)) == "miss"
    assert len(entries(tmp_path)) == 2


def test_the_entries_stay_within_their_bytes(tmp_path, monkeypatch):
    # six directed 6-node graphs, each entry the same size; room for three
    cycle = cycle_graph(6).adjacency
    graphs = [Graph((i + 1) * cycle) for i in range(6)]

    def name(g):
        return basis_cache._key(["eig", g.n, g.directed], graph_module._nonzeros(g)) + ".npy"

    decompose(graphs[0], cache=tmp_path)
    size = (tmp_path / name(graphs[0])).stat().st_size
    monkeypatch.setattr(basis_cache, "MAX_BYTES", 3 * size)
    for i, g in enumerate(graphs):
        decompose(g, cache=tmp_path)
        os.utime(tmp_path / name(g), (1e9 + i, 1e9 + i))  # a clock that ticks
        assert len(entries(tmp_path)) == min(i + 1, 3)
    assert set(entries(tmp_path)) == {name(g) for g in graphs[-3:]}
    # a hit renews its entry: the next write drops the one used longest ago
    oldest, second = graphs[-3:][:2]
    assert outcome(decompose(Graph(oldest.adjacency), cache=tmp_path)) == "hit"
    decompose(Graph(7 * cycle), cache=tmp_path)
    names = entries(tmp_path)
    assert name(oldest) in names and name(second) not in names and len(names) == 3
    assert sum((tmp_path / n).stat().st_size for n in names) <= basis_cache.MAX_BYTES
    # an entry larger than the whole bound is not stored, and drops nothing
    big = decompose(cycle_graph(20), cache=tmp_path)
    assert outcome(big) == "unavailable"
    assert entries(tmp_path) == names
    same_result(decompose(cycle_graph(20)), big)
    # nor is one whose arrays fit but whose file, headers included, does not
    monkeypatch.setattr(basis_cache, "MAX_BYTES", size - 1)
    assert outcome(decompose(Graph(8 * cycle), cache=tmp_path)) == "unavailable"
    assert entries(tmp_path) == names


def test_a_directory_that_cannot_be_made_leaves_the_result_unstored(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    b = decompose(knn(), cache=blocker / "graphdsp")
    assert outcome(b) == "unavailable"
    same_result(decompose(knn()), b)


def test_a_full_disk_leaves_no_partial_entry(tmp_path, monkeypatch):
    def full(fh, x, allow_pickle):
        fh.write(b"\x93NUMPY")
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as m:
        m.setattr(np, "save", full)
        b = decompose(knn(), cache=tmp_path)
    assert outcome(b) == "unavailable"
    assert os.listdir(tmp_path) == []
    same_result(decompose(knn()), b)


def test_the_directory_is_private(tmp_path):
    decompose(cycle_graph(4), cache=tmp_path / "graphdsp")
    assert (tmp_path / "graphdsp").stat().st_mode & 0o777 == 0o700


@pytest.mark.parametrize("environ, expected", [
    ({"XDG_CACHE_HOME": "/x", "HOME": "/h"}, "/x/graphdsp"),
    ({"XDG_CACHE_HOME": "", "HOME": "/h"}, "/h/.cache/graphdsp"),
    ({"XDG_CACHE_HOME": "rel", "HOME": "/h"}, "/h/.cache/graphdsp"),
    ({"HOME": "/h"}, "/h/.cache/graphdsp"),
    ({"HOME": ""}, None),
    ({"HOME": "rel"}, None),
])
def test_default_directory(environ, expected):
    assert basis_cache.default_directory(environ) == expected


# ---------------------------------------------------------------------------
# edge-list entries

EDGE_LIST = "src\tdst\tweight\n0\t1\t2.5\n1\t0\t2.5\n1\t2\t1-2i\n4\t4\t0\n"


def edge_list(tmp_path, text=EDGE_LIST):
    p = tmp_path / "g.tsv"
    p.write_text(text)
    return p


def read(path, cache, directed=None):
    """The graph of ``path`` through ``cache``, and the cache's outcome."""
    g = read_edge_list(path, directed=directed, cache=cache)
    return g, outcome(g)


def same_graph(a, b):
    assert (a.n, a.directed) == (b.n, b.directed)
    for x, y in zip(graph_module._nonzeros(a), graph_module._nonzeros(b)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("corrupt", sorted(set(CORRUPTIONS) - {"shape beyond the data"}))
def test_a_corrupted_edge_list_entry_is_reparsed_and_rewritten(corrupt, tmp_path):
    p, cache = edge_list(tmp_path), tmp_path / "cache"
    read(p, cache)
    [name] = entries(cache)
    good = (cache / name).read_bytes()
    (cache / name).write_bytes(CORRUPTIONS[corrupt](good))
    g, got = read(p, cache)
    assert got == "miss"
    same_graph(read_edge_list(p), g)
    assert (cache / name).read_bytes() == good
    assert read(p, cache)[1] == "hit"


MISSHAPEN = {
    "int32 rows": lambda head, r, c, v: [head, r.astype(np.int32), c, v],
    "float32 values": lambda head, r, c, v: [head, r, c, v.real.astype(np.float32)],
    "integer values": lambda head, r, c, v: [head, r, c, v.real.astype(np.int64)],
    "a column short": lambda head, r, c, v: [head, r, c[:-1], v],
    "2-d values": lambda head, r, c, v: [head, r, c, v[None]],
    "a row outside n": lambda head, r, c, v: [head * [0, 1] + [2, 0], r, c, v],
    "a negative column": lambda head, r, c, v: [head, r, c - 1, v],
    "no nodes": lambda head, r, c, v: [head * [0, 1], r[:0], c[:0], v[:0]],
    "direction 2": lambda head, r, c, v: [head + [0, 2], r, c, v],
    "a header of three": lambda head, r, c, v: [np.append(head, 0), r, c, v],
    "a float header": lambda head, r, c, v: [head.astype(float), r, c, v],
}


@pytest.mark.parametrize("shape", sorted(MISSHAPEN))
def test_a_misshapen_edge_list_entry_with_a_good_digest_is_a_miss(shape, tmp_path):
    p, cache = edge_list(tmp_path), tmp_path / "cache"
    g, _ = read(p, cache)
    [name] = entries(cache)
    good = (cache / name).read_bytes()
    head = np.array([g.n, g.directed])
    misshapen = MISSHAPEN[shape](head, *graph_module._nonzeros(g))
    assert basis_cache.store(cache, name[:-len(".npy")], misshapen)
    assert (cache / name).read_bytes() != good
    again, got = read(p, cache)
    assert got == "miss"
    same_graph(g, again)
    assert (cache / name).read_bytes() == good


@pytest.mark.parametrize("text, directed", [
    ("src\tdst\tweight\n0\t1\tfoo\n", None),
    ("src\tdst\tweight\n0\t1\t1\n0\t1\t2\n", None),
    ("src\tdst\tweight\n0\t1\tinf\n", None),
    ("src\tdst\tweight\n0\t1\t1\n", False),
    ("src\tdst\tweight\n", None),
    ("0\t1\t1\n", None),
], ids=["bad-weight", "duplicate", "infinite", "asymmetric-undirected", "no-edges",
        "no-header"])
def test_a_refused_edge_list_is_refused_on_every_run_and_leaves_no_entry(text, directed,
                                                                          tmp_path):
    p, cache = edge_list(tmp_path, text), tmp_path / "cache"
    with pytest.raises(ValueError) as parsed:
        read_edge_list(p, directed=directed)
    for _ in range(2):
        with pytest.raises(ValueError) as got:
            read_edge_list(p, directed=directed, cache=cache)
        assert str(got.value) == str(parsed.value)
    assert entries(cache) == []


def test_each_direction_argument_has_its_own_edge_list_entry(tmp_path):
    p, cache = edge_list(tmp_path, "src\tdst\tweight\n0\t1\t2\n1\t0\t2\n"), tmp_path / "c"
    keys = set()
    for directed in (None, True, False):
        g, got = read(p, cache, directed)
        assert got == "miss"
        keys.add(g.__dict__["_cache"]["key"])
    assert len(keys) == len(entries(cache)) == 3
    for directed in (None, True, False):
        g, got = read(p, cache, directed)
        assert got == "hit" and g.directed is bool(directed)


def test_the_same_bytes_at_another_path_hit(tmp_path):
    p, cache = edge_list(tmp_path), tmp_path / "cache"
    q = tmp_path / "elsewhere.tsv"
    q.write_bytes(p.read_bytes())
    assert read(p, cache)[1] == "miss" and read(q, cache)[1] == "hit"
    p.write_text(EDGE_LIST.replace("2.5", "2.25"))
    assert read(p, cache)[1] == "miss"


def test_without_a_cache_an_edge_list_touches_no_file(tmp_path, monkeypatch):
    p = edge_list(tmp_path)

    def refuse(*args):
        raise AssertionError("the cache was used")

    for name in ("_key", "_read", "store"):
        monkeypatch.setattr(basis_cache, name, refuse)
    assert "_cache" not in read_edge_list(p).__dict__
    assert list(tmp_path.iterdir()) == [p]


def test_edge_list_and_basis_entries_share_one_bound(tmp_path, monkeypatch):
    p, cache = edge_list(tmp_path), tmp_path / "cache"
    g, _ = read(p, cache)
    [graph_entry] = entries(cache)
    os.utime(cache / graph_entry, (1e9, 1e9))  # used longest ago
    decompose(g, cache=cache)
    [basis_entry] = set(entries(cache)) - {graph_entry}
    sizes = [(cache / name).stat().st_size for name in (graph_entry, basis_entry)]
    # room for the basis and one more edge list, not for both edge lists
    monkeypatch.setattr(basis_cache, "MAX_BYTES", sum(sizes) + sizes[0] // 2)
    q = edge_list(tmp_path / "cache", EDGE_LIST.replace("2.5", "2.25"))
    read(q, cache)
    assert basis_entry in entries(cache) and graph_entry not in entries(cache)
    assert len(entries(cache)) == 2


# ---------------------------------------------------------------------------
# the command line


def sensor_inputs(tmp_path, *flags):
    """A 4-NN graph on 40 points, a filter, three history snapshots and a
    current one."""
    rng = np.random.default_rng(2)
    write_points(tmp_path / "points.csv", rng.random((40, 2)))
    assert run("gen", "knn", tmp_path / "points.csv", 4, *flags,
               "--out", tmp_path / "g") == 0
    write_filter(tmp_path / "f.json", GraphFilter([0.5, -0.25, 0.125]))
    signals = [tmp_path / f"s{i}.csv" for i in range(4)]
    for p in signals:
        write_signal(p, rng.standard_normal(40))
    return tmp_path / "g" / "graph.tsv", tmp_path / "f.json", signals


def commands(graph, filt, signals):
    history = ["--history", *signals[:3], "--current", signals[3]]
    return {"spectrum": ["spectrum", graph],
            "design": ["design", graph, "--kind", "highpass", "--degree", 4],
            "detect": ["detect", graph, *history, "--filter", filt],
            "detect-design": ["detect", graph, *history, "--degree", 4],
            "filter-spectra": ["filter", graph, filt, signals[0], "--spectra"]}


def manifest(out):
    return json.loads((out / "manifest.json").read_text())


@pytest.mark.parametrize("graph", ["directed", "symmetrized", "svd-path"])
def test_warm_outputs_are_the_cold_ones_byte_for_byte(graph, tmp_path, monkeypatch):
    inputs = sensor_inputs(tmp_path, *(["--symmetrize"] if graph == "symmetrized" else []))
    if graph == "svd-path":
        exact = decompose(read_edge_list(inputs[0])).basis_condition
        monkeypatch.setattr(spectral, "DEFECTIVE_COND_LIMIT", 1.5 * exact)
    for name, argv in commands(*inputs).items():
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / f"{name}-cache"))
        cold, warm = tmp_path / f"{name}-cold", tmp_path / f"{name}-warm"
        assert run(*argv, "--out", cold) == 0
        assert run(*argv, "--out", warm) == 0
        a, b = manifest(cold), manifest(warm)
        assert list(a["outputs"]) == list(b["outputs"]) and a["outputs"]
        for out in a["outputs"]:
            assert (cold / out).read_bytes() == (warm / out).read_bytes(), (name, out)
        assert a["basis"]["cache"] == "miss"
        assert b["basis"] == {**a["basis"], "cache": "hit"}, name
        assert len(a["basis"]["key"]) == 64


def test_only_commands_that_build_a_spectrum_record_the_cache(tmp_path):
    graph, filt, signals = sensor_inputs(tmp_path)
    assert "basis" not in manifest(tmp_path / "g")
    assert run("filter", graph, filt, signals[0], "--out", tmp_path / "f") == 0
    assert "basis" not in manifest(tmp_path / "f")
    assert run("spectrum", graph, "--out", tmp_path / "s") == 0
    assert manifest(tmp_path / "s")["basis"]["cache"] == "miss"


def test_a_refused_graph_exits_2_on_every_run_and_leaves_no_entry(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("src\tdst\tweight\n0\t1\t1.0\n")  # a nilpotent Jordan block
    for _ in range(2):
        assert run("spectrum", p, "--out", tmp_path / "s") == 2
    # no basis entry: the one entry is the valid file's parsed graph
    g = read_edge_list(p, cache=basis_cache.default_directory())
    assert g.__dict__["_cache"]["cache"] == "hit"
    assert entries(basis_cache.default_directory()) == [g.__dict__["_cache"]["key"] + ".npy"]


@pytest.mark.parametrize("environ", [{"XDG_CACHE_HOME": "file"},
                                     {"XDG_CACHE_HOME": "", "HOME": "relative"}],
                         ids=["xdg-is-a-file", "relative-home"])
def test_an_unusable_cache_still_succeeds(environ, tmp_path, monkeypatch, capsys):
    graph, filt, signals = sensor_inputs(tmp_path)
    (tmp_path / "file").write_text("")
    for var, value in environ.items():
        monkeypatch.setenv(var, str(tmp_path / value) if value == "file" else value)
    argv = commands(graph, filt, signals)["detect"]
    for out in ("a", "b"):
        assert run(*argv, "--out", tmp_path / out) == 0
        basis = manifest(tmp_path / out)["basis"]
        assert basis["cache"] == "unavailable"
        assert (basis["key"] is None) == ("HOME" in environ)
    assert (tmp_path / "a" / "detection.json").read_bytes() \
        == (tmp_path / "b" / "detection.json").read_bytes()
    assert capsys.readouterr().err == ""


def test_verbose_logs_the_outcome_and_the_key(tmp_path, capsys):
    graph = sensor_inputs(tmp_path, "--symmetrize")[0]
    for expected in ("miss", "hit"):
        capsys.readouterr()
        assert run("--verbose", "design", graph, "--kind", "lowpass", "--degree", 3,
                   "--out", tmp_path / expected) == 0
        key = manifest(tmp_path / expected)["basis"]["key"]
        assert f"basis_cache: {expected} solver=eigvalsh key={key}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [(), ("--symmetrize",)], ids=["directed", "symmetrized"])
def test_a_warm_command_computes_no_spectral_radius(flags, tmp_path, capsys, monkeypatch):
    # a miss certifies rho once and stores it with the basis; a hit restores it
    for name, argv in commands(*sensor_inputs(tmp_path, *flags)).items():
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / f"{name}-cache"))
        for expected, records in (("miss", 1), ("hit", 0)):
            capsys.readouterr()
            assert run("--verbose", *argv, "--out", tmp_path / f"{name}-{expected}") == 0
            assert manifest(tmp_path / f"{name}-{expected}")["basis"]["cache"] == expected
            err = capsys.readouterr().err
            assert err.count("spectral_radius: n=40 path=krylov") == records, (name, expected)


def spy_on_basis_solves(monkeypatch, n=40):
    """The SVDs, cond2s and n x n eigs run from here on, by name in order;
    the Arnoldi's eig of its small Hessenberg matrix does not count."""
    calls = []

    def spy(name, fn, shape=None):
        def call(x, *args, **kwargs):
            if shape is None or np.shape(x) == shape:
                calls.append(name)
            return fn(x, *args, **kwargs)
        return call

    for name in ("svd", "cond"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    monkeypatch.setattr(np.linalg, "eig", spy("eig", np.linalg.eig, (n, n)))
    return calls


FIRST = ["spectrum", "design", "detect", "detect-design", "filter-spectra"]


@pytest.mark.parametrize("first", FIRST)
def test_a_warm_directed_spectrum_runs_no_solve_whatever_stored_its_entry(
        first, tmp_path, monkeypatch):
    # spectrum reports the exact condition, so its entry stores it; an entry
    # that decompose stored without it is computed once more and overwritten
    argvs = commands(*sensor_inputs(tmp_path))
    cache = basis_cache.default_directory()
    assert run(*argvs[first], "--out", tmp_path / "first") == 0
    stored = entries(cache)
    assert run(*argvs["spectrum"], "--out", tmp_path / "next") == 0
    assert manifest(tmp_path / "next")["basis"]["cache"] == (
        "hit" if first == "spectrum" else "miss")
    assert entries(cache) == stored  # the same key, rewritten
    with monkeypatch.context() as m:
        calls = spy_on_basis_solves(m)
        assert run(*argvs["spectrum"], "--out", tmp_path / "warm") == 0
    assert calls == []
    assert manifest(tmp_path / "warm")["basis"]["cache"] == "hit"


@pytest.mark.parametrize("name", FIRST[1:])
def test_a_cold_directed_basis_accepted_on_its_bound_runs_no_svd(name, tmp_path,
                                                                  monkeypatch, capsys):
    argv = commands(*sensor_inputs(tmp_path))[name]
    calls = spy_on_basis_solves(monkeypatch)
    capsys.readouterr()
    assert run("--verbose", *argv, "--out", tmp_path / "cold") == 0
    assert manifest(tmp_path / "cold")["basis"]["cache"] == "miss"
    assert calls == ["eig"]
    assert "condition_path=bound" in capsys.readouterr().err


def test_a_directed_spectrum_json_has_the_same_bytes_in_every_order(tmp_path, monkeypatch):
    argvs = commands(*sensor_inputs(tmp_path))
    written = {}
    for first in FIRST:
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / f"{first}-cache"))
        assert run(*argvs[first], "--out", tmp_path / first) == 0
        for step in ("next", "warm"):
            out = tmp_path / f"{first}-{step}"
            assert run(*argvs["spectrum"], "--out", out) == 0
            written[first, step] = (out / "spectrum.json").read_bytes()
    written["alone"] = (tmp_path / "spectrum" / "spectrum.json").read_bytes()
    assert len(set(written.values())) == 1
    exact = decompose(read_edge_list(tmp_path / "g" / "graph.tsv")).basis_condition
    assert json.loads(written["alone"])["basis_condition"] == exact


def graph_commands(tmp_path):
    """Every command that reads the sensor graph, each under its own name:
    the spectrum commands, plain ``filter``, and ``classify`` in both modes."""
    graph, filt, signals = sensor_inputs(tmp_path)
    labels = np.where(np.arange(40) < 20, 1.0, -1.0)
    write_signal(tmp_path / "truth.csv", labels)
    write_signal(tmp_path / "known.csv", labels * (np.arange(40) % 4 == 0))
    known, truth = tmp_path / "known.csv", tmp_path / "truth.csv"
    return {**commands(graph, filt, signals),
            "filter": ["filter", graph, filt, signals[0]],
            "classify": ["classify", graph, known, "--form", "shift"],
            "sweep": ["classify", graph, known, "--sweep", "0.5,2", "--runs", 2,
                      "--truth", truth]}


def test_every_command_that_reads_a_graph_records_its_outcome(tmp_path):
    argvs = graph_commands(tmp_path)
    assert "graph" not in manifest(tmp_path / "g")
    keys = set()
    for i, (name, argv) in enumerate(argvs.items()):
        for expected in (("miss" if i == 0 else "hit"), "hit"):
            out = tmp_path / f"{name}-{expected}"
            assert run(*argv, "--out", out) == 0
            assert manifest(out)["graph"]["cache"] == expected, name
            keys.add(manifest(out)["graph"]["key"])
    assert len(keys) == 1 and len(keys.pop()) == 64


def test_each_command_reads_its_graph_file_once(tmp_path, monkeypatch):
    # one sha256 of the bytes read serves the cache key and the manifest
    argvs = graph_commands(tmp_path)
    graph = str(tmp_path / "g" / "graph.tsv")
    real, reads = builtins.open, []

    def counting_open(file, *args, **kwargs):
        if os.fspath(file) == graph:
            reads.append(file)
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    for name, argv in argvs.items():
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / f"{name}-cache"))
        for expected in ("miss", "hit"):
            reads.clear()
            out = tmp_path / f"{name}-{expected}"
            assert run(*argv, "--out", out) == 0
            assert manifest(out)["graph"]["cache"] == expected
            assert len(reads) == 1, (name, expected)
    digest = hashlib.sha256((tmp_path / "g" / "graph.tsv").read_bytes()).hexdigest()
    assert manifest(out)["inputs"][graph] == digest


@pytest.mark.parametrize("name", ["filter", "classify", "sweep"])
def test_outputs_of_a_graph_hit_are_those_of_a_parse_byte_for_byte(name, tmp_path,
                                                                   monkeypatch):
    argv = graph_commands(tmp_path)[name]
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "own-cache"))
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    assert run(*argv, "--out", cold) == 0
    assert run(*argv, "--out", warm) == 0
    a, b = manifest(cold), manifest(warm)
    assert (a["graph"]["cache"], b["graph"]["cache"]) == ("miss", "hit")
    assert list(a["outputs"]) == list(b["outputs"]) and a["outputs"]
    for out in a["outputs"]:
        assert (cold / out).read_bytes() == (warm / out).read_bytes(), out


@pytest.mark.parametrize("environ", [{"XDG_CACHE_HOME": "file"},
                                     {"XDG_CACHE_HOME": "", "HOME": "relative"}],
                         ids=["xdg-is-a-file", "relative-home"])
def test_an_unusable_cache_records_the_graph_unavailable(environ, tmp_path, monkeypatch,
                                                          capsys):
    argv = graph_commands(tmp_path)["classify"]
    (tmp_path / "file").write_text("")
    for var, value in environ.items():
        monkeypatch.setenv(var, str(tmp_path / value) if value == "file" else value)
    capsys.readouterr()
    for out in ("a", "b"):
        assert run(*argv, "--out", tmp_path / out) == 0
        graph = manifest(tmp_path / out)["graph"]
        assert graph["cache"] == "unavailable"
        assert (graph["key"] is None) == ("HOME" in environ)
    assert capsys.readouterr().err == ""
    assert run("--verbose", *argv, "--out", tmp_path / "c") == 0
    key = manifest(tmp_path / "c")["graph"]["key"]
    expected = ("basis_cache: unavailable, the home directory is not an absolute path"
                if key is None else
                f"basis_cache: unavailable edge_list={argv[1]} key={key}")
    assert capsys.readouterr().err.count(expected) == 1


def test_verbose_logs_the_graph_outcome_and_the_key(tmp_path, capsys):
    argv = graph_commands(tmp_path)["filter"]
    for expected in ("miss", "hit"):
        capsys.readouterr()
        assert run("--verbose", *argv, "--out", tmp_path / expected) == 0
        key = manifest(tmp_path / expected)["graph"]["key"]
        records = [line for line in capsys.readouterr().err.splitlines()
                   if line.startswith("basis_cache:")]
        assert records == [f"basis_cache: {expected} edge_list={argv[1]} key={key}"]


# ---------------------------------------------------------------------------
# rerun checks the recorded output digests


def test_rerun_names_an_output_whose_digest_differs(tmp_path, capsys):
    graph, filt, signals = sensor_inputs(tmp_path)
    first = tmp_path / "first"
    assert run(*commands(graph, filt, signals)["filter-spectra"], "--out", first) == 0
    # the recorded run's spectra.csv is made to differ from what a replay writes
    doc = manifest(first)
    doc["outputs"]["spectra.csv"] = "0" * 64
    (first / "manifest.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("rerun", first / "manifest.json", "--out", tmp_path / "second") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith(": spectra.csv")
    assert "filtered.csv" not in err


def test_rerun_names_each_environment_field_that_differs(tmp_path, capsys):
    graph, filt, signals = sensor_inputs(tmp_path)
    first = tmp_path / "first"
    assert run(*commands(graph, filt, signals)["filter-spectra"], "--out", first) == 0
    doc = manifest(first)
    doc["outputs"]["spectra.csv"] = "0" * 64
    recorded = doc["environment"]
    for environment, cause in [
            ({**recorded, "threads": {**recorded["threads"], "OMP_NUM_THREADS": "64"}},
             "environment differs in: threads"),
            ({k: v for k, v in recorded.items() if k != "sources"},
             "environment differs in: sources"),
            (recorded, "environment matches")]:
        (first / "manifest.json").write_text(json.dumps({**doc, "environment": environment}))
        capsys.readouterr()
        assert run("rerun", first / "manifest.json", "--out", tmp_path / "second") == 1
        err = capsys.readouterr().err
        assert err == (f"error: {first / 'manifest.json'}: replayed output differs from "
                       f"the recorded run ({cause}): spectra.csv\n")


def test_the_manifest_records_the_cpu_count_that_the_key_hashes(tmp_path, monkeypatch):
    graph = sensor_inputs(tmp_path)[0]
    assert run("spectrum", graph, "--out", tmp_path / "a") == 0
    cpus = basis_cache._cpus()
    monkeypatch.setattr(basis_cache, "_cpus", lambda: cpus + 1)
    assert run("spectrum", graph, "--out", tmp_path / "b") == 0
    a, b = manifest(tmp_path / "a"), manifest(tmp_path / "b")
    assert a["environment"]["cpus"] == cpus and b["environment"]["cpus"] == cpus + 1
    assert {**a["environment"], "cpus": cpus + 1} == b["environment"]
    assert b["basis"]["cache"] == "miss" and b["basis"]["key"] != a["basis"]["key"]
    assert a["outputs"] == b["outputs"]


def test_rerun_of_a_cold_manifest_on_a_warm_cache_passes(tmp_path):
    graph, filt, signals = sensor_inputs(tmp_path)
    cold = tmp_path / "cold"
    assert run(*commands(graph, filt, signals)["detect-design"], "--out", cold) == 0
    assert manifest(cold)["basis"]["cache"] == "miss"
    assert run("rerun", cold / "manifest.json", "--out", tmp_path / "warm") == 0
    assert manifest(tmp_path / "warm")["basis"]["cache"] == "hit"


def test_rerun_refuses_a_manifest_without_output_digests(tmp_path, capsys):
    # a replay that could not be checked is no reproduction: the outputs
    # recorded as names only (before they had digests), none, or absent
    m = tmp_path / "manifest.json"
    for doc in [{"outputs": ["graph.tsv"]}, {"outputs": {}}, {}]:
        m.write_text(json.dumps({"command": ["gen", "cycle", "4"], **doc}))
        assert run("rerun", m, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == (f"error: {m}: manifest records no output "
                                           f"digests, so a replay could not be checked\n")
        assert not (tmp_path / "o").exists()


def test_a_graph_of_one_node_round_trips(tmp_path):
    g = Graph(np.array([[2.0]]))
    decompose(g, cache=tmp_path)
    same_result(decompose(g), decompose(Graph(np.array([[2.0]])), cache=tmp_path))
