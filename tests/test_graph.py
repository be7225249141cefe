import itertools
import logging
import tracemalloc

import numpy as np
import pytest

from graphdsp import (
    Graph,
    GraphSignal,
    LabelSignal,
    build_knn_graph,
    cycle_graph,
    euclidean,
    graph_shift,
    haversine_km,
    laplacian,
    normalize_shift,
    path_graph,
    regular_graph,
    sbm_graph,
)
from graphdsp import graph as graph_module
from graphdsp.graph import (BRACKET_RTOL, DENSE_PRODUCT_FILL, KRYLOV_MAX_RESTARTS,
                            SYMMETRY_TOL, _components, _nearest, _nonzeros, _shift)


def test_adjacency_must_be_square():
    with pytest.raises(ValueError):
        Graph(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Graph(np.zeros(4))


def test_adjacency_must_be_finite():
    with pytest.raises(ValueError):
        Graph([[0.0, np.inf], [1.0, 0.0]])
    with pytest.raises(ValueError):
        Graph([[0.0, np.nan], [1.0, 0.0]])


def test_adjacency_coercion_matches_the_complex_round_trip():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 6))
    x[0, 1] = -0.0
    inputs = [x, x.astype(np.float32), (x * 100).astype(np.int64), x > 0,
              [[0, 1], [2, 3]], x + 0j, x + 1j * (x > 1), x.astype(object),
              (x + 0j).astype(object)]
    for values in inputs:
        c = np.asarray(values).astype(complex)
        ref = c.real.astype(float) if np.all(c.imag == 0.0) else c
        ref[ref == 0] = 0  # an entry equal to zero, -0.0 too, is no edge: +0
        got = Graph(values).adjacency
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        Graph(np.zeros((0, 0)))


def test_directedness_detected_structurally():
    sym = Graph([[0, 1], [1, 0]])
    assert not sym.directed
    asym = Graph([[0, 1], [0, 0]])
    assert asym.directed
    # complex weights are never treated as undirected
    cpx = Graph(np.array([[0, 1j], [-1j, 0]]))
    assert cpx.directed


def test_symmetry_decision_matches_the_two_temporary_reference():
    # near-symmetric real matrices straddling SYMMETRY_TOL, at scales where
    # the rounded difference falls on either side of it; at N=600 the
    # asymmetry sits in the first, a diagonal and the last partial panel
    rng = np.random.default_rng(29)
    for n, (r, c) in ((7, (2, 5)), (600, (5, 590)), (600, (300, 299)), (600, (599, 598))):
        for scale, gap in itertools.product((1.0, 1e3, 1e4),
                                            (0.0, 0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0)):
            a = rng.random((n, n)) * scale
            a = a + a.T
            a[r, c] += gap * SYMMETRY_TOL
            old = bool(np.all(np.abs(a - a.T) <= SYMMETRY_TOL))
            assert Graph(a).directed == (not old)
            assert Graph(a.T).directed == (not old)


def test_directed_flag_overrides_symmetric_matrix():
    g = Graph([[0, 1], [1, 0]], directed=True)
    assert g.directed


def test_undirected_claim_on_asymmetric_matrix_rejected():
    with pytest.raises(ValueError):
        Graph([[0, 1], [0, 0]], directed=False)


def test_adjacency_is_immutable():
    g = Graph([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        g.adjacency[0, 0] = 5.0


def test_spectral_radius():
    assert cycle_graph(4).spectral_radius == pytest.approx(1.0)
    assert path_graph(3).spectral_radius == pytest.approx(np.sqrt(2))
    assert Graph(2 * np.eye(3)).spectral_radius == pytest.approx(2.0)
    assert Graph(np.zeros((3, 3))).spectral_radius == 0.0


def _undirected_fixtures():
    knn = build_knn_graph(np.random.default_rng(1).random((200, 2)), 6,
                          symmetrize=True)
    sbm, _ = sbm_graph(120, 0.3, 0.05, seed=2)
    w = np.random.default_rng(3).random((30, 40))
    bipartite = Graph(np.block([[np.zeros((30, 30)), w],
                                [w.T, np.zeros((40, 40))]]))
    return {"knn": knn, "sbm": sbm, "bipartite": bipartite}


def radius_records(caplog):
    return [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("spectral_radius:")]


def record_fields(record):
    """The key=value fields of a spectral_radius record, the bracket as a
    pair of floats."""
    head, bracket = record.split(" bracket=[")
    lo, rest = bracket.split(", ")
    hi, rho = rest.split("] rho=")
    fields = dict(f.split("=") for f in head.split()[1:])
    return {**fields, "bracket": (float(lo), float(hi)), "rho": float(rho)}


@pytest.mark.parametrize("name", ["knn", "sbm", "bipartite"])
def test_undirected_spectral_radius_from_lanczos_matches_dense(name, caplog):
    # the Arnoldi process on a symmetric matrix is Lanczos with full
    # reorthogonalization; its rho is certified by the bracket
    g = _undirected_fixtures()[name]
    dense = np.linalg.eigvalsh(g.adjacency)
    with caplog.at_level(logging.DEBUG, logger="graphdsp"):
        rho = g.spectral_radius
    [record] = radius_records(caplog)
    fields = record_fields(record)
    assert (fields["path"], fields["blocks"], fields["certified"]) == ("krylov", "1", "1")
    lo, hi = fields["bracket"]
    assert rho == hi == fields["rho"] and hi - lo <= BRACKET_RTOL * hi
    assert abs(rho - np.abs(dense).max()) <= 1e-12 * rho
    if name == "bipartite":
        assert dense[0] == pytest.approx(-dense[-1], rel=1e-12)
    again = Graph(np.array(g.adjacency))
    assert again.spectral_radius == rho


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tiny_undirected_spectral_radius_is_dense(n, caplog):
    # only a zero adjacency, or one with a negative weight, is dense at any
    # size; the complete graph K_n, of constant row sums, is certified at x = 1
    a = np.ones((n, n)) - np.eye(n)
    with caplog.at_level(logging.DEBUG, logger="graphdsp"):
        assert Graph(np.zeros((n, n))).spectral_radius == 0.0
        assert Graph(np.zeros((40, 40))).spectral_radius == 0.0
        assert Graph(-a).spectral_radius == float(np.abs(np.linalg.eigvalsh(-a)).max())
    assert all(" path=dense " in r for r in radius_records(caplog))
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="graphdsp"):
        assert Graph(a).spectral_radius == n - 1
    assert radius_records(caplog)[0].startswith(
        f"spectral_radius: n={n} path={'krylov' if n > 1 else 'dense'} ")  # K_1 is zero


def test_spectral_radius_falls_back_to_dense_when_the_bracket_does_not_close(monkeypatch):
    monkeypatch.setattr(graph_module, "_arnoldi_bracket",
                        lambda *args: (None, KRYLOV_MAX_RESTARTS))
    g = _undirected_fixtures()["knn"]
    assert g.spectral_radius == float(np.abs(np.linalg.eigvalsh(g.adjacency)).max())
    d = build_knn_graph(np.random.default_rng(1).random((200, 2)), 6)
    assert d.spectral_radius == float(np.abs(np.linalg.eigvals(d.adjacency)).max())


def test_dags_and_directed_cycles_fall_back_to_dense(caplog):
    # every DAG, a directed path among them, has a node without in-edges, so
    # its bracket's lower end is pinned at 0 and Arnoldi is never run; the
    # eigenvalues of a cycle share one modulus, and where its weights differ
    # (so x = 1 does not close the bracket) the bracket stops narrowing
    rng = np.random.default_rng(0)
    dags = [np.tril(rng.random((21, 21)), -1), np.eye(200, k=-1),
            np.tril(rng.random((300, 300)), -1)]
    for a in dags:
        with caplog.at_level(logging.DEBUG, logger="graphdsp"):
            assert Graph(a).spectral_radius == 0.0
        [record] = radius_records(caplog)
        assert " blocks=1 certified=0 restarts=0 " in record
        caplog.clear()
    g = Graph(np.roll(np.diag(1.0 + rng.random(200)), 1, axis=0))
    with caplog.at_level(logging.DEBUG, logger="graphdsp"):
        assert g.spectral_radius == float(np.abs(np.linalg.eigvals(g.adjacency)).max())
    fields = record_fields(radius_records(caplog)[0])
    assert (fields["certified"], fields["bracket"]) == ("0", (g.spectral_radius,) * 2)
    assert int(fields["restarts"]) < KRYLOV_MAX_RESTARTS  # it stalls


def test_constant_row_sums_are_certified_at_x_equal_one(monkeypatch, caplog):
    # at x = 1 the bracket is [min row sum, max row sum]: it closes before
    # any Arnoldi restart on a cycle or a regular graph, and rho is exact
    def no_dense(*args):
        raise AssertionError("the dense solver was taken")

    monkeypatch.setattr(graph_module, "_dense_radius", no_dense)
    for g, rho in ((cycle_graph(5000), 1.0), (regular_graph(600, 4, seed=1), 4.0)):
        with caplog.at_level(logging.DEBUG, logger="graphdsp"):
            assert g.spectral_radius == rho
        fields = record_fields(radius_records(caplog)[0])
        assert (fields["certified"], fields["restarts"]) == ("1", "0")
        assert fields["bracket"] == (rho, rho)
        caplog.clear()


def test_lanczos_runs_under_the_restart_budget(monkeypatch, caplog):
    # directed and undirected graphs share the restart cap, and each cold
    # call runs one Arnoldi per weak component
    calls = []
    real = graph_module._arnoldi_bracket

    def spy(block):
        calls.append(block.n)
        return real(block)

    monkeypatch.setattr(graph_module, "_arnoldi_bracket", spy)
    points = np.random.default_rng(1).random((200, 2))
    with caplog.at_level(logging.DEBUG, logger="graphdsp"):
        for symmetrize in (False, True):
            g = build_knn_graph(points, 6, symmetrize=symmetrize)
            assert abs(g.spectral_radius - 1.0) <= 1e-12
    assert calls == [200, 200]
    assert 0 < KRYLOV_MAX_RESTARTS < np.inf
    for record in radius_records(caplog):
        fields = record_fields(record)
        assert fields["certified"] == "1"
        assert 1 <= int(fields["restarts"]) <= KRYLOV_MAX_RESTARTS


@pytest.mark.parametrize("kind", ["cycle", "path"])
def test_undirected_cycles_and_paths_fall_back_to_dense(kind, caplog):
    # the gap between rho and the next eigenvalue is about 1e-4 at 500
    # nodes, so restarted Arnoldi stalls or runs out of restarts; the cycle
    # is weighted, since x = 1 certifies one with constant row sums
    w = 1.0 + np.random.default_rng(4).random(500)
    a = np.roll(np.diag(w), 1, axis=0) if kind == "cycle" else np.eye(500, k=-1)
    g = Graph(a + a.T)
    with caplog.at_level(logging.DEBUG, logger="graphdsp"):
        assert g.spectral_radius == float(np.abs(np.linalg.eigvalsh(g.adjacency)).max())
    [record] = radius_records(caplog)
    fields = record_fields(record)
    assert (fields["n"], fields["path"], fields["certified"]) == ("500", "krylov", "0")
    assert int(fields["restarts"]) <= KRYLOV_MAX_RESTARTS


def test_spectral_radius_logs_its_path_once(caplog):
    points = np.random.default_rng(1).random((200, 2))
    graphs = [("krylov", build_knn_graph(points, 6)),
              ("krylov", build_knn_graph(points, 6, symmetrize=True)),
              ("krylov", cycle_graph(8)),
              ("dense", Graph(-cycle_graph(8).adjacency))]
    with caplog.at_level(logging.DEBUG, logger="graphdsp"):
        for path, g in graphs:
            rho = g.spectral_radius
            assert g.spectral_radius == rho  # cached: no second record
            [record] = radius_records(caplog)
            assert record.startswith(f"spectral_radius: n={g.n} path={path} ")
            assert record.endswith(f" rho={rho:.17g}")
            caplog.clear()


def test_spectral_radius_of_a_disconnected_graph_is_its_largest_block(caplog):
    # two blocks, an isolated node with a self-loop, and isolated nodes: each
    # block gets its own Arnoldi, and the dense solver sees no block
    rng = np.random.default_rng(5)
    a = np.zeros((300, 300))
    a[:100, :100] = rng.random((100, 100))
    a[150:, 150:] = rng.random((150, 150)) < 0.05
    a[120, 120] = 7.0
    p = rng.permutation(300)
    g = Graph(a[np.ix_(p, p)])
    with caplog.at_level(logging.DEBUG, logger="graphdsp"):
        rho = g.spectral_radius
    fields = record_fields(radius_records(caplog)[0])
    assert (fields["blocks"], fields["certified"]) == ("2", "2")
    dense = np.abs(np.linalg.eigvals(a[:100, :100])).max()
    assert abs(rho - dense) <= 1e-12 * dense
    a[120, 120] = 60.0
    assert Graph(a).spectral_radius == 60.0


def bincount_calls(monkeypatch):
    """Count the products taken over the sparse view (``_product``)."""
    calls = []
    real = graph_module._product

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(graph_module, "_product", spy)
    return calls


def test_full_density_spectral_radius_takes_dense_products(monkeypatch, caplog):
    a = np.random.default_rng(37).random((400, 400))
    g = Graph(a + a.T)
    calls = bincount_calls(monkeypatch)
    blocks = []
    real = graph_module._arnoldi_bracket

    def spy(block):
        blocks.append(block)
        return real(block)

    monkeypatch.setattr(graph_module, "_arnoldi_bracket", spy)
    with caplog.at_level(logging.DEBUG, logger="graphdsp"):
        rho = g.spectral_radius
    fields = record_fields(radius_records(caplog)[0])
    assert (fields["path"], fields["certified"]) == ("krylov", "1")
    dense = np.abs(np.linalg.eigvalsh(g.adjacency)).max()
    assert abs(rho - dense) <= 1e-12 * dense
    assert calls == []  # every Arnoldi product was the dense one
    assert len(blocks) == 1 and blocks[0] is g  # the graph itself, not a copy
    # two dense components, half the graph's entries: each block is a graph
    # of its own over the parent's triplets, and is multiplied densely
    two = Graph(np.kron(np.eye(2), a + a.T))
    assert two.spectral_radius == rho
    assert calls == [] and [b.n for b in blocks[1:]] == [400, 400]
    assert all(b is not two for b in blocks[1:])
    sparse = build_knn_graph(np.random.default_rng(1).random((400, 2)), 6)
    assert np.count_nonzero(sparse.adjacency) <= DENSE_PRODUCT_FILL * sparse.n ** 2
    assert abs(sparse.spectral_radius - 1.0) <= 1e-12
    assert calls


def test_a_spanning_component_takes_the_graphs_own_edge_view(monkeypatch):
    # a component that spans the graph is the graph: its triplets reach the
    # Arnoldi as they are, with no edge selection, and a sparse graph's dense
    # adjacency is never built
    seen = []
    real = graph_module._arnoldi_bracket

    def spy(block):
        seen.append(block)
        return real(block)

    monkeypatch.setattr(graph_module, "_arnoldi_bracket", spy)
    g = build_knn_graph(np.random.default_rng(1).random((200, 2)), 6, symmetrize=True)
    assert np.unique(_components(g)).size == 1
    assert abs(g.spectral_radius - 1.0) <= 1e-12
    [block] = seen
    assert block is g and "_adjacency" not in g.__dict__


@pytest.mark.parametrize("fill", [0.02, 1.0])
def test_shift_products_match_the_adjacency_on_either_side_of_the_switch(fill,
                                                                         monkeypatch):
    rng = np.random.default_rng(11)
    mask = rng.random((200, 200)) < fill
    x = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    calls = bincount_calls(monkeypatch)
    for a in (mask * rng.random((200, 200)),
              mask * (rng.random((200, 200)) + 1j * rng.random((200, 200)))):
        g = Graph(a)
        for v in (x.real, x):
            bound = 1e-13 * np.abs(a).sum(axis=1).max() * np.abs(v).max()
            assert np.abs(_shift(g, v) - a @ v).max() <= bound
            assert np.abs(_shift(g, v, adjoint=True) - a.conj().T @ v).max() <= bound
    assert bool(calls) == (fill < DENSE_PRODUCT_FILL)


def test_components_match_scipy():
    from scipy.sparse.csgraph import connected_components
    rng = np.random.default_rng(8)
    for n, density in ((1, 0.0), (30, 0.02), (200, 0.005), (200, 0.02), (500, 0.003)):
        a = np.where(rng.random((n, n)) < density, rng.random((n, n)), 0.0)
        label = _components(Graph(a))
        count, ref = connected_components(a, directed=True, connection="weak")
        # one label per scipy component, and it is the lowest index in it
        assert np.unique(label).size == count
        for c in range(count):
            nodes = np.flatnonzero(ref == c)
            assert np.all(label[nodes] == nodes.min())


def test_signal_binding_and_validation():
    g = cycle_graph(3)
    s = g.signal([1.0, 2.0, 3.0])
    assert isinstance(s, GraphSignal)
    assert s.graph is g
    with pytest.raises(ValueError):
        g.signal([1.0, 2.0])
    with pytest.raises(ValueError):
        g.signal([1.0, np.nan, 3.0])
    for bad in (complex(1.0, np.inf), complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            g.signal([bad, 0, 0])
    cs = g.signal([1 + 1j, 0, 0])
    assert np.iscomplexobj(cs.values)


def test_signal_values_immutable():
    s = cycle_graph(3).signal([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        s.values[0] = 7.0


def test_label_signal_validation():
    lab = LabelSignal([1, -1, 0, 0])
    assert lab.n == 4
    assert list(lab.known_mask) == [True, True, False, False]
    with pytest.raises(ValueError):
        LabelSignal([0.5, 1, -1])
    with pytest.raises(ValueError):
        LabelSignal([2, 0, 0])
    with pytest.raises(ValueError):
        LabelSignal([[1, 0], [0, 1]])


def test_shift_rotates_cycle():
    g = cycle_graph(3)
    out = graph_shift(g, g.signal([1.0, 2.0, 3.0]))
    assert np.allclose(out.values, [3.0, 1.0, 2.0])


def test_shift_of_zero_signal_is_zero():
    g = cycle_graph(5)
    out = graph_shift(g, g.signal(np.zeros(5)))
    assert np.all(out.values == 0.0)


def test_shift_on_path_moves_delta():
    g = path_graph(3)
    out = graph_shift(g, g.signal([1.0, 0.0, 0.0]))
    assert np.allclose(out.values, [0.0, 1.0, 0.0])


def test_cycle_and_path_are_built_without_a_dense_array():
    # each generator gives the graph of its dense adjacency, and at N = 5000
    # neither peaks near the size of an N x N float64 matrix
    for n in (1, 2, 3, 7):
        cycle, path = np.roll(np.eye(n), 1, axis=0), np.eye(n, k=1) + np.eye(n, k=-1)
        for g, a in ((cycle_graph(n), cycle), (path_graph(n), path)):
            assert np.array_equal(g.adjacency, a) and g.directed == Graph(a).directed
    n = 5000
    for make in (cycle_graph, path_graph):
        tracemalloc.start()
        try:
            make(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8, make.__name__


def test_regular_graph_is_the_networkx_graph_without_a_dense_array():
    # the nonzeros of networkx's dense adjacency of the same draw, and at
    # N = 5000 the build peaks far below one N x N float64 matrix
    import networkx as nx
    for n, d in ((10, 3), (600, 4), (7, 0), (2, 1), (50, 49)):
        dense = Graph(nx.to_numpy_array(nx.random_regular_graph(d, n, seed=3),
                                        nodelist=range(n)))
        g = regular_graph(n, d, seed=3)
        assert not g.directed
        for got, want in zip(_nonzeros(g), _nonzeros(dense)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    n = 5000
    tracemalloc.start()
    try:
        regular_graph(n, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def test_shift_is_linear():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(2, 12)
        a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5)
        g = Graph(a)
        s = rng.standard_normal(n)
        t = rng.standard_normal(n)
        al, be = rng.standard_normal(2)
        left = graph_shift(g, g.signal(al * s + be * t)).values
        right = al * graph_shift(g, g.signal(s)).values \
            + be * graph_shift(g, g.signal(t)).values
        assert np.abs(left - right).max() < 1e-12 * max(1.0, np.abs(right).max())


def test_shift_rejects_foreign_signal():
    g1 = cycle_graph(3)
    g2 = cycle_graph(3)
    s = g2.signal([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        graph_shift(g1, s)


def test_normalize_shift():
    c4 = cycle_graph(4)
    assert np.allclose(normalize_shift(c4).adjacency, c4.adjacency)
    assert np.allclose(normalize_shift(Graph(2 * np.eye(3))).adjacency, np.eye(3))
    p3 = path_graph(3)
    assert np.allclose(normalize_shift(p3).adjacency,
                       p3.adjacency / np.sqrt(2))
    assert normalize_shift(p3).spectral_radius == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        normalize_shift(Graph(np.zeros((2, 2))))


def test_normalized_shift_never_amplifies_undirected_signals():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 15))
        a = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        a = a + a.T
        if not a.any():
            continue
        gn = normalize_shift(Graph(a))
        s = rng.standard_normal(n)
        shifted = graph_shift(gn, gn.signal(s)).values
        assert np.linalg.norm(shifted) <= (1 + 1e-9) * np.linalg.norm(s)


def test_laplacian_of_path():
    expect = [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    assert np.array_equal(laplacian(path_graph(3)), expect)


def test_laplacian_of_edgeless_graph_is_zero():
    assert np.all(laplacian(Graph(np.zeros((4, 4)))) == 0.0)


def test_laplacian_undirected_cycle():
    a = np.zeros((4, 4))
    for i in range(4):
        a[i, (i + 1) % 4] = a[(i + 1) % 4, i] = 1.0
    L = laplacian(Graph(a))
    assert np.allclose(L, 2 * np.eye(4) - a)
    assert np.allclose(np.sort(np.linalg.eigvalsh(L)), [0, 2, 2, 4])


def test_laplacian_row_sums_and_psd():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        a = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        L = laplacian(Graph(a))
        assert np.abs(L.sum(axis=1)).max() < 1e-12
        assert np.linalg.eigvalsh(L).min() > -1e-10


def test_laplacian_rejects_directed_and_negative():
    with pytest.raises(ValueError):
        laplacian(cycle_graph(3))
    with pytest.raises(ValueError):
        laplacian(Graph([[0, -1], [-1, 0]]))


def test_knn_collinear_points():
    g = build_knn_graph([[0.0], [1.0], [2.0]], 1)
    nonzero = np.argwhere(g.adjacency != 0)
    # node 1 is nearest to both ends; 0 and 1 pick each other (tie at
    # distance 1 for node 1 resolved to the lower index 0)
    assert {(int(r), int(c)) for r, c in nonzero} == {(0, 1), (1, 0), (2, 1)}


def test_knn_unit_square_weights():
    pts = [[0, 0], [1, 0], [0, 1], [1, 1]]
    g = build_knn_graph(pts, 2)
    a = g.adjacency
    # every node's two neighbors sit at distance 1, so each weight is
    # exp(-1) / sqrt(2 exp(-1) * 2 exp(-1)) = 1/2
    for n in range(4):
        row = a[n]
        assert np.count_nonzero(row) == 2
        assert np.allclose(row[row != 0], 0.5)
    assert np.all(a.diagonal() == 0.0)


def test_knn_unweighted_mode():
    rng = np.random.default_rng(0)
    g = build_knn_graph(rng.random((10, 2)), 3, unweighted=True)
    vals = np.unique(g.adjacency)
    assert set(vals.tolist()) <= {0.0, 1.0}
    assert np.all(g.adjacency.sum(axis=1) == 3)


def test_knn_weights_in_unit_interval():
    rng = np.random.default_rng(5)
    g = build_knn_graph(rng.random((25, 3)), 4)
    w = g.adjacency[g.adjacency != 0]
    assert np.all(w > 0.0)
    assert np.all(w <= 1.0)


def test_knn_rejects_bad_k():
    pts = [[0.0], [1.0], [2.0]]
    with pytest.raises(ValueError):
        build_knn_graph(pts, 3)
    with pytest.raises(ValueError):
        build_knn_graph(pts, 0)


def test_knn_symmetrize_gives_undirected_graph():
    rng = np.random.default_rng(2)
    g = build_knn_graph(rng.random((12, 2)), 3, symmetrize=True)
    assert not g.directed
    assert np.allclose(g.adjacency, g.adjacency.T)


def test_knn_duplicate_points_deterministic():
    pts = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 5.0]]
    g1 = build_knn_graph(pts, 1)
    g2 = build_knn_graph(pts, 1)
    assert np.array_equal(g1.adjacency, g2.adjacency)
    # all ties: each of the clones picks the lowest-index other clone
    assert g1.adjacency[0, 1] != 0
    assert g1.adjacency[1, 0] != 0
    assert g1.adjacency[2, 0] != 0


def test_euclidean_metric():
    assert euclidean([0, 0], [3, 4]) == pytest.approx(5.0)
    assert euclidean([1.5], [1.5]) == 0.0


def test_haversine_between_poles_and_equator():
    quarter = np.pi / 2 * 6371.0088
    assert haversine_km([0.0, 0.0], [90.0, 0.0]) == pytest.approx(quarter, rel=1e-6)
    assert haversine_km([10.0, 20.0], [10.0, 20.0]) == 0.0


def test_metrics_broadcast_over_point_arrays():
    rng = np.random.default_rng(4)
    pts = rng.random((6, 2)) * [60.0, 120.0]
    for metric in (euclidean, haversine_km):
        row = metric(pts[0], pts)
        assert row.shape == (6,)
        for j, q in enumerate(pts):
            d = metric(pts[0], q)
            assert isinstance(d, float)
            assert row[j] == d


def knn_reference(points, k, metric=euclidean, *, unweighted=False,
                  symmetrize=False):
    """Per-pair k-NN construction: one metric call per point pair, neighbors
    sorted by (distance, index), weights from the plain Gaussian formula."""
    pts = [np.asarray(p, dtype=float) for p in points]
    n = len(pts)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = float(metric(pts[i], pts[j]))
    neighbors = []
    for i in range(n):
        others = sorted((j for j in range(n) if j != i),
                        key=lambda j: (dist[i, j], j))
        neighbors.append(set(others[:k]))
    if symmetrize:
        mutual = [set(nb) for nb in neighbors]
        for i in range(n):
            for j in neighbors[i]:
                mutual[j].add(i)
        neighbors = mutual
    adjacency = np.zeros((n, n))
    gauss = np.exp(-dist ** 2)
    sums = [sum(gauss[i, j] for j in neighbors[i]) for i in range(n)]
    for i in range(n):
        for j in neighbors[i]:
            adjacency[i, j] = (1.0 if unweighted
                               else gauss[i, j] / np.sqrt(sums[i] * sums[j]))
    return adjacency


KNN_INPUTS = {
    "random2d": np.random.default_rng(10).random((40, 2)),
    "random3d": np.random.default_rng(11).random((40, 3)),
    "integer_grid": np.array([[i, j] for i in range(7) for j in range(6)], float),
    "duplicates": np.repeat(np.random.default_rng(12).random((8, 2)), 3, axis=0),
}


@pytest.mark.parametrize("name", sorted(KNN_INPUTS))
@pytest.mark.parametrize("symmetrize", [False, True])
@pytest.mark.parametrize("k", [1, 4, 6])
def test_knn_matches_per_pair_reference(name, symmetrize, k):
    pts = KNN_INPUTS[name]
    ref = knn_reference(pts, k, unweighted=True, symmetrize=symmetrize)
    got = build_knn_graph(pts, k, unweighted=True, symmetrize=symmetrize)
    assert np.array_equal(got.adjacency, ref)

    ref = knn_reference(pts, k, symmetrize=symmetrize)
    got = build_knn_graph(pts, k, symmetrize=symmetrize).adjacency
    assert np.array_equal(got != 0, ref != 0)
    assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))


def knn_dense_reference(points, k, metric=euclidean, *, unweighted=False,
                        symmetrize=False):
    """The N x N build that ``build_knn_graph`` replaced: the distance matrix
    from one metric call per point, with d(n, m) for n < m taken from the
    call for n, one mask, and the weights over the whole matrix."""
    pts = np.asarray(points, dtype=float)
    dist = np.array([metric(p, pts) for p in pts], dtype=float)
    dist = np.triu(dist, 1) + np.triu(dist, 1).T
    np.fill_diagonal(dist, np.inf)
    mask = _nearest(dist, k)
    if symmetrize:
        mask |= mask.T
    if unweighted:
        return Graph(mask.astype(float))
    log_gauss = -np.square(dist)
    log_gauss[~mask] = -np.inf
    top = log_gauss.max(axis=1)
    sums = np.exp(log_gauss - top[:, None]).sum(axis=1)
    weights = np.exp(log_gauss - 0.5 * (top[:, None] + top[None, :]))
    return Graph(weights / np.sqrt(sums[:, None] * sums[None, :]))


def _lat_lon(rng, n):
    return np.column_stack([rng.uniform(-80.0, 80.0, n), rng.uniform(-180.0, 180.0, n)])


DENSE_KNN_INPUTS = {
    "random": (np.random.default_rng(20).random((300, 2)), euclidean),
    "random5d": (np.random.default_rng(21).random((120, 5)), euclidean),
    "integer_grid": (np.array([[i, j] for i in range(18) for j in range(15)], float),
                     euclidean),
    "haversine": (_lat_lon(np.random.default_rng(22), 200), haversine_km),
    "haversine_grid": (np.array([[i, j] for i in range(10) for j in range(12)], float),
                       haversine_km),
}


@pytest.mark.parametrize("block", [None, 1, 1000], ids=["default", "row", "rows"])
@pytest.mark.parametrize("name", sorted(DENSE_KNN_INPUTS))
def test_knn_matches_the_dense_build_bit_for_bit(name, block, monkeypatch):
    # every row block, from one row to all of them, gives the dense build's
    # nonzeros, weights and directedness exactly, ties (the grids) included
    if block is not None:
        monkeypatch.setattr(graph_module, "ROW_BLOCK", block)
    pts, metric = DENSE_KNN_INPUTS[name]
    for k, unweighted, symmetrize in itertools.product((1, 6), (False, True), (False, True)):
        want = knn_dense_reference(pts, k, metric, unweighted=unweighted,
                                   symmetrize=symmetrize)
        got = build_knn_graph(pts, k, metric, unweighted=unweighted, symmetrize=symmetrize)
        assert got.directed == want.directed
        for x, y in zip(_nonzeros(got), _nonzeros(want)):
            assert x.dtype == y.dtype and np.array_equal(x, y)


def test_knn_is_built_without_a_dense_array():
    # the row blocks hold ROW_BLOCK entries (8 MB) at a time: at N = 2000 the
    # build peaks below one N x N float64 matrix (32 MB) in either mode
    n = 2000
    pts = np.random.default_rng(3).random((n, 2))
    for symmetrize in (False, True):
        tracemalloc.start()
        try:
            build_knn_graph(pts, 8, symmetrize=symmetrize)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8, symmetrize


def _with_distance(value, at):
    """euclidean, except that the distance from point ``at[0]`` to point
    ``at[1]`` of the 6 points of ``test_knn_refusals`` is ``value``."""
    def metric(p, q):
        d = euclidean(p, q)
        if np.array_equal(p, KNN_REFUSAL_POINTS[at[0]]):
            d[at[1]] = value
        return d
    return metric


KNN_REFUSAL_POINTS = np.random.default_rng(4).random((6, 2))


@pytest.mark.parametrize("points, k, metric, message", [
    ([], 1, euclidean, "points must be nonempty"),
    (KNN_REFUSAL_POINTS, 0, euclidean, "k must satisfy 1 <= k < 6, got 0"),
    (KNN_REFUSAL_POINTS, 6, euclidean, "k must satisfy 1 <= k < 6, got 6"),
    (KNN_REFUSAL_POINTS, 2, lambda p, q: euclidean(p, q)[:-1],
     "metric(p, points) must return one distance per point"),
    (KNN_REFUSAL_POINTS, 2, lambda p, q: 1.0,
     "metric(p, points) must return one distance per point"),
    (KNN_REFUSAL_POINTS, 2, _with_distance(np.nan, (5, 0)),
     "all pairwise distances must be finite"),
    (KNN_REFUSAL_POINTS, 2, _with_distance(np.inf, (0, 5)),
     "all pairwise distances must be finite"),
    (KNN_REFUSAL_POINTS, 2, _with_distance(-np.inf, (3, 2)),
     "all pairwise distances must be finite"),
], ids=["empty", "k0", "kn", "short", "scalar", "nan_below", "inf_above", "neg_inf"])
def test_knn_refusals(points, k, metric, message):
    # a non-finite distance is refused wherever it lies off the diagonal,
    # below it too, where the dense build read only the upper triangle
    with pytest.raises(ValueError) as err:
        build_knn_graph(points, k, metric)
    assert str(err.value) == message


def test_knn_never_reads_a_points_distance_to_itself():
    pts = KNN_REFUSAL_POINTS
    got = build_knn_graph(pts, 2, _with_distance(np.nan, (4, 4)))
    for x, y in zip(_nonzeros(got), _nonzeros(build_knn_graph(pts, 2))):
        assert np.array_equal(x, y)


def stable_argsort_mask(points, k, symmetrize):
    """The k-NN mask by a stable argsort of the distances build_knn_graph
    computes: the k nearest of each row, ties to the lowest index."""
    pts = np.asarray(points, dtype=float)
    dist = np.array([euclidean(p, pts) for p in pts])
    dist = np.triu(dist, 1) + np.triu(dist, 1).T
    np.fill_diagonal(dist, np.inf)
    mask = np.zeros(dist.shape, dtype=bool)
    np.put_along_axis(mask, np.argsort(dist, axis=1, kind="stable")[:, :k], True, axis=1)
    return mask | mask.T if symmetrize else mask


TIE_GRIDS = {f"grid15x{h}": h * np.array([[i, j] for i in range(15) for j in range(15)], float)
             for h in (1.0, 0.1, 0.3, 0.37)}


@pytest.mark.parametrize("name", sorted(TIE_GRIDS) + ["random"])
@pytest.mark.parametrize("symmetrize", [False, True])
@pytest.mark.parametrize("k", [4, 6])
def test_knn_mask_is_the_stable_argsort_mask(name, symmetrize, k):
    pts = TIE_GRIDS.get(name)
    if pts is None:
        pts = np.random.default_rng(14).random((300, 2))
    got = build_knn_graph(pts, k, unweighted=True, symmetrize=symmetrize).adjacency
    assert np.array_equal(got != 0, stable_argsort_mask(pts, k, symmetrize))


def test_knn_weights_ignore_a_constant_added_to_squared_distances():
    pts = np.random.default_rng(13).random((30, 2))

    def shifted(p, q):
        return np.sqrt(euclidean(p, q) ** 2 + 900.0)

    for symmetrize in (False, True):
        plain = build_knn_graph(pts, 5, symmetrize=symmetrize).adjacency
        offset = build_knn_graph(pts, 5, shifted, symmetrize=symmetrize).adjacency
        assert np.array_equal(plain != 0, offset != 0)
        assert np.abs(offset - plain).max() <= 1e-12 * np.abs(plain).max()


def test_knn_haversine_at_tens_of_km_has_finite_positive_weights():
    # twelve stations on a ring, neighbours about 30 km apart: exp(-d^2)
    # alone underflows to 0 for every pair
    theta = 2 * np.pi * np.arange(12) / 12
    radius_deg = 15.0 / np.sin(np.pi / 12) / 111.2
    pts = np.column_stack([40.0 + radius_deg * np.sin(theta),
                           -3.0 + radius_deg * np.cos(theta) / np.cos(np.radians(40.0))])
    assert 29.0 < haversine_km(pts[0], pts[1]) < 31.0
    for symmetrize in (False, True):
        g = build_knn_graph(pts, 2, metric=haversine_km, symmetrize=symmetrize)
        w = g.adjacency[g.adjacency != 0]
        assert w.size == 2 * len(pts)
        assert np.all(np.isfinite(w)) and np.all(w > 0.0)


def test_read_rho_classify_filter_and_write_build_no_dense_adjacency(tmp_path, monkeypatch):
    # an SBM just above DIRECT_SOLVE_MAX_N: reading it, its spectral radius,
    # both classifier forms (conjugate gradients), filtering, writing, both
    # Laplacian variations and normalization run on the stored nonzeros.  The
    # dense builder refuses any N x N array, and no step peaks at the size of one
    from graphdsp import (ClassifierConfig, GraphFilter, apply_filter, applications,
                          classify, laplacian_quadratic_form, laplacian_total_variation)
    from graphdsp.fileio import read_edge_list, write_edge_list

    n = applications.DIRECT_SOLVE_MAX_N + 50
    g, truth = sbm_graph(n, 0.015, 0.0015, seed=5)
    path = tmp_path / "sbm.tsv"
    write_edge_list(path, g)
    rng = np.random.default_rng(6)
    known = LabelSignal(np.where(rng.random(n) < 0.1, truth.labels, 0.0))
    x = rng.standard_normal(n)
    real = graph_module._to_dense

    def refuse(rows, cols, vals, size):
        assert size < n, "a dense N x N adjacency was built"
        return real(rows, cols, vals, size)

    monkeypatch.setattr(graph_module, "_to_dense", refuse)
    steps = [
        ("read", lambda: read_edge_list(path)),
        ("rho", lambda: g.spectral_radius),
        ("classify shift", lambda: classify(g, known, ClassifierConfig(1.0, "shift"))),
        ("classify laplacian", lambda: classify(g, known, ClassifierConfig(1.0, "laplacian"))),
        ("filter", lambda: apply_filter(g, GraphFilter(np.array([1.0, -0.5, 0.25])),
                                        g.signal(x))),
        ("write", lambda: write_edge_list(tmp_path / "out.tsv", g)),
        ("laplacian variation", lambda: laplacian_total_variation(g, g.signal(x))),
        ("laplacian form", lambda: laplacian_quadratic_form(g, g.signal(x))),
        ("normalize", lambda: normalize_shift(g)),
    ]
    for name, step in steps:
        tracemalloc.start()
        try:
            out = step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8, name
        if name == "read":
            g = out
    assert "_adjacency" not in g.__dict__
    assert (tmp_path / "out.tsv").read_bytes() == path.read_bytes()


def test_decompose_builds_the_dense_adjacency_once(monkeypatch):
    from graphdsp import decompose, spectrum

    sizes = []
    real = graph_module._to_dense

    def count(rows, cols, vals, size):
        sizes.append(size)
        return real(rows, cols, vals, size)

    monkeypatch.setattr(graph_module, "_to_dense", count)
    pts = np.random.default_rng(2).random((60, 2))
    for g in (build_knn_graph(pts, 4), build_knn_graph(pts, 4, symmetrize=True)):
        sizes.clear()
        decompose(g)
        spectrum(g)
        decompose(g)
        assert sizes == [g.n]
