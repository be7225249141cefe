import itertools
import logging

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
    sbm_graph,
)
from graphdsp.graph import ARPACK_MAX_RESTARTS, SYMMETRY_TOL


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


@pytest.fixture
def eigsh_calls(monkeypatch):
    import scipy.sparse.linalg
    calls = []
    real = scipy.sparse.linalg.eigsh

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    return calls


@pytest.mark.parametrize("name", ["knn", "sbm", "bipartite"])
def test_undirected_spectral_radius_from_lanczos_matches_dense(name, eigsh_calls):
    g = _undirected_fixtures()[name]
    dense = np.linalg.eigvalsh(g.adjacency)
    rho = g.spectral_radius
    assert eigsh_calls == [(g.n, g.n)]
    assert abs(rho - np.abs(dense).max()) <= 1e-12 * rho
    if name == "bipartite":
        assert dense[0] == pytest.approx(-dense[-1], rel=1e-12)
    again = Graph(np.array(g.adjacency))
    assert again.spectral_radius == rho


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tiny_undirected_spectral_radius_is_dense(n, eigsh_calls):
    a = np.ones((n, n)) - np.eye(n)
    assert Graph(a).spectral_radius == float(np.abs(np.linalg.eigvalsh(a)).max())
    assert Graph(np.zeros((n, n))).spectral_radius == 0.0
    assert Graph(np.zeros((40, 40))).spectral_radius == 0.0
    assert eigsh_calls == []


def test_spectral_radius_falls_back_to_dense_when_arpack_fails(monkeypatch):
    import scipy.sparse.linalg

    def fail(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
    g = _undirected_fixtures()["knn"]
    assert g.spectral_radius == float(np.abs(np.linalg.eigvalsh(g.adjacency)).max())


def test_directed_spectral_radius_is_dense(monkeypatch, caplog):
    import scipy.sparse.linalg

    def fail(*args, **kwargs):
        raise AssertionError("ARPACK called")

    for name in ("eigs", "eigsh"):
        monkeypatch.setattr(scipy.sparse.linalg, name, fail)
    # DAGs (strictly lower triangular), one of them a path: every eigenvalue
    # is 0, yet Arnoldi can meet its residual test at a Ritz value far from 0
    rng = np.random.default_rng(0)
    for a in (np.tril(rng.random((21, 21)), -1), np.eye(200, k=-1)):
        assert Graph(a).spectral_radius == 0.0
    # a cycle's eigenvalues share one modulus, on which Arnoldi never settles
    for g in (Graph(np.roll(np.eye(200), 1, axis=0)), build_knn_graph(rng.random((200, 2)), 6)):
        with caplog.at_level(logging.DEBUG, logger="graphdsp"):
            assert g.spectral_radius == float(np.abs(np.linalg.eigvals(g.adjacency)).max())
        assert radius_records(caplog) == [
            f"spectral_radius: n=200 path=dense max_restarts=0 rho={g.spectral_radius:.17g}"]
        caplog.clear()


def test_lanczos_runs_under_the_restart_budget(monkeypatch):
    import scipy.sparse.linalg
    budgets = []
    for name in ("eigs", "eigsh"):
        real = getattr(scipy.sparse.linalg, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            budgets.append((_name, kwargs["maxiter"]))
            return _real(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, name, spy)
    points = np.random.default_rng(1).random((200, 2))
    for symmetrize in (False, True):
        assert build_knn_graph(points, 6, symmetrize=symmetrize).spectral_radius > 0
    assert 0 < ARPACK_MAX_RESTARTS < np.inf
    assert budgets == [("eigsh", ARPACK_MAX_RESTARTS)]


def radius_records(caplog):
    return [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("spectral_radius:")]


@pytest.mark.parametrize("kind", ["cycle", "path"])
def test_undirected_cycles_and_paths_fall_back_to_dense(kind, caplog):
    # Lanczos needs 175 (cycle) and 432 (path) restarts at 500 nodes (at 200
    # nodes it converges in 37 and 99)
    a = np.roll(np.eye(500), 1, axis=0) if kind == "cycle" else np.eye(500, k=-1)
    g = Graph(a + a.T)
    with caplog.at_level(logging.DEBUG, logger="graphdsp"):
        assert g.spectral_radius == float(np.abs(np.linalg.eigvalsh(g.adjacency)).max())
    [record] = radius_records(caplog)
    assert "n=500 path=dense after=ArpackNoConvergence " in record
    assert f"max_restarts={ARPACK_MAX_RESTARTS} " in record


def test_spectral_radius_logs_its_path_once(caplog):
    points = np.random.default_rng(1).random((200, 2))
    graphs = [("dense", build_knn_graph(points, 6)),
              ("lanczos", build_knn_graph(points, 6, symmetrize=True)),
              ("dense", cycle_graph(8))]
    with caplog.at_level(logging.DEBUG, logger="graphdsp"):
        for path, g in graphs:
            rho = g.spectral_radius
            assert g.spectral_radius == rho  # cached: no second record
            restarts = ARPACK_MAX_RESTARTS if path == "lanczos" else 0
            assert radius_records(caplog) == [
                f"spectral_radius: n={g.n} path={path} max_restarts={restarts} "
                f"rho={rho:.17g}"]
            caplog.clear()


def test_signal_binding_and_validation():
    g = cycle_graph(3)
    s = g.signal([1.0, 2.0, 3.0])
    assert isinstance(s, GraphSignal)
    assert s.graph is g
    with pytest.raises(ValueError):
        g.signal([1.0, 2.0])
    with pytest.raises(ValueError):
        g.signal([1.0, np.nan, 3.0])
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
