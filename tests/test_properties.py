"""Property tests of the graph Fourier transform and of polynomial filters.

Graphs are dense random adjacencies, directed or symmetric, scaled by a
random factor; a graph whose spectral radius is within 1e-3 of one, or
whose eigenvector basis is refused as near-defective, is skipped.  The
inverse property draws directed graphs with real or complex weights, so
both the real form of a conjugate-paired basis and a complex one are
hit.  Rounding in V and F = V^-1 grows with the basis condition, so the
tolerances scale with it.  The refusal of a basis is checked against the
SVD of its unit-column real form at random limits, and a relabeling of the
nodes against the spectrum and basis condition of the original graph, and,
where the spectrum is simple, against its variations, the total variation
of each signal and the moduli of its Fourier coefficients.
Above 20 nodes the cold spectral radius is checked against the dense
spectrum: a certified one by its logged bracket, a fallback and a signed or
complex graph's bit for bit; filtering a relabeled graph is checked against
the original.  A kNN graph of permuted points is checked to be the permuted
graph, and the ideal filters designed on a relabeled kNN graph to have the
original's taps.  The classifier's solution is checked to minimize its
objective, and to be permuted with the nodes by conjugate gradients and by
the Cholesky of the dense system; its reciprocal condition estimate is
checked against
LAPACK's ``dpocon``.  An edge list is read into the graph of its dense
adjacency, bit for bit, and written back byte for byte.
"""

import logging
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from graphdsp import (
    ClassifierConfig,
    Graph,
    GraphFilter,
    LabelSignal,
    NearDefectiveError,
    SingularSystemError,
    apply_filter,
    build_knn_graph,
    classification_objective,
    classify,
    decompose,
    design_ideal_filter,
    frequency_response,
    gft,
    igft,
    order_frequencies,
    spectral,
    spectrum,
    total_variation,
)
from graphdsp import applications
from graphdsp.fileio import read_edge_list, write_edge_list
from graphdsp.graph import BRACKET_RTOL, SYMMETRY_TOL, _nonzeros
from graphdsp.spectral import _canonical_columns, _orthogonalize_repeated, _real_form

EPS = np.finfo(float).eps
WEIGHTS = st.just(0.0) | st.floats(0.1, 1.0) | st.floats(-1.0, -0.1)
VALUES = st.floats(-10.0, 10.0)


@st.composite
def bases(draw):
    """A graph with rho != 1 and its spectral basis."""
    n = draw(st.integers(1, 10))
    a = draw(arrays(float, (n, n), elements=WEIGHTS))
    if not draw(st.booleans()):
        a = np.triu(a) + np.triu(a, 1).T
    a = a * draw(st.floats(0.1, 10.0))
    assume(a.any())
    g = Graph(a)
    assume(abs(g.spectral_radius - 1.0) > 1e-3)
    try:
        b = decompose(g)
    except NearDefectiveError:
        assume(False)
    return g, b


@st.composite
def digraphs(draw):
    """A directed graph with real or complex weights."""
    n = draw(st.integers(1, 10))
    a = draw(arrays(float, (n, n), elements=WEIGHTS))
    if draw(st.booleans()):
        a = a + 1j * draw(arrays(float, (n, n), elements=WEIGHTS))
    assume(a.any())
    return Graph(a, directed=True)


def signals(n):
    return (arrays(float, n, elements=VALUES)
            | arrays(complex, n, elements=st.complex_numbers(max_magnitude=10.0)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_igft_inverts_gft(data):
    g, b = data.draw(bases())
    s = g.signal(data.draw(signals(g.n)))
    back = igft(b, gft(b, s)).values
    tol = 100 * g.n * EPS * np.linalg.cond(b.vectors) * max(1.0, np.abs(s.values).max())
    assert np.abs(back - s.values).max() <= tol


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_filtering_is_multiplication_by_the_response(data):
    g, b = data.draw(bases())
    taps = data.draw(arrays(float, st.integers(1, 6), elements=VALUES))
    f = GraphFilter(taps)
    s = g.signal(data.draw(signals(g.n)))
    lhs = gft(b, apply_filter(g, f, s))
    rhs = frequency_response(b, f) * gft(b, s)
    scale = max(1.0, np.abs(taps).sum()) * max(1.0, np.abs(s.values).max())
    tol = 100 * g.n * f.taps.shape[0] * EPS * np.linalg.cond(b.vectors) * scale
    assert np.abs(lhs - rhs).max() <= tol


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_fourier_inverts_the_eigenvector_matrix(g):
    try:
        b = decompose(g)
    except NearDefectiveError:
        assume(False)
    err = np.abs(b.fourier @ b.vectors - np.eye(g.n)).max()
    assert err <= 100 * g.n * EPS * np.linalg.cond(b.vectors)


def folded_basis(g):
    """The real form of the eigenvector basis that decompose conditions,
    with unit 2-norm columns."""
    w, V = np.linalg.eig(g.adjacency)
    w = w.astype(complex)
    idx = np.lexsort((w.imag, -w.real))
    w, V = w[idx], V[:, idx]
    M, _, norms = _real_form(w, _canonical_columns(_orthogonalize_repeated(w, V, g.adjacency)))
    return M / norms


@settings(max_examples=150, deadline=None)
@given(digraphs(), st.floats(0.25, 4.0) | st.just(1.0) | st.just(np.nextafter(1.0, 0.0)))
def test_refusal_is_the_svd_condition_against_the_limit(g, factor):
    exact = np.linalg.cond(folded_basis(g))
    # the bound is one while the inverse is accurate, eps * limit << 1
    for limit in (exact * factor, spectral.DEFECTIVE_COND_LIMIT):
        if limit > 1e12:
            continue
        with mock.patch.object(spectral, "DEFECTIVE_COND_LIMIT", limit):
            if not exact <= limit:
                with pytest.raises(NearDefectiveError) as e:
                    decompose(g)
                assert e.value.condition == exact or np.isnan(exact)
            else:
                assert decompose(g).basis_condition == exact


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_relabeling_the_nodes_keeps_the_spectrum(data):
    g, b = data.draw(bases())
    p = np.array(data.draw(st.permutations(range(g.n))))
    a = g.adjacency
    tol = 100 * g.n * EPS * np.linalg.cond(b.vectors) * max(1.0, np.abs(a).sum(axis=0).max())
    # an eigenspace is fixed up to rounding / its gap to the other eigenvalues;
    # the basis within a repeated eigenvalue's eigenspace is free, but the
    # condition of the unit-column basis does not depend on it
    dist = np.abs(np.subtract.outer(b.eigenvalues, b.eigenvalues))[~np.eye(g.n, dtype=bool)]
    gap = dist[dist > spectral.EIGENVALUE_GROUP_TOL].min(initial=np.inf)
    rel = tol / gap
    try:
        bp = decompose(Graph(a[np.ix_(p, p)], directed=g.directed))
    except NearDefectiveError:  # rounding may tip a basis near the limit over it
        closest = dist.min(initial=np.inf)
        assert b.basis_condition * (1.0 + (tol / closest if closest > 0.0 else np.inf)) \
            > spectral.DEFECTIVE_COND_LIMIT
        return
    rows, cols = linear_sum_assignment(np.abs(b.eigenvalues[:, None] - bp.eigenvalues))
    assert np.abs(b.eigenvalues[rows] - bp.eigenvalues[cols]).max() <= tol
    v, vp = order_frequencies(b).variations, order_frequencies(bp).variations
    assert np.abs(np.sort(v) - np.sort(vp)).max() <= 2 * tol / b.lambda_max_abs
    if not g.directed:
        assert bp.basis_condition == b.basis_condition == 1.0
        return
    # an invariant subspace with residual r lies within r / gap of the exact
    # one; the orthonormal basis of a repeated eigenvalue's group can raise r
    # above tol
    rel = max(rel, max(residual(b), residual(bp)) / gap)
    groups = repeated_groups(b)
    if rel <= 1e-3 and groups is not None and groups == repeated_groups(bp):
        assert abs(bp.basis_condition - b.basis_condition) <= rel * b.basis_condition


@st.composite
def simple_spectra(draw):
    """A 2-8 node graph, directed or symmetric, whose accepted basis has
    eigenvalues at least 1e-2 of the adjacency's norm apart, so each
    eigenvector is fixed up to a scale, and its spectral radius."""
    g, b = draw(bases())
    assume(g.n >= 2)
    dist = np.abs(np.subtract.outer(b.eigenvalues, b.eigenvalues))[~np.eye(g.n, dtype=bool)]
    assume(dist.min() >= 1e-2 * np.linalg.norm(g.adjacency, 2))
    return g, b


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_relabeling_the_nodes_permutes_variations_and_fourier_magnitudes(data):
    # node i of the relabeled graph is node p[i]; a simple spectrum's
    # eigenvectors move with the nodes up to a unit factor, so the Fourier
    # coefficients keep their moduli, and each total variation is kept
    g, b = data.draw(simple_spectra())
    p = np.array(data.draw(st.permutations(range(g.n))))
    a = g.adjacency
    gp = Graph(a[np.ix_(p, p)], directed=g.directed)
    try:
        bp = decompose(gp)
    except NearDefectiveError:  # rounding may tip a basis near the limit over it
        assume(False)
    match = np.abs(b.eigenvalues[:, None] - bp.eigenvalues).argmin(axis=1)
    assert np.array_equal(np.sort(match), np.arange(g.n))
    norm = np.linalg.norm(a, 2)
    gap = np.abs(np.subtract.outer(b.eigenvalues, b.eigenvalues))[~np.eye(g.n, dtype=bool)].min()
    cond = np.linalg.cond(b.vectors)
    # an eigenvector moves by about eps ||A|| cond / gap under rounding
    rel = 100 * g.n * EPS * cond * norm / gap
    v, vp = order_frequencies(b).variations, order_frequencies(bp).variations
    assert np.abs(vp[match] - v).max() <= rel
    s = data.draw(signals(g.n))
    for x in [s, *b.vectors.T]:
        tv, tvp = total_variation(g, g.signal(x)), total_variation(gp, gp.signal(x[p]))
        assert abs(tvp - tv) <= rel * np.abs(x).sum() * (1.0 + np.abs(a).sum(axis=0).max()
                                                         / b.lambda_max_abs)
    c, cp = np.abs(gft(b, g.signal(s))), np.abs(gft(bp, gp.signal(s[p])))
    scale = cond * np.abs(b.fourier).sum(axis=1) * np.abs(s).max()
    assert np.all(np.abs(cp[match] - c) <= rel * scale)


@st.composite
def cycle_unions(draw):
    """The adjacency of a disjoint union of directed unit cycles of 1-6 nodes
    with at least one length repeated, and the lengths: its eigenvalues are
    the lengths' roots of unity, so 1 repeats, and so may complex ones."""
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    lengths.append(draw(st.sampled_from(lengths)))
    a = np.zeros((sum(lengths), sum(lengths)))
    start = 0
    for k in lengths:
        nodes = start + np.arange(k)
        a[np.roll(nodes, -1), nodes] = 1.0
        start += k
    return a, lengths


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relabeling_a_union_of_cycles_keeps_each_eigenspaces_energy(data):
    # A is a permutation matrix, so it is normal: each eigenspace's projector
    # V_E F_E is the orthogonal one, whatever basis decompose picks inside a
    # repeated eigenvalue, and a relabeling permutes it with the nodes
    a, lengths = data.draw(cycle_unions())
    n = a.shape[0]
    p = np.array(data.draw(st.permutations(range(n))))
    b, bp = decompose(Graph(a)), decompose(Graph(a[np.ix_(p, p)]))
    roots = np.concatenate([np.exp(2j * np.pi * np.arange(k) / k) for k in lengths])
    tol = 100 * n * EPS * max(np.linalg.cond(b.vectors), np.linalg.cond(bp.vectors))
    for basis in (b, bp):
        rows, cols = linear_sum_assignment(np.abs(roots[:, None] - basis.eigenvalues))
        assert np.abs(roots[rows] - basis.eigenvalues[cols]).max() <= tol
    v, vp = order_frequencies(b).variations, order_frequencies(bp).variations
    assert np.abs(np.sort(v) - np.sort(vp)).max() <= tol
    s = data.draw(signals(n))
    for root in roots:
        e, ep = (np.abs(basis.eigenvalues - root) <= 1e-6 for basis in (b, bp))
        assert e.sum() == ep.sum() == np.count_nonzero(np.abs(roots - root) <= 1e-6)
        energy = np.linalg.norm(b.vectors[:, e] @ (b.fourier[e] @ s))
        energy_p = np.linalg.norm(bp.vectors[:, ep] @ (bp.fourier[ep] @ s[p]))
        assert abs(energy - energy_p) <= tol * np.linalg.norm(s)


def residual(b):
    """Largest ||A u - lam u||_2 over the unit-column eigenvectors u."""
    u = b.vectors / np.linalg.norm(b.vectors, axis=0)
    return np.linalg.norm(b.graph.adjacency @ u - u * b.eigenvalues, axis=0).max()


def repeated_groups(b):
    """Sizes of the groups of eigenvalues within EIGENVALUE_GROUP_TOL, where
    decompose replaced each group's vectors by an orthonormal basis; None
    where it kept eig's vectors, as no orthonormal basis of the group's
    dimension passed its residual check (a group that is, or nearly is,
    defective).

    Rounding under a relabeling can split a group near the tolerance, or
    tip a nearly defective group's check; the condition then follows eig,
    not the graph, so such pairs are not compared."""
    u = b.vectors / np.linalg.norm(b.vectors, axis=0)
    dist = np.abs(np.subtract.outer(b.eigenvalues, b.eigenvalues))
    close = dist <= spectral.EIGENVALUE_GROUP_TOL
    if np.abs(u.conj().T @ u - np.eye(b.n))[close].max() > 1e-8:
        return None
    return sorted(close.sum(axis=0).tolist())


@st.composite
def large_graphs(draw, max_n=150, kinds=("nonnegative", "complex", "symmetric")):
    """A graph of 21 to ``max_n`` nodes: a digraph with nonnegative or
    complex weights, or a symmetric graph with weights of either sign.  Each entry
    is nonzero with a drawn density; the weights come from a drawn seed, as
    drawing each of up to 150^2 entries through hypothesis is slow."""
    n = draw(st.integers(21, max_n))
    kind = draw(st.sampled_from(kinds))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def weights():
        return np.where(rng.random((n, n)) < density, rng.uniform(0.1, 1.0, (n, n)), 0.0)

    a = weights()
    if kind == "complex":
        a = a + 1j * weights()
    if kind == "symmetric":
        a = np.triu(a * rng.choice([-1.0, 1.0], (n, n)))
        a = a + np.triu(a, 1).T
    return Graph(a, directed=kind != "symmetric")


@settings(max_examples=30, deadline=None)
@given(large_graphs(kinds=("symmetric",)))
def test_cold_spectral_radius_is_the_dense_one(g):
    dense = float(np.abs(np.linalg.eigvals(g.adjacency)).max())
    assert abs(g.spectral_radius - dense) <= 1e-12 * dense


@st.composite
def nonnegative_graphs(draw):
    """A 21-150 node graph with no negative weight, on the certified path:
    a random digraph or symmetric graph, a cycle, a path or a DAG, of one
    or two weak components, maybe with isolated nodes, with shuffled
    labels."""
    n = draw(st.integers(21, 150))
    kind = draw(st.sampled_from(["digraph", "symmetric", "cycle", "path", "dag"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.floats(0.0, 1.0))
    if kind in ("digraph", "symmetric"):
        a = np.where(rng.random((n, n)) < density, rng.uniform(0.1, 1.0, (n, n)), 0.0)
    elif kind == "dag":
        a = np.tril(np.where(rng.random((n, n)) < density, rng.random((n, n)), 0.0), -1)
    else:
        a = np.diag(rng.uniform(0.1, 1.0, n - 1), -1)
        if kind == "cycle":
            a[0, -1] = rng.uniform(0.1, 1.0)
    split = draw(st.integers(0, n - 1))
    if split:  # cut the graph into two blocks
        a[split:, :split] = a[:split, split:] = 0.0
    isolated = rng.random(n) < draw(st.sampled_from([0.0, 0.1]))
    a[isolated] = a[:, isolated] = 0.0
    directed = kind == "dag" or (kind != "symmetric" and draw(st.booleans()))
    if not directed:
        a = np.tril(a) + np.tril(a, -1).T
    assume(a.any())
    p = rng.permutation(n)
    return Graph(a[np.ix_(p, p)], directed=directed)


def cold_radius(g):
    """g's cold spectral radius and the fields of its debug record."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    log = logging.getLogger("graphdsp")
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    try:
        rho = g.spectral_radius
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    [record] = [r.getMessage() for r in records
                if r.getMessage().startswith("spectral_radius:")]
    head, _, tail = record.partition(" bracket=[")
    fields = dict(f.split("=") for f in head.split()[1:])
    if tail:
        lo, hi = tail.split("]")[0].split(", ")
        fields["bracket"] = (float(lo), float(hi))
    return rho, fields


@settings(max_examples=60, deadline=None)
@given(nonnegative_graphs())
def test_certified_spectral_radius_brackets_the_dense_one(g):
    from scipy.sparse.csgraph import connected_components
    rho, fields = cold_radius(g)
    eigvals = np.linalg.eigvals if g.directed else np.linalg.eigvalsh
    dense = float(np.abs(eigvals(g.adjacency)).max())
    assert fields["path"] == "krylov" and rho == fields["bracket"][1]
    lo, hi = fields["bracket"]
    assert lo - 1e-12 * hi <= dense <= hi + 1e-12 * hi
    if fields["certified"] == fields["blocks"]:
        assert hi - lo <= BRACKET_RTOL * hi
    elif connected_components(g.adjacency, connection="weak")[0] == 1:
        assert rho == dense  # a connected graph's fallback is the dense solve


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_dags_signed_and_complex_graphs_take_the_dense_radius_bitwise(data):
    kind = data.draw(st.sampled_from(["dag", "complex", "symmetric"]))
    if kind == "dag":
        # a path through every node keeps it one weak component
        n = data.draw(st.integers(21, 150))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        a = np.tril(rng.random((n, n)) * (rng.random((n, n)) < 0.3), -1)
        a += np.diag(rng.uniform(0.1, 1.0, n - 1), -1)
        p = rng.permutation(n)
        g = Graph(a[np.ix_(p, p)])
    else:
        g = data.draw(large_graphs(kinds=(kind,)))
    if kind == "symmetric":
        assume(g.adjacency.min() < 0)
    eigvals = np.linalg.eigvals if g.directed else np.linalg.eigvalsh
    assert g.spectral_radius == float(np.abs(eigvals(g.adjacency)).max())


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_relabeling_the_nodes_permutes_the_filtered_signal(data):
    g = data.draw(large_graphs(max_n=60))
    assume(g.spectral_radius > 0.0)
    p = np.array(data.draw(st.permutations(range(g.n))))
    gp = Graph(g.adjacency[np.ix_(p, p)], directed=g.directed)
    f = GraphFilter(data.draw(arrays(float, st.integers(1, 6), elements=VALUES)))
    s = data.draw(signals(g.n))
    out = apply_filter(g, f, g.signal(s)).values
    outp = apply_filter(gp, f, gp.signal(s[p])).values
    # the two cold radii agree to 1e-12 (above); Horner's k-th term moves by
    # k times that, and each product by rounding, relative to its norm bound
    growth = np.abs(g.adjacency).sum(axis=1).max() / g.spectral_radius
    bound = sum(abs(h) * growth ** k for k, h in enumerate(f.taps)) * np.abs(s).max()
    assert np.abs(outp - out[p]).max() <= 1e-10 * f.taps.size * bound


@st.composite
def knn_points(draw, max_n=120):
    """Points drawn from a seed, so no two distances tie, and a k."""
    n = draw(st.integers(10, max_n))
    points = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).random((n, 2))
    return points, draw(st.integers(1, min(8, n - 1)))


@settings(max_examples=60, deadline=None)
@given(knn_points(), st.booleans(), st.booleans(), st.data())
def test_a_knn_graph_of_permuted_points_is_the_permuted_graph(case, symmetrize,
                                                               unweighted, data):
    points, k = case
    p = np.array(data.draw(st.permutations(range(len(points)))))
    a = build_knn_graph(points, k, symmetrize=symmetrize, unweighted=unweighted).adjacency
    ap = build_knn_graph(points[p], k, symmetrize=symmetrize, unweighted=unweighted).adjacency
    a = a[np.ix_(p, p)]
    assert np.array_equal(a != 0.0, ap != 0.0)
    assert np.all(np.abs(ap - a) <= 1e-14 * np.abs(a))


@settings(max_examples=40, deadline=None)
@given(knn_points(max_n=60), st.booleans(), st.integers(1, 6), st.data())
def test_relabeling_the_nodes_keeps_the_designed_taps(case, symmetrize, degree, data):
    points, k = case
    g = build_knn_graph(points, k, symmetrize=symmetrize)
    p = np.array(data.draw(st.permutations(range(g.n))))
    gp = Graph(g.adjacency[np.ix_(p, p)], directed=g.directed)
    try:
        b, bp = spectrum(g), spectrum(gp)
    except NearDefectiveError:
        assume(False)
    frequencies = design_ideal_filter(b, "lowpass", degree).target.frequencies
    m = frequencies.size
    lo = data.draw(st.integers(0, m - 1))
    passband = (lo, data.draw(st.integers(lo, m - 1)))
    # a relabeling moves each eigenvalue by about n eps times the basis
    # condition, and the least-squares taps by up to cond(V) times that: a
    # 10-node 8-NN graph at degree 6 has cond(V) = 6e7 and moves by 2.4e-10
    vand = np.vander(frequencies, degree + 1, increasing=True)
    rtol = max(1e-9, 10 * g.n * EPS * b.basis_condition * np.linalg.cond(vand))
    for kind, band in (("lowpass", None), ("highpass", None), ("bandpass", passband)):
        taps = design_ideal_filter(b, kind, degree, band).filter.taps
        taps_p = design_ideal_filter(bp, kind, degree, band).filter.taps
        assert taps.shape == taps_p.shape
        assert np.abs(taps_p - taps).max() <= rtol * np.abs(taps).max(), kind


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_classify_minimizes_its_objective(data):
    n = data.draw(st.integers(2, 12))
    a = data.draw(arrays(float, (n, n), elements=st.just(0.0) | st.floats(0.1, 1.0)))
    form = data.draw(st.sampled_from(["shift", "laplacian"]))
    if form == "laplacian" or data.draw(st.booleans()):
        a = np.triu(a) + np.triu(a, 1).T
    g = Graph(a)
    assume(g.spectral_radius > 0.0)  # the shift form normalizes by it
    labels = LabelSignal(data.draw(arrays(float, n, elements=st.sampled_from([-1.0, 0.0, 1.0]))))
    assume(labels.known_mask.any())
    cfg = ClassifierConfig(alpha=data.draw(st.floats(0.01, 100.0)), form=form)
    try:
        v = classify(g, labels, cfg).predicted
    except SingularSystemError:
        assume(False)

    def objective(x):
        return classification_objective(g, labels, cfg, x)

    # central differences are exact on a quadratic up to the rounding of J;
    # the solve is accepted at a relative residual (the gradient) of 1e-8
    steps = np.eye(n)
    values = [objective(v + e) for e in steps] + [objective(v - e) for e in steps]
    grad = (np.array(values[:n]) - np.array(values[n:])) / 2.0
    rounding = 1e3 * n * EPS * max(values)
    assert np.abs(grad).max() <= 1e-8 * 2.0 * cfg.alpha * n + rounding
    # a step along any direction d rises by t^2/2 d^T H d > 0 (H is positive
    # definite where the system is nonsingular), less t |grad . d|
    j = objective(v)
    for _ in range(3):
        d = data.draw(arrays(float, n, elements=VALUES))
        assume(np.abs(d).max() > 0.1)
        d = d / np.linalg.norm(d)
        for x in (v + d, v - d):
            assert objective(x) > j - np.abs(grad).max() * np.sqrt(n) - rounding
        assert objective(v + d) + objective(v - d) > 2.0 * j


def solve_classifier(g, labels, cfg, dense):
    """classify's solution, or the Cholesky solve of its dense system."""
    if not dense:
        return classify(g, labels, cfg).predicted
    system = np.array(applications._variation_operator(g, cfg.form).dense())
    system[np.diag_indices(g.n)] += 2.0 * cfg.alpha * labels.known_mask
    return applications._solve_pos(g, labels, system, 2.0 * cfg.alpha * labels.labels)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_relabeling_the_nodes_permutes_the_classification(data):
    n = data.draw(st.integers(2, 16))
    kind = data.draw(st.sampled_from(["nonnegative", "complex", "symmetric"]))
    form = data.draw(st.sampled_from(["shift", "laplacian"] if kind == "symmetric"
                                     else ["shift"]))
    weights = arrays(float, (n, n), elements=st.just(0.0) | st.floats(0.1, 1.0))
    a = data.draw(weights)
    if kind == "complex":
        a = a + 1j * data.draw(weights)
    if kind == "symmetric":
        a = np.triu(a) + np.triu(a, 1).T
    g = Graph(a, directed=kind != "symmetric")
    assume(g.spectral_radius > 0.0)
    labels = data.draw(arrays(float, n, elements=st.sampled_from([-1.0, 0.0, 1.0])))
    assume(labels.any())
    cfg = ClassifierConfig(alpha=data.draw(st.floats(0.1, 10.0)), form=form)
    p = np.array(data.draw(st.permutations(range(n))))
    gp = Graph(g.adjacency[np.ix_(p, p)], directed=g.directed)
    # classify, or the Cholesky of the dense system it solves as a reference
    dense = data.draw(st.booleans())
    try:
        s = solve_classifier(g, LabelSignal(labels), cfg, dense)
        sp = solve_classifier(gp, LabelSignal(labels[p]), cfg, dense)
    except SingularSystemError:
        assume(False)
    tol = 1e-10 * np.abs(s).max()
    assert np.abs(sp - s[p]).max() <= tol
    clear = np.abs(s[p]) > tol
    assert np.array_equal(sp[clear] > 0.0, s[p][clear] > 0.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 150), seed=st.integers(0, 2 ** 32 - 1),
       decades=st.floats(0.0, 14.0), kind=st.sampled_from(["spectrum", "laplacian"]))
def test_reciprocal_condition_matches_lapack_pocon(n, seed, decades, kind):
    from scipy.linalg.lapack import dpocon, dpotrf

    rng = np.random.default_rng(seed)
    if kind == "spectrum":
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * np.geomspace(10.0 ** -decades, 1.0, n)) @ q.T
        a = (a + a.T) / 2
    else:  # a Laplacian system with a small fidelity weight on some nodes
        w = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.2), 1)
        a = 2.0 * (np.diag((w + w.T).sum(axis=1)) - w - w.T)
        a[np.diag_indices(n)] += 2.0 * 10.0 ** -decades * (rng.random(n) < 0.3)
    u, info = dpotrf(a)
    assume(info == 0)
    anorm = np.abs(a).sum(axis=0).max()
    ref = dpocon(u, anorm)[0]
    assume(ref >= 1e-14)
    solve = applications._cholesky_solver(a)
    rcond = 1.0 / applications._inverse_norm_estimate(solve, n) / anorm
    # each solve the estimate takes is off by about eps / rcond relative,
    # whichever factor of a makes it, so rcond is off by a few eps at most
    # (up to 1.5 eps at n = 1, from the divisions alone)
    assert abs(rcond - ref) <= 4 * n * EPS


@st.composite
def edge_lists(draw):
    """A real adjacency and the text of an edge list of it: its nonzeros in
    random row order; explicit zero rows, +0, -0 or 0+0i, at some of its
    zeros; every node no row names pinned by a zero self row; some weights
    written as complex numbers with a zero imaginary part; and pairs whose
    asymmetry is at, within or just above SYMMETRY_TOL, some of them an
    unmatched entry of at most that magnitude."""
    n = draw(st.integers(1, 8))
    a = draw(arrays(float, (n, n), elements=WEIGHTS)) * draw(st.sampled_from([1.0, 1e3]))
    if draw(st.booleans()):
        a = np.triu(a) + np.triu(a, 1).T
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        gap = draw(st.sampled_from([0.5, 1.0, 1.01, 2.0])) * SYMMETRY_TOL
        a[i, j] = a[j, i] + gap if draw(st.booleans()) else gap
    for k in draw(st.sets(st.integers(0, n - 1), max_size=2)):  # isolated nodes
        a[k], a[:, k] = 0.0, 0.0
    a = a + 0.0  # no -0.0: an entry equal to zero is no edge
    complex_rows = draw(st.booleans())
    rows = []
    for d, s in zip(*np.nonzero(a)):
        w = format(a[d, s], ".17g")
        rows.append(f"{s}\t{d}\t{w}+0i" if complex_rows and draw(st.booleans()) else
                    f"{s}\t{d}\t{w}")
    for d, s in zip(*np.nonzero(a == 0)):
        if draw(st.integers(0, 3)) == 0:
            rows.append(f"{s}\t{d}\t{draw(st.sampled_from(['0', '-0', '0+0i']))}")
    named = {int(x) for row in rows for x in row.split("\t")[:2]}
    rows += [f"{k}\t{k}\t0" for k in range(n) if k not in named]
    return a, "src\tdst\tweight\n" + "\n".join(draw(st.permutations(rows))) + "\n"


@settings(max_examples=60, deadline=None)
@given(edge_lists())
def test_an_edge_list_reads_as_its_dense_adjacency_and_round_trips(case):
    a, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "g.tsv", Path(tmp) / "again.tsv"
        path.write_text(text)
        got, ref = read_edge_list(path), Graph(a)
        assert got.n == ref.n == a.shape[0]
        assert got.directed == ref.directed == (np.abs(a - a.T).max() > SYMMETRY_TOL)
        for x, y in [(got.adjacency, ref.adjacency), (ref.adjacency, a),
                     *zip(_nonzeros(got), _nonzeros(ref))]:
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert all(np.array_equal(x, y) for x, y in zip(_nonzeros(ref), np.nonzero(a)))
        write_edge_list(path, got)
        back = read_edge_list(path)
        write_edge_list(again, back)
        assert again.read_bytes() == path.read_bytes()
        assert back.directed == got.directed
        assert back.adjacency.tobytes() == got.adjacency.tobytes()
