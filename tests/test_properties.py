"""Property tests of the graph Fourier transform and of polynomial filters.

Graphs are dense random adjacencies, directed or symmetric, scaled by a
random factor; a graph whose spectral radius is within 1e-3 of one, or
whose eigenvector basis is refused as near-defective, is skipped.  The
inverse property draws directed graphs with real or complex weights, so
both the real form of a conjugate-paired basis and a complex one are
hit.  Rounding in V and F = V^-1 grows with the basis condition, so the
tolerances scale with it.  The refusal of a basis is checked against the
SVD of its unit-column real form at random limits, and a relabeling of the
nodes against the spectrum and basis condition of the original graph.
Above 20 nodes the cold spectral radius of an undirected graph (Lanczos,
or the dense fallback) is checked against the dense spectrum, and
filtering a relabeled graph against the original.  The classifier's
solution is checked to minimize its objective.
"""

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
    classification_objective,
    classify,
    decompose,
    frequency_response,
    gft,
    igft,
    order_frequencies,
    spectral,
)
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
    """A graph above the 20 nodes where the cold spectral radius of an
    undirected graph turns to Lanczos: a digraph with nonnegative or complex
    weights, or a symmetric graph with weights of either sign.  Each entry
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
