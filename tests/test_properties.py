"""Property tests of the graph Fourier transform and of polynomial filters.

Graphs are dense random adjacencies, directed or symmetric, scaled by a
random factor; a graph whose spectral radius is within 1e-3 of one, or
whose eigenvector basis is refused as near-defective, is skipped.  The
inverse property draws directed graphs with real or complex weights, so
both the real form of a conjugate-paired basis and a complex one are
hit.  Rounding in V and F = V^-1 grows with the basis condition, so the
tolerances scale with it.  The refusal of a basis is checked against the
SVD of its real form at random limits, and a relabeling of the nodes
against the spectrum of the original graph.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from graphdsp import (
    Graph,
    GraphFilter,
    NearDefectiveError,
    apply_filter,
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
    tol = 100 * g.n * EPS * b.basis_condition * max(1.0, np.abs(s.values).max())
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
    tol = 100 * g.n * f.taps.shape[0] * EPS * b.basis_condition * scale
    assert np.abs(lhs - rhs).max() <= tol


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_fourier_inverts_the_eigenvector_matrix(g):
    try:
        b = decompose(g)
    except NearDefectiveError:
        assume(False)
    err = np.abs(b.fourier @ b.vectors - np.eye(g.n)).max()
    assert err <= 100 * g.n * EPS * b.basis_condition


def folded_basis(g):
    """The real form of the eigenvector basis that decompose conditions."""
    w, V = np.linalg.eig(g.adjacency)
    w = w.astype(complex)
    idx = np.lexsort((w.imag, -w.real))
    w, V = w[idx], V[:, idx]
    return _real_form(w, _canonical_columns(_orthogonalize_repeated(w, V, g.adjacency)))[0]


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
    tol = 100 * g.n * EPS * b.basis_condition * max(1.0, np.abs(a).sum(axis=0).max())
    # a simple eigenvalue fixes its vector up to rounding / gap; a repeated
    # one leaves the basis of its eigenspace, and so the condition, free
    gaps = np.abs(np.subtract.outer(b.eigenvalues, b.eigenvalues))[~np.eye(g.n, dtype=bool)]
    gap = gaps.min(initial=np.inf)
    rel = tol / gap if gap > 0.0 else np.inf
    try:
        bp = decompose(Graph(a[np.ix_(p, p)], directed=g.directed))
    except NearDefectiveError:  # rounding may tip a basis near the limit over it
        assert b.basis_condition * (1.0 + rel) > spectral.DEFECTIVE_COND_LIMIT
        return
    rows, cols = linear_sum_assignment(np.abs(b.eigenvalues[:, None] - bp.eigenvalues))
    assert np.abs(b.eigenvalues[rows] - bp.eigenvalues[cols]).max() <= tol
    v, vp = order_frequencies(b).variations, order_frequencies(bp).variations
    assert np.abs(np.sort(v) - np.sort(vp)).max() <= 2 * tol / b.lambda_max_abs
    if rel <= 1e-3:
        assert abs(bp.basis_condition - b.basis_condition) <= rel * b.basis_condition
