"""Property tests of the graph Fourier transform and of polynomial filters.

Graphs are dense random adjacencies, directed or symmetric, scaled by a
random factor; a graph whose spectral radius is within 1e-3 of one, or
whose eigenvector basis is refused as near-defective, is skipped.  Rounding in V and F = V^-1 grows
with the basis condition, so the tolerances scale with it.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphdsp import (
    Graph,
    GraphFilter,
    NearDefectiveError,
    apply_filter,
    decompose,
    frequency_response,
    gft,
    igft,
)

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
