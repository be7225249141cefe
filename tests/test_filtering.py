import re

import numpy as np
import pytest

from graphdsp import (
    Graph,
    GraphFilter,
    NearDefectiveError,
    TargetResponse,
    apply_filter,
    cycle_graph,
    decompose,
    design_filter,
    design_ideal_filter,
    frequency_response,
    gft,
    graph_shift,
    ideal_response,
    order_eigenvalues,
    order_frequencies,
)
from graphdsp.filtering import DEDUP_FREQ_TOL, DISTINCT_FREQ_TOL, _distinct_by_rank


def random_diagonalizable(rng, n):
    while True:
        a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.6)
        if not a.any():
            continue
        g = Graph(a)
        try:
            return g, decompose(g)
        except NearDefectiveError:
            continue


def random_distinct_spectrum(rng, m, gap=1e-3):
    while True:
        w = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
        diffs = np.abs(w[:, None] - w[None, :]) + np.eye(m)
        if diffs.min() > gap:
            return w


# ---------------------------------------------------------------------------
# containers


def test_filter_taps_validation():
    f = GraphFilter([1.0, 0.5, -0.5])
    assert f.degree == 2
    with pytest.raises(ValueError):
        GraphFilter([])
    with pytest.raises(ValueError):
        GraphFilter([1.0, np.nan])
    with pytest.raises(ValueError):
        GraphFilter([[1.0, 2.0]])


def test_target_response_validation():
    t = TargetResponse([0.0, 1.0], [1.0, 0.0])
    assert t.m == 2
    with pytest.raises(ValueError):
        TargetResponse([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        TargetResponse([0.5, 0.5 + 1e-13], [1.0, 0.0])


# ---------------------------------------------------------------------------
# applying filters


def test_single_tap_is_identity():
    g = cycle_graph(5)
    s = g.signal(np.arange(5, dtype=float))
    out = apply_filter(g, GraphFilter([1.0]), s)
    assert np.array_equal(out.values, s.values)


def test_taps_0_1_reproduce_the_shift():
    g = Graph([[0, 2, 0], [0, 0, 1], [1, 0, 0]])
    s = g.signal([1.0, 2.0, 3.0])
    out = apply_filter(g, GraphFilter([0.0, 1.0]), s)
    assert np.allclose(out.values, graph_shift(g, s).values / g.spectral_radius)


def test_first_order_filter_on_cycle_eigenvector():
    g = cycle_graph(4)
    b = decompose(g)
    k = int(np.argmin(np.abs(b.eigenvalues + 1j)))  # eigenvalue -j
    v = np.asarray(b.vectors[:, k])
    out = apply_filter(g, GraphFilter([1.0, 1.0]), g.signal(v))
    assert np.abs(out.values - (1 - 1j) * v).max() < 1e-12


def test_horner_matches_explicit_powers():
    rng = np.random.default_rng(211)
    for _ in range(15):
        n = int(rng.integers(2, 30))
        a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5)
        g = Graph(a)
        degree = int(rng.integers(0, 9))
        taps = rng.standard_normal(degree + 1)
        s = rng.standard_normal(n)
        out = apply_filter(g, GraphFilter(taps), g.signal(s)).values
        expect = np.zeros(n)
        power = s.copy()
        for h in taps:
            expect = expect + h * power
            power = a @ power / g.spectral_radius
        assert np.abs(out - expect).max() <= 1e-9 * max(1.0, np.abs(expect).max())


def test_filter_commutes_with_shift():
    rng = np.random.default_rng(223)
    for _ in range(10):
        n = int(rng.integers(2, 20))
        a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5)
        g = Graph(a)
        f = GraphFilter(rng.standard_normal(int(rng.integers(1, 6))))
        s = g.signal(rng.standard_normal(n))
        left = graph_shift(g, apply_filter(g, f, s)).values
        right = apply_filter(g, f, graph_shift(g, s)).values
        assert np.abs(left - right).max() <= 1e-9 * max(1.0, np.abs(left).max())


def test_normalized_flag_divides_by_radius():
    g = Graph(2 * np.eye(3))
    s = g.signal([1.0, 2.0, 3.0])
    nrm = apply_filter(g, GraphFilter([0.0, 1.0]), s)
    assert np.allclose(nrm.values, s.values)


def test_apply_rejects_foreign_signal():
    g = cycle_graph(3)
    s = cycle_graph(3).signal([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        apply_filter(g, GraphFilter([1.0]), s)


# ---------------------------------------------------------------------------
# frequency response


def test_response_of_identity_filter_is_flat():
    b = decompose(cycle_graph(6))
    assert np.allclose(frequency_response(b, GraphFilter([1.0])), np.ones(6))


def test_response_of_pure_shift_is_the_spectrum():
    b = decompose(cycle_graph(4))
    h = frequency_response(b, GraphFilter([0.0, 1.0]))
    assert np.allclose(h, b.eigenvalues)


def test_default_filtering_is_spectral_multiplication_at_radius_two():
    # rho = 2: apply_filter and frequency_response must both normalize
    g = Graph(2 * cycle_graph(6).adjacency)
    b = decompose(g)
    f = GraphFilter([0.5, -1.0, 0.25, 2.0])
    s = g.signal(np.arange(6.0) - 1j * np.arange(6.0) ** 2)
    lhs = gft(b, apply_filter(g, f, s))
    rhs = frequency_response(b, f) * gft(b, s)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_filtering_is_spectral_multiplication():
    rng = np.random.default_rng(227)
    for _ in range(12):
        n = int(rng.integers(2, 20))
        g, b = random_diagonalizable(rng, n)
        f = GraphFilter(rng.standard_normal(int(rng.integers(1, 9))))
        s = g.signal(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        lhs = gft(b, apply_filter(g, f, s))
        rhs = frequency_response(b, f) * gft(b, s)
        assert np.abs(lhs - rhs).max() <= 1e-8 * max(1.0, np.abs(rhs).max())


# ---------------------------------------------------------------------------
# least-squares design


def test_design_interpolates_three_points():
    t = TargetResponse([1.0, 0.0, -1.0], [1.0, 1.0, 0.0])
    d = design_filter(t, 2)
    assert np.allclose(d.filter.taps, [1.0, 0.5, -0.5], atol=1e-12)
    assert d.residual < 1e-12
    assert np.allclose(d.achieved, t.desired, atol=1e-12)


def test_design_flat_target_needs_only_dc_tap():
    points = [0.3, -0.6, 0.9, 0.1, -0.2]
    for degree in range(4):
        t = TargetResponse(points[:degree + 2], np.ones(degree + 2))
        d = design_filter(t, degree)
        # achieved must be exact whenever an exact solution exists
        assert np.abs(d.achieved - 1.0).max() < 1e-9


def test_design_square_system_matches_direct_solve():
    rng = np.random.default_rng(229)
    for _ in range(10):
        m = int(rng.integers(1, 10))
        w = random_distinct_spectrum(rng, m)
        desired = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        d = design_filter(TargetResponse(w, desired), m - 1)
        vand = np.vander(w, m, increasing=True)
        expect = np.linalg.solve(vand, desired)
        assert np.abs(np.asarray(d.filter.taps) - expect).max() <= \
            1e-6 * max(1.0, np.abs(expect).max())
        assert d.residual <= 1e-8 * np.linalg.norm(desired)


def test_design_overdetermined_matches_lstsq_oracle():
    rng = np.random.default_rng(233)
    for _ in range(10):
        m = int(rng.integers(6, 16))
        degree = int(rng.integers(0, m - 2))
        w = random_distinct_spectrum(rng, m)
        desired = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        d = design_filter(TargetResponse(w, desired), degree)
        vand = np.vander(w, degree + 1, increasing=True)
        ref, *_ = np.linalg.lstsq(vand, desired, rcond=None)
        ref_resid = np.linalg.norm(vand @ ref - desired)
        assert d.residual == pytest.approx(ref_resid, abs=1e-8)


def test_design_underdetermined_is_minimum_norm():
    rng = np.random.default_rng(239)
    w = random_distinct_spectrum(rng, 4)
    desired = rng.standard_normal(4)
    d = design_filter(TargetResponse(w, desired), 7)
    assert d.residual < 1e-10
    vand = np.vander(w, 8, increasing=True)
    expect = np.linalg.pinv(vand) @ desired
    assert np.abs(np.asarray(d.filter.taps) - expect).max() < 1e-6


def test_design_real_targets_give_real_taps():
    t = TargetResponse([1.0, 0.5, -0.5, -1.0], [1.0, 1.0, 0.0, 0.0])
    d = design_filter(t, 3)
    assert not np.iscomplexobj(np.asarray(d.filter.taps))


def test_design_rejects_negative_degree():
    t = TargetResponse([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        design_filter(t, -1)


def test_design_refuses_silently_inexact_interpolation():
    # degree-8 Vandermonde on nine nearly-collapsed frequencies is too
    # ill-conditioned to interpolate; the design must refuse rather than
    # return garbage taps
    w = 1.0 + np.arange(9) * 1e-9
    desired = np.zeros(9)
    desired[0] = 1.0
    with pytest.raises(ValueError):
        design_filter(TargetResponse(w, desired), 8)


# ---------------------------------------------------------------------------
# ideal responses


def test_c4_lowpass_band_selection():
    b = decompose(cycle_graph(4))
    ordering = order_frequencies(b)
    t = ideal_response(ordering, b.eigenvalues, "lowpass")
    passing = [complex(t.frequencies[i]) for i in range(t.m)
               if t.desired[i] == 1]
    # half the spectrum passes: the zero-variation eigenvalue 1 plus the
    # lower-indexed member of the tied +/-j pair
    assert len(passing) == 2
    assert any(abs(z - 1) < 1e-9 for z in passing)
    assert any(abs(z + 1j) < 1e-9 for z in passing)


def test_highpass_is_complementary_selection():
    b = decompose(cycle_graph(4))
    ordering = order_frequencies(b)
    lo = ideal_response(ordering, b.eigenvalues, "lowpass")
    hi = ideal_response(ordering, b.eigenvalues, "highpass")
    assert np.array_equal(np.asarray(lo.desired) + np.asarray(hi.desired),
                          np.ones(4))


def test_bandpass_full_range_is_all_pass():
    b = decompose(cycle_graph(5))
    ordering = order_frequencies(b)
    t = ideal_response(ordering, b.eigenvalues, "bandpass", band=(0, 4))
    assert np.array_equal(np.asarray(t.desired), np.ones(5))


def test_bandpass_band_is_inclusive():
    b = decompose(cycle_graph(8))
    ordering = order_frequencies(b)
    t = ideal_response(ordering, b.eigenvalues, "bandpass", band=(2, 4))
    # frequencies are listed from lowest to highest variation rank
    assert np.array_equal(np.asarray(t.desired), [0, 0, 1, 1, 1, 0, 0, 0])
    ranked_vars = [abs(1 - f / b.lambda_max_abs) for f in t.frequencies]
    assert np.all(np.diff(ranked_vars) >= -1e-12)


def test_ideal_response_validation():
    b = decompose(cycle_graph(4))
    ordering = order_frequencies(b)
    with pytest.raises(ValueError):
        ideal_response(ordering, b.eigenvalues, "notch")
    with pytest.raises(ValueError):
        ideal_response(ordering, b.eigenvalues, "bandpass", band=(3, 1))
    with pytest.raises(ValueError):
        ideal_response(ordering, b.eigenvalues, "bandpass", band=(0, 9))
    with pytest.raises(ValueError):
        ideal_response(ordering, b.eigenvalues, "lowpass", band=(0, 1))


def test_ideal_response_deduplicates_repeated_eigenvalues():
    # identity graph: one distinct frequency; a half-open low band is empty
    b = decompose(Graph(np.eye(3)))
    ordering = order_frequencies(b)
    with pytest.raises(ValueError):
        ideal_response(ordering, b.eigenvalues, "lowpass")
    t = ideal_response(ordering, b.eigenvalues, "highpass")
    assert t.m == 1
    assert t.desired[0] == 1.0


def distinct_by_rank_reference(eigenvalues, order):
    """The O(M^2) walk that _distinct_by_rank replaces."""
    kept = []
    for i in order:
        lam = eigenvalues[i]
        if all(abs(lam - mu) > DEDUP_FREQ_TOL for mu in kept):
            kept.append(lam)
    return np.array(kept, dtype=complex)


def gap_matrix_refusal(f):
    """The M x M gap matrix test that TargetResponse replaces."""
    gap = np.abs(f[:, None] - f[None, :])
    np.fill_diagonal(gap, np.inf)
    return gap.min() if gap.min() <= DISTINCT_FREQ_TOL else None


def spectra_with_near_repeats(rng, count):
    """Random spectra (complex, real, purely imaginary, on a coarse grid)
    plus copies of some values moved by up to 2.5 tolerances, so chains of
    close values straddle the threshold."""
    for t in range(count):
        m = int(rng.integers(1, 40))
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        w = [w, w.real, 1j * w.imag, np.round(w, 1)][t % 4]
        for tol in (DEDUP_FREQ_TOL, DISTINCT_FREQ_TOL):
            src = rng.integers(0, m, int(rng.integers(0, m + 1)))
            shift = rng.uniform(-0.5, 2.0, src.size) * tol
            w = np.concatenate([w, w[src] + shift * np.exp(2j * np.pi * rng.random(src.size))])
        yield w.astype(complex)


def test_distinct_by_rank_matches_the_pairwise_walk():
    rng = np.random.default_rng(5)
    for w in spectra_with_near_repeats(rng, 400):
        order = rng.permutation(w.size)
        assert np.array_equal(_distinct_by_rank(w, order),
                              distinct_by_rank_reference(w, order))


def test_target_response_refuses_what_the_gap_matrix_refused():
    rng = np.random.default_rng(6)
    refused = 0
    for w in spectra_with_near_repeats(rng, 400):
        closest = gap_matrix_refusal(w)
        if closest is None:
            TargetResponse(w, np.ones(w.size))
            continue
        refused += 1
        with pytest.raises(ValueError, match=re.escape(f"closest pair {closest:.3e} apart")):
            TargetResponse(w, np.ones(w.size))
    assert refused > 100


def test_lowpass_highpass_taps_sum_to_delta():
    rng = np.random.default_rng(241)
    for _ in range(20):
        m = int(rng.integers(2, 12))
        w = random_distinct_spectrum(rng, m)
        ordering = order_eigenvalues(w, float(np.abs(w).max()))
        degree = int(rng.integers(1, m))
        lo = design_filter(ideal_response(ordering, w, "lowpass"), degree)
        hi = design_filter(ideal_response(ordering, w, "highpass"), degree)
        total = np.asarray(lo.filter.taps) + np.asarray(hi.filter.taps)
        delta = np.zeros(degree + 1)
        delta[0] = 1.0
        assert np.abs(total - delta).max() <= 1e-8


def test_design_ideal_filter_end_to_end():
    g = cycle_graph(4)
    b = decompose(g)
    d = design_ideal_filter(b, "lowpass", 3)
    h = frequency_response(b, d.filter)
    expect = {1 + 0j: 1.0, -1j: 1.0, 1j: 0.0, -1 + 0j: 0.0}
    for lam, want in expect.items():
        k = int(np.argmin(np.abs(b.eigenvalues - lam)))
        assert abs(h[k] - want) < 1e-9


def test_design_ideal_filter_normalized_frequencies():
    # radius 2: designing on normalized frequencies must evaluate correctly
    # through apply_filter
    a = np.zeros((4, 4))
    for i in range(4):
        a[(i + 1) % 4, i] = 2.0
    g = Graph(a)
    b = decompose(g)
    d = design_ideal_filter(b, "lowpass", 3)
    s = g.signal(np.ones(4))  # eigenvector at the zero-variation frequency
    out = apply_filter(g, d.filter, s)
    assert np.abs(out.values - s.values).max() < 1e-9
