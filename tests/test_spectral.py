import dataclasses
import itertools
import logging
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from graphdsp import (
    Graph,
    GraphFilter,
    JordanChain,
    NearDefectiveError,
    apply_filter,
    build_knn_graph,
    cycle_graph,
    decompose,
    dirichlet_form,
    gft,
    graph_shift,
    igft,
    laplacian_quadratic_form,
    laplacian_total_variation,
    local_variation,
    order_eigenvalues,
    order_frequencies,
    path_graph,
    quadratic_form,
    seminorm,
    total_variation,
    tv_of_chain_vector,
    validate_chain,
)
from graphdsp import spectral
from graphdsp.graph import DENSE_PRODUCT_FILL, _nonzeros
from graphdsp.spectral import SpectralBasis, _canonical_columns, _real_form


def dft_matrix(n):
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / n


def match_rows_up_to_scale(f, ref, tol=1e-8):
    """Each row of ``f`` equals some row of ``ref`` times a nonzero scalar."""
    used = set()
    for i in range(f.shape[0]):
        hit = None
        for j in range(ref.shape[0]):
            if j in used:
                continue
            r = ref[j]
            pivot = np.argmax(np.abs(r))
            scale = f[i, pivot] / r[pivot]
            if abs(scale) > 1e-12 and np.abs(f[i] - scale * r).max() < tol:
                hit = j
                break
        if hit is None:
            return False
        used.add(hit)
    return True


def random_diagonalizable(rng, n, directed=True):
    while True:
        a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.6)
        if not directed:
            a = a + a.T
        if not a.any():
            continue
        g = Graph(a)
        try:
            return g, decompose(g)
        except NearDefectiveError:
            continue


# ---------------------------------------------------------------------------
# decomposition


def test_cycle_eigenvalues_are_roots_of_unity():
    for n in (3, 4, 5, 8):
        b = decompose(cycle_graph(n))
        expect = np.exp(-2j * np.pi * np.arange(n) / n)
        got = sorted(b.eigenvalues, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        want = sorted(expect, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        assert np.abs(np.array(got) - np.array(want)).max() < 1e-9


def test_cycle_fourier_matrix_is_dft_up_to_row_scale():
    for n in (4, 8):
        b = decompose(cycle_graph(n))
        assert match_rows_up_to_scale(b.fourier, dft_matrix(n))


def test_c4_storage_order_and_variations():
    b = decompose(cycle_graph(4))
    assert np.allclose(b.eigenvalues, [1, -1j, 1j, -1], atol=1e-12)
    ordering = order_frequencies(b)
    assert list(ordering.order) == [0, 1, 2, 3]
    assert np.allclose(ordering.variations,
                       [0.0, np.sqrt(2), np.sqrt(2), 2.0], atol=1e-12)


def test_path_eigenvalues():
    b = decompose(path_graph(3))
    assert np.allclose(sorted(b.eigenvalues.real), [-np.sqrt(2), 0.0, np.sqrt(2)],
                       atol=1e-12)
    assert np.abs(b.eigenvalues.imag).max() == 0.0


def test_identity_graph_decomposition():
    b = decompose(Graph(np.eye(3)))
    assert np.allclose(b.eigenvalues, [1, 1, 1])
    for k in range(3):
        s = b.graph.signal(np.asarray(b.vectors[:, k]))
        assert total_variation(b.graph, s) < 1e-12


def test_eigenvector_residual_and_inverse():
    rng = np.random.default_rng(17)
    for _ in range(15):
        n = int(rng.integers(2, 20))
        g, b = random_diagonalizable(rng, n, directed=bool(rng.integers(2)))
        a = g.adjacency
        resid = np.abs(a @ b.vectors - b.vectors * b.eigenvalues).max()
        assert resid <= 1e-8 * max(np.abs(a).max(), 1e-30)
        assert np.abs(b.fourier @ b.vectors - np.eye(n)).max() <= 1e-8


def test_eigenvectors_are_l1_normalized():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 16))
        _, b = random_diagonalizable(rng, n)
        norms = np.abs(b.vectors).sum(axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-12


def test_symmetric_graph_gets_real_spectrum():
    rng = np.random.default_rng(31)
    a = rng.random((8, 8))
    a = a + a.T
    b = decompose(Graph(a))
    assert np.abs(b.eigenvalues.imag).max() <= 1e-10
    # stored in descending order of the real part
    assert np.all(np.diff(b.eigenvalues.real) <= 1e-12)


def test_decompose_rejects_zero_graph():
    with pytest.raises(ValueError):
        decompose(Graph(np.zeros((3, 3))))


def rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def test_defective_shift_raises():
    g = Graph([[0.0, 0.0], [1.0, 0.0]])  # one nilpotent Jordan block
    with pytest.raises(NearDefectiveError) as e:
        decompose(g)
    assert e.value.condition > 1e8


def test_near_double_conjugate_pair_raises():
    # two conjugate pairs 1e-9 apart: both fold into the real form, whose
    # condition is V's
    a = np.block([[rotation(0.7), np.eye(2)], [np.zeros((2, 2)), rotation(0.7 + 1e-9)]])
    with pytest.raises(NearDefectiveError) as e:
        decompose(Graph(a))
    assert e.value.condition > 1e8


def test_decompose_is_deterministic():
    g = cycle_graph(5)
    b1, b2 = decompose(g), decompose(g)
    assert np.array_equal(b1.eigenvalues, b2.eigenvalues)
    assert np.array_equal(b1.vectors, b2.vectors)
    assert b1.graph is g and b2.graph is g


def unit_columns(V):
    return V / np.linalg.norm(V, axis=0)


def undirected_basis_graphs():
    return {
        "cycle8": undirected_cycle(8),  # eigenvalues +-sqrt(2) and 0 repeated
        "complete6": Graph(np.ones((6, 6)) - np.eye(6)),  # -1 five times
        "knn60": build_knn_graph(np.random.default_rng(8).random((60, 2)), 5,
                                 symmetrize=True),
    }


@pytest.mark.parametrize("name", ["cycle8", "complete6", "knn60"])
def test_undirected_basis_inverse_and_condition_are_exact(name):
    g = undirected_basis_graphs()[name]
    b = decompose(g)

    w, V = np.linalg.eigh(g.adjacency)
    w = w.astype(complex)
    idx = np.lexsort((w.imag, -w.real))
    assert np.array_equal(b.eigenvalues, w[idx])
    assert np.array_equal(b.vectors, _canonical_columns(V[:, idx]))

    inv = np.linalg.inv(b.vectors)
    assert np.abs(b.fourier - inv).max() <= 1e-12 * np.abs(inv).max()
    assert b.basis_condition == 1.0
    assert np.linalg.cond(unit_columns(b.vectors)) == pytest.approx(1.0, rel=1e-12)


def permuted_directed_cycles(sizes, seed=0):
    n = sum(sizes)
    a = np.zeros((n, n))
    start = 0
    for k in sizes:
        for i in range(k):
            a[start + (i + 1) % k, start + i] = 1.0
        start += k
    p = np.random.default_rng(seed).permutation(n)
    return Graph(a[np.ix_(p, p)])


def directed_basis_graphs():
    rng = np.random.default_rng(12)
    mask = rng.random((2, 12, 12)) < 0.5
    return {
        # many conjugate pairs: a real form
        "knn200": build_knn_graph(np.random.default_rng(8).random((200, 2)), 6),
        # no conjugate pairs: M stays complex
        "complex_weights": Graph(rng.standard_normal((12, 12)) * mask[0]
                                 + 1j * rng.standard_normal((12, 12)) * mask[1]),
        # repeated complex eigenvalues, replaced by orthonormal groups
        "cycles": permuted_directed_cycles((6, 6, 3)),
        # distinct real eigenvalues, real eigenvectors
        "real_spectrum": Graph(np.triu(rng.random((8, 8)), 1) + np.diag(np.arange(1.0, 9.0))),
        # four blocks [[k, 1], [0, k + 1e-7]]: condition 2e7, Frobenius bound 8e7
        "near_jordan": Graph(np.kron(np.diag(np.arange(1.0, 5.0)), np.eye(2))
                             + np.kron(np.eye(4), [[0.0, 1.0], [0.0, 1e-7]])),
    }


@pytest.mark.parametrize("name, folded, real_form", [
    ("knn200", True, True),
    ("complex_weights", False, False),
    ("cycles", True, False),
    ("real_spectrum", False, True),
    ("near_jordan", False, True),
])
def test_directed_basis_inverse_and_condition_match_lapack(name, folded, real_form, caplog):
    path = "svd" if name == "near_jordan" else "bound"  # its bound exceeds half the limit
    g = directed_basis_graphs()[name]
    with caplog.at_level(logging.DEBUG, logger="graphdsp"):
        b = decompose(g)
    n, solver, pairs, real, logged_path, condition = caplog.records[-1].args
    assert (n, solver, pairs > 0, real, logged_path) == (g.n, "eig", folded, real_form, path)
    M, _, norms = _real_form(b.eigenvalues, b.vectors)
    exact = np.linalg.cond(M / norms)
    assert b.basis_condition == exact  # the SVD's bits, whichever path decided
    if path == "bound":
        assert condition >= b.basis_condition
    else:
        assert condition == b.basis_condition

    w, V = np.linalg.eig(g.adjacency)  # the solver decompose calls
    w = w.astype(complex)
    idx = np.lexsort((w.imag, -w.real))
    assert np.array_equal(b.eigenvalues, w[idx])
    if name != "cycles":  # there _orthogonalize_repeated replaces groups
        assert np.array_equal(b.vectors, _canonical_columns(V[:, idx]))

    inv = np.linalg.inv(b.vectors)
    assert np.abs(b.fourier - inv).max() <= 1e-10 * np.abs(inv).max()
    assert b.basis_condition == pytest.approx(np.linalg.cond(unit_columns(b.vectors)),
                                              rel=1e-10)
    assert b.fourier.dtype == b.vectors.dtype


def test_undirected_spectrum_logs_eigenvalues_alone(caplog):
    g = undirected_basis_graphs()["knn60"]
    with caplog.at_level(logging.DEBUG, logger="graphdsp"):
        sp = spectral.spectrum(g)
    [record] = [r for r in caplog.records if r.getMessage().startswith("spectrum:")]
    assert record.getMessage() == "spectrum: n=60 solver=eigvalsh condition=1"
    assert sp.basis_condition == 1.0 and not hasattr(sp, "vectors")
    b = decompose(g)
    assert np.abs(sp.eigenvalues - b.eigenvalues).max() <= 1e-13 * b.lambda_max_abs
    assert sp.lambda_max_abs == b.lambda_max_abs == g.spectral_radius


def test_spectrum_fields_are_keyword_only():
    b = decompose(directed_basis_graphs()["real_spectrum"])
    with pytest.raises(TypeError):
        SpectralBasis(b.graph, b.eigenvalues, b.vectors, b.fourier)
    with pytest.raises(TypeError):
        spectral.Spectrum(b.graph, b.eigenvalues)
    # rho is the graph's, not a field of its spectrum
    assert [f.name for f in dataclasses.fields(SpectralBasis)] == [
        "graph", "eigenvalues", "vectors", "fourier"]


def test_directed_spectrum_is_the_decomposition():
    g = directed_basis_graphs()["real_spectrum"]
    sp = spectral.spectrum(g)
    assert isinstance(sp, SpectralBasis)
    assert np.array_equal(sp.eigenvalues, decompose(g).eigenvalues)
    with pytest.raises(ValueError, match="zero adjacency"):
        spectral.spectrum(Graph(np.zeros((3, 3))))


def test_orthogonalized_groups_are_logged(caplog):
    g = directed_basis_graphs()["cycles"]  # 6 + 6 + 3 cycles
    with caplog.at_level(logging.DEBUG, logger="graphdsp"):
        b = decompose(g)
    groups = [r.args for r in caplog.records if r.getMessage().startswith("orthogonalize")]
    # the cube roots of unity three times each, the other sixth roots twice
    assert sorted(m for *_, m, _, _ in groups) == [2, 2, 2, 3, 3, 3]
    for re, im, m, cols, source in groups:
        assert source == "span"
        assert np.abs(b.eigenvalues[cols] - complex(re, im)).max() <= 1e-6
        u = b.vectors[:, cols] / np.linalg.norm(b.vectors[:, cols], axis=0)
        assert np.abs(u.conj().T @ u - np.eye(m)).max() <= 1e-12
    decomposed = caplog.records[-1]
    assert "scaled_condition=" in decomposed.msg
    assert decomposed.args[-1] >= b.basis_condition


@pytest.mark.parametrize("directed", [False, True])
def test_condition_of_a_repeated_eigenvalue_ignores_the_labels(directed):
    # eigenvalue 0 twice; the l1-scaled condition read 1.158 and, with nodes
    # 3 and 4 swapped, 1.250
    a = np.array([[1, 1, 1, 1, 1], [1, 1, 0, 1, 1], [1, 0, 1, 0, 1],
                  [1, 1, 0, 1, 1], [1, 1, 1, 1, 1]], dtype=float)
    p = [0, 1, 2, 4, 3]
    b = decompose(Graph(a, directed=directed))
    bp = decompose(Graph(a[np.ix_(p, p)], directed=directed))
    if directed:
        assert b.basis_condition == pytest.approx(1.0, abs=1e-12)
        assert bp.basis_condition == pytest.approx(b.basis_condition, abs=1e-12)
    else:
        assert b.basis_condition == bp.basis_condition == 1.0


@pytest.mark.parametrize("a, step", [
    (np.where(np.arange(36).reshape(6, 6) == 31, 0.0, -1.85), 5),  # 0 four times, rank 2
    (np.array([[-4.83, -4.83, -0.966]] * 3), 1),  # 0 twice, rank 1
])
def test_a_semisimple_eigenvalue_is_accepted_under_relabeling(a, step, caplog):
    # under some labelings eig returns nearly dependent vectors for the
    # repeated 0, and only the null space of A spans its eigenspace; every
    # 5th of the 720 labelings of the 6-node graph keeps the test short
    conditions, sources = [], set()
    with caplog.at_level(logging.DEBUG, logger="graphdsp"):
        for p in itertools.islice(itertools.permutations(range(len(a))), 0, None, step):
            caplog.clear()
            b = decompose(Graph(a[np.ix_(p, p)], directed=True))
            conditions.append(b.basis_condition)
            sources |= {r.args[-1] for r in caplog.records
                        if r.getMessage().startswith("orthogonalize")}
            zero = np.abs(b.eigenvalues) <= 1e-12
            assert np.abs(a[np.ix_(p, p)] @ b.vectors[:, zero]).max() <= 1e-12
    assert sources == {"span", "null_space"}
    assert max(conditions) - min(conditions) <= 1e-12 * min(conditions)


def test_refusal_threshold_is_the_exact_condition(monkeypatch):
    exact = decompose(directed_basis_graphs()["knn200"]).basis_condition
    below = np.nextafter(exact, 0.0)
    monkeypatch.setattr(spectral, "DEFECTIVE_COND_LIMIT", below)
    with pytest.raises(NearDefectiveError) as e:
        decompose(directed_basis_graphs()["knn200"])
    assert (e.value.condition, e.value.limit) == (exact, below)
    monkeypatch.setattr(spectral, "DEFECTIVE_COND_LIMIT", exact)
    assert decompose(directed_basis_graphs()["knn200"]).basis_condition == exact


def test_a_bound_well_inside_the_limit_costs_no_svd(monkeypatch, caplog):
    g = directed_basis_graphs()["knn200"]
    with caplog.at_level(logging.DEBUG, logger="graphdsp"):
        decompose(g)
    bound = caplog.records[-1].args[-1]
    monkeypatch.setattr(spectral, "DEFECTIVE_COND_LIMIT", 2 * bound)
    calls = []

    def spy(fn):
        return lambda *args, **kw: calls.append(fn.__name__) or fn(*args, **kw)

    monkeypatch.setattr(np.linalg, "cond", spy(np.linalg.cond))
    monkeypatch.setattr(np.linalg, "svd", spy(np.linalg.svd))
    b = decompose(g)
    assert calls == []
    first, second = b.basis_condition, b.basis_condition
    assert calls == ["cond"] and first == second <= bound  # computed once per basis


def test_a_fold_that_inv_cannot_invert_is_refused(monkeypatch):
    g = Graph([[0.0, 0.0], [1.0, 0.0]])  # one nilpotent Jordan block
    with pytest.raises(NearDefectiveError) as unpatched:
        decompose(g)

    def singular(m):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(NearDefectiveError) as e:
        decompose(g)
    assert e.value.condition == unpatched.value.condition > 1e8


def test_a_real_directed_spectrum_stays_complex():
    # np.linalg.eig returns a real w when every eigenvalue is real
    b = decompose(directed_basis_graphs()["real_spectrum"])
    assert b.eigenvalues.dtype == np.complex128


def test_directed_eig_is_bitwise_scipys_at_one_blas_thread():
    """decompose's np.linalg.eig gives the bits scipy.linalg.eig gave.  The
    numpy and scipy wheels link separate OpenBLAS builds whose threaded
    kernels round differently, so the check runs with one BLAS thread."""
    code = """if True:
        import numpy as np, scipy.linalg
        from graphdsp import build_knn_graph, decompose
        from graphdsp.spectral import _canonical_columns
        for n, seed in ((200, 8), (400, 1)):
            g = build_knn_graph(np.random.default_rng(seed).random((n, 2)), 6)
            b = decompose(g)
            w, V = scipy.linalg.eig(g.adjacency)
            idx = np.lexsort((w.imag, -w.real))
            assert np.array_equal(b.eigenvalues, w[idx])
            assert np.array_equal(b.vectors, _canonical_columns(V[:, idx].astype(complex)))
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("directed", [False, True])
def test_spectral_radius_is_one_number_in_either_call_order(directed):
    # rho's dense path (signed weights) and its certified one (a nonnegative
    # kNN graph, symmetrized where undirected), before and after the spectrum
    a = np.random.default_rng(9).standard_normal((20, 20))
    pts = np.random.default_rng(1).random((400, 2))
    makers = [lambda: Graph(a if directed else a + a.T),
              lambda: build_knn_graph(pts, 8, symmetrize=not directed)]
    for make, fn in itertools.product(makers, [decompose, spectral.spectrum]):
        g = make()
        cold = float(np.max(np.abs(np.linalg.eigvals(g.adjacency))))
        rho = g.spectral_radius
        assert fn(g).lambda_max_abs == rho == g.spectral_radius

        g = make()
        sp = fn(g)
        assert g.spectral_radius.hex() == sp.lambda_max_abs.hex() == rho.hex()
        assert abs(rho - cold) <= 1e-12 * cold


# ---------------------------------------------------------------------------
# transform


def test_gft_of_eigenvector_is_unit_coefficient():
    rng = np.random.default_rng(41)
    g, b = random_diagonalizable(rng, 7)
    for k in range(7):
        shat = gft(b, g.signal(np.asarray(b.vectors[:, k])))
        expect = np.zeros(7)
        expect[k] = 1.0
        assert np.abs(shat - expect).max() < 1e-8


def test_gft_constant_on_cycle_hits_dc_only():
    g = cycle_graph(6)
    b = decompose(g)
    shat = gft(b, g.signal(np.ones(6)))
    dc = int(np.argmin(np.abs(b.eigenvalues - 1.0)))
    mask = np.ones(6, bool)
    mask[dc] = False
    assert abs(shat[dc]) > 1.0
    assert np.abs(shat[mask]).max() < 1e-10


def test_gft_matches_dft_on_cycle_delta():
    g = cycle_graph(8)
    b = decompose(g)
    delta = np.zeros(8)
    delta[2] = 1.0
    shat = gft(b, g.signal(delta))
    # fourier rows are scaled DFT rows, so each |coefficient| must appear
    # in the DFT of the same delta up to the row scaling
    ref = dft_matrix(8) @ delta
    assert match_rows_up_to_scale(shat[:, None], ref[:, None])


def test_round_trip_identity():
    rng = np.random.default_rng(47)
    for directed in (False, True):
        g, b = random_diagonalizable(rng, 11, directed=directed)
        s = rng.standard_normal(11)
        back = igft(b, gft(b, g.signal(s)))
        assert np.abs(back.values - s).max() <= 1e-8
        assert back.graph is g


def test_igft_of_basis_vector_is_eigenvector():
    rng = np.random.default_rng(53)
    g, b = random_diagonalizable(rng, 6)
    e1 = np.zeros(6, complex)
    e1[1] = 1.0
    out = igft(b, e1)
    assert np.abs(out.values - b.vectors[:, 1]).max() < 1e-12


def test_transform_dimension_checks():
    g, b = cycle_graph(4), decompose(cycle_graph(4))
    with pytest.raises(ValueError):
        gft(b, cycle_graph(5).signal(np.zeros(5)))
    with pytest.raises(ValueError):
        igft(b, np.zeros(5))


# ---------------------------------------------------------------------------
# variation measures


def test_total_variation_of_constant_on_cycle_is_zero():
    g = cycle_graph(7)
    assert total_variation(g, g.signal(np.ones(7))) < 1e-14


def test_total_variation_on_small_cycle():
    g = cycle_graph(3)
    assert total_variation(g, g.signal([1.0, 2.0, 3.0])) == pytest.approx(4.0)


def test_eigenvector_variation_formula():
    # for an L1-normalized eigenvector the total variation collapses to
    # |1 - lambda / rho|
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(2, 14))
        g, b = random_diagonalizable(rng, n, directed=bool(rng.integers(2)))
        r = g.spectral_radius
        for k in range(n):
            tv = total_variation(g, g.signal(np.asarray(b.vectors[:, k])))
            assert tv == pytest.approx(abs(1 - b.eigenvalues[k] / r), abs=1e-9)


def test_c4_eigenvector_variations_exact():
    g = cycle_graph(4)
    b = decompose(g)
    got = [total_variation(g, g.signal(np.asarray(b.vectors[:, k])))
           for k in range(4)]
    assert np.allclose(got, [0.0, np.sqrt(2), np.sqrt(2), 2.0], atol=1e-12)


def test_eigenvector_variation_never_exceeds_two():
    rng = np.random.default_rng(67)
    for _ in range(20):
        n = int(rng.integers(2, 16))
        g, b = random_diagonalizable(rng, n, directed=bool(rng.integers(2)))
        ordering = order_frequencies(b)
        assert ordering.variations.min() >= -1e-12
        assert ordering.variations.max() <= 2.0 + 1e-9


def test_variation_measures_reject_zero_graph():
    g = Graph(np.zeros((3, 3)))
    s = g.signal(np.ones(3))
    with pytest.raises(ValueError):
        total_variation(g, s)
    with pytest.raises(ValueError):
        quadratic_form(g, s)


def test_local_variation_sums_to_total():
    rng = np.random.default_rng(71)
    g, _ = random_diagonalizable(rng, 9)
    s = g.signal(rng.standard_normal(9))
    parts = [local_variation(g, s, n) for n in range(9)]
    assert sum(parts) == pytest.approx(total_variation(g, s), rel=1e-12)
    with pytest.raises(ValueError):
        local_variation(g, s, 9)
    with pytest.raises(ValueError):
        local_variation(g, s, -1)


def test_local_variation_on_cycle():
    g = cycle_graph(3)
    s = g.signal([1.0, 2.0, 3.0])
    assert local_variation(g, s, 0) == pytest.approx(2.0)
    assert local_variation(g, s, 1) == pytest.approx(1.0)


def test_dirichlet_form_special_cases():
    rng = np.random.default_rng(73)
    g, _ = random_diagonalizable(rng, 8)
    s = g.signal(rng.standard_normal(8))
    assert dirichlet_form(g, s, 1) == pytest.approx(total_variation(g, s))
    assert dirichlet_form(g, s, 2) == pytest.approx(quadratic_form(g, s))
    with pytest.raises(ValueError):
        dirichlet_form(g, s, 0.5)


def test_dirichlet_form_of_constant_cycle_is_zero():
    g = cycle_graph(5)
    for p in (1, 1.5, 2, 3):
        assert dirichlet_form(g, g.signal(np.ones(5)), p) < 1e-14


def test_quadratic_form_on_small_cycle():
    g = cycle_graph(3)
    assert quadratic_form(g, g.signal([1.0, 2.0, 3.0])) == pytest.approx(3.0)
    assert seminorm(g, g.signal([1.0, 2.0, 3.0])) == pytest.approx(np.sqrt(3.0))


def test_quadratic_form_matches_matrix_expression():
    rng = np.random.default_rng(79)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        g, _ = random_diagonalizable(rng, n, directed=bool(rng.integers(2)))
        s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        m = np.eye(n) - g.adjacency / g.spectral_radius
        expect = 0.5 * np.real(np.conj(s) @ (m.conj().T @ m) @ s)
        assert quadratic_form(g, g.signal(s)) == pytest.approx(expect, rel=1e-10)


def test_eigenvector_quadratic_form_scales_with_l2_norm_squared():
    rng = np.random.default_rng(83)
    g, b = random_diagonalizable(rng, 9)
    r = g.spectral_radius
    for k in range(9):
        v = np.asarray(b.vectors[:, k])
        expect = 0.5 * abs(1 - b.eigenvalues[k] / r) ** 2 * np.linalg.norm(v) ** 2
        assert quadratic_form(g, g.signal(v)) == pytest.approx(expect, abs=1e-10)


def test_seminorm_homogeneity_and_triangle():
    rng = np.random.default_rng(89)
    g, _ = random_diagonalizable(rng, 10)
    for _ in range(20):
        s = rng.standard_normal(10)
        t = rng.standard_normal(10)
        c = rng.standard_normal()
        assert seminorm(g, g.signal(c * s)) == pytest.approx(
            abs(c) * seminorm(g, g.signal(s)), abs=1e-10)
        assert seminorm(g, g.signal(s + t)) <= \
            seminorm(g, g.signal(s)) + seminorm(g, g.signal(t)) + 1e-10


# ---------------------------------------------------------------------------
# generalized eigenvectors


def chain_graph():
    # single nilpotent block: edge from node 0 to node 1 only
    return Graph([[0.0, 1.0], [0.0, 0.0]])


def test_validate_chain():
    g = chain_graph()
    chain = JordanChain(0.0, (np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    validate_chain(g, chain)
    bad = JordanChain(0.0, (np.array([1.0, 0.0]), np.array([1.0, 0.0])))
    with pytest.raises(ValueError):
        validate_chain(g, bad)
    with pytest.raises(ValueError):
        validate_chain(g, JordanChain(0.5, (np.array([1.0, 0.0]),)))


def test_chain_vector_variation_beyond_the_eigenvector():
    g = chain_graph()
    chain = JordanChain(0.0, (np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    # the graph itself has spectral radius zero, so the caller supplies
    # the normalization constant
    tv0 = tv_of_chain_vector(g, chain, 0, lambda_max_abs=2.0)
    tv1 = tv_of_chain_vector(g, chain, 1, lambda_max_abs=2.0)
    assert tv0 == pytest.approx(1.0)          # |1 - 0/2| for the eigenvector
    assert tv1 == pytest.approx(1.0 + 0.5)    # picks up the chain coupling
    with pytest.raises(ValueError):
        tv_of_chain_vector(g, chain, 2, lambda_max_abs=2.0)
    with pytest.raises(ValueError):
        tv_of_chain_vector(g, chain, 0)  # radius 0 and no override


def test_chain_of_length_one_matches_plain_eigenvector():
    g = cycle_graph(4)
    b = decompose(g)
    k = 1
    chain = JordanChain(complex(b.eigenvalues[k]),
                        (np.asarray(b.vectors[:, k]),))
    tv = tv_of_chain_vector(g, chain, 0)
    assert tv == pytest.approx(abs(1 - b.eigenvalues[k]), abs=1e-12)


def test_perron_chain_vector_has_zero_variation():
    g = Graph(2 * np.eye(2))
    chain = JordanChain(2.0, (np.array([0.5, 0.5]),))
    assert tv_of_chain_vector(g, chain, 0) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# frequency ordering


def test_order_real_spectrum_descending():
    w = np.array([3.0, 1.0, -2.0], dtype=complex)
    got = order_eigenvalues(w, 3.0)
    assert list(got.order) == [0, 1, 2]
    assert np.allclose(got.variations, [0.0, 2 / 3, 5 / 3])


def test_order_handles_conjugate_ties_by_imag():
    w = np.array([1.0, 0.5 - 0.5j, 0.5 + 0.5j], dtype=complex)
    assert list(order_eigenvalues(w, 1.0).order) == [0, 1, 2]
    flipped = np.array([1.0, 0.5 + 0.5j, 0.5 - 0.5j], dtype=complex)
    assert list(order_eigenvalues(flipped, 1.0).order) == [0, 2, 1]


def test_undirected_variation_ranks_follow_descending_eigenvalue():
    # real spectra sorted descending are already variation-sorted, so the
    # permutation is the identity
    rng = np.random.default_rng(101)
    for _ in range(10):
        n = int(rng.integers(3, 14))
        a = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        a = a + a.T
        if not a.any():
            continue
        b = decompose(Graph(a))
        assert list(order_frequencies(b).order) == list(range(n))


def test_directed_ordering_matches_distance_from_radius():
    rng = np.random.default_rng(103)
    for _ in range(15):
        n = int(rng.integers(3, 16))
        g, b = random_diagonalizable(rng, n)
        r = g.spectral_radius
        w = b.eigenvalues
        expect = np.lexsort((np.arange(n), w.imag, -w.real, np.abs(r - w)))
        assert list(order_frequencies(b).order) == list(expect)


def tuple_key_order(eigenvalues, lambda_max_abs):
    """The ordering as a Python sort with a tuple key: variation, then
    descending real part, ascending imaginary part, index."""
    w = np.asarray(eigenvalues, dtype=complex)
    v = np.abs(1.0 - w / lambda_max_abs)
    return sorted(range(len(w)), key=lambda i: (v[i], -w[i].real, w[i].imag, i))


def tied_spectra():
    rng = np.random.default_rng(113)
    k5 = np.ones((5, 5)) - np.eye(5)
    c8 = np.roll(np.eye(8), 1, axis=1)
    graphs = {
        "directed_cycles": permuted_directed_cycles((6, 6, 3, 4)).adjacency,
        "undirected_cycles": np.kron(np.eye(3), c8 + c8.T),
        "complete": np.kron(np.eye(2), k5),
        "signed_complete": np.kron(np.eye(2), k5) * np.kron([1.0, -1.0], np.ones(5))[:, None],
    }
    spectra = {}
    for name, a in graphs.items():
        w = np.linalg.eigvals(a)
        spectra[name] = w  # LAPACK's own order
        spectra[name + "_shuffled"] = w[rng.permutation(w.size)]
    # exact conjugate pairs and repeats, with signed zeros
    pairs = np.array([1j, -1j, 1.0, -1.0, 0.5 + 0.5j, 0.5 - 0.5j, 1j, -1j, 0.0,
                      complex(-0.0, 0.0), complex(0.0, -0.0), -1.0, 0.5 - 0.5j])
    spectra["pairs"] = pairs
    spectra["pairs_shuffled"] = pairs[rng.permutation(pairs.size)]
    return spectra


@pytest.mark.parametrize("name", sorted(tied_spectra()))
def test_order_eigenvalues_is_the_tuple_key_sort(name):
    w = tied_spectra()[name]
    rho = float(np.abs(w).max())
    got = order_eigenvalues(w, rho)
    assert got.order.tolist() == tuple_key_order(w, rho)
    assert np.array_equal(got.variations, np.abs(1.0 - w / rho))


# ---------------------------------------------------------------------------
# Laplacian-based measures


def undirected_cycle(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return Graph(a)


def test_laplacian_total_variation_basic():
    g = Graph([[0.0, 1.0], [1.0, 0.0]])
    assert laplacian_total_variation(g, g.signal([0.0, 1.0])) == pytest.approx(2.0)
    assert laplacian_total_variation(g, g.signal([1.0, 1.0])) == 0.0


def test_laplacian_total_variation_absolute_homogeneity():
    rng = np.random.default_rng(107)
    g = undirected_cycle(6)
    s = rng.standard_normal(6)
    base = laplacian_total_variation(g, g.signal(s))
    assert laplacian_total_variation(g, g.signal(-3 * s)) == pytest.approx(3 * base)


@pytest.mark.parametrize("fill", [0.03, 0.5])
def test_laplacian_total_variation_matches_its_dense_formula(fill):
    rng = np.random.default_rng(113)
    for n in (30, 200):
        w = np.triu(rng.random((n, n)) * (rng.random((n, n)) < fill))
        a = w + np.triu(w, 1).T
        g = Graph(a)
        assert not g.directed
        assert (np.count_nonzero(a) > DENSE_PRODUCT_FILL * n * n) == (fill > 0.1)
        for v in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            dense = np.sqrt((a * np.abs(v[:, None] - v[None, :]) ** 2).sum(axis=1)).sum()
            assert abs(laplacian_total_variation(g, g.signal(v)) - dense) <= 1e-12 * dense


def test_products_with_a_sparse_graph_allocate_no_dense_matrix():
    # once rho and the edge view are cached, filtering, shifting and the
    # variations are O(nnz) products: no N x N temporary, and no complex
    # copy of the real adjacency for a complex signal
    n = 1500
    g = build_knn_graph(np.random.default_rng(5).random((n, 2)), 8, symmetrize=True)
    assert np.count_nonzero(g.adjacency) <= DENSE_PRODUCT_FILL * n * n
    rng = np.random.default_rng(6)
    s = g.signal(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    f = GraphFilter(np.array([0.5, -0.25, 0.125, 1.0]))
    assert g.spectral_radius > 0.0  # rho and the edge view are cached before tracing
    _nonzeros(g)
    for measure in (lambda: apply_filter(g, f, s), lambda: graph_shift(g, s),
                    lambda: total_variation(g, s), lambda: laplacian_total_variation(g, s)):
        tracemalloc.start()
        try:
            measure()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


def test_laplacian_quadratic_form_values():
    g = Graph([[0.0, 1.0], [1.0, 0.0]])
    assert laplacian_quadratic_form(g, g.signal([0.0, 1.0])) == pytest.approx(1.0)
    c4 = undirected_cycle(4)
    v = np.array([1.0, -1.0, 1.0, -1.0]) / 2
    beta = 4.0
    assert laplacian_quadratic_form(c4, c4.signal(v)) == pytest.approx(
        beta * np.linalg.norm(v) ** 2)


def test_laplacian_quadratic_form_nonnegative():
    rng = np.random.default_rng(109)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        a = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        g = Graph(a)
        s = g.signal(rng.standard_normal(n))
        assert laplacian_quadratic_form(g, s) >= -1e-10


@pytest.mark.parametrize("kind", ["knn", "sbm"])
def test_laplacian_quadratic_form_is_the_dense_form_over_the_edges(kind):
    # half the weighted squared differences over the nonzeros: the dense
    # v L v within rounding, never below 0, and exactly 0 on a constant
    from graphdsp import laplacian, sbm_graph

    if kind == "knn":
        g = build_knn_graph(np.random.default_rng(8).random((300, 2)), 6, symmetrize=True)
    else:
        g = sbm_graph(300, 0.1, 0.01, seed=8)[0]
    rows, cols, w = _nonzeros(g)
    rng = np.random.default_rng(9)
    for v in (rng.standard_normal(g.n), 5.0 + 1e-3 * rng.random(g.n)):
        got = laplacian_quadratic_form(g, g.signal(v))
        scale = np.abs(w) @ v[rows] ** 2
        assert got >= 0.0
        assert abs(got - v @ laplacian(g) @ v) <= 1e-12 * scale
    assert laplacian_quadratic_form(g, g.signal(np.full(g.n, 0.3))) == 0.0


def test_laplacian_measures_reject_directed_graphs():
    g = cycle_graph(4)
    s = g.signal(np.ones(4))
    with pytest.raises(ValueError):
        laplacian_total_variation(g, s)
    with pytest.raises(ValueError):
        laplacian_quadratic_form(g, s)


def test_laplacian_measures_reject_negative_weights():
    g = Graph([[0.0, -1.0], [-1.0, 0.0]])
    s = g.signal([1.0, 0.0])
    for measure in (laplacian_total_variation, laplacian_quadratic_form):
        with pytest.raises(ValueError, match="non-negative edge weights"):
            measure(g, s)


def test_laplacian_quadratic_form_rejects_complex_signal():
    g = undirected_cycle(4)
    with pytest.raises(ValueError):
        laplacian_quadratic_form(g, g.signal(np.ones(4) * 1j))
