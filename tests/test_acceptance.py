"""End-to-end acceptance checks for the whole package.

Each test prints a single summary line so a verbose run reads as a
checklist: cycle-graph Fourier identities, variation orderings on random
graph families, filter-design algebra, and the two desk-scale
applications (label spreading and spike detection), plus bitwise CLI
reproducibility.
"""

import itertools
import json
import time

import numpy as np
import pytest

from graphdsp import (
    ClassifierConfig,
    DetectorConfig,
    Graph,
    GraphFilter,
    NearDefectiveError,
    TargetResponse,
    apply_filter,
    build_knn_graph,
    classification_objective,
    classify,
    cycle_graph,
    decompose,
    design_filter,
    design_ideal_filter,
    detect_malfunction,
    frequency_response,
    gft,
    igft,
    ideal_response,
    laplacian,
    LabelSignal,
    order_eigenvalues,
    order_frequencies,
    quadratic_form,
    regular_graph,
    sbm_graph,
    standard_alpha_grid,
    sweep_alpha,
    total_variation,
)
from graphdsp.cli import main
from graphdsp.fileio import read_edge_list, read_signal, write_edge_list, write_signal
from graphdsp.graph import _nonzeros


def dft_matrix(n):
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / n


def dft_index(eigenvalue, n):
    """Index k of the nearest cycle eigenvalue exp(-2 pi i k / n)."""
    k = int(round(-np.angle(eigenvalue) * n / (2 * np.pi))) % n
    assert abs(eigenvalue - np.exp(-2j * np.pi * k / n)) < 1e-9
    return k


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


def unit_modulus_spectrum(rng, m):
    """Distinct frequencies near the unit circle, well separated."""
    while True:
        radii = rng.uniform(0.8, 1.0, m)
        angles = rng.uniform(0, 2 * np.pi, m)
        w = radii * np.exp(1j * angles)
        gaps = np.abs(w[:, None] - w[None, :]) + np.eye(m)
        if gaps.min() > 0.05:
            return w


def test_cycle_gft_is_the_dft():
    start = time.perf_counter()
    worst = 0.0
    for n in (4, 8, 16):
        b = decompose(cycle_graph(n))
        dft = dft_matrix(n)
        seen = set()
        for i in range(n):
            k = dft_index(b.eigenvalues[i], n)
            assert k not in seen
            seen.add(k)
            scale = b.fourier[i, 0] / dft[k, 0]
            worst = max(worst, np.abs(b.fourier[i] - scale * dft[k]).max())
        assert worst <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS: cycle GFT equals the DFT up to row scaling "
          f"(N=4,8,16; max deviation {worst:.2e}; {elapsed:.2f}s)")


def test_cycle_frequency_ordering_permutation():
    b = decompose(cycle_graph(8))
    ordering = order_frequencies(b)
    sequence = [dft_index(b.eigenvalues[i], 8) for i in ordering.order]
    # lowest to highest variation: the conjugate pairs interleave, with
    # the negative-imaginary member first at each tie
    assert sequence == [0, 1, 7, 2, 6, 3, 5, 4]
    assert dft_index(b.eigenvalues[ordering.order[0]], 8) == 0
    assert b.eigenvalues[ordering.order[-1]] == pytest.approx(-1.0)
    print("PASS: 8-cycle variation ordering is exactly "
          "(0, 1, 7, 2, 6, 3, 5, 4) in DFT labels")


def test_undirected_eigenvalue_order_reverses_variation_order():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    pairs = 0
    while checked < 100:
        n = int(rng.integers(2, 21))
        density = rng.uniform(0.2, 0.9)
        a = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < density)
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        if not a.any():
            continue
        g = Graph(a)
        b = decompose(g)
        w = b.eigenvalues.real
        tv = np.array([total_variation(g, g.signal(np.asarray(b.vectors[:, k])))
                       for k in range(n)])
        for m in range(n):
            for k in range(n):
                if w[m] < w[k] - 1e-9:
                    assert tv[m] > tv[k]
                    pairs += 1
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS: on 100 undirected weighted graphs, smaller eigenvalue "
          f"always means larger total variation ({pairs} pairs; {elapsed:.1f}s)")


def test_directed_ordering_is_distance_from_spectral_radius():
    rng = np.random.default_rng(4096)
    for _ in range(100):
        n = int(rng.integers(2, 21))
        g, b = random_diagonalizable(rng, n)
        w = b.eigenvalues
        r = b.lambda_max_abs
        oracle = np.lexsort((np.arange(n), w.imag, -w.real, np.abs(r - w)))
        assert list(order_frequencies(b).order) == list(oracle)
    print("PASS: on 100 directed graphs, the variation ordering matches "
          "sorting by distance from the spectral radius point")


def test_regular_graph_adjacency_and_laplacian_orderings_agree():
    rng = np.random.default_rng(77)
    for trial in range(50):
        d = (2, 3, 4)[trial % 3]
        n = int(rng.integers(max(d + 1, 6), 31))
        if (n * d) % 2:
            n += 1
        g = regular_graph(n, d, seed=trial)
        b = decompose(g)
        order = np.asarray(order_frequencies(b).order)
        beta, u = np.linalg.eigh(laplacian(g))
        # same ordering: the variation-ranked adjacency eigenvalues are
        # exactly d - beta with beta ascending
        assert np.abs(b.eigenvalues[order].real - (d - beta)).max() < 1e-8
        assert np.abs(b.eigenvalues[order].imag).max() < 1e-10
        for m in range(n):
            s2 = quadratic_form(g, g.signal(u[:, m]))
            assert s2 == pytest.approx(beta[m] ** 2 / (2 * d * d), abs=1e-8)
    # 4-cycle closed form for the quadratic variation of the Laplacian basis
    a = np.zeros((4, 4))
    for i in range(4):
        a[i, (i + 1) % 4] = a[(i + 1) % 4, i] = 1.0
    c4 = Graph(a)
    beta, u = np.linalg.eigh(laplacian(c4))
    values = sorted(quadratic_form(c4, c4.signal(u[:, m])) for m in range(4))
    assert np.allclose(values, [0.0, 0.5, 0.5, 2.0], atol=1e-8)
    print("PASS: on 50 regular graphs the quadratic ordering equals the "
          "Laplacian ordering and S2 = beta^2/(2 d^2); 4-cycle gives "
          "(0, 0.5, 0.5, 2)")


def test_filter_design_interpolates_and_matches_least_squares():
    rng = np.random.default_rng(6)
    for _ in range(15):
        m = int(rng.integers(1, 13))
        w = unit_modulus_spectrum(rng, m)
        desired = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        d = design_filter(TargetResponse(w, desired), m - 1)
        assert d.residual <= 1e-8 * np.linalg.norm(desired)
        assert np.abs(np.asarray(d.achieved) - desired).max() <= \
            1e-8 * max(1.0, np.abs(desired).max())
    for _ in range(15):
        m = int(rng.integers(4, 16))
        degree = int(rng.integers(0, m - 2))
        w = unit_modulus_spectrum(rng, m)
        desired = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        d = design_filter(TargetResponse(w, desired), degree)
        vand = np.vander(w, degree + 1, increasing=True)
        ref, *_ = np.linalg.lstsq(vand, desired, rcond=None)
        ref_resid = np.linalg.norm(vand @ ref - desired)
        assert abs(d.residual - ref_resid) <= 1e-8
    print("PASS: square designs interpolate to 1e-8 and overdetermined "
          "residuals match an independent least-squares oracle")


def test_low_and_high_pass_taps_are_complementary():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(2, 14))
        w = unit_modulus_spectrum(rng, m)
        ordering = order_eigenvalues(w, float(np.abs(w).max()))
        degree = int(rng.integers(1, m))
        lo = design_filter(ideal_response(ordering, w, "lowpass"), degree)
        hi = design_filter(ideal_response(ordering, w, "highpass"), degree)
        total = np.asarray(lo.filter.taps) + np.asarray(hi.filter.taps)
        delta = np.zeros(degree + 1)
        delta[0] = 1.0
        assert np.abs(total - delta).max() <= 1e-8
    print("PASS: low-pass plus high-pass taps equal the identity filter "
          "on 20 random spectra")


def test_filtering_multiplies_spectra():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(2, 25))
        g, b = random_diagonalizable(rng, n)
        f = GraphFilter(rng.standard_normal(int(rng.integers(1, 10))))
        s = g.signal(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        lhs = gft(b, apply_filter(g, f, s))
        rhs = frequency_response(b, f) * gft(b, s)
        assert np.abs(lhs - rhs).max() <= 1e-8 * max(1.0, np.abs(rhs).max())
    print("PASS: filtering in the vertex domain multiplies Fourier "
          "coefficients by the frequency response")


def test_label_spreading_solves_the_regularized_problem():
    rng = np.random.default_rng(9)
    # stationarity at the returned solution
    for form in ("shift", "laplacian"):
        for _ in range(10):
            n = int(rng.integers(4, 40))
            a = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < 0.4)
            a = (a + a.T) / 2
            np.fill_diagonal(a, 0.0)
            if not a.any():
                continue
            g = Graph(a)
            values = np.zeros(n)
            values[int(rng.integers(n))] = 1.0
            values[int(rng.integers(n))] = -1.0
            labels = LabelSignal(values)
            alpha = float(rng.uniform(0.1, 10))
            cfg = ClassifierConfig(alpha=alpha, form=form)
            s = classify(g, labels, cfg).predicted
            if form == "shift":
                m = np.eye(n) - g.adjacency / g.spectral_radius
                m = np.real(m.conj().T @ m)
            else:
                m = 2.0 * laplacian(g)
            c = np.diag(labels.known_mask.astype(float))
            rhs = 2 * alpha * c @ values
            resid = np.linalg.norm((m + 2 * alpha * c) @ s - rhs)
            assert resid <= 1e-8 * np.linalg.norm(rhs)
    # analytic gradient against central differences
    g = Graph(np.array([[0, 1, 1, 0], [1, 0, 1, 0],
                        [1, 1, 0, 1], [0, 0, 1, 0]], float))
    labels = LabelSignal([1, 0, 0, -1])
    cfg = ClassifierConfig(alpha=3.0)
    m = np.eye(4) - g.adjacency / g.spectral_radius
    m = np.real(m.conj().T @ m)
    c = np.diag(labels.known_mask.astype(float))
    h = 1e-5
    for _ in range(20):
        x = rng.standard_normal(4)
        d = rng.standard_normal(4)
        d /= np.linalg.norm(d)
        fd = (classification_objective(g, labels, cfg, x + h * d)
              - classification_objective(g, labels, cfg, x - h * d)) / (2 * h)
        grad = (m + 2 * cfg.alpha * c) @ x - 2 * cfg.alpha * c @ labels.labels
        assert abs(fd - float(grad @ d)) <= 1e-5 * max(1.0, abs(float(grad @ d)))
    # two disjoint 5-cliques, one label each: every node classified
    n = 10
    a = np.zeros((n, n))
    for block in (range(5), range(5, n)):
        for i in block:
            for j in block:
                if i != j:
                    a[i, j] = 1.0
    g = Graph(a)
    labels = LabelSignal([1, 0, 0, 0, 0, -1, 0, 0, 0, 0])
    result = classify(g, labels, ClassifierConfig(alpha=2.0))
    assert np.array_equal(result.classes, [1] * 5 + [-1] * 5)
    print("PASS: label spreading satisfies stationarity to 1e-8, matches "
          "finite-difference gradients to 1e-5, and separates twin cliques "
          "10/10")


def test_block_model_classification_accuracy():
    start = time.perf_counter()
    g, truth = sbm_graph(200, 0.1, 0.01, seed=11)
    result = sweep_alpha(g, truth, "shift", standard_alpha_grid(),
                         0.05, 20, seed=7)
    elapsed = time.perf_counter() - start
    assert result.best_accuracy >= 0.9
    assert elapsed < 60.0
    print(f"PASS: two-block SBM with 5% known labels reaches mean accuracy "
          f"{result.best_accuracy:.4f} at alpha={result.best_alpha:.3g} "
          f"({elapsed:.1f}s)")


def test_spike_detection_rates_on_knn_graph():
    pts = np.random.default_rng(0).random((150, 2))
    g = build_knn_graph(pts, 6)
    b = decompose(g)
    low = np.asarray(order_frequencies(b).order)[:15]
    filt = design_ideal_filter(b, "highpass", 12).filter
    cfg = DetectorConfig(filter=filt, window=3, threshold_scale=1.5)
    sigma = 0.05
    rng = np.random.default_rng(1)
    trials = 200
    true_pos = false_pos = 0

    def smooth_snapshot(shat):
        noise = (rng.standard_normal(150)
                 + 1j * rng.standard_normal(150)) * sigma / np.sqrt(2)
        return g.signal(np.array((b.vectors @ (shat + noise)).real))

    for _ in range(trials):
        shat = np.zeros(150, complex)
        shat[low] = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        history = [smooth_snapshot(shat) for _ in range(3)]
        clean = smooth_snapshot(shat)
        spiked_values = np.array(clean.values)
        spiked_values[int(rng.integers(150))] += 5 * sigma
        spiked = g.signal(spiked_values)
        if detect_malfunction(g, b, cfg, history, clean).flagged:
            false_pos += 1
        if detect_malfunction(g, b, cfg, history, spiked).flagged:
            true_pos += 1
    tpr = true_pos / trials
    fpr = false_pos / trials
    assert tpr >= 0.85
    assert fpr <= 0.1
    print(f"PASS: across 200 trials a single corrupted node is flagged at "
          f"TPR={tpr:.3f} with FPR={fpr:.3f}")


def test_cli_outputs_are_bitwise_reproducible(tmp_path, monkeypatch):
    runs = itertools.count()

    def run(*argv):
        # a basis cache of its own for each run, so that both runs of a
        # command compute their spectrum
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / f"cache-{next(runs)}"))
        return main([str(a) for a in argv])

    def snapshot(root):
        out = {}
        for p in sorted(root.iterdir()):
            out[p.name] = p.read_bytes().replace(str(root).encode(), b"OUT")
        return out

    inputs = tmp_path / "in"
    inputs.mkdir()
    run("gen", "sbm", 60, 0.3, 0.02, "--seed", 21, "--out", inputs)
    labels = np.array(
        [v if i < 12 else 0.0
         for i, v in enumerate(np.loadtxt(inputs / "labels.csv",
                                          delimiter=",", skiprows=1)[:, 1])])
    write_signal(inputs / "known.csv", labels)
    write_signal(inputs / "signal.csv",
                 np.cos(np.arange(60) * 0.2))
    commands = [
        ("gen-sbm", ["gen", "sbm", "40", "0.4", "0.05", "--seed", "13"]),
        ("gen-regular", ["gen", "regular", "12", "3", "--seed", "5"]),
        ("spectrum", ["spectrum", str(inputs / "graph.tsv")]),
        ("design", ["design", str(inputs / "graph.tsv"),
                    "--kind", "lowpass", "--degree", "6"]),
        ("classify", ["classify", str(inputs / "graph.tsv"),
                      str(inputs / "known.csv"), "--alpha", "2.5"]),
        ("sweep", ["classify", str(inputs / "graph.tsv"),
                   str(inputs / "known.csv"), "--sweep", "0.5,1,2",
                   "--truth", str(inputs / "labels.csv"),
                   "--runs", "4", "--seed", "3"]),
    ]
    for name, argv in commands:
        a = tmp_path / f"{name}-a"
        c = tmp_path / f"{name}-b"
        assert run(*argv, "--out", a) == 0
        assert run(*argv, "--out", c) == 0
        assert snapshot(a) == snapshot(c), name
    # filter + detect need the designed filter from above
    fpath = tmp_path / "design-a" / "filter.json"
    more = [
        ("filter", ["filter", str(inputs / "graph.tsv"), str(fpath),
                    str(inputs / "signal.csv")]),
        ("detect", ["detect", str(inputs / "graph.tsv"),
                    "--history", str(inputs / "signal.csv"),
                    str(inputs / "signal.csv"),
                    "--current", str(inputs / "signal.csv"),
                    "--window", "2", "--degree", "5"]),
    ]
    for name, argv in more:
        a = tmp_path / f"{name}-a"
        c = tmp_path / f"{name}-b"
        assert run(*argv, "--out", a) == 0
        assert run(*argv, "--out", c) == 0
        assert snapshot(a) == snapshot(c), name
    print("PASS: every seeded command produced byte-identical outputs on "
          "a second run")


def test_a_relabeled_cli_run_is_a_permuted_run(tmp_path):
    """Every command on a directed kNN graph, and on the same graph with its
    node ids permuted in every file and the rows of every file shuffled.

    Left out until the refusal of a defective graph holds under every
    labeling (ROADMAP item 3): defective and near-defective digraphs, whose
    basis one labeling may refuse and another accept; and graphs with a
    repeated eigenvalue, whose eigenbasis, and so the Fourier coefficients
    that detection ranks, are not unique.
    """
    rng = np.random.default_rng(8)
    n = 40
    pts = rng.random((n, 2))
    g = build_knn_graph(pts, 5)
    field = np.sin(3 * pts[:, 0]) + np.cos(2 * pts[:, 1])
    history = [field * (1 + 0.05 * t) + 0.01 * rng.standard_normal(n) for t in range(3)]
    current = field * 1.15 + 0.01 * rng.standard_normal(n)
    current[7] += 3.0
    known = np.where(rng.random(n) < 0.3, np.sign(pts[:, 0] - 0.5), 0.0)
    p = rng.permutation(n)  # node j of the relabeled files is node p[j]

    def inputs(root, relabel):
        root.mkdir()
        write_edge_list(root / "graph.tsv", g)
        take = slice(None) if relabel is None else relabel
        for t, h in enumerate(history):
            write_signal(root / f"h{t}.csv", h[take])
        write_signal(root / "current.csv", current[take])
        write_signal(root / "known.csv", known[take])
        if relabel is not None:  # new ids in the edge list; every file's rows shuffled
            new_id = np.argsort(relabel)
            for path in sorted(root.iterdir()):
                head, *rows = path.read_text().splitlines()
                if path.name == "graph.tsv":
                    rows = [f"{new_id[int(s)]}\t{new_id[int(d)]}\t{w}"
                            for s, d, w in (r.split("\t") for r in rows)]
                path.write_text("\n".join([head, *(rows[i] for i in
                                                   rng.permutation(len(rows)))]) + "\n")
        out = root / "out"
        graph = root / "graph.tsv"
        commands = [
            ("spectrum", ["spectrum", graph]),
            ("design", ["design", graph, "--kind", "highpass", "--degree", 4]),
            ("filter", ["filter", graph, out / "design" / "filter.json", root / "h0.csv"]),
            ("detect", ["detect", graph, "--history", *(root / f"h{t}.csv" for t in range(3)),
                        "--current", root / "current.csv",
                        "--filter", out / "design" / "filter.json"]),
            ("classify", ["classify", graph, root / "known.csv"]),
        ]
        for name, argv in commands:
            assert main([str(a) for a in argv + ["--out", out / name]]) == 0, name
        return out

    a, b = inputs(tmp_path / "a", None), inputs(tmp_path / "b", p)

    def close(x, y):
        x, y = np.asarray(x), np.asarray(y)
        return x.shape == y.shape and np.abs(x - y).max() <= 1e-9 * np.abs(x).max()

    def doc(out, name, file):
        return json.loads((out / name / file).read_text())

    relabeled = Graph(g.adjacency[np.ix_(p, p)])
    for x, y in zip(_nonzeros(read_edge_list(tmp_path / "b" / "graph.tsv")),
                    _nonzeros(relabeled)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    eig = [np.sort_complex([complex(*z) for z in doc(out, "spectrum", "spectrum.json")
                            ["eigenvalues"]]) for out in (a, b)]
    assert len(set(np.round(eig[0], 6))) == n  # a simple spectrum
    assert close(*eig)
    assert close(*([complex(*z) for z in doc(out, "design", "filter.json")["taps"]]
                   for out in (a, b)))
    filtered = [read_signal(out / "filter" / "filtered.csv") for out in (a, b)]
    assert close(filtered[0][p], filtered[1])
    det = [doc(out, "detect", "detection.json") for out in (a, b)]
    assert det[0]["flagged"] and det[1]["flagged"]
    assert close(det[0]["threshold"], det[1]["threshold"])
    assert close(*(sorted(m for _, m in d["offending_coefficients"]) for d in det))
    pred = [np.loadtxt(out / "classify" / "predictions.csv", delimiter=",", skiprows=1)
            for out in (a, b)]
    assert close(pred[0][p, 1], pred[1][:, 1])
    assert np.array_equal(pred[0][p, 2], pred[1][:, 2])
    assert np.array_equal(pred[1][:, 0], np.arange(n))
    print("PASS: a relabeled spectrum, design, filter, detect and classify "
          "run is the original run, permuted")
