import itertools

import numpy as np
import pytest

from graphdsp import (
    ClassifierConfig,
    DetectorConfig,
    Graph,
    GraphFilter,
    LabelSignal,
    SingularSystemError,
    classification_objective,
    classify,
    classify_with_misfit_budget,
    decompose,
    design_ideal_filter,
    detect_malfunction,
    igft,
    label_misfit,
    order_frequencies,
    sbm_graph,
    standard_alpha_grid,
    sweep_alpha,
)
from graphdsp import applications
from graphdsp.applications import DIRECT_SOLVE_MAX_N, _label_solver


def two_cliques(k=5, bridge=0.5):
    """Two k-cliques joined by one weak edge; nodes 0..k-1 vs k..2k-1."""
    n = 2 * k
    a = np.zeros((n, n))
    for block in (range(k), range(k, n)):
        for i in block:
            for j in block:
                if i != j:
                    a[i, j] = 1.0
    a[k - 1, k] = a[k, k - 1] = bridge
    return Graph(a)


def clique_labels(k=5, known_per_side=1):
    values = np.zeros(2 * k)
    values[:known_per_side] = 1.0
    values[k:k + known_per_side] = -1.0
    return LabelSignal(values)


def smooth_and_noisy_world(seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.random((40, 2))
    from graphdsp import build_knn_graph
    g = build_knn_graph(pts, 4, symmetrize=True)
    b = decompose(g)
    low = np.asarray(order_frequencies(b).order)[:6]
    def snapshot(r, spike=0.0):
        shat = np.zeros(40, complex)
        shat[low] = r.standard_normal(6)
        vals = np.array(igft(b, shat).values, dtype=float)
        if spike:
            vals[int(r.integers(40))] += spike
        return g.signal(vals)
    return g, b, snapshot


# ---------------------------------------------------------------------------
# configs


def test_detector_config_validation():
    f = GraphFilter([0.0, 1.0])
    cfg = DetectorConfig(filter=f)
    assert cfg.window == 3
    assert cfg.threshold_scale == 1.0
    with pytest.raises(ValueError):
        DetectorConfig(filter=f, window=0)
    with pytest.raises(ValueError):
        DetectorConfig(filter=f, threshold_scale=-1.0)
    with pytest.raises(ValueError):
        DetectorConfig(filter=f, calibration="mean")


def test_classifier_config_validation():
    cfg = ClassifierConfig(alpha=2.0)
    assert cfg.form == "shift"
    with pytest.raises(ValueError):
        ClassifierConfig(alpha=0.0)
    with pytest.raises(ValueError):
        ClassifierConfig(alpha=1.0, form="fourier")


# ---------------------------------------------------------------------------
# malfunction detector


def test_detector_never_flags_replayed_history():
    g, b, snapshot = smooth_and_noisy_world()
    rng = np.random.default_rng(1)
    hist = [snapshot(rng) for _ in range(3)]
    f = design_ideal_filter(b, "highpass", 8).filter
    cfg = DetectorConfig(filter=f, window=3)
    report = detect_malfunction(g, b, cfg, hist, hist[-1])
    assert not report.flagged
    assert report.offending_coefficients == ()


def test_detector_flags_a_spike():
    g, b, snapshot = smooth_and_noisy_world()
    rng = np.random.default_rng(2)
    hist = [snapshot(rng) for _ in range(3)]
    f = design_ideal_filter(b, "highpass", 8).filter
    cfg = DetectorConfig(filter=f, window=3)
    report = detect_malfunction(g, b, cfg, hist, snapshot(rng, spike=50.0))
    assert report.flagged
    assert len(report.offending_coefficients) >= 1
    mags = [m for _, m in report.offending_coefficients]
    assert mags == sorted(mags, reverse=True)
    assert all(m > report.threshold for m in mags)


def test_detector_smooth_current_stays_quiet():
    g, b, snapshot = smooth_and_noisy_world()
    rng = np.random.default_rng(3)
    hist = [snapshot(rng) for _ in range(4)]
    f = design_ideal_filter(b, "highpass", 8).filter
    flags = 0
    for _ in range(20):
        cfg = DetectorConfig(filter=f, window=4, threshold_scale=1.5)
        if detect_malfunction(g, b, cfg, hist, snapshot(rng)).flagged:
            flags += 1
    assert flags <= 2


def test_detector_is_scale_invariant():
    g, b, snapshot = smooth_and_noisy_world()
    rng = np.random.default_rng(4)
    hist = [snapshot(rng) for _ in range(3)]
    current = snapshot(rng, spike=5.0)
    f = design_ideal_filter(b, "highpass", 8).filter
    cfg = DetectorConfig(filter=f, window=3)
    base = detect_malfunction(g, b, cfg, hist, current)
    scaled_hist = [g.signal(7.0 * s.values) for s in hist]
    scaled_cur = g.signal(7.0 * current.values)
    scaled = detect_malfunction(g, b, cfg, scaled_hist, scaled_cur)
    assert scaled.flagged == base.flagged
    assert scaled.threshold == pytest.approx(7.0 * base.threshold, rel=1e-12)


def test_detector_spike_lands_in_high_band():
    g, b, snapshot = smooth_and_noisy_world()
    rng = np.random.default_rng(5)
    hist = [snapshot(rng) for _ in range(3)]
    f = design_ideal_filter(b, "highpass", 8).filter
    cfg = DetectorConfig(filter=f, window=3)
    report = detect_malfunction(g, b, cfg, hist, snapshot(rng, spike=50.0))
    ranks = {int(i) for i in np.asarray(order_frequencies(b).order)[20:]}
    top_idx = report.offending_coefficients[0][0]
    assert top_idx in ranks


def test_detector_uses_only_last_window_snapshots():
    g, b, snapshot = smooth_and_noisy_world()
    rng = np.random.default_rng(6)
    wild = g.signal(1e6 * np.ones(40))
    hist = [wild] + [snapshot(rng) for _ in range(3)]
    current = snapshot(rng, spike=50.0)
    f = design_ideal_filter(b, "highpass", 8).filter
    cfg = DetectorConfig(filter=f, window=3)
    assert detect_malfunction(g, b, cfg, hist, current).flagged
    cfg_all = DetectorConfig(filter=f, window=4)
    assert not detect_malfunction(g, b, cfg_all, hist, current).flagged


def test_detector_median_calibration_is_tighter():
    g, b, snapshot = smooth_and_noisy_world()
    rng = np.random.default_rng(7)
    hist = [snapshot(rng) for _ in range(5)]
    f = design_ideal_filter(b, "highpass", 8).filter
    hi = DetectorConfig(filter=f, window=5, calibration="max")
    med = DetectorConfig(filter=f, window=5, calibration="median")
    current = snapshot(rng)
    t_max = detect_malfunction(g, b, hi, hist, current).threshold
    t_med = detect_malfunction(g, b, med, hist, current).threshold
    assert t_med <= t_max


def test_detector_rejects_short_history():
    g, b, snapshot = smooth_and_noisy_world()
    rng = np.random.default_rng(8)
    f = design_ideal_filter(b, "highpass", 8).filter
    cfg = DetectorConfig(filter=f, window=3)
    with pytest.raises(ValueError):
        detect_malfunction(g, b, cfg, [snapshot(rng)], snapshot(rng))


def test_detector_rejects_mismatched_basis():
    g, b, snapshot = smooth_and_noisy_world()
    other = decompose(two_cliques())
    rng = np.random.default_rng(9)
    f = design_ideal_filter(b, "highpass", 8).filter
    cfg = DetectorConfig(filter=f, window=1)
    with pytest.raises(ValueError):
        detect_malfunction(g, other, cfg, [snapshot(rng)], snapshot(rng))


# ---------------------------------------------------------------------------
# semi-supervised classifier


def test_two_cliques_fully_recovered():
    g = two_cliques()
    labels = clique_labels()
    for form in ("shift", "laplacian"):
        result = classify(g, labels, ClassifierConfig(alpha=5.0, form=form))
        assert np.array_equal(result.classes[:5], np.ones(5))
        assert np.array_equal(result.classes[5:], -np.ones(5))


def test_fully_labeled_large_alpha_reproduces_labels():
    g = two_cliques()
    values = np.ones(10)
    values[5:] = -1.0
    labels = LabelSignal(values)
    result = classify(g, labels, ClassifierConfig(alpha=1e8))
    assert np.abs(result.predicted - values).max() <= 1e-6
    assert np.array_equal(result.classes, values)


def test_constant_labels_propagate_globally():
    g = two_cliques()
    labels = LabelSignal([1, 0, 0, 0, 0, 0, 0, 0, 0, 1])
    result = classify(g, labels, ClassifierConfig(alpha=1.0))
    assert np.all(result.classes == 1)


def test_classify_requires_some_known_label():
    g = two_cliques()
    with pytest.raises(ValueError):
        classify(g, LabelSignal(np.zeros(10)), ClassifierConfig(alpha=1.0))
    with pytest.raises(ValueError):
        classify(g, LabelSignal([1, -1]), ClassifierConfig(alpha=1.0))


def disconnected_cliques_one_labeled(k=5):
    a = np.zeros((2 * k, 2 * k))
    for block in (range(k), range(k, 2 * k)):
        for i in block:
            for j in block:
                if i != j:
                    a[i, j] = 1.0
    values = np.zeros(2 * k)
    values[0] = 1.0
    values[1] = -1.0
    return Graph(a), LabelSignal(values)


def test_unlabeled_component_is_reported_singular():
    # two disconnected cliques of the same size share the spectral radius,
    # so an unlabeled component makes the system exactly singular for both
    # regularizer forms
    k = 5
    a = np.zeros((2 * k, 2 * k))
    for block in (range(k), range(k, 2 * k)):
        for i in block:
            for j in block:
                if i != j:
                    a[i, j] = 1.0
    g = Graph(a)
    values = np.zeros(2 * k)
    values[0] = 1.0
    values[1] = -1.0
    for form in ("shift", "laplacian"):
        with pytest.raises(SingularSystemError) as e:
            classify(g, LabelSignal(values), ClassifierConfig(alpha=1.0, form=form))
        assert e.value.component is not None
        assert set(e.value.component) == set(range(k, 2 * k))
        assert "component" in str(e.value)


def test_prediction_satisfies_stationarity():
    rng = np.random.default_rng(13)
    g, truth = sbm_graph(60, 0.3, 0.05, seed=1)
    values = np.array(truth.labels, dtype=float)
    values[rng.random(60) < 0.7] = 0.0
    if not values.any():
        values[0] = 1.0
    labels = LabelSignal(values)
    for form in ("shift", "laplacian"):
        cfg = ClassifierConfig(alpha=3.0, form=form)
        s = classify(g, labels, cfg).predicted
        # stationarity of the quadratic objective at the solution
        if form == "shift":
            m = np.eye(60) - g.adjacency / g.spectral_radius
            m = np.real(m.conj().T @ m)
        else:
            from graphdsp import laplacian
            m = 2.0 * laplacian(g)
        c = np.diag(labels.known_mask.astype(float))
        grad = (m + 2 * cfg.alpha * c) @ s - 2 * cfg.alpha * c @ values
        assert np.abs(grad).max() <= 1e-6 * max(1.0, np.abs(s).max())


def test_prediction_minimizes_objective_locally():
    g = two_cliques()
    labels = clique_labels()
    cfg = ClassifierConfig(alpha=2.0)
    s = classify(g, labels, cfg).predicted
    base = classification_objective(g, labels, cfg, s)
    rng = np.random.default_rng(17)
    for _ in range(50):
        bump = rng.standard_normal(10)
        bump *= 1e-3 / np.linalg.norm(bump)
        assert classification_objective(g, labels, cfg, s + bump) >= base - 1e-12


def test_objective_gradient_matches_finite_differences():
    g = two_cliques()
    labels = clique_labels()
    cfg = ClassifierConfig(alpha=2.0)
    rng = np.random.default_rng(19)
    x = rng.standard_normal(10)
    h = 1e-6
    for _ in range(5):
        d = rng.standard_normal(10)
        d /= np.linalg.norm(d)
        fd = (classification_objective(g, labels, cfg, x + h * d)
              - classification_objective(g, labels, cfg, x - h * d)) / (2 * h)
        m = np.eye(10) - g.adjacency / g.spectral_radius
        m = np.real(m.conj().T @ m)
        c = np.diag(labels.known_mask.astype(float))
        grad = (m + 2 * cfg.alpha * c) @ x - 2 * cfg.alpha * c @ labels.labels
        assert fd == pytest.approx(float(grad @ d), rel=1e-4, abs=1e-8)


def test_zero_prediction_falls_to_negative_class():
    # an unlabeled isolated node receives exactly zero and must land in -1
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    g = Graph(a)
    labels = LabelSignal([1, 1, 0])
    result = classify(g, labels, ClassifierConfig(alpha=1.0))
    assert result.predicted[2] == 0.0
    assert result.classes[2] == -1


def test_laplacian_form_rejects_directed_graph():
    from graphdsp import cycle_graph
    g = cycle_graph(4)
    labels = LabelSignal([1, 0, 0, -1])
    with pytest.raises(ValueError):
        classify(g, labels, ClassifierConfig(alpha=1.0, form="laplacian"))


def test_forms_agree_on_regular_graphs():
    # on a d-regular graph both regularizers have the same eigenvectors, so
    # suitable alphas give matching sign patterns
    from graphdsp import regular_graph
    g = regular_graph(12, 3, seed=4)
    values = np.zeros(12)
    values[0] = 1.0
    values[7] = -1.0
    labels = LabelSignal(values)
    shift = classify(g, labels, ClassifierConfig(alpha=4.0, form="shift"))
    matched = False
    for alpha in standard_alpha_grid():
        lap = classify(g, labels, ClassifierConfig(alpha=float(alpha),
                                                   form="laplacian"))
        if np.array_equal(lap.classes, shift.classes):
            matched = True
            break
    assert matched


def test_large_problem_uses_iterative_path():
    g, truth = sbm_graph(2100, 0.01, 0.002, seed=3)
    values = np.array(truth.labels, dtype=float)
    rng = np.random.default_rng(23)
    values[rng.random(2100) < 0.9] = 0.0
    labels = LabelSignal(values)
    result = classify(g, labels, ClassifierConfig(alpha=5.0))
    accuracy = np.mean(result.classes == truth.labels)
    assert accuracy > 0.8


@pytest.fixture(scope="module")
def large_draw():
    g, truth = sbm_graph(2100, 0.01, 0.002, seed=3)
    assert g.n > DIRECT_SOLVE_MAX_N
    values = np.array(truth.labels, dtype=float)
    values[np.random.default_rng(23).random(g.n) < 0.9] = 0.0
    return g, LabelSignal(values)


def dense_system(g, labels, cfg):
    """M + 2 alpha C built here from the dense adjacency."""
    a = g.adjacency
    if cfg.form == "shift":
        b = np.eye(g.n) - a / g.spectral_radius
        m = b.T @ b
    else:
        m = 2.0 * (np.diag(a.sum(axis=1)) - a)
    return m + np.diag(2.0 * cfg.alpha * labels.known_mask)


@pytest.mark.parametrize("form", ["shift", "laplacian"])
def test_iterative_path_meets_the_dense_system(large_draw, form):
    g, labels = large_draw
    cfg = ClassifierConfig(alpha=5.0, form=form)
    result = classify(g, labels, cfg)
    system = dense_system(g, labels, cfg)
    rhs = 2.0 * cfg.alpha * labels.labels
    assert (np.linalg.norm(system @ result.predicted - rhs)
            <= 1e-8 * np.linalg.norm(rhs))
    exact = np.linalg.solve(system, rhs)
    assert np.array_equal(result.classes, np.where(exact > 0.0, 1, -1))


def test_iterative_laplacian_form_refuses_directed_and_negative(large_draw):
    g, labels = large_draw
    negative = np.array(g.adjacency)
    negative[0, 1] = negative[1, 0] = -1.0
    cfg = ClassifierConfig(alpha=1.0, form="laplacian")
    for bad, message in ((Graph(g.adjacency, directed=True), "undirected"),
                         (Graph(negative), "non-negative")):
        with pytest.raises(ValueError, match=message):
            classify(bad, labels, cfg)


@pytest.mark.parametrize("form", ["shift", "laplacian"])
def test_iterative_path_refuses_unlabeled_component(large_draw, form):
    # two disconnected copies share the spectral radius, so the unlabeled
    # copy makes the system singular for both forms, as in the direct test
    g, labels = large_draw
    half = g.n // 2
    a = np.zeros((g.n, g.n))
    a[:half, :half] = a[half:, half:] = g.adjacency[:half, :half]
    values = np.array(labels.labels)
    values[half:] = 0.0
    with pytest.raises(SingularSystemError) as e:
        classify(Graph(a), LabelSignal(values), ClassifierConfig(alpha=5.0, form=form))
    assert set(e.value.component) == set(range(half, g.n))


# ---------------------------------------------------------------------------
# misfit budget


def budget_by_per_alpha_classify(g, labels, epsilon, form="shift",
                                 max_alpha=1e9, iterations=60):
    """The doubling / bisection search with one classify per trial alpha."""
    def solve(alpha):
        out = classify(g, labels, ClassifierConfig(alpha=alpha, form=form))
        return out, label_misfit(labels, out.predicted)

    alpha = 1.0
    out, miss = solve(alpha)
    if miss > epsilon:
        while miss > epsilon:
            alpha *= 2.0
            assert alpha <= max_alpha
            lo = alpha / 2.0
            out, miss = solve(alpha)
        hi = alpha
    else:
        hi = alpha
        while miss <= epsilon and alpha > 1e-12:
            alpha /= 2.0
            prev = out
            out, miss = solve(alpha)
            if miss <= epsilon:
                hi = alpha
            else:
                out = prev
        if miss <= epsilon:
            return out, alpha
        lo = alpha
    for _ in range(iterations):
        mid = float(np.sqrt(lo * hi))
        cand, miss = solve(mid)
        if miss <= epsilon:
            hi, out = mid, cand
        else:
            lo = mid
    return out, hi


@pytest.mark.parametrize("form", ["shift", "laplacian"])
@pytest.mark.parametrize("epsilon", [1e-6, 1e-3, 1e-1, 0.5])
def test_misfit_budget_matches_per_alpha_search(form, epsilon):
    g = two_cliques()
    labels = clique_labels(known_per_side=2)
    result, alpha = classify_with_misfit_budget(g, labels, epsilon, form)
    ref, ref_alpha = budget_by_per_alpha_classify(g, labels, epsilon, form)
    # at epsilon=1e-6 the misfit is a difference of numbers near 1, so any
    # float64 solve knows it, and the alpha found, only to ~1e-16/epsilon
    rel = 1e-12 if epsilon >= 1e-3 else 1e-9
    assert alpha == pytest.approx(ref_alpha, rel=rel)
    assert np.array_equal(result.classes, ref.classes)
    assert label_misfit(labels, result.predicted) <= epsilon


def test_misfit_budget_down_to_the_alpha_floor():
    # negated weights put rho on a negative eigenvalue, so M = B^T B is
    # nonsingular and alphas down to the 1e-12 floor are solvable
    g = Graph(-two_cliques().adjacency)
    labels = clique_labels(known_per_side=2)
    for epsilon in (1e-3, 1.9, 5.0):
        result, alpha = classify_with_misfit_budget(g, labels, epsilon)
        ref, ref_alpha = budget_by_per_alpha_classify(g, labels, epsilon)
        assert alpha == pytest.approx(ref_alpha, rel=1e-12)
        assert np.array_equal(result.classes, ref.classes)
    assert alpha < 1e-12


@pytest.mark.parametrize("form", ["shift", "laplacian"])
def test_loose_misfit_budget_on_a_singular_operator(form):
    # the shift form's M is singular here (+rho is an eigenvalue), so halving
    # alpha reaches values the residual check refuses; the search returns
    # the smallest alpha it verified instead of raising
    g = two_cliques()
    labels = clique_labels(known_per_side=2)
    result, alpha = classify_with_misfit_budget(g, labels, 5.0, form)
    assert label_misfit(labels, result.predicted) <= 5.0
    direct = classify(g, labels, ClassifierConfig(alpha=alpha, form=form))
    assert np.abs(direct.predicted - result.predicted).max() <= 1e-6
    if alpha > 1e-12:
        with pytest.raises(SingularSystemError):
            classify(g, labels, ClassifierConfig(alpha=alpha / 2, form=form))


@pytest.mark.parametrize("form", ["shift", "laplacian"])
@pytest.mark.parametrize("k", [4, 5, 6, 7])
def test_budget_alpha_is_one_classify_accepts(form, k):
    # near the singular edge the factored residual and classify's Cholesky
    # could judge the budget's alpha differently; classify must accept it
    for bridge, known, epsilon in itertools.product((0.25, 0.5, 1.0), (1, 2), (2.0, 3.0, 5.0)):
        g = two_cliques(k, bridge)
        labels = clique_labels(k, known)
        result, alpha = classify_with_misfit_budget(g, labels, epsilon, form)
        assert label_misfit(labels, result.predicted) <= epsilon
        direct = classify(g, labels, ClassifierConfig(alpha=alpha, form=form))
        assert np.abs(direct.predicted - result.predicted).max() <= 1e-6


def test_budget_alpha_refused_by_classify_is_doubled(monkeypatch):
    g, labels = two_cliques(), clique_labels()
    _, found = classify_with_misfit_budget(g, labels, 1e-3)
    refused = []

    def refuse_once(g, labels, cfg):
        if not refused:
            refused.append(cfg.alpha)
            raise SingularSystemError("refused")
        return classify(g, labels, cfg)

    monkeypatch.setattr(applications, "classify", refuse_once)
    result, alpha = classify_with_misfit_budget(g, labels, 1e-3)
    assert refused == [found] and alpha == 2 * found
    assert label_misfit(labels, result.predicted) <= 1e-3


def test_unreachable_misfit_budget_is_refused():
    g = two_cliques()
    labels = clique_labels(known_per_side=2)
    with pytest.raises(ValueError, match="not reachable"):
        classify_with_misfit_budget(g, labels, 0.0, max_alpha=1e3)


def test_misfit_budget_refuses_unlabeled_component():
    g, labels = disconnected_cliques_one_labeled()
    with pytest.raises(SingularSystemError) as e:
        classify_with_misfit_budget(g, labels, 1e-3)
    assert set(e.value.component) == set(range(5, 10))


def test_misfit_budget_is_respected():
    g = two_cliques()
    labels = clique_labels(known_per_side=2)
    result, alpha = classify_with_misfit_budget(g, labels, 1e-3)
    assert alpha > 0
    assert label_misfit(labels, result.predicted) <= 1e-3


def test_looser_budget_needs_smaller_alpha():
    g = two_cliques()
    labels = clique_labels(known_per_side=2)
    _, tight = classify_with_misfit_budget(g, labels, 1e-6)
    _, loose = classify_with_misfit_budget(g, labels, 1e-1)
    assert tight > loose


# ---------------------------------------------------------------------------
# alpha sweep


def test_standard_grid_shape():
    grid = standard_alpha_grid()
    assert len(grid) == 199
    assert grid[0] == pytest.approx(0.01)
    assert grid[-1] == 100.0
    assert 1.0 in grid.tolist()
    assert np.all(np.diff(grid) > 0)


def test_sweep_is_deterministic():
    g, truth = sbm_graph(40, 0.4, 0.05, seed=2)
    alphas = np.array([0.5, 1.0, 5.0])
    r1 = sweep_alpha(g, truth, "shift", alphas, 0.2, 5, seed=9)
    r2 = sweep_alpha(g, truth, "shift", alphas, 0.2, 5, seed=9)
    assert np.array_equal(r1.mean_accuracy, r2.mean_accuracy)
    assert np.array_equal(r1.std_accuracy, r2.std_accuracy)
    assert r1.best_alpha == r2.best_alpha


def test_sweep_recovers_easy_communities():
    g, truth = sbm_graph(40, 0.5, 0.02, seed=5)
    alphas = np.array([0.1, 1.0, 10.0])
    result = sweep_alpha(g, truth, "shift", alphas, 0.25, 8, seed=11)
    assert result.best_accuracy > 0.9
    assert result.mean_accuracy.shape == (3,)
    assert np.all(result.std_accuracy >= 0)
    assert result.ratio == 0.25
    assert float(result.best_alpha) in alphas.tolist()


def test_sweep_validates_inputs():
    g, truth = sbm_graph(20, 0.5, 0.1, seed=6)
    with pytest.raises(ValueError):
        sweep_alpha(g, truth, "shift", np.array([1.0]), 0.0, 5)
    with pytest.raises(ValueError):
        sweep_alpha(g, truth, "shift", np.array([1.0]), 1.5, 5)
    with pytest.raises(ValueError):
        sweep_alpha(g, truth, "shift", np.array([]), 0.2, 5)
    with pytest.raises(ValueError):
        sweep_alpha(g, truth, "shift", np.array([1.0]), 0.2, 0)
    with pytest.raises(ValueError):
        sweep_alpha(g, truth, "banana", np.array([1.0]), 0.2, 5)


# ---------------------------------------------------------------------------
# factored solver behind the sweep and the misfit budget


def assert_matches_per_alpha_classify(g, labels, form):
    grid = standard_alpha_grid()
    s = _label_solver(g, labels, form)(grid)
    assert s.shape == (g.n, grid.size)
    for i, alpha in enumerate(grid):
        ref = classify(g, labels, ClassifierConfig(alpha=float(alpha), form=form))
        assert np.abs(s[:, i] - ref.predicted).max() <= 1e-10 * np.abs(s[:, i]).max()
        assert np.array_equal(np.where(s[:, i] > 0.0, 1, -1), ref.classes)
    return s


def sbm_draw(n=60, seed=1):
    g, truth = sbm_graph(n, 0.3, 0.05, seed=seed)
    values = np.array(truth.labels, dtype=float)
    values[np.random.default_rng(seed).random(n) < 0.7] = 0.0
    return g, truth, LabelSignal(values)


@pytest.mark.parametrize("form", ["shift", "laplacian"])
def test_factored_solver_matches_classify_on_sbm(form):
    g, _, labels = sbm_draw()
    assert 0 < labels.known_mask.sum() < g.n
    assert_matches_per_alpha_classify(g, labels, form)


@pytest.mark.parametrize("form", ["shift", "laplacian"])
def test_factored_solver_with_every_node_known(form):
    g, truth, _ = sbm_draw()
    assert_matches_per_alpha_classify(g, truth, form)


def test_factored_solver_isolated_unlabeled_node():
    g, _, labels = sbm_draw()
    a = np.zeros((g.n + 1, g.n + 1))
    a[:-1, :-1] = g.adjacency
    g = Graph(a)
    labels = LabelSignal(np.append(labels.labels, 0.0))
    s = assert_matches_per_alpha_classify(g, labels, "shift")
    assert np.all(s[-1] == 0.0)
    # under the Laplacian the isolated node is an unlabeled component
    for solve in (lambda: _label_solver(g, labels, "laplacian"),
                  lambda: classify(g, labels, ClassifierConfig(1.0, "laplacian"))):
        with pytest.raises(SingularSystemError) as e:
            solve()
        assert e.value.component == (g.n - 1,)


@pytest.mark.parametrize("form", ["shift", "laplacian"])
def test_sweep_matches_per_alpha_classify(form):
    g, truth = sbm_graph(40, 0.4, 0.05, seed=2)
    grid = standard_alpha_grid()
    result = sweep_alpha(g, truth, form, grid, 0.2, 2, seed=9)
    rng = np.random.default_rng(9)
    draws = [rng.choice(40, size=8, replace=False) for _ in range(2)]
    accuracy = np.zeros((grid.size, 2))
    for j, nodes in enumerate(draws):
        revealed = np.zeros(40)
        revealed[nodes] = truth.labels[nodes]
        for i, alpha in enumerate(grid):
            out = classify(g, LabelSignal(revealed),
                           ClassifierConfig(alpha=float(alpha), form=form))
            accuracy[i, j] = float(np.mean(out.classes == truth.labels))
    assert np.array_equal(result.mean_accuracy, accuracy.mean(axis=1))
    assert np.array_equal(result.std_accuracy, accuracy.std(axis=1))


@pytest.mark.parametrize("form", ["shift", "laplacian"])
def test_sweep_refuses_unlabeled_component(form):
    g, _ = disconnected_cliques_one_labeled()
    truth = LabelSignal(np.repeat([1.0, -1.0], 5))
    # one revealed label leaves the other clique without any
    with pytest.raises(SingularSystemError) as e:
        sweep_alpha(g, truth, form, standard_alpha_grid(), 0.1, 3, seed=4)
    assert e.value.component is not None
    assert set(e.value.component) in ({0, 1, 2, 3, 4}, {5, 6, 7, 8, 9})


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_sweep_rejects_bad_alpha_in_grid(bad):
    g, truth = sbm_graph(20, 0.5, 0.1, seed=6)
    with pytest.raises(ValueError):
        sweep_alpha(g, truth, "shift", np.array([1.0, bad, 2.0]), 0.2, 2)
