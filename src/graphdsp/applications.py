"""End-to-end pipelines: spectral anomaly detection and label regularization.

The detector high-pass filters sensor snapshots and flags Fourier
coefficients that exceed a threshold calibrated on recent history.  The
classifier treats two-class labels as a graph signal and minimizes signal
variation plus a fidelity penalty on the known labels, which reduces to a
symmetric positive-definite system built from one sparse variation operator
M.  A single fidelity weight is solved directly (dense Cholesky) up to 2000
nodes and by conjugate gradients above; the alpha sweep and the
misfit-budget search factor the system once per label set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .filtering import GraphFilter, apply_filter
from .graph import (Graph, GraphSignal, LabelSignal, _check_laplacian, _csr, _freeze,
                    _nonzero_radius)
from .spectral import SpectralBasis, gft

DIRECT_SOLVE_MAX_N = 2000
SOLVER_TOLERANCE = 1e-8
REGULARIZER_FORMS = ("shift", "laplacian")
CALIBRATIONS = ("max", "median")


class SingularSystemError(Exception):
    """The regularization system has no unique minimizer.

    ``component`` holds the node indices of an unlabeled connected
    component when one could be identified as the cause.
    """

    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component


@dataclass(frozen=True)
class DetectorConfig:
    """High-pass filter plus thresholding policy for anomaly detection.

    The threshold is ``threshold_scale`` times the largest high-pass
    Fourier coefficient magnitude seen over the last ``window`` calibration
    snapshots; ``calibration="median"`` swaps the max across snapshots for
    a median, for histories that may themselves contain bad days.
    """

    filter: GraphFilter
    window: int = 3
    threshold_scale: float = 1.0
    calibration: str = "max"

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not self.threshold_scale > 0:
            raise ValueError("threshold_scale must be positive")
        if self.calibration not in CALIBRATIONS:
            raise ValueError(f"calibration must be one of {CALIBRATIONS}")


@dataclass(frozen=True, eq=False)
class DetectionReport:
    flagged: bool
    threshold: float
    offending_coefficients: tuple


@dataclass(frozen=True)
class ClassifierConfig:
    """Fidelity weight and variation operator for label regularization."""

    alpha: float
    form: str = "shift"

    def __post_init__(self):
        a = float(self.alpha)
        if not np.isfinite(a) or a <= 0:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        object.__setattr__(self, "alpha", a)
        form = str(self.form).lower()
        if form not in REGULARIZER_FORMS:
            raise ValueError(f"form must be one of {REGULARIZER_FORMS}, got {form!r}")
        object.__setattr__(self, "form", form)


@dataclass(frozen=True, eq=False)
class Classification:
    predicted: np.ndarray
    classes: np.ndarray


def _coefficient_magnitudes(g, b, filt, s):
    return np.abs(gft(b, apply_filter(g, filt, s)))


def detect_malfunction(g: Graph, b: SpectralBasis, cfg: DetectorConfig,
                       history, current: GraphSignal) -> DetectionReport:
    """Flag a snapshot whose high-pass spectrum exceeds recent history.

    The threshold is calibrated on the last ``cfg.window`` entries of
    ``history``; the comparison is strict, so a snapshot identical to its
    own calibration history is never flagged.  Offending coefficients come
    back sorted by descending magnitude.
    """
    if b.graph is not g:
        raise ValueError("basis was computed for a different graph")
    history = list(history)
    if len(history) < cfg.window:
        raise ValueError(
            f"need at least window={cfg.window} history snapshots, "
            f"got {len(history)}"
        )
    peaks = [float(_coefficient_magnitudes(g, b, cfg.filter, s).max())
             for s in history[-cfg.window:]]
    level = float(np.median(peaks)) if cfg.calibration == "median" else max(peaks)
    threshold = cfg.threshold_scale * level
    mags = _coefficient_magnitudes(g, b, cfg.filter, current)
    over = np.flatnonzero(mags > threshold)
    over = over[np.argsort(-mags[over], kind="stable")]
    offending = tuple((int(k), float(mags[k])) for k in over)
    return DetectionReport(flagged=bool(offending), threshold=threshold,
                           offending_coefficients=offending)


def _variation_operator(g: Graph, form: str):
    """Sparse (CSR) real symmetric PSD matrix M whose quadratic form (halved)
    is the smoothness term of the classifier objective, cached on the graph:
    Re(B^H B) with B = I - A/|lambda_max|, or twice the Laplacian D - A,
    from the graph's cached CSR view of A.
    Every classifier solve uses this one M: the dense Cholesky up to
    ``DIRECT_SOLVE_MAX_N`` nodes, conjugate gradients above, the factored
    sweep and the objective."""
    key = f"_varop_{form}"
    cached = g.__dict__.get(key)
    if cached is not None:
        return cached
    import scipy.sparse

    if form == "laplacian":
        _check_laplacian(g)
        m = 2.0 * (scipy.sparse.diags_array(g.adjacency.sum(axis=1)) - _csr(g))
    else:
        b = (scipy.sparse.eye_array(g.n, format="csr")
             - _csr(g) / _nonzero_radius(g))
        m = (b.conj().T @ b).real.tocsr()
    object.__setattr__(g, key, m)
    return m


def _raise_singular(g: Graph, labels: LabelSignal):
    """Diagnose a singular classifier system before giving up."""
    import scipy.sparse.csgraph

    n_comp, comp = scipy.sparse.csgraph.connected_components(abs(_csr(g)),
                                                             directed=False)
    known = labels.known_mask
    for c in range(n_comp):
        nodes = np.flatnonzero(comp == c)
        if not known[nodes].any():
            head = ", ".join(str(i) for i in nodes[:8])
            more = "" if nodes.size <= 8 else f", ... ({nodes.size} nodes)"
            raise SingularSystemError(
                f"system is singular: connected component {{{head}{more}}} "
                f"contains no labeled node",
                component=tuple(int(i) for i in nodes),
            )
    raise SingularSystemError("regularization system is numerically singular")


def _solve_pos(g: Graph, labels: LabelSignal, a, b):
    """Cholesky solve of a @ x = b that refuses a singular classifier system."""
    import scipy.linalg

    try:
        # a singular-but-consistent system can pass the residual checks
        # with an arbitrary nullspace component mixed in, so treat scipy's
        # reciprocal-condition warning as a failure too
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            return scipy.linalg.solve(a, b, assume_a="pos")
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgWarning):
        _raise_singular(g, labels)


def _solve_system(g: Graph, labels: LabelSignal, cfg: ClassifierConfig):
    import scipy.sparse.csgraph
    import scipy.sparse.linalg

    rhs = 2.0 * cfg.alpha * labels.labels
    m = _variation_operator(g, cfg.form)
    system = m + scipy.sparse.diags_array(2.0 * cfg.alpha * labels.known_mask)
    if g.n <= DIRECT_SOLVE_MAX_N:
        s = _solve_pos(g, labels, system.toarray(), rhs)
    else:
        # rhs is zero on every component without a label, so CG converges
        # even where the system is singular: factor those components' block,
        # as the direct solve factors it within the whole system
        _, comp = scipy.sparse.csgraph.connected_components(m, directed=False)
        stray = np.flatnonzero(~np.isin(comp, comp[labels.known_mask]))
        if stray.size:
            _solve_pos(g, labels, system[stray][:, stray].toarray(), np.zeros(stray.size))
        s, info = scipy.sparse.linalg.cg(system, rhs, rtol=0.5 * SOLVER_TOLERANCE,
                                         atol=0.0, maxiter=20 * g.n)
        if info != 0:
            _raise_singular(g, labels)
    if np.linalg.norm(system @ s - rhs) > SOLVER_TOLERANCE * np.linalg.norm(rhs):
        _raise_singular(g, labels)
    return s


def _label_solver(g: Graph, labels: LabelSignal, form: str):
    """Factor the system once per label set; return alphas -> N x len(alphas)
    solutions.  With K/U the known/unknown nodes, X = M_UU^-1 M_UK and
    M_KK - M_UK^T X = Q diag(lam) Q^T: s_U = -X s_K, s_K = Q diag(2 alpha /
    (lam + 2 alpha)) Q^T y_K.  Singular for every alpha exactly when M_UU is."""
    m = _variation_operator(g, form)
    dense = m.toarray()
    known = labels.known_mask
    kn, un = np.flatnonzero(known), np.flatnonzero(~known)
    y = labels.labels
    m_uk = dense[np.ix_(un, kn)]
    x = _solve_pos(g, labels, dense[np.ix_(un, un)], m_uk)
    lam, q = np.linalg.eigh(dense[np.ix_(kn, kn)] - m_uk.T @ x)
    qty = q.T @ y[kn]

    def solve(alphas):
        two_a = 2.0 * np.asarray(alphas, dtype=float)
        d = lam[:, None] + two_a
        fit, miss = two_a / d * qty[:, None], lam[:, None] / d * qty[:, None]
        # a product with Q rounds in proportion to its operand, so each column
        # takes s_K = Q fit or y_K - Q miss, whichever operand is smaller
        small = (fit ** 2).sum(axis=0) <= (miss ** 2).sum(axis=0)
        s = np.empty((g.n, two_a.size))
        s[kn] = np.where(small, q @ fit, y[kn, None] - q @ miss)
        s[un] = -(x @ s[kn])
        r = m @ s + two_a * (known[:, None] * s - y[:, None])
        bound = SOLVER_TOLERANCE * two_a * np.linalg.norm(y)
        if not np.all(np.linalg.norm(r, axis=0) <= bound):
            _raise_singular(g, labels)
        return s

    return solve


def _check_labels(g: Graph, labels: LabelSignal):
    if labels.n != g.n:
        raise ValueError("label vector length does not match graph")
    if not labels.known_mask.any():
        raise ValueError("at least one label must be known")


def _classification(s) -> Classification:
    return Classification(predicted=_freeze(s),
                          classes=_freeze(np.where(s > 0.0, 1, -1)))


def classify(g: Graph, labels: LabelSignal, cfg: ClassifierConfig) -> Classification:
    """Spread known +/-1 labels over the graph by variation regularization.

    Solves (M + 2*alpha*C) s = 2*alpha*C*s_known, with M the shift-based
    smoothness operator (I - A_norm)^H (I - A_norm) or twice the Laplacian,
    and C the diagonal known-label mask.  Nodes with positive predictions
    get class +1, everything else (including exact zero) class -1.
    """
    _check_labels(g, labels)
    return _classification(_solve_system(g, labels, cfg))


def classification_objective(g: Graph, labels: LabelSignal,
                             cfg: ClassifierConfig, values) -> float:
    """The functional classify minimizes, for direct optimality checks:
    smoothness of the candidate plus alpha times its squared misfit on the
    known labels."""
    v = np.asarray(values, dtype=float)
    if v.shape != (g.n,):
        raise ValueError("candidate signal has the wrong length")
    m = _variation_operator(g, cfg.form)
    misfit = labels.known_mask * (labels.labels - v)
    return float(0.5 * v @ (m @ v) + cfg.alpha * (misfit @ misfit))


def label_misfit(labels: LabelSignal, values) -> float:
    """l2 distance between a candidate signal and the known labels."""
    v = np.asarray(values, dtype=float)
    d = labels.known_mask * (labels.labels - v)
    return float(np.linalg.norm(d))


def classify_with_misfit_budget(g: Graph, labels: LabelSignal, epsilon: float,
                                form="shift", *, max_alpha=1e9, iterations=60):
    """Classify with the smallest fidelity weight meeting a misfit budget.

    Runs a doubling search then log-domain bisection on alpha, all on one
    factorization, until the solution's known-label misfit drops to
    ``epsilon`` or below; returns the classification and the alpha found.

    The factorization refuses a system that is singular for every alpha (an
    unlabeled component) before any alpha is tried.  A refusal during the
    search therefore only means that alpha is too small for the system to
    resolve, as when the variation operator is singular and a loose budget
    halves alpha toward the 1e-12 floor: the search then stops at the
    smallest alpha already verified, which meets the budget and passed the
    residual check.  The factored residual and ``classify``'s own solve can
    judge an alpha near that edge differently, so the alpha found is
    confirmed by ``classify``'s solve and doubled until ``classify`` accepts
    it; the misfit falls as alpha grows, so each larger alpha should meet
    the budget too, and it is checked again at each.  The factored solution
    at that alpha is returned, not ``classify``'s: its misfit is the one
    checked against ``epsilon``, which ``classify``'s can miss by rounding.
    A budget unreachable below ``max_alpha`` raises ValueError.
    """
    if not epsilon >= 0:
        raise ValueError("epsilon must be non-negative")
    cfg = ClassifierConfig(alpha=1.0, form=form)
    _check_labels(g, labels)
    solver = _label_solver(g, labels, cfg.form)

    def meets(alpha):
        s = solver([alpha])[:, 0]
        return label_misfit(labels, s) <= epsilon, s

    lo, hi, alpha = None, None, 1.0
    try:
        while lo is None or hi is None:
            ok, s = meets(alpha)
            if ok:
                hi, out, alpha = alpha, s, alpha / 2.0
                if hi <= 1e-12:
                    break
            else:
                lo, alpha = alpha, alpha * 2.0
                if hi is None and alpha > max_alpha:
                    raise ValueError(
                        f"misfit budget {epsilon} not reachable below alpha={max_alpha}"
                    )
        for _ in range(iterations if lo is not None else 0):
            mid = float(np.sqrt(lo * hi))
            ok, s = meets(mid)
            if ok:
                hi, out = mid, s
            else:
                lo = mid
    except SingularSystemError:
        if hi is None:
            raise
    while True:
        try:
            classify(g, labels, ClassifierConfig(hi, form))
        except SingularSystemError:
            if 2.0 * hi > max_alpha:
                raise
        else:
            if label_misfit(labels, out) <= epsilon:
                return _classification(out), hi
            if 2.0 * hi > max_alpha:
                raise ValueError(
                    f"misfit budget {epsilon} not met at alpha={hi} after doubling"
                )
        hi *= 2.0
        out = solver([hi])[:, 0]


def standard_alpha_grid() -> np.ndarray:
    """The 199-point fidelity-weight grid 1/100 ... 1/2, 1, 2 ... 100."""
    return np.concatenate([1.0 / np.arange(100.0, 1.0, -1.0), [1.0],
                           np.arange(2.0, 101.0)])


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-alpha accuracy table from repeated random label reveals."""

    alphas: np.ndarray
    ratio: float
    mean_accuracy: np.ndarray
    std_accuracy: np.ndarray
    best_alpha: float
    best_accuracy: float


def sweep_alpha(g: Graph, truth: LabelSignal, form, alphas, ratio: float,
                runs: int, *, seed=0) -> SweepResult:
    """Average classification accuracy per fidelity weight.

    Each run reveals round(ratio*N) ground-truth labels drawn without
    replacement from a seeded generator, classifies, and scores the
    fraction of nodes whose sign matches the truth.  The same draws are
    reused for every alpha so the sweep isolates the weight's effect; ties
    for the best mean accuracy go to the smallest alpha.  Each draw factors
    the system once and solves the whole grid from the factors.
    """
    if truth.n != g.n:
        raise ValueError("truth length does not match graph")
    if not truth.known_mask.all():
        raise ValueError("truth must label every node")
    alphas = np.asarray(list(alphas), dtype=float)
    if alphas.size == 0:
        raise ValueError("alpha grid is empty")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    cfg = [ClassifierConfig(a, form) for a in alphas][0]  # all checked
    n = g.n
    n_known = int(round(ratio * n))
    if not 1 <= n_known <= n:
        raise ValueError(f"ratio {ratio} reveals {n_known} of {n} labels")
    rng = np.random.default_rng(seed)
    accuracy = np.zeros((alphas.size, runs))
    for j in range(runs):
        nodes = rng.choice(n, size=n_known, replace=False)
        revealed = np.zeros(n)
        revealed[nodes] = truth.labels[nodes]
        s = _label_solver(g, LabelSignal(revealed), cfg.form)(alphas)
        accuracy[:, j] = np.mean((s > 0.0) == (truth.labels[:, None] > 0.0), axis=0)
    mean = accuracy.mean(axis=1)
    std = accuracy.std(axis=1)
    best = int(np.argmax(mean))
    return SweepResult(alphas=_freeze(alphas), ratio=float(ratio),
                       mean_accuracy=_freeze(mean), std_accuracy=_freeze(std),
                       best_alpha=float(alphas[best]),
                       best_accuracy=float(mean[best]))
