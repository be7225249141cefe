"""End-to-end pipelines: spectral anomaly detection and label regularization.

The detector high-pass filters sensor snapshots and flags Fourier
coefficients that exceed a threshold calibrated on recent history.  The
classifier treats two-class labels as a graph signal and minimizes signal
variation plus a fidelity penalty on the known labels, which reduces to a
symmetric positive-definite system S = M + 2 alpha C built from one
variation operator M.  A single fidelity weight is solved at every N by
numpy conjugate gradients, which apply M as sparse products over the
adjacency's nonzeros and iterate to a relative residual of ``CG_TOLERANCE``.
A probe refuses a numerically singular S first: conjugate gradients on
S z = S q, for a fixed random q, must bring z within ``SOLVER_TOLERANCE`` of
q.  z lies in range(S), so a null vector of S, inside a labeled component
or filling one without a label, keeps z away from q, and a vector that S
nearly annuls is not resolved at ``CG_TOLERANCE``.  The alpha sweep and the
misfit budget's root-find factor the system once per label set by a dense
Cholesky, numpy's, which refuses as ``scipy.linalg.solve`` with its
ill-conditioning warning as an error would: a factorization that fails, or
a 1-norm reciprocal condition below eps by LAPACK's estimator, ported; so
no solve loads scipy.  Each solve logs its path (cg with the iterations of
the solve and of the probe, or factored) and its relative residual at debug
level, and each misfit budget its closed-form root, its alpha and its count
of solves.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .filtering import GraphFilter, apply_filter
from .graph import (Graph, GraphSignal, LabelSignal, _check_laplacian, _components,
                    _freeze, _nonzero_radius, _nonzeros, _shift, laplacian)
from .spectral import SpectralBasis, gft

SOLVER_TOLERANCE = 1e-8
# conjugate gradients iterate well past SOLVER_TOLERANCE, to about the
# residual a Cholesky leaves: its answer then differs from the factored one,
# or from its own on the graph with its nodes relabeled, by about cond(M) times
# this, not cond(M) times SOLVER_TOLERANCE
CG_TOLERANCE = 1e-15
REGULARIZER_FORMS = ("shift", "laplacian")
CALIBRATIONS = ("max", "median")
# the misfit budget's root is aimed this far below epsilon, relative, so that
# classify's solution, whose misfit rounds differently, meets it at one solve
BUDGET_MARGIN = 2.0 ** -42
# the Cholesky solve: rows per substitution block, the steps of the
# reciprocal-condition estimate before its final vector (LAPACK dlacn2's
# ITMAX), and the least reciprocal condition accepted: eps = 2^-52, below
# which scipy.linalg.solve warns in scipy 1.17 (its batched solver); older
# releases warn below LAPACK's unit roundoff dlamch('E') = eps/2 only
SUBSTITUTION_BLOCK = 64
ESTIMATE_STEPS = 5
MIN_RCOND = np.finfo(float).eps

log = logging.getLogger("graphdsp")


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


class _VariationOperator:
    """The real symmetric PSD matrix M whose quadratic form (halved) is the
    smoothness term of the classifier objective: Re(B^H B) with
    B = I - A/|lambda_max| (shift form), or twice the Laplacian D - A.

    ``op @ x`` applies M to a real vector as sparse products over the
    graph's nonzeros (B, then B^H), never forming B^H B; ``op.dense()`` forms
    M once, read-only, with one GEMM."""

    def __init__(self, g: Graph, form: str):
        self.graph, self.form = g, form
        if form == "laplacian":
            _check_laplacian(g)
            rows, _, vals = _nonzeros(g)
            self.degree = np.bincount(rows, vals, g.n)
        else:
            self.rho = _nonzero_radius(g)

    def __matmul__(self, x):
        g = self.graph
        if self.form == "laplacian":
            return 2.0 * (self.degree * x - _shift(g, x))
        b = x - _shift(g, x) / self.rho
        return (b - _shift(g, b, adjoint=True) / self.rho).real

    def dense(self):
        if "_dense" not in self.__dict__:
            if self.form == "laplacian":
                m = laplacian(self.graph)
                m *= 2.0
            else:
                b = self.graph.adjacency / -self.rho
                b[np.diag_indices(self.graph.n)] += 1.0
                if np.iscomplexobj(b):  # Re(B^H B) = Re(B)^T Re(B) + Im(B)^T Im(B)
                    b = np.concatenate([b.real, b.imag])
                m = b.T @ b
            m.setflags(write=False)
            self._dense = m
        return self._dense


def _variation_operator(g: Graph, form: str) -> _VariationOperator:
    """The classifier's variation operator M, one per graph and form, cached
    on the graph.  Every classifier solve uses it: its products for
    conjugate gradients and the objective, its dense form for the factored
    sweep and the budget's Schur spectrum."""
    key = f"_varop_{form}"
    if key not in g.__dict__:
        g.__dict__[key] = _VariationOperator(g, form)
    return g.__dict__[key]


def _raise_singular(g: Graph, labels: LabelSignal):
    """Diagnose a singular classifier system before giving up: name the
    unlabeled weak component that holds the lowest node index."""
    component = _components(g)
    stray = np.flatnonzero(~np.isin(component, component[labels.known_mask]))
    if stray.size:  # the lowest stray node is the lowest root of a stray component
        nodes = np.flatnonzero(component == stray[0])
        head = ", ".join(str(i) for i in nodes[:8])
        more = "" if nodes.size <= 8 else f", ... ({nodes.size} nodes)"
        raise SingularSystemError(
            f"system is singular: connected component {{{head}{more}}} "
            f"contains no labeled node",
            component=tuple(int(i) for i in nodes),
        )
    raise SingularSystemError("regularization system is numerically singular")


def _cholesky_solver(a):
    """x -> a^-1 x for a symmetric positive-definite a, factored once as
    L L^T by LAPACK ``potrf`` (numpy's Cholesky, which raises LinAlgError
    where a is not positive definite).  It factors a.T, the view numpy
    copies fastest, so it reads a's upper triangle, as
    ``scipy.linalg.solve`` does.  numpy has no triangular solve, so forward
    and back substitution run over ``SUBSTITUTION_BLOCK``-row blocks, each
    multiplied by the inverse of its diagonal block of L."""
    l = np.linalg.cholesky(a.T)
    blocks = [slice(i, i + SUBSTITUTION_BLOCK)
              for i in range(0, a.shape[0], SUBSTITUTION_BLOCK)]
    inverses = [np.linalg.inv(l[k, k]) for k in blocks]

    def solve(b):
        x = np.array(b, dtype=float)
        for k, inverse in zip(blocks, inverses):  # L y = b
            x[k] = inverse @ (x[k] - l[k, :k.start] @ x[:k.start])
        for k, inverse in zip(blocks[::-1], inverses[::-1]):  # L^T x = y
            x[k] = inverse.T @ (x[k] - l[k.stop:, k].T @ x[k.stop:])
        return x

    return solve


def _inverse_norm_estimate(solve, n):
    """Hager's lower estimate of ||a^-1||_1 for a symmetric a, with ``solve``
    applying a^-1: LAPACK ``dlacn2``'s iteration (Higham, ACM TOMS 14, 1988)
    as ``pocon`` runs it, at most ``ESTIMATE_STEPS`` steps and then the
    alternating-sign vector."""
    x = solve(np.full(n, 1.0 / n))
    if n == 1:
        return abs(x[0])
    estimate, sign = np.abs(x).sum(), np.where(x >= 0.0, 1.0, -1.0)
    j = np.argmax(np.abs(solve(sign)))
    for step in range(2, ESTIMATE_STEPS + 1):
        unit = np.zeros(n)
        unit[j] = 1.0
        x = solve(unit)
        previous, estimate = estimate, np.abs(x).sum()
        old_sign, sign = sign, np.where(x >= 0.0, 1.0, -1.0)
        if (np.array_equal(sign, old_sign) or estimate <= previous
                or step == ESTIMATE_STEPS):
            break
        z = solve(sign)
        last, j = j, np.argmax(np.abs(z))
        if z[last] == abs(z[j]):  # the last index still holds the largest entry
            break
    alternating = (1.0 + np.arange(n) / (n - 1)) * np.where(np.arange(n) % 2, -1.0, 1.0)
    return max(estimate, 2.0 * (np.abs(solve(alternating)).sum() / (3 * n)))


def _solve_pos(g: Graph, labels: LabelSignal, a, b):
    """Cholesky solve of a @ x = b that refuses a singular classifier system:
    a failed factorization, or a 1-norm reciprocal condition, estimated as
    LAPACK ``pocon`` estimates it, below ``MIN_RCOND`` (or nan)."""
    if not a.size:  # every node is known
        return np.array(b, dtype=float)
    try:
        solve = _cholesky_solver(a)
    except np.linalg.LinAlgError:
        _raise_singular(g, labels)
    # a singular-but-consistent system can pass the residual checks with an
    # arbitrary nullspace component mixed in, so an ill-conditioned one is
    # refused too; an overflow in the estimate reads as rcond 0 or nan
    with np.errstate(all="ignore"):
        rcond = (1.0 / _inverse_norm_estimate(solve, a.shape[0])
                 / np.abs(a).sum(axis=0).max())
    if not rcond >= MIN_RCOND:
        _raise_singular(g, labels)
    return solve(b)


def _cg(apply, b, rtol, maxiter, stop=lambda x: False):
    """Conjugate gradients for apply(x) = b from x = 0, stopping once
    ||r|| < rtol ||b|| or ``stop(x)``: the solution and the iterations taken,
    or None and ``maxiter`` when neither happens."""
    x, r, p, rr_prev = np.zeros_like(b), b.copy(), None, None
    atol = rtol * np.linalg.norm(b)
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol or stop(x):
            return x, iteration
        rr = r @ r
        p = r.copy() if p is None else p * (rr / rr_prev) + r
        q = apply(p)
        step = rr / (p @ q)
        x += step * p
        r -= step * q
        rr_prev = rr
    return None, maxiter


def _solve_system(g: Graph, labels: LabelSignal, cfg: ClassifierConfig):
    """s with (M + 2 alpha C) s = 2 alpha C y by conjugate gradients, after
    the probe (module docstring), whose q has a fixed seed, as the Arnoldi
    start has."""
    rhs = 2.0 * cfg.alpha * labels.labels
    fidelity = 2.0 * cfg.alpha * labels.known_mask
    m = _variation_operator(g, cfg.form)

    def system(x):
        return m @ x + fidelity * x

    q = np.random.default_rng(0).standard_normal(g.n)
    bound = SOLVER_TOLERANCE * np.linalg.norm(q)

    def resolved(z):
        return np.linalg.norm(z - q) <= bound

    z, probe = _cg(system, system(q), CG_TOLERANCE, 20 * g.n, resolved)
    if z is None or not resolved(z):
        _raise_singular(g, labels)
    s, iterations = _cg(system, rhs, CG_TOLERANCE, 20 * g.n)
    if s is None:
        _raise_singular(g, labels)
    error, scale = np.linalg.norm(system(s) - rhs), np.linalg.norm(rhs)
    log.debug("classify: n=%d form=%s path=cg iterations=%d probe=%d residual=%.3g",
              g.n, cfg.form, iterations, probe, error / scale)
    if error > SOLVER_TOLERANCE * scale:
        _raise_singular(g, labels)
    return s


def _schur_spectrum(g: Graph, labels: LabelSignal, form: str):
    """Factor the system once per label set, for every alpha.  With K/U the
    known/unknown nodes, X = M_UU^-1 M_UK and M_KK - M_UK^T X = Q diag(lam)
    Q^T, lam >= 0; returns K, U, X, Q, lam and Q^T y_K.  The system is
    singular for every alpha exactly when M_UU is, which its Cholesky refuses."""
    dense = _variation_operator(g, form).dense()
    known = labels.known_mask
    kn, un = np.flatnonzero(known), np.flatnonzero(~known)
    m_uk = dense[np.ix_(un, kn)]
    x = _solve_pos(g, labels, dense[np.ix_(un, un)], m_uk)
    lam, q = np.linalg.eigh(dense[np.ix_(kn, kn)] - m_uk.T @ x)
    return kn, un, x, q, lam, q.T @ labels.labels[kn]


def _label_solver(g: Graph, labels: LabelSignal, form: str):
    """alphas -> N x len(alphas) solutions from one ``_schur_spectrum``:
    s_U = -X s_K, s_K = Q diag(2 alpha / (lam + 2 alpha)) Q^T y_K."""
    kn, un, x, q, lam, qty = _schur_spectrum(g, labels, form)
    dense = _variation_operator(g, form).dense()
    known = labels.known_mask
    y = labels.labels

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
        r = dense @ s + two_a * (known[:, None] * s - y[:, None])
        error, scale = np.linalg.norm(r, axis=0), two_a * np.linalg.norm(y)
        log.debug("classify: n=%d form=%s path=factored alphas=%d residual=%.3g",
                  g.n, form, two_a.size, (error / scale).max())
        if not np.all(error <= SOLVER_TOLERANCE * scale):
            _raise_singular(g, labels)
        return s

    return solve


def _check_labels(g: Graph, labels: LabelSignal):
    if labels.n != g.n:
        raise ValueError("label vector length does not match graph")
    if not labels.known_mask.any():
        raise ValueError("at least one label must be known")


def classify(g: Graph, labels: LabelSignal, cfg: ClassifierConfig) -> Classification:
    """Spread known +/-1 labels over the graph by variation regularization.

    Solves (M + 2*alpha*C) s = 2*alpha*C*s_known, with M the shift-based
    smoothness operator (I - A_norm)^H (I - A_norm) or twice the Laplacian,
    and C the diagonal known-label mask.  Nodes with positive predictions
    get class +1, everything else (including exact zero) class -1.
    """
    _check_labels(g, labels)
    s = _solve_system(g, labels, cfg)
    return Classification(predicted=_freeze(s),
                          classes=_freeze(np.where(s > 0.0, 1, -1)))


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
                                form="shift", *, max_alpha=1e9):
    """Classify with the smallest fidelity weight meeting a misfit budget.

    Returns ``classify``'s answer at the smallest alpha >= 2^-40 whose
    known-label misfit is at most ``epsilon`` (Morozov's discrepancy
    principle), and that alpha.  The system is factored once, as the sweep
    factors it, so the dense M is formed at every N.  The misfit at alpha,
    ||diag(lam / (lam + 2 alpha)) Q^T y_K||, falls with alpha (the secular
    equation of Golub and von Matt, Numer. Math. 59, 1991), so its root is
    bisected with no solve.  Only ``classify``'s solve then judges an alpha:
    a refusal doubles it, and a miss by rounding steps it up by at least
    twice the relative miss.  An unlabeled component is refused before any
    solve; a budget not met at or below ``max_alpha`` raises ValueError.
    """
    if not epsilon >= 0:
        raise ValueError("epsilon must be non-negative")
    form = ClassifierConfig(alpha=1.0, form=form).form
    _check_labels(g, labels)
    lam, qty = _schur_spectrum(g, labels, form)[4:]

    def misfit(alpha):
        return np.linalg.norm(lam / (lam + 2.0 * alpha) * qty)

    if misfit(max_alpha) > epsilon:
        raise ValueError(f"misfit budget {epsilon} not reachable below alpha={max_alpha}")
    target = epsilon * (1.0 - BUDGET_MARGIN)
    lo, hi = 2.0 ** -40, float(max_alpha)
    if misfit(lo) <= target:
        hi = lo
    while lo < (mid := float(np.sqrt(lo) * np.sqrt(hi))) < hi:
        lo, hi = (lo, mid) if misfit(mid) <= target else (mid, hi)
    alpha, step, solves = hi, BUDGET_MARGIN, 0
    while True:
        solves += 1
        try:
            out = classify(g, labels, ClassifierConfig(alpha, form))
        except SingularSystemError:
            if 2.0 * alpha > max_alpha:
                raise
            alpha *= 2.0
            continue
        miss = label_misfit(labels, out.predicted)
        if miss <= epsilon:
            break
        step = max(step, 2.0 * (miss / epsilon - 1.0)) if epsilon else np.inf
        if alpha * (1.0 + step) > max_alpha:
            raise ValueError(f"misfit budget {epsilon} not met at alpha={alpha} "
                             f"below alpha={max_alpha}")
        alpha, step = alpha * (1.0 + step), 2.0 * step
    log.debug("budget: n=%d form=%s epsilon=%r root=%r alpha=%r solves=%d",
              g.n, form, epsilon, hi, alpha, solves)
    return out, alpha


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
    best = int(np.lexsort((alphas, -mean))[0])  # best mean, then smallest alpha
    return SweepResult(alphas=_freeze(alphas), ratio=float(ratio),
                       mean_accuracy=_freeze(mean), std_accuracy=_freeze(std),
                       best_alpha=float(alphas[best]),
                       best_accuracy=float(mean[best]))
