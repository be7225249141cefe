"""Eigendecomposition of the shift, graph Fourier transform, and variation.

The Fourier basis of a graph is the eigenvector basis of its adjacency
matrix; the transform matrix is the inverse of the eigenvector matrix.
Oscillation of a signal is measured by its total variation, the l1 distance
between the signal and its shifted copy on the normalized adjacency.
Frequencies are ordered from low to high by increasing variation of their
eigenvectors, which for an eigenvalue ``lam`` reduces to the planar distance
``|1 - lam/|lam_max||``.

``decompose`` never inverts or conditions a complex matrix it can avoid.
An undirected graph's ``eigh`` basis has orthogonal columns, so its
condition and inverse follow from the column norms.  A real directed
graph's eigenvectors come in exactly conjugate pairs (v, conj v); folding
each pair into the real columns sqrt2 (Re v, Im v) is a unitary change of
basis, so the inverse comes from real LAPACK on that real form M.  The
refusal test then needs no SVD unless the basis is near the limit: with
R = M^-1, cond2(M) <= ||M||_F ||R||_F (since ||X||_2 <= ||X||_F), and a
bound at most half the limit accepts M.  Only a bound above that, a
non-finite one or a failed inverse costs the exact cond2 before deciding.
An accepted basis computes its exact condition when it is first read.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graph import (Graph, GraphSignal, _check_bound, _check_laplacian, _freeze,
                    _nonzero_radius, laplacian)

DEFECTIVE_COND_LIMIT = 1e8
EIGENVALUE_GROUP_TOL = 1e-12
PHASE_TIE_RTOL = 1e-9
SQRT2 = np.sqrt(2.0)

log = logging.getLogger("graphdsp")


class NearDefectiveError(Exception):
    """Eigenvector basis too ill-conditioned to trust as a Fourier basis."""

    def __init__(self, condition, limit=DEFECTIVE_COND_LIMIT):
        self.condition = float(condition)
        self.limit = float(limit)
        super().__init__(
            f"eigenvector basis condition {self.condition:.3e} exceeds "
            f"{self.limit:.1e}; matrix is numerically non-diagonalizable"
        )


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Eigenvalues and Fourier matrices of a diagonalizable adjacency.

    Columns of ``vectors`` are eigenvectors scaled to unit l1 norm with a
    canonical phase (first near-maximal-modulus entry real positive);
    ``fourier`` is the inverse of ``vectors``.  ``basis_condition`` is the
    exact 2-norm condition of ``vectors``; where ``decompose`` accepted the
    basis on a bound, it is computed (an SVD of the real form) on first read.
    """

    graph: Graph
    eigenvalues: np.ndarray
    vectors: np.ndarray
    fourier: np.ndarray
    lambda_max_abs: float

    @property
    def n(self):
        return self.eigenvalues.shape[0]

    @property
    def basis_condition(self):
        if "_condition" not in self.__dict__:
            M, _ = _real_form(self.eigenvalues, self.vectors)
            self.__dict__["_condition"] = float(np.linalg.cond(M))
        return self.__dict__["_condition"]


@dataclass(frozen=True, eq=False)
class JordanChain:
    """Eigenvector v0 plus generalized eigenvectors satisfying
    (A - lam I) v_r = v_{r-1}."""

    eigenvalue: complex
    vectors: tuple

    def __post_init__(self):
        vecs = tuple(_freeze(np.asarray(v, dtype=complex)) for v in self.vectors)
        if not vecs:
            raise ValueError("chain needs at least one vector")
        if len({v.shape for v in vecs}) != 1 or vecs[0].ndim != 1:
            raise ValueError("chain vectors must share one vector shape")
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "eigenvalue", complex(self.eigenvalue))

    def __len__(self):
        return len(self.vectors)


@dataclass(frozen=True, eq=False)
class FrequencyOrdering:
    """Permutation of spectral indices from lowest to highest variation."""

    order: np.ndarray
    variations: np.ndarray

    def __post_init__(self):
        order = _freeze(np.asarray(self.order, dtype=int))
        variations = _freeze(np.asarray(self.variations, dtype=float))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "variations", variations)


def _canonical_columns(V):
    """Scale columns to unit l1 norm and fix their phase, in place.

    The phase is chosen so the first entry whose modulus is within a small
    relative tolerance of the column maximum becomes real positive; the
    tolerance keeps the choice stable when several entries tie in modulus.
    """
    V /= np.abs(V).sum(axis=0)
    m = np.abs(V)
    pivot = np.argmax(m >= (1.0 - PHASE_TIE_RTOL) * m.max(axis=0), axis=0)
    cols = np.arange(V.shape[1])
    V /= V[pivot, cols] / m[pivot, cols]
    return V


def _orthogonalize_repeated(eigenvalues, V, a):
    """Replace eigenvector groups of (numerically) equal eigenvalues by an
    orthonormal basis of their span; a no-op for simple eigenvalues.

    A defective matrix also reports repeated eigenvalues, but its reported
    "eigenvectors" span less than the full group, so orthogonalizing them
    would fabricate vectors that are not eigenvectors at all.  Such groups
    are left untouched and the basis condition check rejects them later.
    """
    n = len(eigenvalues)
    scale = max(np.abs(a).max(), 1.0)
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(eigenvalues[j] - eigenvalues[i]) <= EIGENVALUE_GROUP_TOL:
            j += 1
        if j - i > 1:
            q, _ = np.linalg.qr(V[:, i:j])
            resid = np.abs(a @ q - eigenvalues[i] * q).max()
            if resid <= 1e-10 * scale:
                V[:, i:j] = q
        i = j
    return V


def _real_form(w, V):
    """Fold every exactly conjugate eigenvector pair into real columns.

    A pair (v, conj v) sits at adjacent indices (j, j+1), negative imaginary
    part first, and becomes the columns sqrt2 (Re v, Im v) of M = V U, with
    U block-diagonal of [[1, -i], [1, i]]/sqrt2 on the pairs and the
    identity elsewhere.  U is unitary, so cond2(M) = cond2(V) and
    V^-1 = U M^-1.  M is real unless a column outside the pairs is complex.
    Returns M and the first indices j of the folded pairs.
    """
    j = np.flatnonzero((w.imag[:-1] < 0.0) & (w[1:] == w[:-1].conj()))
    j = j[np.all(V[:, j + 1] == V[:, j].conj(), axis=0)]
    single = np.ones(len(w), dtype=bool)
    single[j] = single[j + 1] = False
    real = not np.iscomplexobj(V) or not V.imag[:, single].any()
    M = np.array(V.real if real else V)
    v = V[:, j]
    M[:, j], M[:, j + 1] = SQRT2 * v.real, SQRT2 * v.imag
    return M, j


def decompose(g: Graph) -> SpectralBasis:
    """Eigendecompose the adjacency into a canonical Fourier basis.

    Eigenvalues are sorted by descending real part, then ascending imaginary
    part, so real spectra come out ordered from lowest to highest frequency.
    Raises NearDefectiveError when the eigenvector condition number exceeds
    DEFECTIVE_COND_LIMIT; a directed basis whose Frobenius bound on that
    condition is at most half the limit is accepted without an SVD.
    ``lambda_max_abs`` reuses the graph's cached spectral radius, or else
    seeds that cache with the largest eigenvalue magnitude.
    """
    a = g.adjacency
    if not a.any():
        raise ValueError("cannot decompose a zero adjacency")
    w, V = np.linalg.eig(a) if g.directed else np.linalg.eigh(a)
    w = w.astype(complex, copy=False)  # real from eigh, and from eig on a real spectrum
    idx = np.lexsort((w.imag, -w.real))
    w = w[idx]
    V = V[:, idx]
    if g.directed:
        V = _orthogonalize_repeated(w, V, a)
    V = _canonical_columns(V)

    if g.directed:
        M, pairs = _real_form(w, V)
        try:
            R = np.linalg.inv(M)
        except np.linalg.LinAlgError:  # singular: the SVD refuses it below
            R = None
        # cond2(M) <= |M|_F |R|_F; near the limit R is accurate to eps*cond,
        # far inside the factor 2.  A near-singular fold can overflow the norms.
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.inf if R is None else np.linalg.norm(M) * np.linalg.norm(R)
        if bound <= DEFECTIVE_COND_LIMIT / 2:
            path, condition = "bound", float(bound)
        else:
            path, condition = "svd", float(np.linalg.cond(M))
    else:
        # orthogonal real columns: V = QD with Q orthogonal and D the column
        # 2-norms, so cond(V) = max D / min D and V^-1 = D^-2 V^T exactly
        M, pairs, path = V, (), "norms"
        norms = np.linalg.norm(V, axis=0)
        condition = float(norms.max() / norms.min())
    log.debug("decompose: n=%d solver=%s folded_pairs=%d real_form=%s "
              "condition_path=%s condition=%.6g", g.n, "eig" if g.directed else "eigh",
              len(pairs), not np.iscomplexobj(M), path, condition)
    if (not np.isfinite(condition) or condition > DEFECTIVE_COND_LIMIT
            or g.directed and R is None):
        raise NearDefectiveError(condition, DEFECTIVE_COND_LIMIT)
    if g.directed:
        F = R.astype(V.dtype, copy=False)
        for j in pairs:  # rows of U M^-1: (R[j] -/+ i R[j+1]) / sqrt2
            re, im = F[j] / SQRT2, F[j + 1] * (1j / SQRT2)
            F[j], F[j + 1] = re - im, re + im
    else:
        F = V.T / (norms ** 2)[:, None]
    rho = g.__dict__.setdefault("_rho", float(np.max(np.abs(w))))
    for x in (w, V, F):  # built here, so frozen without a copy
        x.setflags(write=False)
    b = SpectralBasis(graph=g, eigenvalues=w, vectors=V, fourier=F, lambda_max_abs=rho)
    if path != "bound":  # exact already; a bound leaves it to the first read
        b.__dict__["_condition"] = condition
    return b


def gft(b: SpectralBasis, s: GraphSignal) -> np.ndarray:
    """Fourier coefficients F @ s of a signal on the basis' graph."""
    _check_bound(b.graph, s)
    return b.fourier @ s.values


def igft(b: SpectralBasis, shat) -> GraphSignal:
    """Reconstruct the vertex-domain signal V @ shat."""
    shat = np.asarray(shat)
    if shat.shape != (b.n,):
        raise ValueError(f"expected {b.n} coefficients, got shape {shat.shape}")
    values = b.vectors @ shat
    if np.iscomplexobj(values) and np.all(values.imag == 0.0):
        values = values.real
    return GraphSignal(values, b.graph)


def _normalized_shift_of(g: Graph, s_values):
    return (g.adjacency @ s_values) / _nonzero_radius(g)


def gradient(g: Graph, s: GraphSignal) -> np.ndarray:
    """Per-node difference between a sample and its normalized-shift value."""
    _check_bound(g, s)
    return s.values - _normalized_shift_of(g, s.values)


def total_variation(g: Graph, s: GraphSignal) -> float:
    """l1 norm of s - A_norm s: cumulative signal change across edges."""
    return float(np.abs(gradient(g, s)).sum())


def local_variation(g: Graph, s: GraphSignal, n: int) -> float:
    """Magnitude of the signal gradient at one node."""
    if not 0 <= n < g.n:
        raise ValueError(f"node index {n} out of range for {g.n} nodes")
    return float(np.abs(gradient(g, s)[n]))


def dirichlet_form(g: Graph, s: GraphSignal, p: float) -> float:
    """(1/p) * sum of p-th powers of local variations; p=1 is the total
    variation, p=2 the shift quadratic form."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    grad = np.abs(gradient(g, s))
    return float((grad ** p).sum() / p)


def quadratic_form(g: Graph, s: GraphSignal) -> float:
    """One half of the squared l2 norm of the signal gradient."""
    grad = gradient(g, s)
    return float(0.5 * np.real(np.vdot(grad, grad)))


def seminorm(g: Graph, s: GraphSignal) -> float:
    """Square root of the shift quadratic form."""
    return float(np.sqrt(quadratic_form(g, s)))


def validate_chain(g: Graph, chain: JordanChain, tol=1e-8):
    """Check the chain relations against the graph's adjacency."""
    a = g.adjacency
    lam = chain.eigenvalue
    scale = max(1.0, float(np.abs(a).max()))
    for r, v in enumerate(chain.vectors):
        if v.shape[0] != g.n:
            raise ValueError("chain vector length does not match graph")
        expect = chain.vectors[r - 1] if r > 0 else np.zeros(g.n, dtype=complex)
        resid = a @ v - lam * v - expect
        bound = tol * scale * max(1.0, float(np.abs(v).max()))
        if np.abs(resid).max() > bound:
            raise ValueError(
                f"chain vector {r} violates the generalized eigenvector "
                f"relation (residual {np.abs(resid).max():.3e})"
            )


def tv_of_chain_vector(g: Graph, chain: JordanChain, r: int, *,
                       lambda_max_abs=None) -> float:
    """Total variation of the r-th vector of a generalized eigenvector chain.

    Uses ``|| v_r - (lam/c) v_r - (1/c) v_{r-1} ||_1`` with c the largest
    eigenvalue magnitude.  For nilpotent-like adjacencies whose spectral
    radius vanishes, pass an explicit positive ``lambda_max_abs`` scale.
    """
    if not 0 <= r < len(chain):
        raise ValueError(f"chain index {r} out of range")
    validate_chain(g, chain)
    c = g.spectral_radius if lambda_max_abs is None else float(lambda_max_abs)
    if c <= 0.0:
        raise ValueError("positive spectral scale required; pass lambda_max_abs")
    v = chain.vectors[r]
    diff = v - (chain.eigenvalue / c) * v
    if r > 0:
        diff = diff - chain.vectors[r - 1] / c
    return float(np.abs(diff).sum())


def order_eigenvalues(eigenvalues, lambda_max_abs) -> FrequencyOrdering:
    """Sort spectral indices by ascending variation of their eigenvalue.

    The variation of ``lam`` is the total variation of its l1-normalized
    eigenvector on the normalized shift, ``|1 - lam/|lam_max||``.  Ties are
    broken by descending real part, ascending imaginary part, then index.
    """
    w = np.asarray(eigenvalues, dtype=complex)
    r = float(lambda_max_abs)
    if r <= 0.0:
        raise ValueError("lambda_max_abs must be positive")
    variations = np.abs(1.0 - w / r)
    order = sorted(range(len(w)),
                   key=lambda i: (variations[i], -w[i].real, w[i].imag, i))
    return FrequencyOrdering(order=np.array(order), variations=variations)


def order_frequencies(b: SpectralBasis) -> FrequencyOrdering:
    """Frequency ordering of a basis from lowest to highest variation."""
    return order_eigenvalues(b.eigenvalues, b.lambda_max_abs)


def laplacian_total_variation(g: Graph, s: GraphSignal) -> float:
    """Laplacian-style variation: per-node root of weighted squared
    neighbor differences, summed over nodes."""
    _check_bound(g, s)
    _check_laplacian(g)
    a = g.adjacency
    v = s.values
    diff2 = np.abs(v[:, None] - v[None, :]) ** 2
    return float(np.sqrt((a * diff2).sum(axis=1)).sum())


def laplacian_quadratic_form(g: Graph, s: GraphSignal) -> float:
    """Quadratic form s^T L s of the graph Laplacian, for real signals."""
    _check_bound(g, s)
    if np.iscomplexobj(s.values) and np.any(s.values.imag != 0.0):
        raise ValueError("Laplacian quadratic form expects a real signal")
    L = laplacian(g)
    v = s.values.real
    return float(v @ L @ v)
