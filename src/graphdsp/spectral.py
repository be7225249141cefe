"""Eigendecomposition of the shift, graph Fourier transform, and variation.

The Fourier basis of a graph is the eigenvector basis of its adjacency
matrix; the transform matrix is the inverse of the eigenvector matrix.
Oscillation of a signal is measured by its total variation, the l1 distance
between the signal and its shifted copy on the normalized adjacency.
Frequencies are ordered from low to high by increasing variation of their
eigenvectors, which for an eigenvalue ``lam`` reduces to the planar distance
``|1 - lam/|lam_max||``.  Ordering and filter design therefore need only a
``Spectrum``: the eigenvalues, the spectral radius and the basis condition.

``basis_condition`` is cond2 of the eigenvector matrix with its columns
scaled to unit 2-norm.  That number depends only on the graph: relabeling
the nodes, or choosing another orthonormal basis within an eigenspace,
leaves it unchanged, and it is within sqrt(N) of the best column scaling
(van der Sluis, 1969).  An undirected graph's eigenbasis is orthonormal, so
its condition is exactly 1 and ``spectrum`` computes its eigenvalues alone
(``eigvalsh``).  A directed graph's basis is refused above
DEFECTIVE_COND_LIMIT, so ``spectrum`` decomposes it.

``decompose`` never inverts or conditions a complex matrix it can avoid.
An undirected graph's ``eigh`` basis has orthogonal columns, so its inverse
follows from the column norms.  A real directed graph's eigenvectors come
in exactly conjugate pairs (v, conj v); folding each pair into the real
columns sqrt2 (Re v, Im v) is a unitary change of basis, so the inverse R
comes from real LAPACK on that real form M.  Both columns of a pair share
the pair's ||v||_2, so M D^-1, with D the column 2-norms of the basis, is
the unit-column basis up to the same unitary change, and D R its inverse.
The refusal test then needs no SVD unless the basis is near the limit:
cond2(M D^-1) <= ||M D^-1||_F ||D R||_F = sqrt(N) ||D R||_F (since
||X||_2 <= ||X||_F, and M D^-1 has N unit columns up to a unitary change),
and a bound at most half the limit accepts the basis.  Only a bound above that,
a non-finite one or a failed inverse costs the exact cond2 before
deciding.  An accepted basis computes its exact condition when it is first
read.
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


@dataclass(frozen=True, eq=False, kw_only=True)
class Spectrum:
    """Eigenvalues of an adjacency, its spectral radius and basis condition.

    ``eigenvalues`` are complex, sorted by descending real part, then
    ascending imaginary part.  ``basis_condition`` is cond2 of the
    eigenvector matrix with its columns scaled to unit 2-norm; an undirected
    graph's eigenbasis is orthonormal, so its condition is exactly 1.
    Fields are keyword-only, so ``SpectralBasis`` can add its own after
    them without a positional call binding the wrong field.
    """

    graph: Graph
    eigenvalues: np.ndarray
    lambda_max_abs: float

    @property
    def n(self):
        return self.eigenvalues.shape[0]

    @property
    def basis_condition(self):
        if self.graph.directed:
            raise ValueError("a directed graph's basis condition needs its "
                             "eigenvectors; use decompose")
        return 1.0


@dataclass(frozen=True, eq=False, kw_only=True)
class SpectralBasis(Spectrum):
    """A spectrum with the Fourier matrices of a diagonalizable adjacency.

    Columns of ``vectors`` are eigenvectors scaled to unit l1 norm with a
    canonical phase (first near-maximal-modulus entry real positive);
    ``fourier`` is the inverse of ``vectors``.  ``basis_condition`` is the
    exact cond2 of ``vectors`` with its columns rescaled to unit 2-norm:
    exactly 1 for an undirected graph.  Where ``decompose`` accepted a
    directed basis on a bound, it is computed (an SVD of the scaled real
    form) on first read.
    """

    vectors: np.ndarray
    fourier: np.ndarray

    @property
    def basis_condition(self):
        if not self.graph.directed:
            return 1.0
        if "_condition" not in self.__dict__:
            M, _, norms = _real_form(self.eigenvalues, self.vectors)
            self.__dict__["_condition"] = float(np.linalg.cond(M / norms))
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
    orthonormal basis of their eigenspace; a no-op for simple eigenvalues.

    A group is every eigenvalue within EIGENVALUE_GROUP_TOL of its member
    of least real part.  It is found in order of real part, so its columns
    need not be adjacent: the sort by (-real, imag) can put another
    eigenvalue of the same rounded real part between them.
    The basis is the QR of eig's vectors for the group, or, where those are
    nearly dependent and so span the eigenspace inaccurately, the null space
    of A - lam I of the group's dimension (its smallest right singular
    vectors); either is kept only if it passes the residual check.
    A defective matrix also reports repeated eigenvalues, but its eigenspace
    has less than the group's dimension, so neither basis passes: such groups
    are left untouched and the basis condition check rejects them later.
    """
    scale = max(np.abs(a).max(), 1.0)
    by_real = np.argsort(eigenvalues.real, kind="stable")
    re = eigenvalues.real[by_real]
    grouped = np.zeros(len(eigenvalues), dtype=bool)
    # only a value with a neighbour within the tolerance in real part can head a group
    for k in np.flatnonzero(np.diff(re) <= EIGENVALUE_GROUP_TOL):
        i = by_real[k]
        if grouped[i]:
            continue
        near = by_real[k:np.searchsorted(re, re[k] + EIGENVALUE_GROUP_TOL, side="right")]
        cols = np.sort(near[(np.abs(eigenvalues[near] - eigenvalues[i])
                             <= EIGENVALUE_GROUP_TOL) & ~grouped[near]])
        if cols.size < 2:
            continue
        grouped[cols] = True
        lam = eigenvalues[i] if np.iscomplexobj(V) else eigenvalues[i].real
        q, _ = np.linalg.qr(V[:, cols])
        source = "span"
        if np.abs(a @ q - lam * q).max() > 1e-10 * scale:
            # eig may return nearly dependent vectors for a semisimple
            # eigenvalue, under some labelings only; the null space of
            # A - lam I has the group's dimension there, and less when defective
            q = np.linalg.svd(a - lam * np.eye(len(a)))[2][-cols.size:].conj().T
            source = "null_space"
        if np.abs(a @ q - lam * q).max() <= 1e-10 * scale:
            V[:, cols] = q
            log.debug("orthogonalize_repeated: eigenvalue=%.6g%+.6gj multiplicity=%d "
                      "columns=%s basis=%s", eigenvalues[i].real, eigenvalues[i].imag,
                      cols.size, cols.tolist(), source)
    return V


def _real_form(w, V):
    """Fold every exactly conjugate eigenvector pair into real columns.

    A pair (v, conj v) sits at adjacent indices (j, j+1), negative imaginary
    part first, and becomes the columns sqrt2 (Re v, Im v) of M = V U, with
    U block-diagonal of [[1, -i], [1, i]]/sqrt2 on the pairs and the
    identity elsewhere.  U is unitary, so cond2(M) = cond2(V) and
    V^-1 = U M^-1.  M is real unless a column outside the pairs is complex.
    Returns M, the first indices j of the folded pairs, and the column
    2-norms D of V.  A pair's two norms are equal, so D commutes with U:
    M D^-1 is the unit-column basis V D^-1 times U, and D M^-1 its inverse.
    """
    j = np.flatnonzero((w.imag[:-1] < 0.0) & (w[1:] == w[:-1].conj()))
    j = j[np.all(V[:, j + 1] == V[:, j].conj(), axis=0)]
    single = np.ones(len(w), dtype=bool)
    single[j] = single[j + 1] = False
    real = not np.iscomplexobj(V) or not V.imag[:, single].any()
    M = np.array(V.real if real else V)
    v = V[:, j]
    M[:, j], M[:, j + 1] = SQRT2 * v.real, SQRT2 * v.imag
    return M, j, np.linalg.norm(V, axis=0)


def _nonzero_adjacency(g: Graph):
    if not g.adjacency.any():
        raise ValueError("cannot decompose a zero adjacency")
    return g.adjacency


def _descending(w):
    """Complex eigenvalues and the permutation that sorts them by descending
    real part, then ascending imaginary part."""
    w = w.astype(complex, copy=False)  # real from eigh, and from eig on a real spectrum
    idx = np.lexsort((w.imag, -w.real))
    return w[idx], idx


def _seed_radius(g: Graph, w):
    """The graph's cached spectral radius, or else max |w|, now cached."""
    return g.__dict__.setdefault("_rho", float(np.max(np.abs(w))))


def spectrum(g: Graph) -> Spectrum:
    """Eigenvalues, spectral radius and basis condition of the adjacency.

    An undirected graph's basis condition is exactly 1, so its eigenvalues
    come from ``eigvalsh`` alone, sorted as ``decompose`` sorts them; the
    spectral radius is cached or seeded as there.  A directed graph's basis
    may be refused, which needs its eigenvectors, so it is decomposed and
    the ``SpectralBasis`` returned.
    """
    if g.directed:
        return decompose(g)
    w, _ = _descending(np.linalg.eigvalsh(_nonzero_adjacency(g)))
    log.debug("spectrum: n=%d solver=eigvalsh condition=1", g.n)
    w.setflags(write=False)
    return Spectrum(graph=g, eigenvalues=w, lambda_max_abs=_seed_radius(g, w))


def decompose(g: Graph) -> SpectralBasis:
    """Eigendecompose the adjacency into a canonical Fourier basis.

    Eigenvalues are sorted by descending real part, then ascending imaginary
    part, so real spectra come out ordered from lowest to highest frequency.
    Raises NearDefectiveError when the basis condition exceeds
    DEFECTIVE_COND_LIMIT, which an undirected graph (condition 1) never
    does; a directed basis whose Frobenius bound on that condition is at
    most half the limit is accepted without an SVD.  ``lambda_max_abs``
    reuses the graph's cached spectral radius, or else seeds that cache with
    the largest eigenvalue magnitude.
    """
    a = _nonzero_adjacency(g)
    w, V = np.linalg.eig(a) if g.directed else np.linalg.eigh(a)
    w, idx = _descending(w)
    V = V[:, idx]
    if g.directed:
        V = _orthogonalize_repeated(w, V, a)
    V = _canonical_columns(V)

    if g.directed:
        M, pairs, norms = _real_form(w, V)
        try:
            R = np.linalg.inv(M)
        except np.linalg.LinAlgError:  # singular: the SVD refuses it below
            R = None
        # M D^-1 has the unit-column basis' singular values and D R is its
        # inverse, so cond2 <= |M D^-1|_F |D R|_F = sqrt(N) |D R|_F: each
        # column of V D^-1 has unit norm, and U is unitary.  Near the limit
        # R is accurate to eps*cond, far inside the factor 2.  A
        # near-singular fold can overflow the norm.
        with np.errstate(over="ignore", invalid="ignore"):
            bound = (np.inf if R is None
                     else np.sqrt(g.n) * np.linalg.norm(norms[:, None] * R))
        if bound <= DEFECTIVE_COND_LIMIT / 2:
            path, condition = "bound", float(bound)
        else:
            path, condition = "svd", float(np.linalg.cond(M / norms))
    else:
        # orthogonal real columns: V = QD with Q orthogonal and D the column
        # 2-norms, so the unit-column basis is Q itself and V^-1 = D^-2 V^T
        M, pairs, path, condition = V, (), "orthonormal", 1.0
        norms = np.linalg.norm(V, axis=0)
    log.debug("decompose: n=%d solver=%s folded_pairs=%d real_form=%s "
              "condition_path=%s scaled_condition=%.6g", g.n,
              "eig" if g.directed else "eigh", len(pairs), not np.iscomplexobj(M),
              path, condition)
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
    for x in (w, V, F):  # built here, so frozen without a copy
        x.setflags(write=False)
    b = SpectralBasis(graph=g, eigenvalues=w, lambda_max_abs=_seed_radius(g, w),
                      vectors=V, fourier=F)
    if path == "svd":  # exact already; a bound leaves it to the first read
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
    order = np.lexsort((np.arange(w.size), w.imag, -w.real, variations))
    return FrequencyOrdering(order=order, variations=variations)


def order_frequencies(b: Spectrum) -> FrequencyOrdering:
    """Frequency ordering of a spectrum from lowest to highest variation."""
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
