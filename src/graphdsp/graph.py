"""Graph and signal data model, k-NN graph construction, shift normalization.

A graph is a dense weighted adjacency matrix: entry ``A[n, m]`` is the weight
of the directed edge from node ``m`` to node ``n``, so shifting a signal is
the matrix-vector product ``A @ s``.  Undirected graphs are symmetric with
real entries.  All objects are immutable after construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-12
ARPACK_MAX_RESTARTS = 100

EARTH_RADIUS_KM = 6371.0088

log = logging.getLogger("graphdsp")


def euclidean(p, q):
    """Euclidean distance between coordinate vectors, broadcast over leading
    axes; two single points give a float."""
    d = np.sqrt(np.sum((np.asarray(p, dtype=float) - q) ** 2, axis=-1))
    return float(d) if d.ndim == 0 else d


def haversine_km(p, q):
    """Great-circle distance in km between (lat, lon) pairs given in degrees,
    broadcast like ``euclidean``."""
    lat1, lon1 = np.radians(np.asarray(p, dtype=float)).T
    lat2, lon2 = np.radians(np.asarray(q, dtype=float)).T
    a = (np.sin((lat2 - lat1) / 2) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2)
    d = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(a)))
    return float(d) if d.ndim == 0 else d


def _freeze(a):
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


def _is_symmetric(a):
    """max |a - a^T| <= SYMMETRY_TOL, taken over the pairs on and above the
    diagonal, 256 rows at a time: half the reads of a - a.T, no N x N
    temporary, and a stop at the first asymmetric panel."""
    return all(np.abs(a[i:i + 256, i:] - a[i:, i:i + 256].T).max() <= SYMMETRY_TOL
               for i in range(0, a.shape[0], 256))


def _as_adjacency(values):
    """Coerce to a square float64/complex128 matrix, real when possible."""
    a = np.asarray(values)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("graph needs at least one node")
    real = a.dtype.kind in "biuf"
    a = a.astype(float if real else complex, copy=False)
    if not np.all(np.isfinite(a)):
        raise ValueError("adjacency entries must be finite")
    if real or a.imag.any():
        return a
    return a.real.astype(float)


@dataclass(frozen=True, eq=False)
class Graph:
    """Weighted graph over nodes 0..N-1 with dense adjacency storage.

    ``directed`` defaults to a structural test: the graph is undirected only
    if the adjacency is real and symmetric (within 1e-12).  Pass the flag
    explicitly to force a directed interpretation of a symmetric matrix.
    """

    adjacency: np.ndarray
    directed: bool = None  # type: ignore[assignment]

    def __post_init__(self):
        a = _as_adjacency(self.adjacency)
        directed = self.directed
        symmetric = not np.iscomplexobj(a) and _is_symmetric(a)
        if directed is None:
            directed = not symmetric
        elif not directed and not symmetric:
            raise ValueError("undirected graph requires a real symmetric adjacency")
        object.__setattr__(self, "adjacency", _freeze(a))
        object.__setattr__(self, "directed", bool(directed))

    @property
    def n(self):
        return self.adjacency.shape[0]

    @property
    def spectral_radius(self):
        """Largest eigenvalue magnitude, cached by first use or ``decompose``.

        Above 20 nodes a cold call on an undirected graph runs Lanczos
        (``eigsh``) on the CSR view of the adjacency from a fixed start
        vector, so reruns agree bitwise, for at most ``ARPACK_MAX_RESTARTS``
        restarts.  A directed graph, a graph of up to 20 nodes and a failed
        Lanczos run take the dense ``eigvals``/``eigvalsh``: on a defective or
        strongly non-normal adjacency, such as a DAG, Arnoldi meets its
        residual test far from every eigenvalue.  Each cold call logs its path
        at debug level.
        """
        if "_rho" not in self.__dict__:
            a, rho, path, restarts = self.adjacency, None, "dense", 0
            if not self.directed and self.n > 20 and a.any():
                import scipy.sparse.linalg
                restarts = ARPACK_MAX_RESTARTS
                v0 = 1.0 + np.random.default_rng(0).random(self.n)
                try:
                    w = scipy.sparse.linalg.eigsh(_csr(self), k=1, tol=0, v0=v0,
                                                  maxiter=restarts)[0]
                    rho, path = float(abs(w[0])), "lanczos"
                except scipy.sparse.linalg.ArpackError as e:
                    path = f"dense after={type(e).__name__}"
            if rho is None:
                eigvals = np.linalg.eigvals if self.directed else np.linalg.eigvalsh
                rho = float(np.max(np.abs(eigvals(a)))) if a.any() else 0.0
            log.debug("spectral_radius: n=%d path=%s max_restarts=%d rho=%.17g",
                      self.n, path, restarts, rho)
            self.__dict__["_rho"] = rho
        return self.__dict__["_rho"]

    def signal(self, values) -> "GraphSignal":
        """Bind a length-N value vector to this graph."""
        return GraphSignal(values, self)

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.n}, {kind})"


@dataclass(frozen=True, eq=False)
class GraphSignal:
    """A complex-valued sample per node, bound to its indexing graph."""

    values: np.ndarray
    graph: Graph

    def __post_init__(self):
        v = np.asarray(self.values)
        v = v.astype(float) if not np.iscomplexobj(v) else v.astype(complex)
        if v.ndim != 1 or v.shape[0] != self.graph.n:
            raise ValueError(
                f"signal length {v.shape} does not match graph with {self.graph.n} nodes"
            )
        if not np.all(np.isfinite(v)) or (
            np.iscomplexobj(v) and not np.all(np.isfinite(v.imag))
        ):
            raise ValueError("signal entries must be finite")
        object.__setattr__(self, "values", _freeze(v))

    def __repr__(self):
        return f"GraphSignal(n={self.graph.n})"


@dataclass(frozen=True, eq=False)
class LabelSignal:
    """Two-class label vector: +1 / -1 for known classes, 0 for unknown."""

    labels: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.labels, dtype=float)
        if v.ndim != 1:
            raise ValueError("labels must be a vector")
        if not np.all(np.isin(v, (-1.0, 0.0, 1.0))):
            raise ValueError("labels must be exactly +1, -1, or 0")
        object.__setattr__(self, "labels", _freeze(v))

    @property
    def known_mask(self):
        return self.labels != 0.0

    @property
    def n(self):
        return self.labels.shape[0]


def _check_bound(g: Graph, s: GraphSignal):
    if s.graph is not g:
        if s.values.shape[0] != g.n:
            raise ValueError("signal dimension does not match graph")
        raise ValueError("signal is bound to a different graph")


def _nearest(dist, k):
    """Mask of the k smallest entries of each row, ties going to the lowest
    column index, as a stable argsort would pick them.

    A partition finds each row's k-th smallest value; every entry below it
    is taken, then the lowest-index entries equal to it fill the row up to k.
    """
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    mask = dist < kth
    tie = dist == kth
    short = k - mask.sum(axis=1)
    rows = np.flatnonzero(tie.sum(axis=1) > short)  # more ties than places
    tie[rows] &= np.cumsum(tie[rows], axis=1) <= short[rows, None]
    return np.logical_or(mask, tie, out=mask)


def build_knn_graph(points, k, metric=euclidean, *, unweighted=False,
                    symmetrize=False) -> Graph:
    """Directed k-nearest-neighbor graph with Gaussian distance weights.

    ``metric(p, points)`` must return the distances from one point ``p`` to
    every row of the ``points`` array; it is called once per point, and
    ``d(n, m)`` for ``n < m`` is taken from the call for ``n``.

    Each node receives edges from its ``k`` nearest other nodes (distance
    ties broken by lowest node index).  The weight of the edge into ``n``
    from neighbor ``m`` is::

        exp(-d(n,m)^2) / sqrt(sum_{j in N(n)} exp(-d(n,j)^2)
                              * sum_{l in N(m)} exp(-d(m,l)^2))

    computed in the log domain, so distances far beyond 1 (such as
    kilometres) do not underflow every exponential to zero.

    With ``unweighted=True`` every selected edge has weight exactly 1.
    With ``symmetrize=True`` the neighbor relation is made mutual before
    weighting, which yields an undirected graph.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n == 0:
        raise ValueError("points must be nonempty")
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < {n}, got {k}")
    pts = pts.reshape(n, -1)

    dist = np.array([metric(p, pts) for p in pts], dtype=float)
    if dist.shape != (n, n):
        raise ValueError("metric(p, points) must return one distance per point")
    dist = np.triu(dist, 1) + np.triu(dist, 1).T
    if not np.all(np.isfinite(dist)):
        raise ValueError("all pairwise distances must be finite")

    np.fill_diagonal(dist, np.inf)
    mask = _nearest(dist, k)
    if symmetrize:
        mask |= mask.T
    if unweighted:
        return Graph(mask.astype(float))

    # The weights overwrite the distance buffer to bound the build's peak
    # memory.  Each exponent is shifted by the largest one of its row and
    # column, so the nearest neighbours' terms are near 1, not 0.
    log_gauss = np.negative(np.square(dist, out=dist), out=dist)
    log_gauss[~mask] = -np.inf
    top = log_gauss.max(axis=1)
    sums = np.exp(log_gauss - top[:, None]).sum(axis=1)
    weights = np.exp(log_gauss - 0.5 * (top[:, None] + top[None, :]), out=log_gauss)
    weights /= np.sqrt(sums[:, None] * sums[None, :])
    return Graph(weights)


def _csr(g: Graph):
    """The adjacency as a CSR array, built on first use and cached."""
    if "_csr" not in g.__dict__:
        import scipy.sparse
        g.__dict__["_csr"] = scipy.sparse.csr_array(g.adjacency)
    return g.__dict__["_csr"]


def _nonzero_radius(g: Graph) -> float:
    """|lambda_max| of a graph whose shift can be normalized by it."""
    rho = g.spectral_radius
    if rho == 0.0:
        raise ValueError("cannot normalize a graph with zero adjacency")
    return rho


def normalize_shift(g: Graph) -> Graph:
    """Scale the adjacency by 1/|lambda_max| so the spectral radius is 1."""
    return Graph(g.adjacency / _nonzero_radius(g), directed=g.directed)


def graph_shift(g: Graph, s: GraphSignal) -> GraphSignal:
    """Elementary filter: replace each sample by the weighted sum A @ s."""
    _check_bound(g, s)
    return GraphSignal(g.adjacency @ s.values, g)


def _check_laplacian(g: Graph):
    """Refuse a graph whose Laplacian D - A is not defined."""
    if g.directed:
        raise ValueError("Laplacian is defined only for undirected graphs")
    if g.adjacency.min() < 0:
        raise ValueError("Laplacian requires non-negative edge weights")


def laplacian(g: Graph) -> np.ndarray:
    """Laplacian D - A of an undirected graph with non-negative real weights."""
    _check_laplacian(g)
    a = g.adjacency
    return np.diag(a.sum(axis=1)) - a
