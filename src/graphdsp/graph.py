"""Graph and signal data model, k-NN graph construction, shift normalization.

Entry ``A[n, m]`` of a graph's adjacency is the weight of the directed edge
from node ``m`` to node ``n``, so shifting a signal is the matrix-vector
product ``A @ s``.  Undirected graphs are symmetric with real entries.  All
objects are immutable after construction.

A graph stores the nonzeros of A in row-major order, ``_nonzeros``, which
every product (``_shift``) and edge listing reads.  The dense ``adjacency``
is built from them on first read, for the eigensolvers, the dense spectral
radius, the classifier's dense operator, ``laplacian`` and dense products.
A block of weak components (``_block``) is a graph over the same nonzeros.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-12
# the certified spectral radius: Arnoldi basis size, restart cap, restarts
# allowed without halving the bracket, and the accepted bracket width
KRYLOV_SIZE = 30
KRYLOV_MAX_RESTARTS = 30
KRYLOV_STALL = 4
BRACKET_RTOL = 1e-13
# a product with the adjacency, or with a block of it, is a dense matrix-vector
# product once its nonzeros fill more than this share of the matrix: from 10%
# up the dense product was the faster at every size timed (N = 300 to 4000,
# one BLAS thread), while np.bincount over the nonzeros stays the faster up
# to about 5% fill at N <= 2400 and 7% at N = 3200 to 4000
DENSE_PRODUCT_FILL = 0.10

# entries of an N-column array built at once by ``_row_blocks`` (kNN, SBM): 8 MB
ROW_BLOCK = 2 ** 20

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


def _to_dense(rows, cols, vals, n):
    """The n x n matrix with nonzeros ``vals`` at (``rows``, ``cols``)."""
    a = np.zeros((n, n), dtype=vals.dtype)
    a[rows, cols] = vals
    return a


def _is_symmetric(rows, cols, vals, n):
    """max |a - a^T| <= SYMMETRY_TOL for the real n x n matrix a with these
    row-major nonzeros: the transpose's, sorted, pair with a's at the same
    place, found by a merge where the two patterns differ, and one without a
    partner is compared against 0."""
    key = rows * n + cols
    order = np.argsort(cols, kind="stable")  # row-major: the mirrored keys' order
    mirror, partner = (cols * n + rows)[order], vals
    if not np.array_equal(mirror, key):
        at = np.minimum(np.searchsorted(key, mirror), key.size - 1)
        partner = np.where(key[at] == mirror, vals[at], 0.0)
    return bool(np.abs(vals[order] - partner).max(initial=0.0) <= SYMMETRY_TOL)


@dataclass(frozen=True, eq=False, init=False)
class Graph:
    """Weighted graph over nodes 0..N-1, stored as its adjacency's nonzeros;
    the dense ``adjacency`` is a view built on first read.

    The adjacency is coerced to float64, or complex128 where an imaginary
    part is nonzero; an entry equal to zero is no edge.  ``directed``
    defaults to a structural test: the graph is undirected only if the
    adjacency is real and symmetric (within 1e-12).  Pass the flag
    explicitly to force a directed interpretation of a symmetric matrix.
    """

    n: int
    directed: bool

    def __init__(self, adjacency, directed=None):
        a = np.asarray(adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        rows, cols = np.nonzero(a)
        self._store(a.shape[0], rows, cols, a[rows, cols], directed)

    @classmethod
    def _from_entries(cls, n, rows, cols, vals, directed):
        """The graph over n nodes with adjacency entries ``vals`` at (``rows``,
        ``cols``) in row-major order, without repeats, checked as by ``Graph``."""
        return cls.__new__(cls)._store(n, rows, cols, vals, directed)

    def _store(self, n, rows, cols, vals, directed):
        if n < 1:
            raise ValueError("graph needs at least one node")
        vals = vals.astype(float if vals.dtype.kind in "biuf" else complex, copy=False)
        keep = vals != 0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        if not np.all(np.isfinite(vals)):
            raise ValueError("adjacency entries must be finite")
        if np.iscomplexobj(vals) and not vals.imag.any():
            vals = vals.real.astype(float)
        symmetric = not np.iscomplexobj(vals) and _is_symmetric(rows, cols, vals, n)
        if directed is None:
            directed = not symmetric
        elif not directed and not symmetric:
            raise ValueError("undirected graph requires a real symmetric adjacency")
        return self._assign(n, rows, cols, vals, directed)

    def _assign(self, n, rows, cols, vals, directed):
        """Keep checked nonzeros as the graph's storage, read-only; the graph."""
        for x in (rows, cols, vals):
            x.setflags(write=False)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "directed", bool(directed))
        self.__dict__["_nonzeros"] = (rows, cols, vals)
        return self

    @property
    def adjacency(self):
        """The dense adjacency, read-only, built on first read and cached."""
        if "_adjacency" not in self.__dict__:
            a = _to_dense(*_nonzeros(self), self.n)
            a.setflags(write=False)
            self.__dict__["_adjacency"] = a
        return self.__dict__["_adjacency"]

    @property
    def spectral_radius(self):
        """Largest eigenvalue magnitude, computed once per graph.

        A cold call on a real adjacency with no negative entry, directed or
        not, is certified without scipy.  A is block-diagonal over its weak
        components, so rho is the largest rho of a block, and an isolated
        node gives its self-loop weight.  Each block first tries
        x = 1, whose bracket [min row sum, max row sum] closes at once on
        constant row sums (cycles, tori, regular graphs).  Otherwise a
        restarted Arnoldi (``KRYLOV_SIZE`` vectors, a fixed start vector, so
        reruns agree bitwise) estimates the Perron vector x, restarting from
        the modulus of the real part of the Ritz vector of the Ritz value of
        largest real part.  For a positive x the Collatz-Wielandt bracket
        min (Ax)_i/x_i <= rho <= max (Ax)_i/x_i holds, and rho is accepted
        as its upper end once it is narrower than ``BRACKET_RTOL`` relative.
        A block whose bracket cannot close takes the dense ``eigvals`` or
        ``eigvalsh``: at once when a node has no in-edge within it (every
        DAG and directed path), and otherwise after ``KRYLOV_MAX_RESTARTS``
        restarts, after ``KRYLOV_STALL`` restarts that do not halve the
        bracket (periodic graphs) or on an x with a zero entry.  A graph
        with a negative or complex weight takes the dense solver on the
        whole matrix, and a zero one has rho 0.  Each cold call logs its
        path, blocks, restarts and bracket at debug level.
        """
        if "_rho" not in self.__dict__:
            vals = _nonzeros(self)[2]
            if not vals.size or np.iscomplexobj(vals) or vals.min() < 0:
                rho = _dense_radius(self.adjacency, self.directed) if vals.size else 0.0
                log.debug("spectral_radius: n=%d path=dense rho=%.17g", self.n, rho)
            else:
                rho = _certified_radius(self)
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
        if not np.all(np.isfinite(v)):
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


def _row_blocks(n):
    """Node ranges of ``ROW_BLOCK // n`` rows, or one, covering 0..n-1."""
    step = max(1, ROW_BLOCK // n)
    return [np.arange(start, min(start + step, n)) for start in range(0, n, step)]


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
    every row of the ``points`` array, finite between different points and
    symmetric bit for bit (d(n, m) from the call for n is d(m, n) from the
    call for m), as ``euclidean`` and ``haversine_km`` are.  It is called once
    per point, on ``_row_blocks`` of points, so no N x N array is built, and
    with the points column-major.

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

    Where no two distances from a point tie, the graph commutes with a
    relabeling: ``build_knn_graph(points[p])`` is P A P^T, with exactly the
    same nonzeros and weights within 1e-14 relative (sums taken in another
    order), in each of the four modes.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n == 0:
        raise ValueError("points must be nonempty")
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < {n}, got {k}")
    # column-major: a metric's arithmetic per coordinate runs over a column
    pts = np.asfortranarray(pts.reshape(n, -1))

    chosen = []  # each block's k nearest per row, row-major, and their distances
    for nodes in _row_blocks(n):
        block = np.array([metric(p, pts) for p in pts[nodes]], dtype=float)
        if block.shape != (nodes.size, n):
            raise ValueError("metric(p, points) must return one distance per point")
        block[nodes - nodes[0], nodes] = np.inf
        # the diagonal, now infinite, is the only entry allowed not to be finite
        if np.count_nonzero(np.isfinite(block)) < block.size - nodes.size:
            raise ValueError("all pairwise distances must be finite")
        r, c = np.nonzero(_nearest(block, k))
        chosen.append((r + nodes[0], c, block[r, c]))
    rows, cols, dist = map(np.concatenate, zip(*chosen))
    if symmetrize:  # (n, m) and (m, n) carry the same distance
        keys, first = np.unique(np.concatenate([rows * n + cols, cols * n + rows]),
                                return_index=True)
        rows, cols = np.divmod(keys, n)
        dist = np.concatenate([dist, dist])[first]
    if unweighted:
        return Graph._from_entries(n, rows, cols, np.ones(rows.size), None)

    # Each exponent is shifted by the largest one of its row and column, so
    # the nearest neighbours' terms are near 1, not 0.  A row's sum is taken
    # over its full length, zeros included, in the order of a dense row.
    log_gauss = np.negative(np.square(dist))
    top = np.maximum.reduceat(log_gauss, np.searchsorted(rows, np.arange(n)))
    sums = np.empty(n)
    for nodes in _row_blocks(n):
        at = slice(*np.searchsorted(rows, [nodes[0], nodes[-1] + 1]))
        dense = np.zeros((nodes.size, n))
        dense[rows[at] - nodes[0], cols[at]] = np.exp(log_gauss[at] - top[rows[at]])
        sums[nodes] = dense.sum(axis=1)
    weights = np.exp(log_gauss - 0.5 * (top[rows] + top[cols]))
    return Graph._from_entries(n, rows, cols, weights / np.sqrt(sums[rows] * sums[cols]), None)


def _nonzeros(g: Graph):
    """Row, column and value arrays of the adjacency's nonzeros in row-major
    order, read-only: the graph's storage and its sparse view."""
    return g.__dict__["_nonzeros"]


def _block(g: Graph, nodes):
    """The graph over ``nodes``, a sorted union of weak components, in its own
    node indices: g itself where they span it, and otherwise g's nonzeros
    among them with g's ``directed``, kept without checking them again."""
    if nodes.size == g.n:
        return g
    rows, cols, vals = _nonzeros(g)
    local = np.full(g.n, -1)
    local[nodes] = np.arange(nodes.size)
    edges = local[rows] >= 0
    return Graph.__new__(Graph)._assign(nodes.size, local[rows[edges]],
                                        local[cols[edges]], vals[edges], g.directed)


def _product(rows, cols, vals, x, n):
    """The product of the n x n matrix with nonzeros ``vals`` at (``rows``,
    ``cols``) and the vector x, by ``np.bincount``; complex terms are summed
    as real and imaginary parts."""
    terms = vals * x[cols]
    if np.iscomplexobj(terms):
        return (np.bincount(rows, terms.real, n)
                + 1j * np.bincount(rows, terms.imag, n))
    return np.bincount(rows, terms, n)


def _shift(g: Graph, x, adjoint=False):
    """A @ x, or A^H @ x: a dense product with ``g.adjacency`` once the
    nonzeros fill more than ``DENSE_PRODUCT_FILL`` of A, and ``_product``
    over them below that, so a sparse graph's products never build it."""
    rows, cols, vals = _nonzeros(g)
    if vals.size > DENSE_PRODUCT_FILL * g.n ** 2:
        a = g.adjacency
        return (x.conj() @ a).conj() if adjoint else a @ x
    if adjoint:
        rows, cols, vals = cols, rows, vals.conj()
    return _product(rows, cols, vals, x, g.n)


def _components(g: Graph):
    """Label of each node's weak component: the lowest node index in it.

    Min-label propagation over the edges in both directions, with pointer
    jumping: every label is a node of the same component and never above
    the node's own index, so at the fixed point each component carries its
    lowest index."""
    rows, cols, _ = _nonzeros(g)
    label = np.arange(g.n)
    while True:
        old = label.copy()
        np.minimum.at(label, rows, label[cols])
        np.minimum.at(label, cols, label[rows])
        while not np.array_equal(label[label], label):
            label = label[label]
        if np.array_equal(label, old):
            return label


def _dense_radius(a, directed):
    eigvals = np.linalg.eigvals if directed else np.linalg.eigvalsh
    return float(np.max(np.abs(eigvals(a))))


def _arnoldi_bracket(block: Graph):
    """Collatz-Wielandt bracket [lo, hi] of rho for a block with nonnegative
    nonzeros, narrower than ``BRACKET_RTOL`` relative, and the restarts
    taken, or None for the bracket where it does not close; its products are
    ``_shift``'s.  It tries x = 1 first: [min row sum, max row sum]."""
    n = block.n
    sums = _shift(block, np.ones(n))
    if sums.max() - sums.min() <= BRACKET_RTOL * sums.max():
        return (float(sums.min()), float(sums.max())), 0
    m = min(KRYLOV_SIZE, n)
    x = 1.0 + np.random.default_rng(0).random(n)
    best, stalled = np.inf, 0
    for restart in range(1, KRYLOV_MAX_RESTARTS + 1):
        v, h = np.zeros((m + 1, n)), np.zeros((m + 1, m))
        v[0] = x / np.linalg.norm(x)
        k = m
        for j in range(m):
            w = _shift(block, v[j])
            for _ in range(2):  # Gram-Schmidt, repeated for orthogonality
                c = v[:j + 1] @ w
                w -= c @ v[:j + 1]
                h[:j + 1, j] += c
            h[j + 1, j] = np.linalg.norm(w)
            if h[j + 1, j] == 0.0:  # an invariant subspace: the Ritz pairs are exact
                k = j + 1
                break
            v[j + 1] = w / h[j + 1, j]
        theta, z = np.linalg.eig(h[:k, :k])
        x = np.abs((z[:, np.argmax(theta.real)] @ v[:k]).real)
        if not x.all():
            break
        ratio = _shift(block, x) / x
        lo, hi = ratio.min(), ratio.max()
        if hi - lo <= BRACKET_RTOL * hi:
            return (float(lo), float(hi)), restart
        if hi - lo <= 0.5 * best:
            best, stalled = hi - lo, 0
        else:
            stalled += 1
            if stalled == KRYLOV_STALL:
                break
    return None, restart


def _certified_radius(g: Graph):
    """rho of a nonnegative real graph, the largest over its weak components
    (see ``Graph.spectral_radius``), with its debug record; each is a
    ``_block``, whose dense fallback reads the block's ``adjacency``."""
    rows, cols, vals = _nonzeros(g)
    label = _components(g)
    roots, sizes = np.unique(label, return_counts=True)
    # an isolated node's only eigenvalue is its self-loop weight
    loops = (rows == cols) & np.isin(label[rows], roots[sizes == 1])
    lo = hi = float(vals[loops].max(initial=0.0))
    certified = restarts = 0
    for root in roots[sizes > 1]:
        block = _block(g, np.flatnonzero(label == root))
        bracket = None
        # a node without in-edges pins lo at 0
        if np.bincount(_nonzeros(block)[0], minlength=block.n).all():
            bracket, taken = _arnoldi_bracket(block)
            restarts += taken
        if bracket is None:
            bracket = (_dense_radius(block.adjacency, g.directed),) * 2
        else:
            certified += 1
        lo, hi = max(lo, bracket[0]), max(hi, bracket[1])
    log.debug("spectral_radius: n=%d path=krylov blocks=%d certified=%d restarts=%d "
              "bracket=[%.17g, %.17g] rho=%.17g",
              g.n, np.count_nonzero(sizes > 1), certified, restarts, lo, hi, hi)
    return hi


def _nonzero_radius(g: Graph) -> float:
    """|lambda_max| of a graph whose shift can be normalized by it."""
    rho = g.spectral_radius
    if rho == 0.0:
        raise ValueError("cannot normalize a graph with zero adjacency")
    return rho


def normalize_shift(g: Graph) -> Graph:
    """Scale the adjacency by 1/|lambda_max| so the spectral radius is 1."""
    rows, cols, vals = _nonzeros(g)
    return Graph._from_entries(g.n, rows, cols, vals / _nonzero_radius(g), g.directed)


def graph_shift(g: Graph, s: GraphSignal) -> GraphSignal:
    """Elementary filter: replace each sample by the weighted sum A @ s."""
    _check_bound(g, s)
    return GraphSignal(_shift(g, s.values), g)


def _check_laplacian(g: Graph):
    """Refuse a graph whose Laplacian D - A is not defined."""
    if g.directed:
        raise ValueError("Laplacian is defined only for undirected graphs")
    if (_nonzeros(g)[2] < 0).any():
        raise ValueError("Laplacian requires non-negative edge weights")


def laplacian(g: Graph) -> np.ndarray:
    """Laplacian D - A of an undirected graph with non-negative real weights:
    -A with the degrees D, each row's nonzeros summed, added on its diagonal;
    the classifier's Laplacian form doubles it in place."""
    _check_laplacian(g)
    rows, _, vals = _nonzeros(g)
    lap = np.negative(g.adjacency)
    lap[np.diag_indices(g.n)] += np.bincount(rows, vals, g.n)
    return lap
