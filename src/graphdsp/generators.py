"""Deterministic synthetic graphs for experiments and the command line."""

from __future__ import annotations

import numpy as np

from .graph import Graph, LabelSignal, _row_blocks


def cycle_graph(n: int) -> Graph:
    """Directed cycle 0 -> 1 -> ... -> n-1 -> 0; the adjacency is the cyclic
    permutation matrix, the graph analogue of a unit time delay."""
    if n < 1:
        raise ValueError("cycle needs at least one node")
    rows = np.arange(n)
    return Graph._from_entries(n, rows, (rows - 1) % n, np.ones(n), None)


def path_graph(n: int) -> Graph:
    """Undirected unit-weight path 0 - 1 - ... - n-1."""
    if n < 1:
        raise ValueError("path needs at least one node")
    i = np.arange(n - 1)
    return _unit_undirected(n, i * n + i + 1)


def regular_graph(n: int, d: int, seed: int = 0) -> Graph:
    """Random d-regular undirected unit-weight graph on n nodes."""
    if not 0 <= d < n:
        raise ValueError(f"degree {d} infeasible for {n} nodes")
    if (n * d) % 2 != 0:
        raise ValueError(f"no {d}-regular graph on {n} nodes: n*d must be even")
    import networkx as nx  # here: it is slow to import and only needed here
    edges = nx.random_regular_graph(d, n, seed=int(seed)).edges()
    u, v = np.array(list(edges), dtype=np.int64).reshape(-1, 2).T
    return _unit_undirected(n, u * n + v)


def sbm_graph(n: int, p: float, q: float, seed: int = 0):
    """Two-block stochastic block model with its ground-truth labels.

    Nodes split into blocks of n//2 and n - n//2; an undirected unit edge
    appears with probability ``p`` inside a block and ``q`` across.  Returns
    the graph and the +1/-1 block membership.

    Edge (i, j), i < j, is drawn as ``u[i, j] < prob`` with u the n x n
    uniforms of ``default_rng(seed).random((n, n))``.  That matrix is the
    stream's rows in order, so it is drawn in ``graph._row_blocks`` and only
    the upper triangle's hits are kept: no N x N array.
    """
    if n < 2:
        raise ValueError("block model needs at least two nodes")
    for name, prob in (("p", p), ("q", q)):
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"{name} must be a probability, got {prob}")
    rng = np.random.default_rng(int(seed))
    half = n // 2
    member = np.where(np.arange(n) < half, 1.0, -1.0)
    hits = []
    for rows in _row_blocks(n):
        prob = np.where(member[rows, None] == member[None, :], p, q)
        edge = rng.random((rows.size, n)) < prob
        edge &= np.arange(n) > rows[:, None]
        i, j = np.nonzero(edge)
        hits.append((i + rows[0]) * n + j)
    return _unit_undirected(n, np.concatenate(hits)), LabelSignal(member)


def _unit_undirected(n, upper):
    """The undirected unit-weight graph with an edge i - j per key i * n + j,
    one key per edge."""
    keys = np.sort(np.concatenate([upper, upper % n * n + upper // n]))
    rows, cols = np.divmod(keys, n)
    return Graph._from_entries(n, rows, cols, np.ones(keys.size), None)
