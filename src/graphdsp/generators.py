"""Deterministic synthetic graphs for experiments and the command line."""

from __future__ import annotations

import numpy as np

from .graph import Graph, LabelSignal


def cycle_graph(n: int) -> Graph:
    """Directed cycle 0 -> 1 -> ... -> n-1 -> 0; the adjacency is the cyclic
    permutation matrix, the graph analogue of a unit time delay."""
    if n < 1:
        raise ValueError("cycle needs at least one node")
    a = np.zeros((n, n))
    for i in range(n):
        a[(i + 1) % n, i] = 1.0
    return Graph(a)


def path_graph(n: int) -> Graph:
    """Undirected unit-weight path 0 - 1 - ... - n-1."""
    if n < 1:
        raise ValueError("path needs at least one node")
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return Graph(a)


def regular_graph(n: int, d: int, seed: int = 0) -> Graph:
    """Random d-regular undirected unit-weight graph on n nodes."""
    if not 0 <= d < n:
        raise ValueError(f"degree {d} infeasible for {n} nodes")
    if (n * d) % 2 != 0:
        raise ValueError(f"no {d}-regular graph on {n} nodes: n*d must be even")
    import networkx as nx  # here: it is slow to import and only needed here
    gnx = nx.random_regular_graph(d, n, seed=int(seed))
    return Graph(nx.to_numpy_array(gnx, nodelist=range(n)))


def sbm_graph(n: int, p: float, q: float, seed: int = 0):
    """Two-block stochastic block model with its ground-truth labels.

    Nodes split into blocks of n//2 and n - n//2; an undirected unit edge
    appears with probability ``p`` inside a block and ``q`` across.  Returns
    the graph and the +1/-1 block membership.
    """
    if n < 2:
        raise ValueError("block model needs at least two nodes")
    for name, prob in (("p", p), ("q", q)):
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"{name} must be a probability, got {prob}")
    rng = np.random.default_rng(int(seed))
    half = n // 2
    member = np.where(np.arange(n) < half, 1.0, -1.0)
    same = member[:, None] == member[None, :]
    prob = np.where(same, p, q)
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    a = (upper | upper.T).astype(float)
    return Graph(a), LabelSignal(member)
