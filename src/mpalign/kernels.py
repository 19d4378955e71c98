"""Graph kernels: BFS distances, components, centralities, label-propagation counts.

All kernels are numpy/scipy array code with no per-node or per-edge Python
loop. Apart from ``canonical_labels``, which renumbers a labeling, they take
the CSR adjacency (``indptr``, ``indices``; int64) of an undirected,
loop-free graph.

Distances and centralities run a level-synchronous BFS from many sources at
once: a block of ``SOURCE_BLOCK`` sources is an (n, block) matrix, and one BFS
level is one sparse ``adjacency @ frontier`` product. Shortest-path counts are
carried forward, Brandes dependencies (betweenness, Brandes 2001) and
equal-split packet flow (load, Brandes 2008) backward over the same levels.
Memory grows with ``SOURCE_BLOCK * n``, not with n².
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

# Nodes handled by one block of array operations (BFS sources, or rows of the
# label counts). Working memory is a few (n, SOURCE_BLOCK) arrays; on an
# n = 2,100 graph, blocks of 32 to 256 ran equally fast.
SOURCE_BLOCK = 64


def _adjacency(indptr, indices, n) -> sp.csr_matrix:
    """The 0/1 float64 adjacency matrix of the CSR graph."""
    return sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))


def canonical_labels(raw):
    """Renumber arbitrary integer labels 0..K-1 by each label's smallest member."""
    raw = np.asarray(raw, dtype=np.int64)
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    rank = np.empty(len(first), np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


def connected_component_labels(indptr, indices, n):
    """Label nodes by connected component, numbered by smallest member, and count them."""
    if n == 0:
        return np.empty(0, np.int64), 0
    count, raw = csgraph.connected_components(
        _adjacency(indptr, indices, n), directed=False
    )
    return canonical_labels(raw), int(count)


def _bfs_block(adj, sources):
    """Forward BFS from each of *sources* (one column each).

    Returns hop distances ``dist`` (n, b; -1 where unreachable), shortest-path
    counts ``sigma`` (n, b) and the largest distance reached.
    """
    n = adj.shape[0]
    cols = np.arange(len(sources))
    dist = np.full((n, len(sources)), -1, np.int64)
    sigma = np.zeros((n, len(sources)))
    dist[sources, cols] = 0
    sigma[sources, cols] = 1.0
    frontier = sigma.copy()
    depth = 0
    while True:
        paths = adj @ frontier  # sigma summed over each node's level-depth neighbors
        new = (paths > 0.0) & (dist < 0)
        if not new.any():
            return dist, sigma, depth
        depth += 1
        dist[new] = depth
        frontier = np.where(new, paths, 0.0)
        sigma += frontier


def _blocks(n):
    """Consecutive node ranges of at most SOURCE_BLOCK nodes."""
    for start in range(0, n, SOURCE_BLOCK):
        yield np.arange(start, min(start + SOURCE_BLOCK, n))


def centrality_bundle(indptr, indices, n):
    """Degree, closeness, betweenness, load, and harmonic centrality in one pass.

    Closeness is the within-component value scaled by (|C|-1)/(n-1); harmonic
    sums reciprocal distances over n-1; betweenness uses pair-counting
    accumulation and load equal flow splitting among shortest-path successors
    toward each target, both scaled by 2/((n-1)(n-2)) over unordered pairs.
    """
    degree = np.diff(indptr).astype(np.float64)
    closeness = np.zeros(n, np.float64)
    betweenness = np.zeros(n, np.float64)
    load = np.zeros(n, np.float64)
    harmonic = np.zeros(n, np.float64)
    if n <= 1:
        return degree, closeness, betweenness, load, harmonic

    adj = _adjacency(indptr, indices, n)
    for sources in _blocks(n):
        cols = np.arange(len(sources))
        dist, sigma, depth = _bfs_block(adj, sources)

        reached = dist > 0
        total = np.where(reached, dist, 0).sum(axis=0)
        reach = reached.sum(axis=0).astype(np.float64)
        closeness[sources] = np.divide(
            reach, total, out=np.zeros(len(sources)), where=total > 0
        ) * (reach / (n - 1.0))
        inverse = np.divide(1.0, dist, out=np.zeros(dist.shape), where=reached)
        harmonic[sources] = inverse.sum(axis=0) / (n - 1.0)

        # Backward over the levels. For a node v at level d, its neighbors at
        # level d-1 are its shortest-path predecessors from the source, and its
        # successors toward the source as a load target.
        delta = np.zeros(sigma.shape)
        flow = np.zeros(sigma.shape)
        below = dist == depth
        for d in range(depth, 0, -1):
            at, below = below, dist == d - 1
            coeff = np.divide(1.0 + delta, sigma, out=np.zeros(sigma.shape), where=at)
            delta += np.where(below, sigma * (adj @ coeff), 0.0)
            n_succ = adj @ below.astype(np.float64)
            share = np.divide(1.0 + flow, n_succ, out=np.zeros(sigma.shape), where=at)
            flow += np.where(below, adj @ share, 0.0)
        delta[sources, cols] = 0.0
        flow[sources, cols] = 0.0
        betweenness += delta.sum(axis=1)
        load += flow.sum(axis=1)

    if n > 2:
        scale = 1.0 / ((n - 1.0) * (n - 2.0))
        betweenness *= scale
        load *= scale
    return degree, closeness, betweenness, load, harmonic


def label_modes(indptr, indices, labels):
    """Neighborhood label counts of every node: adjacency times one-hot labels.

    Returns ``(mode, mode_count, own_count)``: the most frequent neighbor label
    (ties to the smallest label; -1 for isolated nodes), its count, and how
    many neighbors share the node's own label. Rows are counted in blocks of
    ``SOURCE_BLOCK`` nodes, so the count matrix is at most (block, n).
    """
    n = labels.shape[0]
    mode = np.empty(n, np.int64)
    mode_count = np.zeros(n, np.int64)
    own_count = np.zeros(n, np.int64)
    for rows in _blocks(n):
        lo, hi = rows[0], rows[-1] + 1
        local = np.repeat(rows - lo, np.diff(indptr[lo : hi + 1]))
        neighbor_labels = labels[indices[indptr[lo] : indptr[hi]]]
        counts = np.bincount(
            local * n + neighbor_labels, minlength=len(rows) * n
        ).reshape(len(rows), n)
        best = counts.argmax(axis=1)  # first maximum: the smallest label
        mode_count[rows] = counts[rows - lo, best]
        mode[rows] = np.where(mode_count[rows] > 0, best, -1)
        own_count[rows] = counts[rows - lo, labels[rows]]
    return mode, mode_count, own_count
