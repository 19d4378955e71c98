"""Kernel-level checks against the brute-force and loop references in oracles.py."""

import numpy as np
import pytest

from mpalign import kernels
from mpalign.communities import Partition, lpc
from mpalign.features import centralities

from oracles import (
    arbitrary_graph,
    bfs_components,
    centralities_bruteforce,
    from_labels_reference,
    lpc_reference,
    random_graph,
    random_tree,
)


@pytest.fixture(params=[kernels.SOURCE_BLOCK, 3], ids=["one-block", "block-3"])
def source_block(request, monkeypatch):
    """Run each test with all sources in one block, and split into blocks of 3."""
    monkeypatch.setattr(kernels, "SOURCE_BLOCK", request.param)
    return request.param


def disconnected_graph(rng, n: int):
    """Two random components and isolated nodes, their ids interleaved."""
    perm = rng.permutation(n)
    first, second, _isolated = np.array_split(perm, 3)
    edges = []
    for group in (first, second):
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                if rng.random() < 0.6:
                    u, v = int(group[a]), int(group[b])
                    edges.append((min(u, v), max(u, v)))
    return arbitrary_graph(n, edges)


def test_centralities_disconnected_with_isolated_nodes(rng, source_block):
    for _ in range(25):
        g = disconnected_graph(rng, int(rng.integers(5, 11)))
        assert (g.degrees == 0).any()
        np.testing.assert_allclose(centralities(g), centralities_bruteforce(g), atol=1e-12)


def test_centralities_on_trees_betweenness_equals_load(rng, source_block):
    for _ in range(25):
        g = random_tree(rng, int(rng.integers(2, 11)))
        ours = centralities(g)
        np.testing.assert_allclose(ours, centralities_bruteforce(g), atol=1e-12)
        np.testing.assert_allclose(ours[:, 2], ours[:, 3], atol=1e-12)


def test_centralities_dense_random(rng, source_block):
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(3, 10)), float(rng.uniform(0.3, 0.9)))
        np.testing.assert_allclose(centralities(g), centralities_bruteforce(g), atol=1e-12)


def test_component_labels_in_discovery_order(rng):
    for _ in range(40):
        g = disconnected_graph(rng, int(rng.integers(1, 15)))
        labels, count = kernels.connected_component_labels(g.indptr, g.indices, g.n)
        comps = bfs_components(g)
        assert count == len(comps)
        assert [set(np.flatnonzero(labels == c).tolist()) for c in range(count)] == comps


def test_component_labels_empty_graph():
    labels, count = kernels.connected_component_labels(
        np.zeros(1, np.int64), np.empty(0, np.int64), 0
    )
    assert labels.tolist() == [] and count == 0


def test_canonical_labels_match_dict_reference(rng):
    cases = [[], [7], [-3, 5, -3, 5, 0], [4, 3, 2, 1, 0]]
    cases += [rng.integers(-3, k, int(rng.integers(1, 40))) for k in (1, 2, 5, 100)]
    cases += [rng.integers(0, 2**62, 30)]
    for raw in cases:
        assert kernels.canonical_labels(raw).tolist() == from_labels_reference(raw).tolist()


def test_lpc_matches_loop_reference(rng, source_block):
    graphs = [
        arbitrary_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),  # all ties
        arbitrary_graph(6, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]),  # K(3,2)
        arbitrary_graph(7, [(0, 1), (2, 3)]),  # isolated nodes
        arbitrary_graph(3, []),
    ]
    graphs += [disconnected_graph(rng, int(rng.integers(4, 14))) for _ in range(15)]
    graphs += [random_graph(rng, int(rng.integers(4, 14)), 0.35) for _ in range(15)]
    for g in graphs:
        for seed in range(12):
            for portion in (0.5, 1.0):
                expected = Partition.from_labels(lpc_reference(g, seed, portion)).labels
                assert lpc(g, seed=seed, portion=portion).labels.tolist() == expected.tolist()


def test_label_update_tie_breaks_to_smallest():
    # node 0 adjacent to labels {1, 2}: tie resolved toward 1; node 3 isolated
    indptr = np.array([0, 2, 3, 4, 4], np.int64)
    indices = np.array([1, 2, 0, 0], np.int64)
    labels = np.array([0, 2, 1, 3], np.int64)
    mode, mode_count, own_count = kernels.label_modes(indptr, indices, labels)
    assert mode.tolist() == [1, 0, 0, -1]
    assert mode_count.tolist() == [1, 1, 1, 0]
    assert own_count.tolist() == [0, 0, 0, 0]
