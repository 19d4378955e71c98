import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpalign.communities import (
    Partition,
    UndefinedModularityError,
    cd_stats,
    gmc,
    lpc,
    modularity,
    refine_edges,
)
from mpalign.features import partition
from mpalign.graph import connected_components

from oracles import (
    arbitrary_graph,
    best_partitions,
    gmc_reference,
    modularity_double_sum,
    random_graph,
    random_multilingual_graph,
    refine_edges_reference,
    refinement_cases,
)


def two_triangles_with_bridge():
    return arbitrary_graph(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3)]
    )


class TestModularity:
    def test_whole_graph_is_exactly_zero(self, rng):
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 8)), 0.6)
            if g.m == 0:
                continue
            assert modularity(g, Partition.whole(g.n), 1.0) == 0.0

    def test_two_disjoint_edges(self):
        g = arbitrary_graph(4, [(0, 1), (2, 3)])
        assert modularity(g, Partition(np.array([0, 0, 1, 1])), 1.0) == pytest.approx(0.5)

    def test_two_triangles_with_bridge(self):
        g = two_triangles_with_bridge()
        p = Partition(np.array([0, 0, 0, 1, 1, 1]))
        assert modularity(g, p, 1.0) == pytest.approx(5 / 14, abs=1e-12)

    def test_edgeless_rejected(self):
        g = arbitrary_graph(3, [])
        with pytest.raises(UndefinedModularityError):
            modularity(g, Partition.singletons(3), 1.0)

    @given(st.integers(0, 400))
    def test_matches_double_sum_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(2, 8)), float(rng.uniform(0.2, 0.9)))
        if g.m == 0:
            return
        labels = rng.integers(0, g.n, size=g.n)
        gamma = float(rng.uniform(0.0, 2.0))
        ours = modularity(g, Partition.from_labels(labels), gamma)
        # canonical relabeling must not change the value
        ref = modularity_double_sum(g, labels, gamma)
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_singletons_nonpositive(self, rng):
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(2, 9)), 0.5)
            if g.m == 0:
                continue
            q = modularity(g, Partition.singletons(g.n), 1.0)
            d = g.degrees.astype(float)
            expected = -float(np.sum((d / (2 * g.m)) ** 2))
            assert q == pytest.approx(expected, abs=1e-12)
            assert q <= 0

    def test_invariant_under_relabeling(self, rng):
        g = two_triangles_with_bridge()
        labels = np.array([0, 0, 0, 1, 1, 1])
        shuffled = np.array([5, 5, 5, 2, 2, 2])
        assert modularity(g, Partition.from_labels(labels)) == modularity(
            g, Partition.from_labels(shuffled)
        )


class TestGmc:
    def test_two_disjoint_triangles(self):
        g = arbitrary_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        p = gmc(g)
        assert p.labels.tolist() == [0, 0, 0, 1, 1, 1]

    def test_single_edge_merges(self):
        g = arbitrary_graph(2, [(0, 1)])
        p = gmc(g)
        assert p.n_communities == 1

    def test_edgeless_rejected(self):
        with pytest.raises(UndefinedModularityError):
            gmc(arbitrary_graph(3, []))

    def test_never_below_singletons_or_whole(self, rng):
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(2, 10)), 0.4)
            if g.m == 0:
                continue
            q = modularity(g, gmc(g))
            assert q >= modularity(g, Partition.singletons(g.n)) - 1e-12
            assert q >= modularity(g, Partition.whole(g.n)) - 1e-12

    def test_agrees_with_exhaustive_optimum_on_battery(self):
        # connected graphs <= 7 nodes where the modularity optimum is unique
        battery = [
            arbitrary_graph(3, [(0, 1), (1, 2)]),
            arbitrary_graph(4, [(0, 1), (1, 2), (2, 3)]),
            arbitrary_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
            arbitrary_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3)]),
            arbitrary_graph(7, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (5, 6)]),
            arbitrary_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
            arbitrary_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
            arbitrary_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]),
        ]
        checked = 0
        for g in battery:
            best, winners = best_partitions(g)
            canonical = {tuple(Partition.from_labels(w).labels.tolist()) for w in winners}
            if len(canonical) != 1:
                continue  # optimum not unique; outside the battery contract
            p = gmc(g)
            assert modularity(g, p) == pytest.approx(best, abs=1e-9)
            assert tuple(p.labels.tolist()) in canonical
            checked += 1
        assert checked >= 5


def ring(n):
    return arbitrary_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves):
    return arbitrary_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a, b):
    return arbitrary_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def planted_cliques(rng, sizes, bridges):
    """Disjoint cliques of the given sizes in shuffled node order, joined by
    *bridges* random edges between different cliques."""
    n = sum(sizes)
    node = rng.permutation(n)
    block = np.repeat(np.arange(len(sizes)), sizes)
    edges = [(node[u], node[v]) for u in range(n) for v in range(u + 1, n)
             if block[u] == block[v]]
    while bridges:
        u, v = rng.integers(n, size=2)
        if block[u] != block[v]:
            edges.append((node[u], node[v]))
            bridges -= 1
    return arbitrary_graph(n, edges)


def disjoint_union(*graphs):
    edges, start = [], 0
    for g in graphs:
        edges += [(u + start, v + start) for u, v in g.edges.tolist()]
        start += g.n
    return arbitrary_graph(start, edges)


def gmc_cases(rng):
    """Graphs with edges: exact ties (rings, stars, complete and complete
    bipartite graphs), planted cliques, disconnected graphs with isolated
    nodes, random multilingual graphs and dense random graphs."""
    yield from (ring(n) for n in range(3, 13))
    yield from (star(k) for k in range(1, 9))
    yield from (complete_bipartite(a, b) for a in range(1, 6) for b in range(a, 6))
    yield from (arbitrary_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
                for n in range(2, 7))
    for sizes in ((3, 3), (4, 4, 4), (5, 3, 6, 2), (2, 2, 2, 2, 2)):
        for bridges in (0, 1, 3):
            yield planted_cliques(rng, sizes, bridges)
    yield disjoint_union(ring(5), star(3), arbitrary_graph(2, []), ring(4))
    yield disjoint_union(complete_bipartite(3, 3), complete_bipartite(4, 4))
    yield disjoint_union(arbitrary_graph(3, []), arbitrary_graph(2, [(0, 1)]))
    for _ in range(40):
        g = random_multilingual_graph(rng, int(rng.integers(2, 8)), 6,
                                      float(rng.uniform(0.05, 0.5)))
        if g.m:
            yield g
    for _ in range(40):  # dense: many near-equal gains
        g = random_graph(rng, int(rng.integers(5, 10)), float(rng.uniform(0.4, 0.8)))
        if g.m:
            yield g


class TestGmcMatchesReference:
    """``gmc`` keeps the partitions of the pair-rescanning loop exactly."""

    # 1.1 and 1.3 are not powers of two, so the operand order of the gain's
    # product changes its rounding and with it some tie-breaks
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.1, 1.3, 2.0])
    def test_battery(self, gamma):
        rng = np.random.default_rng(2024)
        for g in gmc_cases(rng):
            expected = Partition.from_labels(gmc_reference(g, gamma)).labels
            assert gmc(g, gamma).labels.tolist() == expected.tolist(), (g.edges, gamma)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_perfbench_shaped_corpus(self, gamma):
        from mpalign.graph import build_graph
        from mpalign.synth import SynthConfig, generate

        res = generate(SynthConfig(n_sentences=40, n_languages=8, vocab=40, len_min=6,
                                   len_max=6, edge_drop_rate=0.3, edge_noise_rate=0.05,
                                   seed=101))
        sets = list(res.alignments.values())
        for sid in res.corpus.sentence_ids():
            g = build_graph(sid, res.corpus.sentences[sid], sets)
            expected = Partition.from_labels(gmc_reference(g, gamma)).labels
            assert gmc(g, gamma).labels.tolist() == expected.tolist(), sid


class TestLpc:
    @pytest.mark.parametrize("seed", [0, 1, 7, 99])
    def test_two_disjoint_triangles(self, seed):
        g = arbitrary_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        p = lpc(g, seed=seed)
        assert p.labels.tolist() == [0, 0, 0, 1, 1, 1]

    def test_edgeless_keeps_singletons(self):
        g = arbitrary_graph(4, [])
        assert lpc(g, seed=3).labels.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_star_becomes_one_community(self, seed):
        g = arbitrary_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        assert lpc(g, seed=seed).n_communities == 1

    def test_deterministic_under_seed(self):
        g = two_triangles_with_bridge()
        a = lpc(g, seed=42).labels
        b = lpc(g, seed=42).labels
        assert np.array_equal(a, b)

    def test_stable_labeling(self, rng):
        # at convergence each node's label is among its neighborhood modes
        from oracles import label_propagation_stable

        for seed in range(8):
            g = random_graph(rng, 10, 0.3)
            p = lpc(g, seed=seed)
            assert label_propagation_stable(g.indptr, g.indices, p.labels)

    def test_isolated_nodes_keep_own_label(self):
        g = arbitrary_graph(4, [(0, 1)])
        p = lpc(g, seed=0)
        assert p.labels[2] != p.labels[3]
        assert p.labels[0] == p.labels[1]


class TestRefineEdges:
    def test_path_becomes_triangle(self):
        g = arbitrary_graph(3, [(0, 1), (1, 2)])
        refined = refine_edges(g, Partition.whole(3))
        assert refined.m == 3

    def test_intercommunity_edge_removed(self):
        g = arbitrary_graph(4, [(0, 1), (1, 2), (2, 3)])
        refined = refine_edges(g, Partition(np.array([0, 0, 1, 1])))
        assert {(0, 1), (2, 3)} == {tuple(e) for e in refined.edges.tolist()}

    def test_no_intra_language_edges(self):
        # community {eng:0, eng:1, fra:0} links only across languages
        from mpalign.graph import AlignmentGraph

        g = AlignmentGraph(
            "v1", {"eng": ["a", "b"], "fra": ["x"]}, np.array([[0, 2], [1, 2]])
        )
        refined = refine_edges(g, Partition.whole(3))
        assert {(0, 2), (1, 2)} == {tuple(e) for e in refined.edges.tolist()}

    def test_matches_pair_loop_reference(self, rng):
        for g, raw in refinement_cases(rng):
            p = Partition.from_labels(raw)
            expected = refine_edges_reference(g, p.labels)
            assert refine_edges(g, p).edges.tolist() == expected.tolist()

    def test_components_equal_communities(self, rng):
        for seed in range(6):
            g = random_graph(rng, 9, 0.35)
            if g.m == 0:
                continue
            p = lpc(g, seed=seed)
            refined = refine_edges(g, p)
            comps = connected_components(refined)
            groups = {frozenset(c) for c in comps}
            expected = {frozenset(c) for c in (set(m) for m in p.members())}
            assert groups == expected


class TestCdStats:
    def test_lpc_runs_seeded_per_sentence_as_features(self):
        from mpalign.graph import build_graph
        from mpalign.synth import SynthConfig, generate

        # noisy enough that LPC's result depends on its seed
        res = generate(SynthConfig(n_sentences=10, n_languages=6, vocab=60, len_min=8,
                                   len_max=8, edge_drop_rate=0.3, edge_noise_rate=0.05,
                                   seed=1))
        graphs = [
            build_graph(sid, res.corpus.sentences[sid], list(res.alignments.values()))
            for sid in sorted(res.corpus.sentences)
        ]
        partitions = {g.sentence_id: partition(g, "lpc", 0) for g in graphs}
        counts = [
            len(connected_components(refine_edges(g, partitions[g.sentence_id])))
            for g in graphs
        ]
        stats = cd_stats(graphs, partitions)
        assert stats.mean_components == np.mean(counts)

    def test_trivial_two_components(self):
        g = arbitrary_graph(4, [(0, 1), (2, 3)])
        stats = cd_stats([g], {g.sentence_id: partition(g, "gmc", 0)})
        assert stats.mean_components == 2.0
        assert stats.edge_removal_fraction == 0.0

    def test_planted_concepts_recovered(self):
        from mpalign.synth import SynthConfig, generate
        from mpalign.graph import build_graph

        res = generate(SynthConfig(n_sentences=12, n_languages=5, vocab=40,
                                   len_min=6, len_max=6, seed=3))
        graphs = [
            build_graph(sid, res.corpus.sentences[sid], list(res.alignments.values()))
            for sid in sorted(res.corpus.sentences)
        ]
        stats = cd_stats(graphs, {g.sentence_id: partition(g, "lpc", 0) for g in graphs})
        assert stats.mean_components == pytest.approx(6.0, rel=0.01)
        assert stats.mean_sentence_length == pytest.approx(6.0)
