import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpalign.corpus import BilingualAlignmentSet
from mpalign.graph import (
    AlignmentGraph,
    GraphBuildError,
    build_graph,
    connected_components,
    dump_graph,
)

from oracles import bfs_components, build_graph_reference, random_graph


def aset(pair, sid, links):
    return BilingualAlignmentSet(pair, {sid: set(links)})


class TestBuildGraph:
    def test_three_languages_one_shared_link(self):
        tokens = {"eng": ["a", "b"], "fra": ["x", "y"], "deu": ["p", "q"]}
        sets = [
            aset(("deu", "eng"), "v1", [(0, 0)]),
            aset(("deu", "fra"), "v1", [(0, 0)]),
            aset(("eng", "fra"), "v1", [(0, 0)]),
        ]
        g = build_graph("v1", tokens, sets)
        assert g.n == 6
        assert g.m == 3
        assert len(connected_components(g)) == 4

    def test_no_links(self):
        g = build_graph("v1", {"eng": ["a", "b"], "fra": ["x"]}, [])
        assert g.n == 3 and g.m == 0
        assert len(connected_components(g)) == 3

    def test_two_pairs(self):
        g = build_graph(
            "v1",
            {"eng": ["a", "b"], "fra": ["x", "y"]},
            [aset(("eng", "fra"), "v1", [(0, 0), (1, 1)])],
        )
        comps = connected_components(g)
        assert sorted(len(c) for c in comps) == [2, 2]

    def test_node_count_is_total_tokens(self):
        tokens = {"eng": list("abc"), "fra": list("de"), "deu": list("fghi")}
        g = build_graph("v1", tokens, [])
        assert g.n == 9

    def test_out_of_bounds_link(self):
        with pytest.raises(GraphBuildError, match=r"v1.*\(0,5\).*eng-fra"):
            build_graph(
                "v1",
                {"eng": ["a"], "fra": ["x"]},
                [aset(("eng", "fra"), "v1", [(0, 5)])],
            )

    def test_duplicate_links_merged(self):
        sets = [
            aset(("eng", "fra"), "v1", [(0, 0)]),
            aset(("eng", "fra"), "v1", [(0, 0)]),
        ]
        g = build_graph("v1", {"eng": ["a"], "fra": ["x"]}, sets)
        assert g.m == 1

    def test_supply_order_irrelevant(self):
        tokens = {"eng": ["a", "b"], "fra": ["x"], "deu": ["p"]}
        s1 = aset(("eng", "fra"), "v1", [(0, 0)])
        s2 = aset(("deu", "eng"), "v1", [(0, 1)])
        g1 = build_graph("v1", tokens, [s1, s2])
        g2 = build_graph("v1", tokens, [s2, s1])
        assert np.array_equal(g1.edges, g2.edges)
        assert g1.languages == g2.languages

    def test_swapped_pair_gives_same_graph(self):
        tokens = {"eng": ["a", "b"], "fra": ["x"]}
        fwd = aset(("eng", "fra"), "v1", [(1, 0)])
        g1 = build_graph("v1", tokens, [fwd])
        g2 = build_graph("v1", tokens, [fwd.swapped()])
        assert np.array_equal(g1.edges, g2.edges)

    def test_node_ids_sorted_by_language_then_position(self):
        g = build_graph("v1", {"fra": ["x", "y"], "eng": ["a"]}, [])
        assert g.node(0).language == "eng"
        assert (g.node(1).language, g.node(1).position, g.node(1).word) == ("fra", 0, "x")
        assert g.node(2).position == 1

    def test_degree_sum_is_twice_edges(self, rng):
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 12)), 0.4)
            assert g.degrees.sum() == 2 * g.m


def random_alignment_sets(rng, tokens, sids):
    """Random link sets over every ordered language pair, some present twice,
    each sentence linked with probability 0.7, a swapped copy of a few sets and
    one set whose second language no sentence has."""
    langs = sorted(tokens)
    sets = []
    for la in langs:
        for lb in langs:
            if la == lb or rng.random() < 0.5:
                continue
            links = {
                sid: {(int(rng.integers(len(tokens[la]))), int(rng.integers(len(tokens[lb]))))
                      for _ in range(int(rng.integers(1, 6)))}
                for sid in sids if rng.random() < 0.7
            }
            sets.append(BilingualAlignmentSet((la, lb), links))
            if rng.random() < 0.3:
                sets.append(BilingualAlignmentSet((la, lb), dict(links)))  # duplicate
            if rng.random() < 0.3:
                sets.append(sets[-1].swapped())
    sets.append(BilingualAlignmentSet((langs[0], "zzz"), {sid: {(0, 0)} for sid in sids}))
    return sets


def assert_same_arrays(g, ref):
    for name, expected in ref.items():
        got = getattr(g, name)
        assert got.dtype == expected.dtype == np.int64, name
        assert got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name


class TestBuildGraphMatchesReference:
    """Array-built graphs keep the arrays of the set/sort construction."""

    def test_random_multilingual_sets(self, rng):
        for _ in range(60):
            tokens = {f"l{i:02d}": ["w"] * int(rng.integers(1, 7))
                      for i in range(int(rng.integers(1, 7)))}
            sids = ["s0", "s1", "s2"]
            sets = random_alignment_sets(rng, tokens, sids)
            rng.shuffle(sets)
            for sid in sids:
                ref = build_graph_reference(sid, tokens, sets)
                assert_same_arrays(build_graph(sid, tokens, sets), ref)

    def test_perfbench_shaped_corpus(self):
        from mpalign.synth import SynthConfig, generate

        res = generate(SynthConfig(n_sentences=60, n_languages=8, vocab=40, len_min=6,
                                   len_max=6, edge_drop_rate=0.3, edge_noise_rate=0.05,
                                   seed=101))
        sets = list(res.alignments.values())
        for sid in res.corpus.sentence_ids():
            tokens = res.corpus.sentences[sid]
            ref = build_graph_reference(sid, tokens, sets)
            assert_same_arrays(build_graph(sid, tokens, sets), ref)

    def test_self_loop_rejected(self):
        tokens = {"eng": ["a", "b"], "fra": ["x"]}
        message = r"sentence v1: self-loop on node 1 \(eng position 1\)"
        with pytest.raises(GraphBuildError, match=message):
            AlignmentGraph("v1", tokens, np.array([[0, 2], [1, 1]]))
        g = AlignmentGraph("v1", tokens, np.array([[0, 2]]))
        with pytest.raises(GraphBuildError, match="sentence v1: self-loop"):
            g.with_edges(np.array([[2, 2]]))

    def test_same_language_set_rejected(self):
        sets = [aset(("eng", "eng"), "v1", [(0, 1), (1, 1)])]
        with pytest.raises(GraphBuildError, match="sentence v1: self-loop"):
            build_graph("v1", {"eng": ["a", "b"], "fra": ["x"]}, sets)

    @pytest.mark.parametrize("edge", [[0, 3], [-1, 2]])
    def test_node_id_out_of_range(self, edge):
        with pytest.raises(GraphBuildError, match="sentence v1: edge node id out of range"):
            AlignmentGraph("v1", {"eng": ["a", "b"], "fra": ["x"]}, np.array([edge]))


class TestComponents:
    def test_edgeless_five_singletons(self):
        from oracles import arbitrary_graph

        g = arbitrary_graph(5, [])
        assert connected_components(g) == [{0}, {1}, {2}, {3}, {4}]

    def test_path(self):
        g = build_graph(
            "v1",
            {"eng": ["a", "c"], "fra": ["b"]},
            [aset(("eng", "fra"), "v1", [(0, 0), (1, 0)])],
        )
        assert connected_components(g) == [{0, 1, 2}]

    @given(st.integers(2, 9), st.floats(0.0, 1.0))
    def test_matches_bruteforce(self, n, p):
        rng = np.random.default_rng(int(p * 1000) + n)
        g = random_graph(rng, n, p)
        ours = sorted(map(sorted, connected_components(g)))
        ref = sorted(map(sorted, bfs_components(g)))
        assert ours == ref


class TestDump:
    def test_format(self):
        g = build_graph(
            "v1",
            {"eng": ["a"], "fra": ["x"]},
            [aset(("eng", "fra"), "v1", [(0, 0)])],
        )
        text = dump_graph(g)
        assert "0\teng\t0\ta" in text
        assert "1\tfra\t0\tx" in text
        assert "edge\t0\t1" in text
