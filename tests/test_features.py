import numpy as np
import pytest

from mpalign import gnn
from mpalign.corpus import MultiParallelCorpus
from mpalign.features import (
    BLOCK_WIDTHS,
    POS_TABLE,
    WORD_DIM,
    FeatureStandardizer,
    SentenceFeatures,
    attention_slots,
    build_word_vocab,
    centralities,
    featurize,
    input_dim,
    train_word_embeddings,
)
from mpalign.graph import AlignmentGraph

from oracles import (
    arbitrary_graph,
    assemble_reference,
    attention_slots_reference,
    centralities_bruteforce,
    random_graph,
    random_tree,
)


class TestCentralities:
    def test_three_node_path_values(self):
        g = arbitrary_graph(3, [(0, 1), (1, 2)])
        c = centralities(g)
        # endpoints
        assert c[0, 4] == pytest.approx(0.75)  # harmonic (1 + 1/2) / 2
        assert c[0, 1] == pytest.approx(2 / 3)  # closeness
        # middle node
        assert c[1, 2] == pytest.approx(1.0)  # betweenness normalized
        assert c[1, 3] == pytest.approx(1.0)  # load

    def test_edgeless_all_zero(self):
        g = arbitrary_graph(4, [])
        assert not centralities(g).any()

    def test_matches_bruteforce_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(2, 10))
            g = random_graph(rng, n, float(rng.uniform(0.15, 0.9)))
            ours = centralities(g)
            ref = centralities_bruteforce(g)
            np.testing.assert_allclose(ours, ref, atol=1e-9)

    def test_load_equals_betweenness_on_trees(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            g = random_tree(rng, int(rng.integers(2, 10)))
            c = centralities(g)
            np.testing.assert_allclose(c[:, 2], c[:, 3], atol=1e-12)

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            n = int(rng.integers(3, 9))
            g = random_graph(rng, n, 0.5)
            perm = rng.permutation(n)
            remapped = arbitrary_graph(
                n, [(int(perm[u]), int(perm[v])) for u, v in g.edges]
            )
            np.testing.assert_allclose(
                centralities(g), centralities(remapped)[perm], atol=1e-12
            )


class TestStandardizer:
    def test_constant_feature_maps_to_zero(self):
        mats = [np.ones((4, 5))]
        std = FeatureStandardizer.fit(mats)
        assert np.all(std.std == 1.0)
        assert not std.apply(mats[0]).any()

    def test_two_values(self):
        std = FeatureStandardizer.fit([np.array([[0.0] * 5, [2.0] * 5])])
        z = std.apply(np.array([[0.0] * 5, [2.0] * 5]))
        np.testing.assert_allclose(z[0], -1.0)
        np.testing.assert_allclose(z[1], 1.0)

    def test_population_is_zero_mean_unit_std(self, rng):
        mats = [rng.normal(2.0, 3.0, size=(rng.integers(2, 9), 5)) for _ in range(10)]
        std = FeatureStandardizer.fit(mats)
        z = np.concatenate([std.apply(m) for m in mats])
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-6)


def node_bundle(z_cent, gmc=0, lpc=0, pos=0, lang=0, word=0) -> SentenceFeatures:
    """Nodes with the given centralities and table rows. The assembly reads no
    graph structure, so the graph is edgeless."""
    n = len(z_cent)
    g = AlignmentGraph("s", {"eng": [f"w{i}" for i in range(n)]}, [])
    center, nbr, starts = attention_slots(g)

    def idx(row):
        return np.full(n, row, dtype=np.int64)

    return SentenceFeatures(
        g, np.asarray(z_cent, dtype=np.float64), idx(gmc), idx(lpc), idx(pos),
        idx(lang), idx(word), center, nbr, starts,
    )


def assembled(ablate: tuple[str, ...], sf: SentenceFeatures, n_lang=2, vocab=3, seed=0):
    """The rows ``gnn.assemble`` builds for *sf*, and the parameters it read:
    ``init_params``' tables, with non-zero centrality biases."""
    cfg = gnn.TrainConfig(hidden=8, ablate=ablate)
    params = gnn.init_params(cfg, n_lang, vocab, np.random.default_rng(seed))
    shape = params["feat.cent_b"].shape
    params["feat.cent_b"] = np.random.default_rng(seed + 1).normal(size=shape).astype(np.float32)
    return gnn.assemble(sf, gnn.as_leaves(params), ablate).data, params


class TestAssembly:
    def test_default_dimension_is_236(self):
        assert input_dim(()) == 236
        out, _ = assembled((), node_bundle(np.zeros((3, 5))))
        assert out.shape == (3, 236)

    @pytest.mark.parametrize("block", sorted(BLOCK_WIDTHS))
    def test_each_ablation_removes_its_width(self, block):
        assert input_dim((block,)) == 236 - BLOCK_WIDTHS[block]
        out, _ = assembled((block,), node_bundle(np.zeros((3, 5))))
        assert out.shape == (3, 236 - BLOCK_WIDTHS[block])

    def test_identical_nodes_identical_vectors(self):
        out, _ = assembled((), node_bundle(np.full((2, 5), 0.3), 4, 5, 6, 1, 2))
        np.testing.assert_array_equal(out[0], out[1])

    def test_unknown_word_uses_unk_row(self):
        # rows 0..2 are words, 3 is UNK
        out, params = assembled((), node_bundle(np.zeros((1, 5)), word=3), vocab=3)
        assert params["feat.word"].shape[0] == 4
        np.testing.assert_array_equal(out[0, -BLOCK_WIDTHS["word"] :], params["feat.word"][3])

    def test_block_order(self):
        z = np.random.default_rng(4).normal(size=(1, 5))
        sf = node_bundle(z, gmc=3, lpc=5, pos=7, lang=1, word=2)
        out, params = assembled((), sf)
        cent = np.concatenate(
            [z[0, k] * params["feat.cent_w"][k] + params["feat.cent_b"][k] for k in range(5)]
        )
        np.testing.assert_allclose(out[0, :20], cent, rtol=1e-6)
        np.testing.assert_array_equal(out[0, 20:52], params["feat.comm_gmc"][3])
        np.testing.assert_array_equal(out[0, 52:84], params["feat.comm_lpc"][5])
        np.testing.assert_array_equal(out[0, 84:116], params["feat.pos"][7])
        np.testing.assert_array_equal(out[0, 116:136], params["feat.lang"][1])
        np.testing.assert_array_equal(out[0, 136:236], params["feat.word"][2])
        np.testing.assert_allclose(
            out, assemble_reference(sf, params, ()), rtol=1e-6
        )


def corpus_from(sentences):
    langs = sorted({lang for sent in sentences.values() for lang in sent})
    return MultiParallelCorpus(langs, sentences)


class TestWordEmbeddings:
    def test_same_sentence_set_same_vector(self):
        # "same"/"pareil" share a sentence set; a filler per sentence keeps the
        # matrix at full column rank, so every singular value kept is nonzero
        sentences = {}
        for i in range(8):
            eng = ["same"] if i < 4 else [f"e{i}"]
            fra = ["pareil"] if i < 4 else [f"f{i}"]
            sentences[f"v{i}"] = {"eng": eng + [f"pad{i}"], "fra": fra}
        corpus = corpus_from(sentences)
        ids = corpus.sentence_ids()
        vocab = build_word_vocab(corpus, ids)
        table = train_word_embeddings(corpus, vocab, ids)
        a = table[vocab[("eng", "same")]]
        b = table[vocab[("fra", "pareil")]]
        np.testing.assert_allclose(a, b, atol=1e-8)
        assert np.linalg.norm(a) > 0
        cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cos == pytest.approx(1.0, abs=1e-6)

    def test_absent_word_not_in_vocab(self):
        sentences = {"v1": {"eng": ["a"], "fra": ["x"]}}
        corpus = corpus_from(sentences)
        vocab = build_word_vocab(corpus, ["v1"])
        assert ("eng", "zzz") not in vocab

    def test_rank_padding_when_vocab_small(self):
        sentences = {"v1": {"eng": ["a"], "fra": ["x"]}, "v2": {"eng": ["a"], "fra": ["y"]}}
        corpus = corpus_from(sentences)
        vocab = build_word_vocab(corpus, ["v1", "v2"])
        table = train_word_embeddings(corpus, vocab, ["v1", "v2"])
        assert table.shape == (len(vocab) + 1, WORD_DIM)
        assert not table[:, 50:].any()  # rank-deficient tail is zero-padded
        assert not table[-1].any()  # UNK row

    def test_translation_pairs_closer_than_random(self):
        from mpalign.synth import SynthConfig, generate

        res = generate(SynthConfig(n_sentences=80, n_languages=3, vocab=30,
                                   len_min=4, len_max=7, seed=9))
        ids = res.corpus.sentence_ids()
        vocab = build_word_vocab(res.corpus, ids)
        table = train_word_embeddings(res.corpus, vocab, ids)

        def cos(a, b):
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            if na == 0 or nb == 0:
                return 0.0
            return float(a @ b / (na * nb))

        rng = np.random.default_rng(0)
        pair_cos, rand_cos = [], []
        words = sorted(vocab)
        for c in range(30):
            ka, kb = ("l00", f"l00w{c:04d}"), ("l01", f"l01w{c:04d}")
            if ka in vocab and kb in vocab:
                pair_cos.append(cos(table[vocab[ka]], table[vocab[kb]]))
        for _ in range(200):
            ka = words[rng.integers(len(words))]
            kb = words[rng.integers(len(words))]
            if ka[0] != kb[0]:
                rand_cos.append(cos(table[vocab[ka]], table[vocab[kb]]))
        assert np.mean(pair_cos) > np.mean(rand_cos) + 0.2

    def test_deterministic(self):
        sentences = {
            f"v{i}": {"eng": [f"w{i % 4}", "k"], "fra": [f"u{i % 3}"]} for i in range(10)
        }
        corpus = corpus_from(sentences)
        ids = corpus.sentence_ids()
        vocab = build_word_vocab(corpus, ids)
        t1 = train_word_embeddings(corpus, vocab, ids)
        t2 = train_word_embeddings(corpus, vocab, ids)
        assert np.array_equal(t1, t2)

    def test_sparse_svd_matches_dense(self, monkeypatch):
        from mpalign import features
        from mpalign.synth import SynthConfig, generate

        res = generate(SynthConfig(n_sentences=120, n_languages=4, vocab=60, seed=3))
        ids = res.corpus.sentence_ids()
        vocab = build_word_vocab(res.corpus, ids)
        dense = train_word_embeddings(res.corpus, vocab, ids)
        monkeypatch.setattr(features, "SVD_DENSE_CUTOFF", 0)
        sparse = train_word_embeddings(res.corpus, vocab, ids)
        assert sparse.shape == dense.shape and dense.any()
        np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-6)


class TestFeaturize:
    def test_bundle_shapes_and_clamps(self):
        g = AlignmentGraph(
            "v1",
            {"eng": [f"w{i}" for i in range(200)], "fra": ["x"]},
            np.array([[0, 200]]),
        )
        std = FeatureStandardizer(np.zeros(5), np.ones(5))
        sf = featurize(g, std, {"eng": 0, "fra": 1}, {}, 0)
        assert sf.z_cent.shape == (201, 5)
        assert sf.pos_idx.max() == POS_TABLE - 1  # clamped
        assert sf.word_idx.max() == 0  # everything unknown -> UNK row 0 of empty vocab
        assert sf.att_center.shape == sf.att_nbr.shape
        assert sf.att_starts.shape == (201,)

    def test_unknown_language_rejected(self):
        g = AlignmentGraph("v1", {"eng": ["a"], "fra": ["x"]}, np.array([[0, 1]]))
        std = FeatureStandardizer(np.zeros(5), np.ones(5))
        with pytest.raises(ValueError, match="language"):
            featurize(g, std, {"eng": 0}, {}, 0)


class TestAttentionSlots:
    @staticmethod
    def assert_matches_reference(g):
        got = attention_slots(g)
        want = attention_slots_reference(g)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64
            np.testing.assert_array_equal(a, b)

    def test_matches_reference_on_random_graphs(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 25))
            self.assert_matches_reference(random_graph(rng, n, float(rng.uniform(0.0, 0.6))))

    def test_isolated_nodes_single_node_and_edgeless(self):
        # nodes 0, 3 and 5 are isolated, at the start, middle and end
        self.assert_matches_reference(arbitrary_graph(6, [(1, 2), (1, 4), (2, 4)]))
        self.assert_matches_reference(arbitrary_graph(1, []))
        self.assert_matches_reference(arbitrary_graph(5, []))
        center, nbr, starts = attention_slots(arbitrary_graph(3, []))
        np.testing.assert_array_equal(center, [0, 1, 2])
        np.testing.assert_array_equal(nbr, [0, 1, 2])
        np.testing.assert_array_equal(starts, [0, 1, 2])
