import numpy as np
import pytest

from mpalign.corpus import MultiParallelCorpus
from mpalign.features import (
    BLOCK_WIDTHS,
    FeatureConfig,
    FeatureEmbeddings,
    FeatureStandardizer,
    assemble_features,
    build_word_vocab,
    centralities,
    featurize,
    per_graph_standardize,
    train_word_embeddings,
)
from mpalign.graph import AlignmentGraph

from oracles import arbitrary_graph, centralities_bruteforce, random_graph, random_tree


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

    def test_per_graph_mode(self, rng):
        x = rng.normal(size=(6, 5))
        z = per_graph_standardize(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)


def tiny_embeddings(config: FeatureConfig, n_lang=2, vocab=3, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureEmbeddings(
        cent_w=rng.normal(size=(5, config.cent_dim)),
        cent_b=rng.normal(size=(5, config.cent_dim)),
        comm_gmc=rng.normal(size=(config.comm_table, config.comm_dim)),
        comm_lpc=rng.normal(size=(config.comm_table, config.comm_dim)),
        pos=rng.normal(size=(config.pos_table, config.pos_dim)),
        lang=rng.normal(size=(n_lang, config.lang_dim)),
        word=rng.normal(size=(vocab + 1, config.word_dim)),
    )


class TestAssembly:
    def assemble(self, config, n=3):
        emb = tiny_embeddings(config)
        z = np.linspace(-1, 1, n * 5).reshape(n, 5)
        idx = np.zeros(n, dtype=np.int64)
        return assemble_features(z, idx, idx, idx, idx, idx, emb, config)

    def test_default_dimension_is_236(self):
        assert FeatureConfig().input_dim == 236
        assert self.assemble(FeatureConfig()).shape == (3, 236)

    @pytest.mark.parametrize("block", sorted(BLOCK_WIDTHS))
    def test_each_ablation_removes_its_width(self, block):
        config = FeatureConfig(ablate=(block,))
        assert config.input_dim == 236 - BLOCK_WIDTHS[block]
        assert self.assemble(config).shape[1] == 236 - BLOCK_WIDTHS[block]

    def test_identical_nodes_identical_vectors(self):
        config = FeatureConfig()
        emb = tiny_embeddings(config)
        z = np.zeros((2, 5))
        idx = np.zeros(2, dtype=np.int64)
        out = assemble_features(z, idx, idx, idx, idx, idx, emb, config)
        np.testing.assert_array_equal(out[0], out[1])

    def test_unknown_word_uses_unk_row(self):
        config = FeatureConfig()
        emb = tiny_embeddings(config, vocab=3)
        z = np.zeros((1, 5))
        idx = np.zeros(1, dtype=np.int64)
        unk = np.array([3], dtype=np.int64)  # rows 0..2 are words, 3 is UNK
        out = assemble_features(z, idx, idx, idx, idx, unk, emb, config)
        np.testing.assert_array_equal(out[0, -config.word_dim :], emb.word[3])

    def test_unknown_language_rejected(self):
        config = FeatureConfig()
        emb = tiny_embeddings(config, n_lang=2)
        z = np.zeros((1, 5))
        idx = np.zeros(1, dtype=np.int64)
        bad = np.array([7], dtype=np.int64)
        with pytest.raises(ValueError, match="language index"):
            assemble_features(z, idx, idx, idx, bad, idx, emb, config)

    def test_block_order(self):
        config = FeatureConfig()
        emb = tiny_embeddings(config)
        z = np.ones((1, 5))
        idx = np.zeros(1, dtype=np.int64)
        out = assemble_features(z, idx, idx, idx, idx, idx, emb, config)
        cent = np.concatenate(
            [z[:, k] * emb.cent_w[k] + emb.cent_b[k] for k in range(5)]
        )
        np.testing.assert_allclose(out[0, :20], cent)
        np.testing.assert_array_equal(out[0, 20:52], emb.comm_gmc[0])
        np.testing.assert_array_equal(out[0, 52:84], emb.comm_lpc[0])
        np.testing.assert_array_equal(out[0, 84:116], emb.pos[0])
        np.testing.assert_array_equal(out[0, 116:136], emb.lang[0])
        np.testing.assert_array_equal(out[0, 136:236], emb.word[0])


def corpus_from(sentences):
    langs = sorted({lang for sent in sentences.values() for lang in sent})
    return MultiParallelCorpus(langs, sentences)


class TestWordEmbeddings:
    def test_same_sentence_set_same_vector(self):
        # "same"/"pareil" share a sentence set; fillers make the matrix non-uniform
        sentences = {}
        for i in range(8):
            eng = ["same"] if i < 4 else [f"e{i}"]
            fra = ["pareil"] if i < 4 else [f"f{i}"]
            sentences[f"v{i}"] = {"eng": eng + [f"pad{i % 2}"], "fra": fra}
        corpus = corpus_from(sentences)
        vocab = build_word_vocab(corpus)
        table = train_word_embeddings(corpus, vocab, dim=4)
        a = table[vocab[("eng", "same")]]
        b = table[vocab[("fra", "pareil")]]
        np.testing.assert_allclose(a, b, atol=1e-8)
        assert np.linalg.norm(a) > 0
        cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cos == pytest.approx(1.0, abs=1e-6)

    def test_absent_word_not_in_vocab(self):
        sentences = {"v1": {"eng": ["a"], "fra": ["x"]}}
        corpus = corpus_from(sentences)
        vocab = build_word_vocab(corpus, sentence_ids=["v1"])
        assert ("eng", "zzz") not in vocab

    def test_rank_padding_when_vocab_small(self):
        sentences = {"v1": {"eng": ["a"], "fra": ["x"]}, "v2": {"eng": ["a"], "fra": ["y"]}}
        corpus = corpus_from(sentences)
        vocab = build_word_vocab(corpus)
        table = train_word_embeddings(corpus, vocab, dim=100)
        assert table.shape == (len(vocab) + 1, 100)
        assert not table[:, 50:].any()  # rank-deficient tail is zero-padded
        assert not table[-1].any()  # UNK row

    def test_translation_pairs_closer_than_random(self):
        from mpalign.synth import SynthConfig, generate

        res = generate(SynthConfig(n_sentences=80, n_languages=3, vocab=30,
                                   len_min=4, len_max=7, seed=9))
        vocab = build_word_vocab(res.corpus)
        table = train_word_embeddings(res.corpus, vocab, dim=40)

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
        vocab = build_word_vocab(corpus)
        t1 = train_word_embeddings(corpus, vocab, dim=8)
        t2 = train_word_embeddings(corpus, vocab, dim=8)
        assert np.array_equal(t1, t2)


class TestFeaturize:
    def test_bundle_shapes_and_clamps(self):
        g = AlignmentGraph(
            "v1",
            {"eng": [f"w{i}" for i in range(200)], "fra": ["x"]},
            np.array([[0, 200]]),
        )
        std = FeatureStandardizer(np.zeros(5), np.ones(5))
        config = FeatureConfig()
        sf = featurize(g, std, {"eng": 0, "fra": 1}, {}, config)
        assert sf.z_cent.shape == (201, 5)
        assert sf.pos_idx.max() == config.pos_table - 1  # clamped
        assert sf.word_idx.max() == 0  # everything unknown -> UNK row 0 of empty vocab
        assert sf.att_center.shape == sf.att_nbr.shape
        assert sf.att_starts.shape == (201,)

    def test_unknown_language_rejected(self):
        g = AlignmentGraph("v1", {"eng": ["a"], "fra": ["x"]}, np.array([[0, 1]]))
        std = FeatureStandardizer(np.zeros(5), np.ones(5))
        with pytest.raises(ValueError, match="language"):
            featurize(g, std, {"eng": 0}, {}, FeatureConfig())
