import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpalign import gnn
from mpalign.features import FeatureStandardizer, centralities, featurize
from mpalign.graph import AlignmentGraph
from mpalign.inference import (
    gdfa,
    score_matrices,
    score_matrix,
    threshold_directional,
    threshold_gdfa,
)

from oracles import random_multilingual_graph
from test_gnn import make_bundle

link_sets = st.sets(st.tuples(st.integers(0, 5), st.integers(0, 7)), max_size=10)


class TestScoreMatrix:
    def setup_method(self):
        self.sf, vocab = make_bundle(n_eng=3, n_fra=4,
                                     edges=[[0, 3], [1, 4], [2, 5], [2, 6]])
        cfg = gnn.TrainConfig(hidden=16)
        self.params = gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(8))

    def test_shape(self):
        s = score_matrix(self.sf, self.params, "eng", "fra", ())
        assert s.shape == (3, 4)
        assert s.dtype == np.float64

    def test_transpose_symmetry_exact(self):
        s_xy = score_matrix(self.sf, self.params, "eng", "fra", ())
        s_yx = score_matrix(self.sf, self.params, "fra", "eng", ())
        assert np.array_equal(s_xy, s_yx.T)

    def test_zero_model_gives_zero_logits(self):
        zero = {k: np.zeros_like(v) for k, v in self.params.items()}
        s = score_matrix(self.sf, zero, "eng", "fra", ())
        assert not s.any()

    def test_missing_language_rejected(self):
        with pytest.raises(ValueError, match="deu"):
            score_matrix(self.sf, self.params, "eng", "deu", ())


def mixed_batch(n_sentences=9, hidden=32, seed=4):
    """Featurized random sentences of 1 to 9 tokens per language, and a model."""
    rng = np.random.default_rng(seed)
    graphs = [
        AlignmentGraph(f"s{k}", g.tokens, g.edges)
        for k, g in (
            (k, random_multilingual_graph(rng, 3, 9, 0.3)) for k in range(n_sentences)
        )
    ]
    langs = sorted(graphs[0].offsets)
    vocab = {w: i for i, w in enumerate(sorted(
        {(lang, tok) for g in graphs for lang in langs for tok in g.tokens[lang]}))}
    std = FeatureStandardizer.fit([centralities(g) for g in graphs])
    feats = [featurize(g, std, {lang: i for i, lang in enumerate(langs)}, vocab, 0)
             for g in graphs]
    cfg = gnn.TrainConfig(hidden=hidden)
    params = gnn.init_params(cfg, len(langs), len(vocab), rng)
    return feats, params


class TestScoreMatrices:
    def setup_method(self):
        self.feats, self.params = mixed_batch()

    def test_batch_has_mixed_lengths(self):
        lengths = [(sf.graph.offsets["l00"][1], sf.graph.offsets["l01"][1])
                   for sf in self.feats]
        assert min(m for m, _ in lengths) < 4 <= max(m for m, _ in lengths)
        assert any(m != l for m, l in lengths)

    @pytest.mark.parametrize("pair", [("l00", "l01"), ("l02", "l00")])
    def test_each_sentence_as_scored_alone(self, pair):
        batch = score_matrices(self.feats, self.params, *pair, ())
        assert len(batch) == len(self.feats)
        for sf, s in zip(self.feats, batch):
            alone = score_matrix(sf, self.params, *pair, ())
            assert s.shape == alone.shape
            np.testing.assert_allclose(s, alone, rtol=1e-6)
            assert threshold_gdfa(s, 2.0) == threshold_gdfa(alone, 2.0)

    def test_transpose_symmetry(self):
        # float32 rounding of the last decoder product depends on a pair's
        # position among the pairs, so for some shapes this is not exact
        xy = score_matrices(self.feats, self.params, "l00", "l01", ())
        yx = score_matrices(self.feats, self.params, "l01", "l00", ())
        for a, b in zip(xy, yx):
            np.testing.assert_allclose(a, b.T, rtol=1e-6)

    def test_one_encode_per_sentence_and_four_projections(self, monkeypatch):
        calls = {"encode": 0, "project": []}
        encode, project = gnn.encode, gnn.project

        def counting_encode(*args, **kwargs):
            calls["encode"] += 1
            return encode(*args, **kwargs)

        def counting_project(h, P, half):
            calls["project"].append((len(h.data), half))
            return project(h, P, half)

        monkeypatch.setattr(gnn, "encode", counting_encode)
        monkeypatch.setattr(gnn, "project", counting_project)
        score_matrices(self.feats, self.params, "l00", "l01", ())
        assert calls["encode"] == len(self.feats)
        m = sum(sf.graph.offsets["l00"][1] for sf in self.feats)
        l = sum(sf.graph.offsets["l01"][1] for sf in self.feats)
        assert sorted(calls["project"]) == sorted(
            [(m, "top"), (m, "bottom"), (l, "top"), (l, "bottom")]
        )

    def test_no_sentences(self):
        assert score_matrices([], self.params, "l00", "l01", ()) == []

    def test_missing_language_rejected_before_encoding(self, monkeypatch):
        monkeypatch.setattr(gnn, "encode", None)
        with pytest.raises(ValueError, match="l07"):
            score_matrices(self.feats, self.params, "l00", "l07", ())


class TestThreshold:
    def test_spec_row(self):
        s = np.array([[2.0, 0.0, 0.0, 0.0]])
        sm = np.exp(s[0] - 2.0)
        sm /= sm.sum()
        assert sm[0] == pytest.approx(0.7112, abs=1e-4)
        assert threshold_directional(s, 2.0) == {(0, 0)}

    def test_uniform_row_yields_nothing(self):
        assert threshold_directional(np.zeros((3, 4)), 2.0) == set()

    def test_alpha_one_keeps_argmax(self, rng):
        for _ in range(25):
            s = rng.normal(size=(4, 6))
            links = threshold_directional(s, 1.0)
            rows = {i for i, _ in links}
            assert rows == set(range(4))
            for i, j in links:
                assert j == int(np.argmax(s[i]))

    def test_at_most_one_link_per_row(self, rng):
        for _ in range(20):
            s = rng.normal(size=(5, 7))
            for m in (s, s.T):
                links = threshold_directional(m, 1.5)
                assert len({i for i, _ in links}) == len(links)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            threshold_directional(np.zeros((2, 2)), 0.0)


class TestGdfa:
    def test_intersection_equals_union(self):
        assert gdfa({(0, 0)}, {(0, 0)}, 2, 2) == {(0, 0)}

    def test_grow_diag_hand_trace(self):
        out = gdfa({(0, 0), (1, 1)}, {(0, 0), (1, 2)}, 2, 3)
        assert out == {(0, 0), (1, 1), (1, 2)}

    def test_disjoint_final_and(self):
        out = gdfa({(0, 0)}, {(3, 4)}, 5, 6)
        assert out == {(0, 0), (3, 4)}

    def test_final_and_scan_order(self):
        # no intersection, no adjacency: forward first, each blocks its row/col
        out = gdfa({(0, 0), (0, 3)}, {(2, 0)}, 4, 5)
        # candidates scanned: (0,0) then (0,3) (row 0 taken) then (2,0) (col 0 taken)
        assert out == {(0, 0)}

    def test_forward_equals_backward_fixpoint(self, rng):
        for _ in range(20):
            links = {
                (int(rng.integers(4)), int(rng.integers(5))) for _ in range(6)
            }
            assert gdfa(links, links, 4, 5) == links

    @given(link_sets, link_sets)
    def test_sandwich_property(self, fwd, bwd):
        out = gdfa(fwd, bwd, 6, 8)
        assert fwd & bwd <= out <= fwd | bwd

    @given(link_sets, link_sets, link_sets)
    def test_sandwich_with_extra_union(self, fwd, bwd, extra):
        out = gdfa(fwd, bwd, 6, 8, extra_union=extra)
        assert fwd & bwd <= out <= fwd | bwd | extra

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            gdfa({(9, 0)}, set(), 5, 5)

    def test_iteration_order_independent(self, rng):
        # randomized candidate enumeration must not change the fixpoint:
        # exercised by shuffling the set construction order
        for trial in range(50):
            fwd = {(int(rng.integers(5)), int(rng.integers(6))) for _ in range(5)}
            bwd = {(int(rng.integers(5)), int(rng.integers(6))) for _ in range(5)}
            baseline = gdfa(fwd, bwd, 5, 6)
            for _ in range(3):
                fl = list(fwd)
                bl = list(bwd)
                rng.shuffle(fl)
                rng.shuffle(bl)
                assert gdfa(set(fl), set(bl), 5, 6) == baseline


class TestTgdfa:
    def test_planted_indicator_matrix_recovered(self, rng):
        # when scores are a planted permutation indicator, thresholding plus
        # gdfa return exactly the planted bijection
        for _ in range(10):
            n = 5
            perm = rng.permutation(n)
            s = np.full((n, n), -4.0)
            for i, j in enumerate(perm):
                s[i, j] = 4.0
            fwd = threshold_directional(s, 2.0)
            bwd = {(i, j) for j, i in threshold_directional(s.T, 2.0)}
            out = gdfa(fwd, bwd, n, n)
            assert out == {(i, int(j)) for i, j in enumerate(perm)}

    def test_tgdfa_runs_end_to_end(self):
        sf, vocab = make_bundle()
        cfg = gnn.TrainConfig(hidden=16)
        params = gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(0))
        links = threshold_gdfa(score_matrix(sf, params, "eng", "fra", ()), 1.0)
        for i, j in links:
            assert 0 <= i < 3 and 0 <= j < 3

    def test_plus_orig_with_empty_directional_sets(self):
        # untrained symmetric-ish model with alpha too high for any link:
        # final-and walks the original links in scan order
        sf, vocab = make_bundle()
        cfg = gnn.TrainConfig(hidden=16)
        params = {k: np.zeros_like(v) for k, v in
                  gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(0)).items()}
        orig = {(0, 0), (0, 1), (1, 1), (2, 2)}
        s = score_matrix(sf, params, "eng", "fra", ())
        links = threshold_gdfa(s, 2.0, orig_gdfa=orig)
        # zero model scores are uniform -> no forward/backward links survive
        assert links == {(0, 0), (1, 1), (2, 2)}

    def test_plus_orig_never_leaves_sandwich(self, rng):
        sf, vocab = make_bundle()
        cfg = gnn.TrainConfig(hidden=16)
        params = gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(5))
        s = score_matrix(sf, params, "eng", "fra", ())
        fwd = threshold_directional(s, 2.0)
        bwd = {(i, j) for j, i in threshold_directional(s.T, 2.0)}
        orig = {(0, 0), (2, 1)}
        out = threshold_gdfa(s, 2.0, orig_gdfa=orig)
        assert fwd & bwd <= out <= fwd | bwd | orig
