import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpalign import gnn
from mpalign.inference import (
    gdfa,
    score_matrix,
    tgdfa,
    threshold_directional,
)

from test_gnn import make_bundle

link_sets = st.sets(st.tuples(st.integers(0, 5), st.integers(0, 7)), max_size=10)


class TestScoreMatrix:
    def setup_method(self):
        self.sf, vocab, self.fc = make_bundle(n_eng=3, n_fra=4,
                                              edges=[[0, 3], [1, 4], [2, 5], [2, 6]])
        cfg = gnn.TrainConfig(hidden=16, feature=self.fc)
        self.params = gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(8))

    def test_shape(self):
        s = score_matrix(self.sf, self.params, "eng", "fra", self.fc)
        assert s.values.shape == (3, 4)

    def test_transpose_symmetry_exact(self):
        s_xy = score_matrix(self.sf, self.params, "eng", "fra", self.fc)
        s_yx = score_matrix(self.sf, self.params, "fra", "eng", self.fc)
        assert np.array_equal(s_xy.values, s_yx.values.T)

    def test_zero_model_prob_mode_gives_half(self):
        zero = {k: np.zeros_like(v) for k, v in self.params.items()}
        s = score_matrix(self.sf, zero, "eng", "fra", self.fc, mode="prob")
        np.testing.assert_allclose(s.values, 0.5, atol=1e-12)

    def test_missing_language_rejected(self):
        with pytest.raises(ValueError, match="deu"):
            score_matrix(self.sf, self.params, "eng", "deu", self.fc)


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
            s = rng.normal(size=(5, 5))
            fwd = threshold_directional(s, 1.5, "forward")
            bwd = threshold_directional(s, 1.5, "backward")
            assert len({i for i, _ in fwd}) == len(fwd)
            assert len({j for _, j in bwd}) == len(bwd)

    def test_backward_is_transposed_forward(self, rng):
        s = rng.normal(size=(4, 6))
        bwd = threshold_directional(s, 1.2, "backward")
        fwd_t = threshold_directional(s.T, 1.2, "forward")
        assert bwd == {(i, j) for j, i in fwd_t}

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
            fwd = threshold_directional(s, 2.0, "forward")
            bwd = threshold_directional(s, 2.0, "backward")
            out = gdfa(fwd, bwd, n, n)
            assert out == {(i, int(j)) for i, j in enumerate(perm)}

    def test_tgdfa_runs_end_to_end(self):
        sf, vocab, fc = make_bundle()
        cfg = gnn.TrainConfig(hidden=16, feature=fc)
        params = gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(0))
        links = tgdfa(sf, params, "eng", "fra", fc, alpha=1.0)
        for i, j in links:
            assert 0 <= i < 3 and 0 <= j < 3

    def test_tgdfa_probability_mode(self):
        sf, vocab, fc = make_bundle()
        cfg = gnn.TrainConfig(hidden=16, feature=fc)
        params = gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(0))
        links = tgdfa(sf, params, "eng", "fra", fc, alpha=1.0, mode="prob")
        for i, j in links:
            assert 0 <= i < 3 and 0 <= j < 3

    def test_plus_orig_with_empty_directional_sets(self):
        # untrained symmetric-ish model with alpha too high for any link:
        # final-and walks the original links in scan order
        sf, vocab, fc = make_bundle()
        cfg = gnn.TrainConfig(hidden=16, feature=fc)
        params = {k: np.zeros_like(v) for k, v in
                  gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(0)).items()}
        orig = {(0, 0), (0, 1), (1, 1), (2, 2)}
        links = tgdfa(sf, params, "eng", "fra", fc, alpha=2.0, orig_gdfa=orig)
        # zero model scores are uniform -> no forward/backward links survive
        assert links == {(0, 0), (1, 1), (2, 2)}

    def test_plus_orig_never_leaves_sandwich(self, rng):
        sf, vocab, fc = make_bundle()
        cfg = gnn.TrainConfig(hidden=16, feature=fc)
        params = gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(5))
        s = score_matrix(sf, params, "eng", "fra", fc)
        fwd = threshold_directional(s.values, 2.0, "forward")
        bwd = threshold_directional(s.values, 2.0, "backward")
        orig = {(0, 0), (2, 1)}
        out = tgdfa(sf, params, "eng", "fra", fc, alpha=2.0, orig_gdfa=orig)
        assert fwd & bwd <= out <= fwd | bwd | orig
