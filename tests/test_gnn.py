import numpy as np
import pytest

from mpalign import autodiff as ad
from mpalign import gnn
from mpalign.autodiff import Tensor
from mpalign.features import (
    FeatureStandardizer,
    SentenceFeatures,
    attention_slots,
    centralities,
    featurize,
)
from mpalign.graph import AlignmentGraph

from oracles import (
    adamw_reference,
    arbitrary_graph,
    assemble_reference,
    decode_loss_two_calls,
    gat_scalar,
    gradient_check_reference,
    loss_scalar,
    random_graph,
    sample_negatives_reference,
)


def make_bundle(seed=0, n_eng=3, n_fra=3, edges=None):
    if edges is None:
        edges = [[0, 3], [1, 4], [2, 5], [0, 4]]
    g = AlignmentGraph(
        "s1",
        {
            "eng": [f"e{i}" for i in range(n_eng)],
            "fra": [f"f{i}" for i in range(n_fra)],
        },
        np.array(edges),
    )
    std = FeatureStandardizer.fit([centralities(g)])
    vocab = {("eng", f"e{i}"): i for i in range(n_eng)}
    vocab.update({("fra", f"f{i}"): n_eng + i for i in range(n_fra)})
    sf = featurize(g, std, {"eng": 0, "fra": 1}, vocab, seed)
    return sf, vocab


def raw_bundle(g: AlignmentGraph, dim=7, seed=0) -> SentenceFeatures:
    """Bundle with arbitrary constant features, for structural model tests."""
    rng = np.random.default_rng(seed)
    center, nbr, starts = attention_slots(g)
    return SentenceFeatures(
        graph=g,
        z_cent=rng.normal(size=(g.n, 5)),
        comm_gmc=np.zeros(g.n, dtype=np.int64),
        comm_lpc=np.zeros(g.n, dtype=np.int64),
        pos_idx=np.minimum(g.node_pos, 159),
        lang_idx=g.node_lang.copy(),
        word_idx=np.zeros(g.n, dtype=np.int64),
        att_center=center,
        att_nbr=nbr,
        att_starts=starts,
    )


class TestGatLayer:
    def gat_forward(self, x, w, a, g):
        center, nbr, starts = attention_slots(g)
        sf = raw_bundle(g)
        xt = Tensor(x)
        out = gnn.gat_layer(xt, Tensor(w), Tensor(a), sf)
        return out.data

    def test_isolated_node_is_linear(self, rng):
        g = arbitrary_graph(3, [(0, 1)])  # node 2 isolated
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 5))
        a = rng.normal(size=(10, 1))
        out = self.gat_forward(x, w, a, g)
        np.testing.assert_allclose(out[2], x[2] @ w, atol=1e-12)

    def test_identical_features_average(self, rng):
        g = arbitrary_graph(2, [(0, 1)])
        x = np.tile(rng.normal(size=(1, 4)), (2, 1))
        w = rng.normal(size=(4, 5))
        a = rng.normal(size=(10, 1))
        out = self.gat_forward(x, w, a, g)
        np.testing.assert_allclose(out, x @ w, atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            g = random_graph(rng, 5, 0.6)
            x = rng.normal(size=(5, 6))
            w = rng.normal(size=(6, 4))
            a = rng.normal(size=(8, 1))
            ours = self.gat_forward(x, w, a, g)
            ref = gat_scalar(x, w, a, g)
            np.testing.assert_allclose(ours, ref, atol=1e-6)

    def test_attention_sums_to_one(self):
        sf, vocab = make_bundle()
        cfg = gnn.TrainConfig(hidden=16)
        params = gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(0))
        attn = []
        gnn.encode(sf, gnn.as_leaves(params), (), attn_out=attn)
        for alpha in attn:
            sums = np.add.reduceat(alpha, sf.att_starts, axis=0)
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)


class TestEncode:
    def test_zero_params_zero_output(self):
        sf, vocab = make_bundle()
        cfg = gnn.TrainConfig(hidden=8)
        params = gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(0))
        params = {k: np.zeros_like(v) for k, v in params.items()}
        out = gnn.encode(sf, gnn.as_leaves(params), ())
        assert not out.data.any()

    def test_output_shape(self):
        sf, vocab = make_bundle()
        cfg = gnn.TrainConfig(hidden=512)
        params = gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(0))
        out = gnn.encode(sf, gnn.as_leaves(params), ())
        assert out.data.shape == (6, 512)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 6, 0.5)
        sf = raw_bundle(g, seed=1)
        cfg = gnn.TrainConfig(hidden=12)
        params = {
            k: v.astype(np.float64)
            for k, v in gnn.init_params(cfg, 6, 1, rng).items()
        }
        out1 = gnn.encode(sf, gnn.as_leaves(params), ()).data

        perm = rng.permutation(6)
        inv = np.argsort(perm)
        g2 = arbitrary_graph(6, [(int(perm[u]), int(perm[v])) for u, v in g.edges])
        center, nbr, starts = attention_slots(g2)
        sf2 = SentenceFeatures(
            graph=g2,
            z_cent=sf.z_cent[inv],
            comm_gmc=sf.comm_gmc[inv],
            comm_lpc=sf.comm_lpc[inv],
            pos_idx=sf.pos_idx[inv],
            lang_idx=sf.lang_idx[inv],
            word_idx=sf.word_idx[inv],
            att_center=center,
            att_nbr=nbr,
            att_starts=starts,
        )
        out2 = gnn.encode(sf2, gnn.as_leaves(params), ()).data
        np.testing.assert_allclose(out2, out1[inv], atol=1e-9)


class TestDecode:
    def setup_method(self):
        self.sf, vocab = make_bundle()
        cfg = gnn.TrainConfig(hidden=16)
        self.params = gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(1))

    def test_zero_hidden_gives_half(self):
        P = gnn.as_leaves(self.params)
        hidden = Tensor(np.zeros((4, 16), dtype=np.float32))
        probs = gnn.decode_pairs(hidden, np.array([0, 1]), np.array([2, 3]), P)
        np.testing.assert_allclose(probs.data, 0.5, atol=1e-7)

    def test_probability_strictly_inside_unit_interval(self):
        P = gnn.as_leaves(self.params)
        hidden = Tensor(np.random.default_rng(0).normal(size=(4, 16)).astype(np.float32))
        probs = gnn.decode_pairs(hidden, np.array([0, 1]), np.array([2, 3]), P)
        assert np.all(probs.data > 0) and np.all(probs.data < 1)

    def test_asymmetric_in_argument_order(self):
        P = gnn.as_leaves(self.params)
        hidden = Tensor(np.random.default_rng(0).normal(size=(4, 16)).astype(np.float32))
        p_uv = gnn.decode_pairs(hidden, np.array([0]), np.array([2]), P)
        p_vu = gnn.decode_pairs(hidden, np.array([2]), np.array([0]), P)
        assert p_uv.data[0, 0] != p_vu.data[0, 0]


def concat_decode(hidden, us, vs, P):
    """The decoder's logits as specified: an MLP over ``concat(h_u, h_v)``."""
    z = ad.concat([ad.rows(hidden, us), ad.rows(hidden, vs)], axis=1)
    z = ad.relu(z @ P["dec1.W"] + P["dec1.b"])
    return z @ P["dec2.W"] + P["dec2.b"]


def combine_all_rows(hidden, us, vs, P):
    """``combine``'s logits, every node projected through each half of ``dec1.W``."""
    top, bot = gnn.project(hidden, P, "top"), gnn.project(hidden, P, "bottom")
    return gnn.combine(top, bot, us, vs, P)


class TestFactoredDecode:
    """``combine`` and ``decode_pairs`` project each endpoint once; they must
    compute the concatenation decoder's logits and probabilities, and their
    gradients."""

    N = 9
    CASES = {
        "fewer_pairs": ([0, 4, 7], [1, 1, 8]),
        "repeated_endpoints": ([2, 2, 5, 2, 0, 5], [6, 6, 3, 6, 6, 1]),
        "more_pairs": (
            np.random.default_rng(3).integers(0, 9, size=40),
            np.random.default_rng(4).integers(0, 9, size=40),
        ),
    }
    # (factored decoder, the concatenation reference of the same output)
    DECODERS = {
        "logits": (combine_all_rows, concat_decode),
        "probabilities": (gnn.decode_pairs, lambda *a: ad.sigmoid(concat_decode(*a))),
    }

    def params(self, dtype, hidden=16):
        _, vocab = make_bundle()
        cfg = gnn.TrainConfig(hidden=hidden)
        params = gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(1))
        params["dec1.b"] = np.random.default_rng(2).normal(size=(1, hidden))
        return {k: v.astype(dtype) for k, v in params.items()}

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_matches_concat_reference(self, case, dtype, tol):
        us, vs = (np.asarray(a, dtype=np.int64) for a in self.CASES[case])
        params = self.params(dtype)
        h = np.random.default_rng(5).normal(size=(self.N, 16)).astype(dtype)
        for output, decoders in self.DECODERS.items():
            runs = []
            for decode in decoders:
                P = gnn.as_leaves(params)
                hidden = Tensor(h.copy(), requires_grad=True)
                out = decode(hidden, us, vs, P)
                ad.mean(out * np.linspace(-1, 1, len(us)).reshape(-1, 1)).backward()
                runs.append((out, hidden, P))
            (o, hid, P), (o_ref, hid_ref, P_ref) = runs
            assert o.dtype == dtype and o.shape == (len(us), 1), output
            checked = {"values": (o.data, o_ref.data), "hidden": (hid.grad, hid_ref.grad)}
            for name in ("dec1.W", "dec1.b", "dec2.W", "dec2.b"):
                checked[name] = (P[name].grad, P_ref[name].grad)
            for what, (got, ref) in checked.items():
                msg = f"{output} {what}"
                np.testing.assert_allclose(got, ref, rtol=0, atol=tol, err_msg=msg)


class TestLoss:
    def test_perfect_classifier_near_zero(self):
        eps = gnn.LOSS_EPS
        p_pos = Tensor(np.full((4, 1), 1.0 - eps))
        p_neg = Tensor(np.full((8, 1), eps))
        loss = gnn.batch_loss(p_pos, p_neg)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-5)

    def test_all_half_gives_two_log_two(self):
        p_pos = Tensor(np.full((4, 1), 0.5))
        p_neg = Tensor(np.full((8, 1), 0.5))
        loss = gnn.batch_loss(p_pos, p_neg)
        assert float(loss.data) == pytest.approx(2 * np.log(2), abs=1e-9)

    def test_matches_scalar_oracle(self, rng):
        for _ in range(20):
            p_pos = rng.uniform(0.01, 0.99, size=(int(rng.integers(1, 9)), 1))
            p_neg = rng.uniform(0.01, 0.99, size=(int(rng.integers(0, 17)), 1))
            loss = gnn.batch_loss(
                Tensor(p_pos), Tensor(p_neg) if len(p_neg) else None
            )
            ref = loss_scalar(p_pos.ravel(), p_neg.ravel())
            assert float(loss.data) == pytest.approx(ref, abs=1e-9)

    def test_monotone_in_predictions(self):
        base = float(gnn.batch_loss(Tensor(np.array([[0.6]])), Tensor(np.array([[0.4]]))).data)
        better_pos = float(gnn.batch_loss(Tensor(np.array([[0.7]])), Tensor(np.array([[0.4]]))).data)
        worse_neg = float(gnn.batch_loss(Tensor(np.array([[0.6]])), Tensor(np.array([[0.5]]))).data)
        assert better_pos < base < worse_neg


class TestDecodeLoss:
    @pytest.mark.parametrize("negatives", [True, False])
    def test_one_pass_equals_two_calls(self, negatives):
        """Positives and negatives decoded in one pass give the loss and the
        gradients of decoding them in two calls (float64)."""
        edges = [[0, 4], [1, 5], [2, 6], [0, 5], [3, 4]]
        sf, vocab = make_bundle(n_eng=4, n_fra=3, edges=edges)
        cfg = gnn.TrainConfig(hidden=16)
        params = {
            k: v.astype(np.float64)
            for k, v in gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(2)).items()
        }
        us, vs = sf.graph.edges[:, 0], sf.graph.edges[:, 1]
        neg_u, neg_v = gnn.sample_negatives(sf, us, vs, np.random.default_rng(1))
        if not negatives:
            neg_u, neg_v = neg_u[:0], neg_v[:0]
        results = []
        for decode_loss in (gnn._decode_loss, decode_loss_two_calls):
            P = gnn.as_leaves(params)
            loss = decode_loss(gnn.encode(sf, P, ()), P, us, vs, neg_u, neg_v)
            loss.backward()
            results.append((float(loss.data), {k: t.grad for k, t in P.items()}))
        (loss, grads), (ref_loss, ref_grads) = results
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for name, ref in ref_grads.items():
            if ref is None:
                assert grads[name] is None, name
                continue
            np.testing.assert_allclose(
                grads[name], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(), err_msg=name
            )


class TestAdamW:
    def test_zero_grad_applies_only_decay(self):
        w = np.array([1.0, -2.0], dtype=np.float32)
        p = {"w": w.copy()}
        opt = gnn.AdamW(p, lr=1e-3)
        opt.step({"w": np.zeros(2, dtype=np.float32)})
        assert p["w"].tobytes() == (w - w * np.float32(1e-3 * gnn.WEIGHT_DECAY)).tobytes()

    def test_first_step_closed_form(self):
        lr, wd = 0.001, 0.01
        theta0 = 0.5
        p = {"w": np.array([theta0], dtype=np.float64)}
        opt = gnn.AdamW(p, lr=lr)
        opt.step({"w": np.array([1.0])})
        expected = theta0 - lr * wd * theta0 - lr * (1.0 / (1.0 + 1e-8))
        assert p["w"][0] == pytest.approx(expected, abs=1e-12)

    def test_decay_only_shrinks(self):
        p = {"w": np.array([1.0, -3.0])}
        opt = gnn.AdamW(p, lr=1e-3)
        for _ in range(3):
            opt.step({"w": np.zeros(2)})
        assert np.all(np.abs(p["w"]) < [1.0, 3.0])
        assert p["w"][0] > 0 and p["w"][1] < 0

    def test_lr_zero_keeps_params(self):
        p = {"w": np.array([1.0, 2.0])}
        opt = gnn.AdamW(p, lr=0.0)
        opt.step({"w": np.array([5.0, -1.0])})
        np.testing.assert_array_equal(p["w"], [1.0, 2.0])

    def test_nonfinite_gradient_rejected(self):
        p = {"w": np.array([1.0])}
        opt = gnn.AdamW(p, lr=1e-3)
        with pytest.raises(gnn.NonFiniteGradientError, match="w"):
            opt.step({"w": np.array([np.nan])})

    def test_frozen_params_untouched(self):
        """A parameter without a gradient (an ablated block never reaches the
        tape) gets no decay and no moment update."""
        p = {"w": np.array([1.0]), "f": np.array([1.0]), "n": np.array([1.0])}
        opt = gnn.AdamW(p, lr=1e-3)
        opt.step({"w": np.array([1.0]), "n": None})
        assert p["f"][0] == 1.0 and p["n"][0] == 1.0 and p["w"][0] != 1.0
        assert opt.m["f"][0] == opt.v["f"][0] == opt.m["n"][0] == opt.v["n"][0] == 0.0


    @pytest.mark.parametrize("weight_decay", [gnn.WEIGHT_DECAY])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_bitwise(self, dtype, weight_decay):
        # hidden 512: gat1.W spans three chunks plus a tail, dec1.W sixteen whole chunks
        shapes = gnn.param_shapes(gnn.TrainConfig(hidden=512), 8, 400)
        rng = np.random.default_rng(3)
        params = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
        ref = {k: p.copy() for k, p in params.items()}
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        opt = gnn.AdamW(params, lr=0.01)
        t = 0
        for step in range(20):
            # gradients of mixed scales; feat.pos never has one (an ablated
            # block), feat.lang has none on every third step
            grads = {
                k: (rng.normal(size=s) * 10.0 ** rng.integers(-4, 2)).astype(dtype)
                for k, s in shapes.items()
                if k != "feat.pos" and not (k == "feat.lang" and step % 3 == 0)
            }
            opt.step(grads)
            t = adamw_reference(ref, grads, m, v, t, lr=0.01, weight_decay=weight_decay)
        assert opt.t == t == 20
        for k in shapes:
            assert params[k].dtype == dtype
            assert params[k].tobytes() == ref[k].tobytes(), k
            assert opt.m[k].tobytes() == m[k].tobytes(), k
            assert opt.v[k].tobytes() == v[k].tobytes(), k

    def test_nonfinite_gradient_changes_nothing(self):
        rng = np.random.default_rng(0)
        shapes = {"a": (300, 200), "b": (5,), "c": (40_000,)}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        opt = gnn.AdamW(params, lr=1e-3)
        for _ in range(2):
            opt.step({k: rng.normal(size=s) for k, s in shapes.items()})
        before = [
            {k: a.copy() for k, a in state.items()} for state in (params, opt.m, opt.v)
        ]
        grads = {k: rng.normal(size=s) for k, s in shapes.items()}
        grads["c"][-1] = np.nan  # in the last chunk of the last parameter
        with pytest.raises(gnn.NonFiniteGradientError, match="for c"):
            opt.step(grads)
        assert opt.t == 2
        for saved, state in zip(before, (params, opt.m, opt.v)):
            for k in shapes:
                assert state[k].tobytes() == saved[k].tobytes(), k

    def test_rejects_what_it_cannot_update_in_place(self):
        p = {"a": np.ones((2, 3)), "b": np.ones(4)}
        opt = gnn.AdamW(p, lr=1e-3)
        with pytest.raises(ValueError, match="shape"):
            opt.step({"a": np.ones((1, 3)), "b": np.ones(4)})
        assert opt.t == 0 and np.all(p["a"] == 1.0) and np.all(p["b"] == 1.0)
        with pytest.raises(ValueError, match="dtype"):
            gnn.AdamW({"a": np.zeros(2), "b": np.zeros(2, dtype=np.float32)}, lr=1e-3)
        with pytest.raises(ValueError, match="contiguous"):
            gnn.AdamW({"a": np.zeros((4, 4))[:, ::2]}, lr=1e-3)


class TestNegativeSampling:
    def test_forced_choice_on_2x2(self):
        sf, *_ = make_bundle(n_eng=2, n_fra=2, edges=[[0, 2]])
        rng = np.random.default_rng(0)
        nus, nvs = gnn.sample_negatives(sf, np.array([0]), np.array([2]), rng)
        assert set(zip(nus.tolist(), nvs.tolist())) == {(0, 3), (1, 2)}

    def test_single_token_sides_skipped(self):
        sf, *_ = make_bundle(n_eng=1, n_fra=1, edges=[[0, 1]])
        rng = np.random.default_rng(0)
        nus, nvs = gnn.sample_negatives(sf, np.array([0]), np.array([1]), rng)
        assert len(nus) == 0

    def test_two_negatives_per_positive(self):
        sf, *_ = make_bundle()
        rng = np.random.default_rng(0)
        us, vs = sf.graph.edges[:, 0], sf.graph.edges[:, 1]
        nus, nvs = gnn.sample_negatives(sf, us, vs, rng)
        assert len(nus) == 2 * len(us)
        # negatives stay inside the sentence and the language pair
        for u, v in zip(nus, nvs):
            assert sf.graph.node_lang[u] == 0 and sf.graph.node_lang[v] == 1


    def test_matches_reference_draw_for_draw(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            # 2-6 languages of 1-9 tokens: single-token languages yield no side
            lengths = rng.integers(1, 10, size=int(rng.integers(2, 7)))
            tokens = {f"l{i}": [f"w{j}" for j in range(k)] for i, k in enumerate(lengths)}
            g = AlignmentGraph("s", tokens, np.empty((0, 2), dtype=np.int64))
            lang = g.node_lang
            pairs = [
                (u, v) for u in range(g.n) for v in range(g.n)
                if lang[u] != lang[v] and rng.random() < 0.3
            ]
            if not pairs:
                continue
            us, vs = np.array(pairs).T
            sf = raw_bundle(g)
            got_rng = np.random.default_rng(trial)
            ref_rng = np.random.default_rng(trial)
            got = gnn.sample_negatives(sf, us, vs, got_rng)
            want = sample_negatives_reference(sf, us, vs, ref_rng)
            for a, b in zip(got, want):
                assert a.dtype == np.int64
                np.testing.assert_array_equal(a, b)
            assert got_rng.integers(1 << 62) == ref_rng.integers(1 << 62)


class TestTraining:
    def test_default_hyperparameters(self):
        cfg = gnn.TrainConfig()
        assert cfg.train_sample == 6400
        assert cfg.batch_size == 400
        assert cfg.lr == pytest.approx(1e-3)
        assert cfg.hidden == 512
        assert cfg.epochs == 1
        # the optimizer's remaining settings are fixed
        assert gnn.ADAM_BETAS == (0.9, 0.999)
        assert gnn.ADAM_EPS == pytest.approx(1e-8)
        assert gnn.WEIGHT_DECAY == pytest.approx(0.01)

    def test_loss_decreases_on_planted_corpus(self):
        from mpalign.pipeline import build_all_graphs, compute_centralities
        from mpalign.synth import SynthConfig, generate
        from mpalign.features import build_word_vocab, train_word_embeddings

        res = generate(SynthConfig(n_sentences=60, n_languages=4, vocab=50,
                                   len_min=5, len_max=8, edge_drop_rate=0.2,
                                   edge_noise_rate=0.05, seed=4))
        graphs = build_all_graphs(res.corpus, list(res.alignments.values()))
        ids = sorted(graphs)
        raw = compute_centralities(graphs, ids)
        std = FeatureStandardizer.fit([raw[s] for s in ids])
        vocab = build_word_vocab(res.corpus, ids)
        table = train_word_embeddings(res.corpus, vocab, ids)
        lang_index = {lang: i for i, lang in enumerate(res.corpus.languages)}
        feats = [
            featurize(graphs[s], std, lang_index, vocab, 0)
            for s in ids
        ]
        cfg = gnn.TrainConfig(hidden=48, seed=1)
        result = gnn.train_model(feats, cfg, 4, len(vocab), table)
        losses = result.batch_losses
        k = max(1, len(losses) // 10)
        assert np.mean(losses[-k:]) < np.mean(losses[:k])

    def test_identical_seeds_identical_params(self):
        sf, vocab = make_bundle()
        cfg = gnn.TrainConfig(hidden=16, seed=9, train_sample=5)
        r1 = gnn.train_model([sf], cfg, 2, len(vocab))
        r2 = gnn.train_model([sf], cfg, 2, len(vocab))
        for name in r1.params:
            assert np.array_equal(r1.params[name], r2.params[name]), name

    def test_ablated_blocks_stay_zero_and_the_rest_trains(self):
        sf, vocab = make_bundle()
        ablate = ("community", "word")
        cfg = gnn.TrainConfig(hidden=16, seed=2, epochs=3, ablate=ablate)
        rng = np.random.default_rng(cfg.seed)
        start = gnn.init_params(cfg, 2, len(vocab), rng)
        result = gnn.train_model([sf], cfg, 2, len(vocab))
        ablated = gnn.frozen_param_names(ablate)
        for name, p in result.params.items():
            if name in ablated:
                assert not p.any(), name
            else:
                assert not np.array_equal(p, start[name]), name

    def test_subsample_cap(self):
        sf, vocab = make_bundle()
        bundles = [make_bundle(seed=i)[0] for i in range(8)]
        cfg = gnn.TrainConfig(hidden=8, seed=0, train_sample=3)
        result = gnn.train_model(bundles, cfg, 2, len(vocab))
        assert len(result.sentences_used) == 3

    def test_empty_training_set_rejected(self):
        sf, vocab = make_bundle(edges=[])
        cfg = gnn.TrainConfig(hidden=8)
        with pytest.raises(ValueError, match="at least one graph"):
            gnn.train_model([sf], cfg, 2, len(vocab))


class TestGradientCheck:
    def test_full_model_small_graph(self):
        sf, vocab = make_bundle()
        cfg = gnn.TrainConfig(hidden=32)
        params = gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(2))
        report = gnn.gradient_check(sf, params, (), seed=0, sample_fraction=0.01)
        assert report.ok, report.worst
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_report_equals_whole_model_probes(self, seed, monkeypatch):
        """Decoder probes decode from the cached encoder output and every other
        probe encodes again; the report is the one whole-model probes give."""
        sf, vocab = make_bundle(seed=seed)
        cfg = gnn.TrainConfig(hidden=32)
        params = gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(seed))
        expected = gradient_check_reference(sf, params, (), seed=seed, sample_fraction=0.05)
        encodes = []
        encode = gnn.encode
        monkeypatch.setattr(gnn, "encode", lambda *a, **k: encodes.append(1) or encode(*a, **k))
        report = gnn.gradient_check(sf, params, (), seed=seed, sample_fraction=0.05)
        assert report == expected
        assert report.ok and report.n_checked > 0
        # one encode for the analytic pass, two per probed non-decoder sample
        probed = sum(
            max(1, round(0.05 * p.size)) for name, p in params.items()
            if not name.startswith("dec")
        )
        assert len(encodes) == 1 + 2 * probed

    def test_uniform_attention_matches_closed_form(self):
        # attention logits forced equal (a = 0): the encoder collapses to
        # fixed neighborhood averaging, so the gradients of the affine path
        # have a closed form we can derive by hand and compare exactly
        sf, vocab = make_bundle()
        cfg = gnn.TrainConfig(hidden=16)
        params = {
            k: v.astype(np.float64)
            for k, v in gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(3)).items()
        }
        params["gat1.a"][:] = 0.0
        params["gat2.a"][:] = 0.0

        g = sf.graph
        us, vs = g.edges[:, 0], g.edges[:, 1]
        b = len(us)

        # independent numpy forward with uniform attention
        x = assemble_reference(sf, params, ())
        avg = np.eye(g.n)
        for u, v in g.edges:
            avg[u, v] = avg[v, u] = 1.0
        avg /= avg.sum(axis=1, keepdims=True)
        h1 = np.maximum(avg @ x @ params["gat1.W"], 0.0)
        h2 = np.maximum(avg @ h1 @ params["gat2.W"], 0.0)
        hidden = h2 @ params["enc.W"] + params["enc.b"]
        z_in = np.concatenate([hidden[us], hidden[vs]], axis=1)
        z_pre = z_in @ params["dec1.W"] + params["dec1.b"]
        z = np.maximum(z_pre, 0.0)
        logits = z @ params["dec2.W"] + params["dec2.b"]
        probs = 1.0 / (1.0 + np.exp(-logits))

        # closed-form backward for the decoder and encoder FC parameters
        dlogit = -(1.0 - probs) / b
        g_dec2_w = z.T @ dlogit
        g_dec2_b = dlogit.sum(axis=0, keepdims=True)
        dz = (dlogit @ params["dec2.W"].T) * (z_pre > 0)
        g_dec1_w = z_in.T @ dz
        g_dec1_b = dz.sum(axis=0, keepdims=True)
        dzin = dz @ params["dec1.W"].T
        dhidden = np.zeros_like(hidden)
        np.add.at(dhidden, us, dzin[:, :16])
        np.add.at(dhidden, vs, dzin[:, 16:])
        g_enc_w = h2.T @ dhidden
        g_enc_b = dhidden.sum(axis=0, keepdims=True)

        # engine gradients for a positives-only batch
        loss, P = gnn._forward_loss(
            sf, params, (), us, vs, np.empty(0, np.int64), np.empty(0, np.int64)
        )
        loss.backward()
        for name, ref in [
            ("dec2.W", g_dec2_w), ("dec2.b", g_dec2_b),
            ("dec1.W", g_dec1_w), ("dec1.b", g_dec1_b),
            ("enc.W", g_enc_w), ("enc.b", g_enc_b),
        ]:
            got = P[name].grad
            denom = np.maximum(np.abs(ref), 1e-12)
            assert np.max(np.abs(got - ref) / denom) < 1e-8, name

    def test_corrupted_gradient_detected(self):
        sf, vocab = make_bundle()
        cfg = gnn.TrainConfig(hidden=16)
        params = {
            k: v.astype(np.float64)
            for k, v in gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(4)).items()
        }
        us, vs = sf.graph.edges[:, 0], sf.graph.edges[:, 1]
        rng = np.random.default_rng(0)
        neg_u, neg_v = gnn.sample_negatives(sf, us, vs, rng)
        loss, P = gnn._forward_loss(sf, params, (), us, vs, neg_u, neg_v)
        loss.backward()
        analytic = {k: t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                    for k, t in P.items()}
        analytic["dec2.W"] += 1.0  # corruption

        def forward(name):
            val, _ = gnn._forward_loss(sf, params, (), us, vs, neg_u, neg_v)
            return float(val.data)

        report = gnn.compare_grads(forward, params, analytic, rng, sample_fraction=0.05)
        assert not report.ok
        assert "dec2.W" in report.failures


def tape_of(root: Tensor) -> list[Tensor]:
    """Every tensor reachable from *root* through parent links."""
    seen: dict[int, Tensor] = {}
    stack = [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


def test_backward_releases_every_interior_node():
    """A training step's tape: after ``backward`` no interior node holds a
    gradient, closure or parent link; the leaves keep their gradients; and
    neither the loss nor a node inside the tape can be walked again."""
    sf, vocab = make_bundle()
    params = gnn.init_params(gnn.TrainConfig(hidden=16), 2, len(vocab), np.random.default_rng(0))
    us, vs = sf.graph.edges[:, 0], sf.graph.edges[:, 1]
    neg_u, neg_v = gnn.sample_negatives(sf, us, vs, np.random.default_rng(1))
    loss, P = gnn._forward_loss(sf, params, (), us, vs, neg_u, neg_v)
    interior = [t for t in tape_of(loss) if t._backward is not None and t.requires_grad]
    closures = [t._backward for t in interior]
    assert len(interior) > 50

    loss.backward()
    for t, closure in zip(interior, closures):
        assert t.grad is None and t._parents == () and t._backward is not closure
    for name, t in P.items():
        assert t.grad is not None and t.grad.shape == params[name].shape, name
    with pytest.raises(RuntimeError, match="released"):
        loss.backward()
    hidden = next(t for t in interior if t.shape == (sf.graph.n, 16))
    with pytest.raises(RuntimeError, match="released"):
        ad.mean(hidden).backward()

