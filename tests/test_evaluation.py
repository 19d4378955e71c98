import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpalign.communities import Partition
from mpalign.corpus import GoldAlignment, MultiParallelCorpus
from mpalign.evaluation import (
    community_alignment_eval,
    community_links,
    frequency_bins,
    score,
)
from mpalign.features import partition

from oracles import community_links_reference, frequency_bins_reference, refinement_cases

links = st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=10)


def gold_from(sure, possible=None, sid="v1"):
    gold = GoldAlignment(("a", "b"))
    gold.sure[sid] = set(sure)
    gold.possible[sid] = set(sure) | set(possible or set())
    return gold


class TestScore:
    def test_perfect(self):
        rep = score({"v1": {(0, 0)}}, gold_from({(0, 0)}))
        assert (rep.precision, rep.recall, rep.f1, rep.aer) == (1.0, 1.0, 1.0, 0.0)

    def test_worked_example(self):
        rep = score({"v1": {(0, 0)}}, gold_from({(0, 0), (1, 1)}))
        assert rep.precision == 1.0
        assert rep.recall == 0.5
        assert rep.f1 == pytest.approx(2 / 3)
        assert rep.aer == pytest.approx(1 / 3)

    def test_no_predictions_flagged(self):
        rep = score({"v1": set()}, gold_from({(0, 0)}))
        assert rep.precision == 1.0

    def test_empty_gold_refused(self):
        with pytest.raises(ValueError, match="no sentence to score"):
            score({}, GoldAlignment(("a", "b")))

    def test_unknown_sentence_rejected(self):
        with pytest.raises(ValueError, match="without gold"):
            score({"v9": {(0, 0)}}, gold_from({(0, 0)}))

    def test_micro_aggregation_order_invariant(self, rng):
        gold = GoldAlignment(("a", "b"))
        preds = {}
        for i in range(6):
            sid = f"v{i}"
            gold.sure[sid] = {(int(rng.integers(5)), int(rng.integers(5)))}
            gold.possible[sid] = gold.sure[sid] | {(int(rng.integers(5)), 4)}
            preds[sid] = {(int(rng.integers(5)), int(rng.integers(5)))}
        r1 = score(preds, gold)
        shuffled = dict(reversed(list(preds.items())))
        r2 = score(shuffled, gold)
        assert r1 == r2

    def test_sure_possible_distinction(self):
        # a prediction in possible-only helps precision but not recall
        gold = gold_from({(0, 0)}, possible={(1, 1)})
        rep = score({"v1": {(0, 0), (1, 1)}}, gold)
        assert rep.precision == 1.0
        assert rep.recall == 1.0
        assert rep.aer == pytest.approx(1 - 3 / 3)

    @given(links, links)
    def test_aer_equals_one_minus_f1_when_possible_is_sure(self, pred, sure):
        gold = gold_from(sure)
        rep = score({"v1": set(pred)}, gold)
        assert rep.aer == pytest.approx(1.0 - rep.f1, abs=1e-12)

    @given(links, links, links)
    def test_adding_possible_hit_never_lowers_hit_counts(self, pred, sure, poss):
        gold = gold_from(sure, poss)
        candidates = (gold.possible["v1"] & gold.sure["v1"]) - set(pred)
        base = score({"v1": set(pred)}, gold)
        for link in list(candidates)[:2]:
            grown = score({"v1": set(pred) | {link}}, gold)
            assert grown.sure_hits >= base.sure_hits
            assert grown.possible_hits >= base.possible_hits


class TestFrequencyBins:
    def make_corpus(self):
        sentences = {
            "v1": {"a": ["hi", "hi", "rare"], "b": ["x", "y", "z"]},
            "v2": {"a": ["hi", "mid"], "b": ["x", "y"]},
            "v3": {"a": ["hi", "mid"], "b": ["x", "y"]},
        }
        return MultiParallelCorpus(["a", "b"], sentences)

    def test_degenerate_equal_frequencies_single_bin(self):
        sentences = {"v1": {"a": ["w1", "w2"], "b": ["x", "y"]}}
        corpus = MultiParallelCorpus(["a", "b"], sentences)
        gold = gold_from({(0, 0), (1, 1)})
        reports = frequency_bins({"v1": {(0, 0), (1, 1)}}, gold, corpus, "a", 4)
        assert reports[0] is not None
        assert reports[1] is None and reports[2] is None and reports[3] is None
        assert reports[0].f1 == 1.0

    def test_rare_words_fall_in_last_bin(self):
        corpus = self.make_corpus()
        gold = gold_from({(0, 0), (2, 2)})
        # prediction misses the rare-word link
        reports = frequency_bins({"v1": {(0, 0)}}, gold, corpus, "a", 4)
        assert reports[0].recall == 1.0
        rare = [r for r in reports[1:] if r is not None]
        assert rare and rare[-1].recall == 0.0

    @pytest.mark.parametrize("n_bins", range(1, 7))
    def test_matches_reference(self, rng, n_bins):
        # word counts from a Zipf draw, so quantiles tie on the common counts
        words = [f"w{k}" for k in range(12)]
        for _ in range(10):
            sentences, gold, predicted = {}, GoldAlignment(("a", "b")), {}
            for s in range(int(rng.integers(1, 8))):
                sid = f"v{s}"
                m = int(rng.integers(1, 7))
                toks = [words[min(int(rng.zipf(1.6)) - 1, 11)] for _ in range(m)]
                # a sentence without the source language splits into nothing
                has_a = s == 0 or rng.random() < 0.9
                sentences[sid] = {"a": toks, "b": ["x"] * 5} if has_a else {"b": ["x"] * 5}
                cells = [(int(i), int(j)) for i, j in rng.integers(0, [m + 1, 5], (8, 2))]
                gold.sure[sid] = set(cells[:2])
                gold.possible[sid] = set(cells[:4])
                if rng.random() < 0.8:
                    predicted[sid] = set(cells[3:])
            corpus = MultiParallelCorpus(["a", "b"], sentences)
            ours = frequency_bins(predicted, gold, corpus, "a", n_bins)
            assert ours == frequency_bins_reference(predicted, gold, corpus, "a", n_bins)

    def test_quartile_boundaries(self):
        counts = np.array([1, 2, 3, 4])
        qs = np.quantile(counts, [0.25, 0.5, 0.75])
        assert qs[0] == 1.75 and qs[2] == 3.25


class TestCommunityEval:
    def test_correct_concepts_give_perfect_f1(self):
        from mpalign.graph import build_graph
        from mpalign.synth import SynthConfig, generate

        res = generate(SynthConfig(n_sentences=10, n_languages=4, vocab=40,
                                   len_min=5, len_max=7, seed=2))
        graphs = [
            build_graph(sid, res.corpus.sentences[sid], list(res.alignments.values()))
            for sid in sorted(res.corpus.sentences)
        ]
        partitions = {g.sentence_id: partition(g, "lpc", 0) for g in graphs}
        rep = community_alignment_eval(graphs, partitions, res.gold, res.pair)
        assert rep.f1 == pytest.approx(1.0)

    def test_community_links_match_reference(self, rng):
        for g, raw in refinement_cases(rng):
            p = Partition.from_labels(raw)
            langs = g.languages + ("zz",)  # zz: a language the sentence lacks
            for la in langs:
                for lb in langs:
                    links = community_links(g, p, (la, lb))
                    assert links == community_links_reference(g, p.labels, (la, lb))
                    assert community_links(g, p, (lb, la)) == {(j, i) for i, j in links}

    def test_merged_concepts_lower_precision(self):
        from mpalign.graph import AlignmentGraph

        g = AlignmentGraph(
            "v1",
            {"aa": ["t1", "t2"], "bb": ["u1", "u2"]},
            np.array([[0, 2], [1, 3]]),
        )
        gold = GoldAlignment(("aa", "bb"))
        gold.sure["v1"] = {(0, 0), (1, 1)}
        gold.possible["v1"] = set(gold.sure["v1"])

        split = Partition(np.array([0, 1, 0, 1]))
        merged = Partition(np.array([0, 0, 0, 0]))
        p_split = score({"v1": community_links(g, split, ("aa", "bb"))}, gold)
        p_merged = score({"v1": community_links(g, merged, ("aa", "bb"))}, gold)
        assert p_merged.precision < p_split.precision
