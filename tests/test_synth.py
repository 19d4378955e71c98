import numpy as np
import pytest

from mpalign.communities import cd_stats
from mpalign.evaluation import score
from mpalign.features import partition
from mpalign.graph import build_graph
from mpalign.synth import SynthConfig, generate, write_synth


def graphs_of(res):
    return [
        build_graph(sid, res.corpus.sentences[sid], list(res.alignments.values()))
        for sid in sorted(res.corpus.sentences)
    ]


class TestGenerator:
    def test_clean_inputs_equal_gold(self):
        res = generate(SynthConfig(n_sentences=30, n_languages=3, vocab=50, seed=1))
        pair_links = res.alignments[res.pair].links
        assert pair_links == res.gold.sure
        preds = {sid: pair_links[sid] for sid in res.gold.possible}
        assert score(preds, res.gold).f1 == 1.0

    def test_drop_rate_controls_recall(self):
        res = generate(
            SynthConfig(n_sentences=300, n_languages=3, vocab=60,
                        edge_drop_rate=0.3, seed=5)
        )
        preds = {sid: res.alignments[res.pair].links[sid] for sid in res.gold.possible}
        rep = score(preds, res.gold)
        assert rep.precision == 1.0
        assert rep.recall == pytest.approx(0.7, abs=0.03)

    def test_noise_injects_wrong_links(self):
        res = generate(
            SynthConfig(n_sentences=200, n_languages=3, vocab=60,
                        edge_noise_rate=0.2, seed=6)
        )
        preds = {sid: res.alignments[res.pair].links[sid] for sid in res.gold.possible}
        rep = score(preds, res.gold)
        assert rep.recall == 1.0
        assert rep.precision < 1.0

    def test_lpc_recovers_planted_concept_count(self):
        k = 7
        res = generate(SynthConfig(n_sentences=20, n_languages=5, vocab=40,
                                   len_min=k, len_max=k, seed=7))
        graphs = graphs_of(res)
        stats = cd_stats(graphs, {g.sentence_id: partition(g, "lpc", 0) for g in graphs})
        assert stats.mean_components == pytest.approx(k, rel=0.02)

    def test_sentence_lengths_respect_bounds(self):
        res = generate(SynthConfig(n_sentences=40, n_languages=3, vocab=30,
                                   len_min=4, len_max=9, seed=8))
        for sid, sent in res.corpus.sentences.items():
            lengths = {len(toks) for toks in sent.values()}
            assert len(lengths) == 1
            assert 4 <= lengths.pop() <= 9

    def test_language_specific_permutations_differ(self):
        res = generate(SynthConfig(n_sentences=5, n_languages=4, vocab=30,
                                   len_min=6, len_max=6, seed=9))
        sid = sorted(res.corpus.sentences)[0]
        links = res.alignments[res.pair].links[sid]
        assert links != {(i, i) for i in range(6)}

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(edge_drop_rate=1.5)

    def test_deterministic(self):
        a = generate(SynthConfig(n_sentences=10, seed=3))
        b = generate(SynthConfig(n_sentences=10, seed=3))
        assert a.corpus == b.corpus
        assert a.alignments[a.pair].links == b.alignments[b.pair].links


class TestWriteSynth:
    def test_layout_round_trips(self, tmp_path):
        from mpalign.pipeline import load_inputs

        res = generate(SynthConfig(n_sentences=12, n_languages=3, vocab=30,
                                   seed=2, n_test=4))
        write_synth(res, tmp_path)
        assert (tmp_path / "l00.txt").exists()
        assert (tmp_path / "l00-l01.gold").exists()
        assert len((tmp_path / "test_ids.txt").read_text().split()) == 4

        corpus, asets = load_inputs(tmp_path)
        assert corpus == res.corpus
        by_pair = {a.lang_pair: a for a in asets}
        assert by_pair[res.pair].links == res.alignments[res.pair].links
