"""Alignment scoring: precision/recall/F1/AER, frequency bins, community baseline.

Counts are micro-aggregated: the per-sentence counts |A|, |A&S|, |A&P| and |S|
are summed before ratios are taken. A per-sentence macro average is reported
as a secondary statistic.
"""

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .communities import Partition, refine_edges
from .corpus import GoldAlignment, MultiParallelCorpus
from .graph import AlignmentGraph

LinkSet = set[tuple[int, int]]


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    aer: float
    n_sure: int
    sure_hits: int
    possible_hits: int
    macro_f1: float


def _ratios(n_pred, n_sure, sure_hits, possible_hits):
    """Precision, recall, F1 and AER; with no predicted links precision is
    defined as 1, with no sure links recall is."""
    precision = possible_hits / n_pred if n_pred else 1.0
    recall = sure_hits / n_sure if n_sure else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    denom = n_pred + n_sure
    aer = 1.0 - (sure_hits + possible_hits) / denom if denom else 0.0
    return precision, recall, f1, aer


def score(predicted: Mapping[str, LinkSet], gold: GoldAlignment) -> EvalReport:
    """Score predictions against sure/possible gold links over the gold sentences.

    Every predicted sentence must be covered by the gold set; gold sentences
    without predictions count as empty predictions. A gold set without
    sentences is refused: it has nothing to score.
    """
    if not gold.possible:
        raise ValueError("the gold alignment holds no sentence to score")
    unknown = set(predicted) - set(gold.possible)
    if unknown:
        raise ValueError(f"predictions for sentences without gold: {sorted(unknown)[:5]}")
    n_pred = n_sure = sure_hits = possible_hits = 0
    macro_f1 = []
    for sid in sorted(gold.possible):
        a = predicted.get(sid, set())
        s = gold.sure.get(sid, set())
        p = gold.possible[sid]
        counts = (len(a), len(s), len(a & s), len(a & p))
        n_pred += counts[0]
        n_sure += counts[1]
        sure_hits += counts[2]
        possible_hits += counts[3]
        macro_f1.append(_ratios(*counts)[2])
    precision, recall, f1, aer = _ratios(n_pred, n_sure, sure_hits, possible_hits)
    return EvalReport(
        precision=precision,
        recall=recall,
        f1=f1,
        aer=aer,
        n_sure=n_sure,
        sure_hits=sure_hits,
        possible_hits=possible_hits,
        macro_f1=float(np.mean(macro_f1)),
    )


def word_frequencies(corpus: MultiParallelCorpus, lang: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for sid in corpus.sentences:
        for tok in corpus.sentences[sid].get(lang, ()):
            counts[tok] = counts.get(tok, 0) + 1
    return counts


def frequency_bins(
    predicted: Mapping[str, LinkSet],
    gold: GoldAlignment,
    corpus: MultiParallelCorpus,
    source_lang: str,
    n_bins: int,
) -> list[EvalReport | None]:
    """Per-bin scores; bin 1 holds the most frequent source word types.

    Source tokens are assigned to quantile bins of the word-type frequency
    distribution; a link belongs to the bin of its source token. Empty bins
    are reported as None.
    """
    freq = word_frequencies(corpus, source_lang)
    if not freq:
        raise ValueError(f"no tokens for source language {source_lang!r}")
    counts = np.asarray(sorted(freq.values()), dtype=np.float64)
    qs = np.quantile(counts, np.linspace(0, 1, n_bins + 1)[1:-1])
    # a word's bin index is n_bins - 1 less one per quantile its count
    # reaches, so index 0 (bin 1) holds the most frequent words
    words = list(freq)
    indices = n_bins - 1 - np.searchsorted(qs, [freq[w] for w in words], side="right")
    bin_index = dict(zip(words, indices.tolist()))

    def split(links: LinkSet, toks: Sequence[str] | None) -> list[LinkSet]:
        out: list[LinkSet] = [set() for _ in range(n_bins)]
        for i, j in links:
            if toks is not None and 0 <= i < len(toks):
                out[bin_index[toks[i]]].add((i, j))
        return out

    preds: list[dict[str, LinkSet]] = [{} for _ in range(n_bins)]
    golds = [GoldAlignment(gold.lang_pair) for _ in range(n_bins)]
    for sid in gold.possible:
        toks = corpus.sentences[sid].get(source_lang)
        parts = zip(
            split(predicted.get(sid, set()), toks),
            split(gold.sure.get(sid, set()), toks),
            split(gold.possible[sid], toks),
        )
        for pred_b, gold_b, (a, s, p) in zip(preds, golds, parts):
            pred_b[sid] = a
            gold_b.sure[sid] = s
            gold_b.possible[sid] = p | s
    return [
        score(pred_b, gold_b)
        if any(pred_b.values()) or any(gold_b.possible.values())
        else None
        for pred_b, gold_b in zip(preds, golds)
    ]


def eval_table(
    runs: Sequence[tuple[str, Mapping[str, LinkSet]]],
    gold: GoldAlignment,
    corpus: MultiParallelCorpus | None,
    source_lang: str,
    n_bins: int,
) -> str:
    """TSV of precision, recall, F1, AER and macro F1 for each named set of
    predictions, then the F1 of each of *n_bins* frequency bins of
    *source_lang*'s words (``-`` when empty; *corpus* is needed only for
    bins); values have six decimals."""
    header = ["method", "precision", "recall", "f1", "aer", "macro_f1"]
    lines = ["\t".join(header + [f"f1_bin{b}" for b in range(1, n_bins + 1)])]
    for name, preds in runs:
        rep = score(preds, gold)
        cells = [name] + [f"{getattr(rep, col):.6f}" for col in header[1:]]
        if n_bins:
            bins = frequency_bins(preds, gold, corpus, source_lang, n_bins)
            cells += [f"{b.f1:.6f}" if b is not None else "-" for b in bins]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def community_links(
    g: AlignmentGraph, partition: Partition, lang_pair: tuple[str, str]
) -> LinkSet:
    """Pair links implied by a community partition (refined clique edges)."""
    la, lb = lang_pair
    if la not in g.offsets or lb not in g.offsets:
        return set()
    edges = refine_edges(g, partition).edges
    edges = np.concatenate([edges, edges[:, ::-1]])  # both orientations
    keep = (g.node_lang[edges[:, 0]] == g.languages.index(la)) & (
        g.node_lang[edges[:, 1]] == g.languages.index(lb)
    )
    pos = g.node_pos[edges[keep]]
    return set(zip(pos[:, 0].tolist(), pos[:, 1].tolist()))


def community_alignment_eval(
    graphs: Iterable[AlignmentGraph],
    partitions: Mapping[str, Partition],
    gold: GoldAlignment,
    lang_pair: tuple[str, str],
) -> EvalReport:
    """Score the links that each gold sentence's partition (keyed by sentence
    id) implies for one language pair."""
    predicted = {
        g.sentence_id: community_links(g, partitions[g.sentence_id], lang_pair)
        for g in graphs
        if g.sentence_id in gold.possible
    }
    return score(predicted, gold)
