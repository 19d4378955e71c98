"""Correctness checks that recompute every benchmark output apart from mpalign.

Nothing here imports mpalign: gold links, P/R/F1, the projection majority vote
and the expected layer call counts are derived from the synthetic token forms
and the files the program wrote, with parsers of their own.
"""

import math
import re
from pathlib import Path

TOKEN = re.compile(r"^l(\d{2})w(\d{4})$")

# Tag of a synthetic token: a fixed function of its concept id, so every
# translation of a concept carries the same tag.
TAGS = ("NOUN", "VERB", "ADJ", "ADV", "PRON", "DET", "ADP", "NUM")

# Model F1 must beat the input alignments' F1 by at least this much.
MIN_F1_GAIN = 0.02


def concept(token: str) -> int:
    match = TOKEN.match(token)
    if match is None:
        raise ValueError(f"token {token!r} is not a synthetic lNNwCCCC form")
    return int(match.group(2))


def tag_of(token: str) -> str:
    return TAGS[concept(token) % len(TAGS)]


def read_corpus(data_dir: Path, lang: str) -> dict[str, list[str]]:
    out = {}
    for line in (data_dir / f"{lang}.txt").read_text(encoding="utf-8").splitlines():
        sid, _, text = line.partition("\t")
        out[sid] = text.split()
    return out


def read_links(path: Path) -> dict[str, set[tuple[int, int]]]:
    """Pharaoh lines ``sid<TAB>i-j i-j``; sure links only."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        sid, _, text = line.partition("\t")
        links = set()
        for item in text.split():
            i, sep, j = item.partition("-")
            if not sep:
                raise ValueError(f"{path}: malformed link {item!r} in {sid}")
            links.add((int(i), int(j)))
        out[sid] = links
    return out


def gold_links(src: list[str], tgt: list[str]) -> set[tuple[int, int]]:
    """Two tokens are a gold link when their concept ids are equal."""
    where = {concept(tok): j for j, tok in enumerate(tgt)}
    return {
        (i, where[concept(tok)]) for i, tok in enumerate(src) if concept(tok) in where
    }


class Counts:
    """Micro-aggregated link counts: predicted, gold, hits."""

    def __init__(self):
        self.pred = self.gold = self.hits = 0

    def add(self, pred: set, gold: set) -> None:
        self.pred += len(pred)
        self.gold += len(gold)
        self.hits += len(pred & gold)

    def prf(self) -> tuple[float, float, float, float]:
        """precision, recall, F1, AER (sure = possible, so AER = 1 - 2h/(p+g))."""
        p = self.hits / self.pred if self.pred else 1.0
        r = self.hits / self.gold if self.gold else 1.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        denom = self.pred + self.gold
        aer = 1.0 - 2 * self.hits / denom if denom else 0.0
        return p, r, f, aer


def score_file(
    align: Path,
    data_dir: Path,
    pair: tuple[str, str],
    ids: list[str],
    errors: list,
    predicted: bool = True,
) -> Counts:
    """Count an alignment file against concept gold over ``ids``.

    A ``predicted`` file must hold exactly the sentences in ``ids``.
    """
    la, lb = pair
    src, tgt = read_corpus(data_dir, la), read_corpus(data_dir, lb)
    links = read_links(align)
    counts = Counts()
    for sid in ids:
        if sid not in links:
            errors.append(f"{align.name}: sentence {sid} missing")
            continue
        m, l = len(src[sid]), len(tgt[sid])
        bad = [(i, j) for i, j in links[sid] if not (0 <= i < m and 0 <= j < l)]
        if bad:
            errors.append(f"{align.name}: {sid} has out-of-range links {sorted(bad)}")
        counts.add(links[sid], gold_links(src[sid], tgt[sid]))
    extra = set(links) - set(ids)
    if predicted and extra:
        errors.append(f"{align.name}: links for unrequested sentences {sorted(extra)[:3]}")
    return counts


def check_eval_tsv(eval_tsv: Path, rows: dict[str, Counts], errors: list) -> None:
    """Each recomputed P/R/F1/AER must print exactly as in ``eval.tsv``."""
    lines = eval_tsv.read_text().splitlines()
    header = lines[0].split("\t")
    printed = {}
    for line in lines[1:]:
        cells = dict(zip(header, line.split("\t")))
        printed[cells["method"]] = cells
    for method, counts in rows.items():
        if method not in printed:
            errors.append(f"eval.tsv: no row {method!r}")
            continue
        for key, value in zip(("precision", "recall", "f1", "aer"), counts.prf()):
            shown = printed[method][key]
            digits = len(shown.partition(".")[2])
            if abs(float(shown) - value) > 0.5 * 10.0**-digits + 1e-12:
                errors.append(
                    f"eval.tsv {method} {key}: printed {shown}, recomputed {value:.8f}"
                )


def majority_tags(
    target: list[str], votes_by_source: list[tuple[list[str], set]]
) -> list[str]:
    """Majority vote over (source tags, (target, source) links) in priority order.

    Ties go to the tag whose first vote came from the earliest source, then to
    the earliest vote; a token without votes is ``X``.
    """
    ballots: list[list[str]] = [[] for _ in target]
    for src_tags, links in votes_by_source:
        for t, s in sorted(links):
            ballots[t].append(src_tags[s])
    tags = []
    for ballot in ballots:
        if not ballot:
            tags.append("X")
            continue
        best = max(ballot.count(tag) for tag in ballot)
        tags.append(next(tag for tag in ballot if ballot.count(tag) == best))
    return tags


def loss_falls(losses: list[float], errors: list) -> None:
    """The last tenth of training batches must have a lower mean loss than the first."""
    k = max(1, len(losses) // 10)
    first, last = sum(losses[:k]) / k, sum(losses[-k:]) / k
    if not (math.isfinite(last) and last < first):
        errors.append(f"training loss did not fall: first tenth {first:.4f}, last {last:.4f}")


def model_beats_input(model_f1: float, input_f1: float, errors: list) -> None:
    if model_f1 < input_f1 + MIN_F1_GAIN:
        errors.append(
            f"model F1 {model_f1:.4f} is not input F1 {input_f1:.4f} + {MIN_F1_GAIN}"
        )


def batches_per_epoch(data_dir: Path, ids: list[str], batch_size: int) -> int:
    """Training steps one epoch makes: ceil(edges / batch) per sentence with edges.

    A sentence graph has one edge per distinct input link, summed over all
    language-pair alignment files (distinct pairs never share an edge).
    """
    edges = dict.fromkeys(ids, 0)
    for path in sorted(data_dir.glob("*.align")):
        for sid, links in read_links(path).items():
            if sid in edges:
                edges[sid] += len(links)
    return sum(-(-m // batch_size) for m in edges.values() if m)


def read_ids(path: Path) -> list[str]:
    return [line.strip() for line in path.read_text().splitlines() if line.strip()]
