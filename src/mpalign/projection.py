"""Cross-lingual POS projection through word alignments.

Each target token collects one vote per aligned source token (across all
source languages); the majority tag wins, ties fall to the earliest source
language (then to the earliest vote). Unaligned tokens get "X",
and sentences with too many "X" tags are filtered out.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence

LinkSet = set[tuple[int, int]]


@dataclass(frozen=True)
class ProjectionSource:
    language: str
    tagged: Sequence[tuple[str, str]]  # source tokens with tags
    links: LinkSet  # (target index, source index)


@dataclass(frozen=True)
class ProjectedSentence:
    sentence_id: str
    tokens: tuple[str, ...]
    tags: tuple[str, ...]
    votes: tuple[tuple[tuple[str, str], ...], ...]  # per token: (language, tag) votes

    def x_fraction(self) -> float:
        if not self.tokens:
            return 0.0
        return sum(1 for t in self.tags if t == "X") / len(self.tokens)


def project(
    sentence_id: str,
    target_tokens: Sequence[str],
    sources: Sequence[ProjectionSource],
) -> ProjectedSentence:
    """Majority-vote tag projection; a token with no votes is tagged "X".
    Ties rank by the order of *sources*."""
    rank = {src.language: r for r, src in enumerate(sources)}
    votes: list[list[tuple[str, str]]] = [[] for _ in target_tokens]
    for src in sources:
        for t_idx, s_idx in sorted(src.links):
            if not 0 <= t_idx < len(target_tokens):
                raise ValueError(
                    f"sentence {sentence_id}: target index {t_idx} out of bounds"
                )
            if not 0 <= s_idx < len(src.tagged):
                raise ValueError(
                    f"sentence {sentence_id}: source index {s_idx} out of bounds "
                    f"for {src.language}"
                )
            votes[t_idx].append((src.language, src.tagged[s_idx][1]))

    tags = []
    for token_votes in votes:
        if not token_votes:
            tags.append("X")
            continue
        counts: dict[str, int] = {}
        best_key: dict[str, tuple] = {}
        for pos, (lang, tag) in enumerate(token_votes):
            counts[tag] = counts.get(tag, 0) + 1
            key = (rank[lang], pos)
            if tag not in best_key or key < best_key[tag]:
                best_key[tag] = key
        tags.append(
            min(counts, key=lambda tag: (-counts[tag],) + best_key[tag])
        )
    return ProjectedSentence(
        sentence_id,
        tuple(target_tokens),
        tuple(tags),
        tuple(tuple(v) for v in votes),
    )


def filter_x(
    sentences: Iterable[ProjectedSentence], threshold: float = 0.5
) -> list[ProjectedSentence]:
    """Drop a sentence iff strictly more than *threshold* of its tags are "X"."""
    return [s for s in sentences if s.x_fraction() <= threshold]


def write_conll(sentences: Iterable[ProjectedSentence], path) -> None:
    """token<TAB>tag lines with a blank line between sentences."""
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            for tok, tag in zip(sent.tokens, sent.tags):
                fh.write(f"{tok}\t{tag}\n")
            fh.write("\n")
