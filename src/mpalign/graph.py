"""Per-sentence multiparallel alignment graphs.

A graph holds one node per token of every language version of a sentence and
one undirected edge per bilingual alignment link. Node ids are assigned by
(language code lexicographically, then token position), which makes graph
construction deterministic and independent of the order alignment sets are
supplied in.
"""

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import kernels


class GraphBuildError(ValueError):
    """Raised when alignment links do not fit the sentence they point at."""


@dataclass(frozen=True)
class TokenNode:
    language: str
    position: int
    word: str


def node_offsets(tokens_by_lang: Mapping[str, Sequence[str]]) -> dict[str, tuple[int, int]]:
    """(first node id, token count) of each language, in node-id order."""
    offsets = {}
    start = 0
    for lang in sorted(tokens_by_lang):
        offsets[lang] = (start, len(tokens_by_lang[lang]))
        start += len(tokens_by_lang[lang])
    return offsets


class AlignmentGraph:
    """Immutable sentence graph with CSR adjacency for the kernels."""

    __slots__ = (
        "sentence_id",
        "languages",
        "tokens",
        "offsets",
        "node_lang",
        "node_pos",
        "words",
        "edges",
        "indptr",
        "indices",
        "degrees",
    )

    def __init__(
        self,
        sentence_id: str,
        tokens_by_lang: Mapping[str, Sequence[str]],
        edges: np.ndarray,
    ):
        self.sentence_id = sentence_id
        self.offsets = node_offsets(tokens_by_lang)
        self.languages = tuple(self.offsets)
        self.tokens = {lang: tuple(tokens_by_lang[lang]) for lang in self.languages}

        words = []
        lang_ids = []
        positions = []
        for li, lang in enumerate(self.languages):
            toks = self.tokens[lang]
            words.extend(toks)
            lang_ids.extend([li] * len(toks))
            positions.extend(range(len(toks)))
        self.words = words
        self.node_lang = np.asarray(lang_ids, dtype=np.int64)
        self.node_pos = np.asarray(positions, dtype=np.int64)

        n = self.n
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            if lo.min() < 0 or hi.max() >= n:
                raise GraphBuildError(
                    f"sentence {sentence_id}: edge node id out of range 0..{n - 1}"
                )
            loops = lo[lo == hi]
            if loops.size:
                node = self.node(int(loops[0]))
                raise GraphBuildError(
                    f"sentence {sentence_id}: self-loop on node {loops[0]} "
                    f"({node.language} position {node.position})"
                )
            # one key per pair: sorting the keys sorts the pairs by (lo, hi)
            keys = np.unique(lo * n + hi)
            edges = np.stack([keys // n, keys % n], axis=1)
        self.edges = edges

        self.indices = np.empty(0, dtype=np.int64)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        if edges.size:
            src = np.concatenate([edges[:, 0], edges[:, 1]])
            dst = np.concatenate([edges[:, 1], edges[:, 0]])
            self.indices = dst[np.argsort(src * n + dst)]  # keys unique: order exact
            np.cumsum(np.bincount(src, minlength=n), out=self.indptr[1:])
        self.degrees = np.diff(self.indptr)

    @property
    def n(self) -> int:
        return len(self.words)

    @property
    def m(self) -> int:
        return len(self.edges)

    def node(self, node_id: int) -> TokenNode:
        lang = self.languages[self.node_lang[node_id]]
        return TokenNode(lang, int(self.node_pos[node_id]), self.words[node_id])

    def neighbors(self, node_id: int) -> np.ndarray:
        return self.indices[self.indptr[node_id] : self.indptr[node_id + 1]]

    def with_edges(self, edges: np.ndarray) -> "AlignmentGraph":
        """New graph over the same nodes with a different edge set."""
        return AlignmentGraph(self.sentence_id, self.tokens, edges)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AlignmentGraph({self.sentence_id!r}, langs={len(self.languages)}, "
            f"n={self.n}, m={self.m})"
        )


def build_graph(
    sentence_id: str,
    tokens_by_lang: Mapping[str, Sequence[str]],
    alignment_sets: Iterable,
) -> AlignmentGraph:
    """Assemble the sentence graph from token sequences and bilingual link sets.

    Alignment sets whose language pair is not fully present in the sentence are
    ignored; duplicate links (also across overlapping sets) are merged. A link
    that joins a token to itself, as a set pairing a language with itself can,
    raises ``GraphBuildError``.
    """
    offsets = node_offsets(tokens_by_lang)
    flat: list[int] = []  # u0, v0, u1, v1, ...; the constructor dedups and sorts
    for aset in alignment_sets:
        la, lb = aset.lang_pair
        if la not in offsets or lb not in offsets:
            continue
        links = aset.links.get(sentence_id)
        if not links:
            continue
        (start_a, len_a), (start_b, len_b) = offsets[la], offsets[lb]
        for i, j in links:
            if not 0 <= i < len_a or not 0 <= j < len_b:
                raise GraphBuildError(
                    f"sentence {sentence_id}: link ({i},{j}) out of bounds for "
                    f"{la}-{lb} (lengths {len_a},{len_b})"
                )
            flat.append(start_a + i)
            flat.append(start_b + j)

    edges = np.array(flat, dtype=np.int64).reshape(-1, 2)
    return AlignmentGraph(sentence_id, tokens_by_lang, edges)


def connected_components(g: AlignmentGraph) -> list[set[int]]:
    """Node sets of the connected components, ordered by smallest member."""
    labels, count = kernels.connected_component_labels(g.indptr, g.indices, g.n)
    comps: list[set[int]] = [set() for _ in range(count)]
    for v, c in enumerate(labels):
        comps[c].add(int(v))
    return comps


def dump_graph(g: AlignmentGraph) -> str:
    """Plain-text debug dump: one node line per token, then one line per edge."""
    lines = []
    for v in range(g.n):
        node = g.node(v)
        lines.append(f"{v}\t{node.language}\t{node.position}\t{node.word}")
    for u, v in g.edges:
        lines.append(f"edge\t{u}\t{v}")
    return "\n".join(lines) + ("\n" if lines else "")
