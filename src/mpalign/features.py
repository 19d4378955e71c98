"""Node features: centralities, z-scoring, co-occurrence word vectors, layout.

Every node of a sentence graph is described by five graph centralities
(z-scored, each lifted by a learned affine map), two community memberships
(an embedding per detector), token position, language and word identity,
concatenated to a 236-dim input vector by ``gnn.assemble``. The widths and
table sizes of that layout are the constants below.
"""

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from . import kernels
from .communities import Partition, detect
from .corpus import MultiParallelCorpus
from .graph import AlignmentGraph

CENTRALITY_NAMES = ("degree", "closeness", "betweenness", "load", "harmonic")

# the model's input layout: every width and table size is written here once
CENT_DIM = 4  # each centrality is lifted to 4 dims by a learned affine map
COMM_DIM = 32  # per detector
POS_DIM = 32
LANG_DIM = 20
WORD_DIM = 100
POS_TABLE = 160  # positions clamp at POS_TABLE - 1
COMM_TABLE = 257  # community ids cap at COMM_TABLE - 2, last row = overflow

BLOCK_WIDTHS = {
    "centrality": len(CENTRALITY_NAMES) * CENT_DIM,
    "community": 2 * COMM_DIM,  # GMC and LPC
    "position": POS_DIM,
    "language": LANG_DIM,
    "word": WORD_DIM,
}


def centralities(g: AlignmentGraph) -> np.ndarray:
    """(n, 5) float64 matrix, columns ordered as CENTRALITY_NAMES."""
    deg, clo, btw, load, har = kernels.centrality_bundle(g.indptr, g.indices, g.n)
    return np.stack([deg, clo, btw, load, har], axis=1)


@dataclass(frozen=True)
class FeatureStandardizer:
    """Per-centrality mean/std over all nodes of the training graphs."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, matrices: Iterable[np.ndarray]) -> "FeatureStandardizer":
        stacked = np.concatenate([np.asarray(m, dtype=np.float64) for m in matrices], axis=0)
        if stacked.shape[0] == 0:
            raise ValueError("cannot fit a standardizer on zero nodes")
        mean = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        std = np.where(std > 0.0, std, 1.0)  # constant feature -> z = 0
        return cls(mean, std)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std


def input_dim(ablate: tuple[str, ...]) -> int:
    """Width of the input vector without the *ablate* blocks."""
    return sum(w for b, w in BLOCK_WIDTHS.items() if b not in ablate)


def community_indices(p: Partition, cap: int) -> np.ndarray:
    """Canonical community ids clipped into the embedding table (overflow bucket last)."""
    return np.minimum(p.labels, cap).astype(np.int64)


# ---------------------------------------------------------------------------
# word vectors from verse co-occurrence


# a (type x sentence) PPMI matrix of at most this many cells takes a dense SVD
SVD_DENSE_CUTOFF = 4_000_000


def build_word_vocab(
    corpus: MultiParallelCorpus, sentence_ids: Sequence[str]
) -> dict[tuple[str, str], int]:
    """(language, word-type) -> row index, over the *sentence_ids* sentences."""
    seen = set()
    for sid in sorted(sentence_ids):
        for lang, toks in corpus.sentences[sid].items():
            for tok in toks:
                seen.add((lang, tok))
    return {key: i for i, key in enumerate(sorted(seen))}


def train_word_embeddings(
    corpus: MultiParallelCorpus,
    vocab: Mapping[tuple[str, str], int],
    sentence_ids: Sequence[str],
) -> np.ndarray:
    """Sentence-occurrence word vectors over the *sentence_ids* sentences:
    PPMI-weighted binary (type x sentence) matrix, rank-``WORD_DIM`` truncated
    SVD (dense up to ``SVD_DENSE_CUTOFF`` cells, else sparse), rows scaled by
    sqrt singular values.

    Returns a float32 table of shape (len(vocab)+1, WORD_DIM); the last row is
    the all-zero UNK initialization. The rank is capped only by the matrix
    shape, ``min(WORD_DIM, n_rows - 1, n_cols - 1)``; columns past that cap are
    zero. Components whose singular value is numerically zero are kept, so a
    matrix of lower numerical rank gets near-zero columns along arbitrary
    null-space directions.
    """
    ids = sorted(sentence_ids)
    col_of = {sid: j for j, sid in enumerate(ids)}
    rows, cols = [], []
    for sid in ids:
        j = col_of[sid]
        for lang, toks in corpus.sentences[sid].items():
            for tok in set(toks):
                key = (lang, tok)
                if key in vocab:
                    rows.append(vocab[key])
                    cols.append(j)
    n_rows, n_cols = len(vocab), len(ids)
    table = np.zeros((n_rows + 1, WORD_DIM), dtype=np.float32)
    if not rows or n_cols == 0:
        return table

    occ = sp.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n_rows, n_cols), dtype=np.float64
    )
    occ.sum_duplicates()
    occ.data[:] = 1.0
    total = occ.sum()
    row_sum = np.asarray(occ.sum(axis=1)).ravel()
    col_sum = np.asarray(occ.sum(axis=0)).ravel()
    ppmi = occ.tocoo()
    vals = np.log(ppmi.data * total / (row_sum[ppmi.row] * col_sum[ppmi.col]))
    vals = np.maximum(vals, 0.0)
    ppmi = sp.csr_matrix((vals, (ppmi.row, ppmi.col)), shape=occ.shape)

    k = min(WORD_DIM, n_rows - 1, n_cols - 1)
    if k < 1:
        return table
    if n_rows * n_cols <= SVD_DENSE_CUTOFF:
        u, s, _ = np.linalg.svd(ppmi.toarray(), full_matrices=False)
        u, s = u[:, :k], s[:k]
    else:
        v0 = np.full(min(ppmi.shape), 1.0 / math.sqrt(min(ppmi.shape)))
        u, s, _ = scipy.sparse.linalg.svds(ppmi, k=k, v0=v0)
        order = np.argsort(s)[::-1]
        u, s = u[:, order], s[order]
    # deterministic sign: largest-magnitude component of each column positive
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
    emb = u * np.sqrt(np.maximum(s, 0.0))
    table[:n_rows, : emb.shape[1]] = emb.astype(np.float32)
    return table


# ---------------------------------------------------------------------------
# model-ready sentence bundles


@dataclass
class SentenceFeatures:
    """Constant per-sentence inputs for the link predictor."""

    graph: AlignmentGraph
    z_cent: np.ndarray  # (n, 5) standardized centralities
    comm_gmc: np.ndarray  # (n,) table indices
    comm_lpc: np.ndarray
    pos_idx: np.ndarray
    lang_idx: np.ndarray
    word_idx: np.ndarray
    att_center: np.ndarray  # attention slots: receiving node per slot
    att_nbr: np.ndarray  # attended node per slot (self slot first per node)
    att_starts: np.ndarray  # slot segment start per node


def attention_slots(g: AlignmentGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Self slot plus one slot per neighbor for every node, grouped by node."""
    nodes = np.arange(g.n, dtype=np.int64)
    center = np.repeat(nodes, g.degrees + 1)
    nbr = np.insert(g.indices, g.indptr[:-1], nodes)
    # node v's slots start after the self slots of nodes 0..v-1
    starts = g.indptr[:-1] + nodes
    return center, nbr, starts


def derive_seed(base: int, tag: str) -> int:
    """Stable per-sentence/per-purpose RNG seed."""
    digest = hashlib.blake2s(f"{base}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def partition(g: AlignmentGraph, algorithm: str, seed: int) -> Partition:
    """One detector's partition of ``g``, LPC seeded per sentence from the
    base *seed*: the one call of ``communities.detect``, so every analysis
    sees the same partitions."""
    return detect(g, algorithm, derive_seed(seed, f"lpc:{g.sentence_id}"))


def featurize(
    g: AlignmentGraph,
    standardizer: FeatureStandardizer,
    lang_index: Mapping[str, int],
    vocab: Mapping[tuple[str, str], int],
    seed: int,
) -> SentenceFeatures:
    """Compute every constant model input for one sentence graph; *seed* is
    the base of the LPC seeds (see :func:`partition`)."""
    p_gmc = partition(g, "gmc", seed)
    p_lpc = partition(g, "lpc", seed)
    unk = len(vocab)
    lang_idx = np.empty(g.n, dtype=np.int64)
    word_idx = np.empty(g.n, dtype=np.int64)
    for v in range(g.n):
        lang = g.languages[g.node_lang[v]]
        if lang not in lang_index:
            raise ValueError(f"sentence {g.sentence_id}: language {lang!r} not in model")
        lang_idx[v] = lang_index[lang]
        word_idx[v] = vocab.get((lang, g.words[v]), unk)
    center, nbr, starts = attention_slots(g)
    return SentenceFeatures(
        graph=g,
        z_cent=standardizer.apply(centralities(g)),
        comm_gmc=community_indices(p_gmc, COMM_TABLE - 1),
        comm_lpc=community_indices(p_lpc, COMM_TABLE - 1),
        pos_idx=np.minimum(g.node_pos, POS_TABLE - 1),
        lang_idx=lang_idx,
        word_idx=word_idx,
        att_center=center,
        att_nbr=nbr,
        att_starts=starts,
    )
