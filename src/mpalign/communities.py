"""Concept-community detection on alignment graphs.

Two detectors are provided: greedy modularity agglomeration (merge the pair of
communities with the largest positive modularity gain until none is left, the
lexicographically smallest pair on ties; a lazy max-heap of pair gains after
Clauset, Newman & Moore 2004 finds each merge) and seeded label propagation
(each round synchronously updates a random half of the nodes to the most
frequent neighbor label, smallest label on ties).
``refine_edges`` turns a partition back into edges: every cross-language pair
inside a community is linked, every inter-community edge is dropped.
"""

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import kernels
from .graph import AlignmentGraph


class UndefinedModularityError(ValueError):
    """Modularity (and greedy agglomeration) is undefined on edgeless graphs."""


@dataclass(frozen=True)
class Partition:
    """Node -> community assignment with indices 0..K-1, all used."""

    labels: np.ndarray

    @property
    def n_communities(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def members(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_communities)]
        for v, c in enumerate(self.labels):
            out[c].append(v)
        return out

    @classmethod
    def from_labels(cls, raw: Sequence[int]) -> "Partition":
        """Canonicalize arbitrary labels: communities numbered by ascending smallest member."""
        return cls(kernels.canonical_labels(raw))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(np.arange(n, dtype=np.int64))

    @classmethod
    def whole(cls, n: int) -> "Partition":
        return cls(np.zeros(n, dtype=np.int64))


def modularity(g: AlignmentGraph, p: Partition, gamma: float = 1.0) -> float:
    """Intra-community edge mass minus the degree null model, diagonal included."""
    m = g.m
    if m == 0:
        raise UndefinedModularityError(f"sentence {g.sentence_id}: graph has no edges")
    labels = p.labels
    k = p.n_communities
    same = labels[g.edges[:, 0]] == labels[g.edges[:, 1]]
    intra = np.bincount(labels[g.edges[:, 0]][same], minlength=k).astype(np.float64)
    dsum = np.bincount(labels, weights=g.degrees.astype(np.float64), minlength=k)
    frac = dsum / (2.0 * m)
    return float(np.sum(intra / m - gamma * frac * frac))


def gmc(g: AlignmentGraph, gamma: float = 1.0) -> Partition:
    """Greedy modularity agglomeration from singletons (Clauset, Newman & Moore).

    Each step merges the pair of adjacent communities with the largest positive
    modularity gain; only adjacent pairs can gain. Ties go to the
    lexicographically smallest pair of community ids, each community being
    named by its smallest member node. Every community keeps a map of its
    neighbors to the number of edges between them, and one lazy max-heap holds
    ``(-gain, a, b)`` with ``a < b``. A merge only changes the gains of the
    surviving community's pairs, so it pushes fresh entries for those alone; a
    popped entry whose pair is gone or whose gain has changed since it was
    pushed is skipped. The heap's tuple order is the tie-break.
    """
    m = g.m
    if m == 0:
        raise UndefinedModularityError(f"sentence {g.sentence_id}: graph has no edges")
    two_m_sq = float(2 * m) ** 2
    deg_sum = [float(d) for d in g.degrees.tolist()]

    def gain(a: int, b: int, k: int) -> float:
        # this exact expression and operand order: the bits decide ties
        return k / m - 2.0 * gamma * deg_sum[a] * deg_sum[b] / two_m_sq

    comm_of = list(range(g.n))
    members: dict[int, list[int]] = {v: [v] for v in range(g.n)}
    between: list[dict[int, int]] = [{} for _ in range(g.n)]
    heap = []
    for a, b in g.edges.tolist():  # unique, with a < b
        between[a][b] = between[b][a] = 1
        heap.append((-gain(a, b, 1), a, b))
    heapq.heapify(heap)

    while heap:
        neg_gain, a, b = heapq.heappop(heap)
        k = between[a].get(b)
        if k is None:
            continue  # a or b merged away, which empties and unlinks its map
        best = gain(a, b, k)
        if best != -neg_gain:
            continue  # pushed before one side's degree sum or count changed
        if best <= 0.0:
            break
        for v in members[b]:
            comm_of[v] = a
        members[a].extend(members.pop(b))
        deg_sum[a] += deg_sum[b]
        nbrs_a = between[a]
        del nbrs_a[b]
        for c, kc in between[b].items():
            if c != a:
                nbrs_c = between[c]
                del nbrs_c[b]
                nbrs_a[c] = nbrs_c[a] = nbrs_a.get(c, 0) + kc
        between[b] = {}
        for c, kc in nbrs_a.items():
            if a < c:
                heapq.heappush(heap, (-gain(a, c, kc), a, c))
            else:
                heapq.heappush(heap, (-gain(c, a, kc), c, a))
    return Partition.from_labels(comm_of)


def lpc(
    g: AlignmentGraph,
    seed: int,
    portion: float = 0.5,
    max_iters: int = 100,
) -> Partition:
    """Seeded label propagation; isolated nodes keep their own label."""
    labels = np.arange(g.n, dtype=np.int64)
    if g.m == 0 or g.n == 0:
        return Partition.from_labels(labels)
    rng = np.random.default_rng(seed)
    size = max(1, math.ceil(portion * g.n))
    linked = g.degrees > 0
    for _ in range(max_iters):
        mode, mode_count, own_count = kernels.label_modes(g.indptr, g.indices, labels)
        # stable: every non-isolated node's label is a mode of its neighborhood
        if np.array_equal(own_count[linked], mode_count[linked]):
            break
        subset = rng.choice(g.n, size=size, replace=False)
        subset = subset[linked[subset]]
        labels[subset] = mode[subset]  # synchronous: modes come from the old labels
    return Partition.from_labels(labels)


def refine_edges(g: AlignmentGraph, p: Partition) -> AlignmentGraph:
    """Clique-complete each community across languages; drop inter-community edges."""
    # an (n, n) mask: a few MB at paper scale (n = 2,100)
    linked = (p.labels[:, None] == p.labels) & (g.node_lang[:, None] != g.node_lang)
    return g.with_edges(np.argwhere(np.triu(linked, k=1)))


@dataclass(frozen=True)
class CdStats:
    mean_components: float
    mean_components_before: float
    mean_sentence_length: float
    edge_removal_fraction: float


def detect(g: AlignmentGraph, algorithm: str, seed: int) -> Partition:
    """Run one detector by name at its defaults; ``seed`` seeds LPC only.
    Edgeless graphs fall back to singletons.

    ``features.partition`` is the one caller: it seeds LPC per sentence.
    """
    if algorithm == "gmc":
        if g.m == 0:
            return Partition.singletons(g.n)
        return gmc(g)
    if algorithm == "lpc":
        return lpc(g, seed)
    raise ValueError(f"unknown community detection algorithm {algorithm!r}")


def cd_stats(
    graphs: Iterable[AlignmentGraph], partitions: Mapping[str, Partition]
) -> CdStats:
    """Mean component counts before/after refining each graph with its
    partition (keyed by sentence id), mean sentence length, and the fraction of
    original edges removed as inter-community links (clique additions are not
    counted)."""
    graphs = list(graphs)
    if not graphs:
        raise ValueError("cd_stats needs at least one graph")
    comp_after = []
    comp_before = []
    removed = 0
    original = 0
    tok_total = 0
    lang_total = 0
    for g in graphs:
        _, before = kernels.connected_component_labels(g.indptr, g.indices, g.n)
        comp_before.append(before)
        p = partitions[g.sentence_id]
        refined = refine_edges(g, p)
        _, after = kernels.connected_component_labels(
            refined.indptr, refined.indices, refined.n
        )
        comp_after.append(after)
        if g.m:
            labels = p.labels
            inter = int(np.sum(labels[g.edges[:, 0]] != labels[g.edges[:, 1]]))
            removed += inter
            original += g.m
        tok_total += g.n
        lang_total += len(g.languages)
    return CdStats(
        mean_components=float(np.mean(comp_after)),
        mean_components_before=float(np.mean(comp_before)),
        mean_sentence_length=tok_total / lang_total,
        edge_removal_fraction=(removed / original) if original else 0.0,
    )
