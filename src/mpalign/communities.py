"""Concept-community detection on alignment graphs.

Two detectors are provided: greedy modularity agglomeration (merge the pair of
communities with the largest positive modularity gain until none is left) and
seeded label propagation (each round synchronously updates a random half of
the nodes to the most frequent neighbor label, smallest label on ties).
``refine_edges`` turns a partition back into edges: every cross-language pair
inside a community is linked, every inter-community edge is dropped.
"""

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
    """Greedy modularity agglomeration from singletons.

    Only community pairs joined by at least one edge can have positive gain, so
    candidate pairs are tracked in an inter-community edge-count map. Ties are
    broken toward the lexicographically smallest pair of community ids (the
    smallest member node id represents each community).
    """
    m = g.m
    if m == 0:
        raise UndefinedModularityError(f"sentence {g.sentence_id}: graph has no edges")
    two_m_sq = float(2 * m) ** 2

    comm_of = list(range(g.n))
    members: dict[int, list[int]] = {v: [v] for v in range(g.n)}
    deg_sum: dict[int, float] = {v: float(g.degrees[v]) for v in range(g.n)}
    between: dict[tuple[int, int], int] = {}
    for u, v in g.edges:
        key = (int(u), int(v))
        between[key] = between.get(key, 0) + 1

    while between:
        best_key = None
        best_gain = 0.0
        for (a, b), k in between.items():
            gain = k / m - 2.0 * gamma * deg_sum[a] * deg_sum[b] / two_m_sq
            if gain > best_gain or (
                gain == best_gain and best_key is not None and (a, b) < best_key
            ):
                best_gain = gain
                best_key = (a, b)
        if best_key is None or best_gain <= 0.0:
            break
        a, b = best_key
        for v in members[b]:
            comm_of[v] = a
        members[a].extend(members[b])
        deg_sum[a] += deg_sum[b]
        del members[b], deg_sum[b], between[(a, b)]
        merged: dict[tuple[int, int], int] = {}
        for (x, y), k in between.items():
            if x == b:
                x = a
            if y == b:
                y = a
            if x == y:
                continue
            key = (x, y) if x < y else (y, x)
            merged[key] = merged.get(key, 0) + k
        between = merged
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


def detect(g: AlignmentGraph, algorithm: str, *, gamma: float, seed: int,
           portion: float, max_iters: int) -> Partition:
    """Run one detector by name; edgeless graphs fall back to singletons.

    ``features.partition`` is the one caller: it takes the settings from the
    run's ``FeatureConfig`` and seeds LPC per sentence.
    """
    if algorithm == "gmc":
        if g.m == 0:
            return Partition.singletons(g.n)
        return gmc(g, gamma=gamma)
    if algorithm == "lpc":
        return lpc(g, seed=seed, portion=portion, max_iters=max_iters)
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
