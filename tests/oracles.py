"""Independent brute-force oracles used to check the package implementations.

Everything here is written for clarity over speed and stays deliberately
separate from the code under test: adjacency matrices, path enumeration,
exhaustive partition search, and scalar loops.
"""

import math
from itertools import combinations

import numpy as np

from mpalign.corpus import GoldAlignment
from mpalign.evaluation import score, word_frequencies
from mpalign.graph import AlignmentGraph


def arbitrary_graph(n: int, edges) -> AlignmentGraph:
    """Graph over n single-token languages, so any edge pattern is legal."""
    tokens = {f"l{i:02d}": [f"w{i}"] for i in range(n)}
    return AlignmentGraph("test", tokens, np.asarray(sorted(set(edges)), dtype=np.int64).reshape(-1, 2))


def random_graph(rng, n: int, p: float) -> AlignmentGraph:
    edges = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < p]
    return AlignmentGraph(
        "test",
        {f"l{i:02d}": [f"w{i}"] for i in range(n)},
        np.asarray(edges, dtype=np.int64).reshape(-1, 2),
    )


def random_tree(rng, n: int) -> AlignmentGraph:
    edges = [(int(rng.integers(i)), i) for i in range(1, n)]
    return arbitrary_graph(n, edges)


def adjacency(g: AlignmentGraph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return a


def modularity_double_sum(g: AlignmentGraph, labels, gamma: float = 1.0) -> float:
    """Literal double sum over all ordered node pairs, diagonal included."""
    a = adjacency(g)
    d = a.sum(axis=1)
    m = g.m
    total = 0.0
    for i in range(g.n):
        for j in range(g.n):
            if labels[i] == labels[j]:
                total += a[i, j] - gamma * d[i] * d[j] / (2.0 * m)
    return total / (2.0 * m)


def all_partitions(n: int):
    """Every set partition of range(n) as a label list (restricted growth)."""

    def rec(i, labels, k):
        if i == n:
            yield list(labels)
            return
        for c in range(k + 1):
            labels.append(c)
            yield from rec(i + 1, labels, max(k, c + 1))
            labels.pop()

    yield from rec(0, [], 0)


def best_partitions(g: AlignmentGraph, gamma: float = 1.0, tol: float = 1e-12):
    """All modularity-maximizing partitions (by exhaustive enumeration)."""
    best = -math.inf
    winners = []
    for labels in all_partitions(g.n):
        q = modularity_double_sum(g, labels, gamma)
        if q > best + tol:
            best = q
            winners = [labels]
        elif abs(q - best) <= tol:
            winners.append(labels)
    return best, winners


def bfs_components(g: AlignmentGraph) -> list[set[int]]:
    seen = set()
    comps = []
    adj = {v: set(map(int, g.neighbors(v))) for v in range(g.n)}
    for s in range(g.n):
        if s in seen:
            continue
        comp = {s}
        frontier = [s]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def bfs_dist(g: AlignmentGraph, s: int) -> dict[int, int]:
    dist = {s: 0}
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for w in map(int, g.neighbors(v)):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def all_shortest_paths(g: AlignmentGraph, s: int, t: int) -> list[list[int]]:
    dist = bfs_dist(g, s)
    if t not in dist:
        return []
    paths = []

    def extend(path):
        v = path[-1]
        if v == t:
            paths.append(list(path))
            return
        for w in map(int, g.neighbors(v)):
            if dist.get(w) == dist[v] + 1 and dist[w] <= dist[t]:
                path.append(w)
                extend(path)
                path.pop()

    extend([s])
    return [p for p in paths if len(p) - 1 == dist[t]]


def centralities_bruteforce(g: AlignmentGraph) -> np.ndarray:
    """(n, 5) matrix: degree, closeness, betweenness, load, harmonic."""
    n = g.n
    out = np.zeros((n, 5))
    out[:, 0] = g.degrees
    if n <= 1:
        return out

    dists = {v: bfs_dist(g, v) for v in range(n)}
    for v in range(n):
        reachable = {w: d for w, d in dists[v].items() if w != v}
        if reachable:
            total = sum(reachable.values())
            reach = len(reachable)
            out[v, 1] = (reach / total) * (reach / (n - 1))
            out[v, 4] = sum(1.0 / d for d in reachable.values()) / (n - 1)

    # betweenness: enumerate all shortest paths per unordered pair
    betw = np.zeros(n)
    for s, t in combinations(range(n), 2):
        paths = all_shortest_paths(g, s, t)
        if not paths:
            continue
        for v in range(n):
            if v in (s, t):
                continue
            through = sum(1 for p in paths if v in p[1:-1])
            betw[v] += through / len(paths)
    if n > 2:
        betw /= (n - 1) * (n - 2) / 2.0
    out[:, 2] = betw

    # load: unit packets split equally among shortest-path successors
    load = np.zeros(n)
    for s in range(n):
        for t in range(n):
            if s == t or t not in dists[s]:
                continue
            dist_t = dists[t]

            def flow(v, amount):
                if v == t:
                    return
                succs = [w for w in map(int, g.neighbors(v)) if dist_t[w] == dist_t[v] - 1]
                share = amount / len(succs)
                for w in succs:
                    if w != t:
                        load[w] += share
                    flow(w, share)

            flow(s, 1.0)
    if n > 2:
        load /= (n - 1) * (n - 2)
    out[:, 3] = load
    return out


def label_propagation_update(indptr, indices, labels, subset):
    """One synchronous update of *subset*: most frequent neighbor label, ties to smallest."""
    n = labels.shape[0]
    counts = np.zeros(n, np.int64)
    new_labels = labels.copy()
    for k in range(subset.shape[0]):
        v = subset[k]
        if indptr[v + 1] == indptr[v]:
            continue
        best_label = -1
        best_count = 0
        for e in range(indptr[v], indptr[v + 1]):
            lw = labels[indices[e]]
            counts[lw] += 1
            c = counts[lw]
            if c > best_count or (c == best_count and lw < best_label):
                best_count = c
                best_label = lw
        for e in range(indptr[v], indptr[v + 1]):
            counts[labels[indices[e]]] = 0
        new_labels[v] = best_label
    return new_labels


def label_propagation_stable(indptr, indices, labels):
    """True iff every non-isolated node's label is a mode of its neighborhood."""
    n = labels.shape[0]
    counts = np.zeros(n, np.int64)
    for v in range(n):
        if indptr[v + 1] == indptr[v]:
            continue
        best = 0
        for e in range(indptr[v], indptr[v + 1]):
            lw = labels[indices[e]]
            counts[lw] += 1
            if counts[lw] > best:
                best = counts[lw]
        own = counts[labels[v]]
        for e in range(indptr[v], indptr[v + 1]):
            counts[labels[indices[e]]] = 0
        if own < best or own == 0:
            return False
    return True


def lpc_reference(
    g: AlignmentGraph, seed: int, portion: float = 0.5, max_iters: int = 100
) -> np.ndarray:
    """Seeded label propagation one node and one edge at a time, with the random
    draws of ``communities.lpc``; labels are not canonicalized."""
    labels = np.arange(g.n, dtype=np.int64)
    if g.m == 0 or g.n == 0:
        return labels
    rng = np.random.default_rng(seed)
    size = max(1, math.ceil(portion * g.n))
    for _ in range(max_iters):
        if label_propagation_stable(g.indptr, g.indices, labels):
            break
        subset = rng.choice(g.n, size=size, replace=False)
        labels = label_propagation_update(g.indptr, g.indices, labels, subset)
    return labels


def gmc_reference(g: AlignmentGraph, gamma: float = 1.0) -> np.ndarray:
    """Greedy modularity agglomeration that rescans every inter-community pair
    for the best gain on each merge, with ``communities.gmc``'s gain expression
    and tie-break; labels are the smallest member of each community, not
    canonicalized. The graph must have edges."""
    m = g.m
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
    return np.asarray(comm_of, dtype=np.int64)


def build_graph_reference(sentence_id, tokens_by_lang, alignment_sets) -> dict:
    """``edges``, ``indptr``, ``indices`` and ``degrees`` of a sentence graph,
    built from a set of sorted node pairs: ``np.unique(axis=0)`` for the
    canonical edges, ``lexsort`` for the CSR order and ``np.add.at`` for the
    row counts."""
    lengths = {lang: len(toks) for lang, toks in tokens_by_lang.items()}
    starts, pos = {}, 0
    for lang in sorted(lengths):
        starts[lang] = pos
        pos += lengths[lang]
    n = pos
    pairs = set()
    for aset in alignment_sets:
        la, lb = aset.lang_pair
        if la not in lengths or lb not in lengths:
            continue
        for i, j in aset.links.get(sentence_id, ()):
            u, v = starts[la] + i, starts[lb] + j
            pairs.add((u, v) if u < v else (v, u))
    edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    if edges.size:
        edges = np.unique(edges, axis=0)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = np.empty(0, dtype=np.int64)
    if edges.size:
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        order = np.lexsort((dst, src))
        src, indices = src[order], dst[order]
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
    return {"edges": edges, "indptr": indptr, "indices": indices,
            "degrees": np.diff(indptr)}


def random_multilingual_graph(rng, n_langs: int, max_len: int, p: float) -> AlignmentGraph:
    """Languages of 1..max_len tokens; each cross-language node pair linked with probability p."""
    tokens = {
        f"l{i:02d}": [f"w{i}_{j}" for j in range(int(rng.integers(1, max_len + 1)))]
        for i in range(n_langs)
    }
    lang = np.repeat(np.arange(n_langs), [len(t) for t in tokens.values()])
    edges = [
        (u, v)
        for u, v in combinations(range(len(lang)), 2)
        if lang[u] != lang[v] and rng.random() < p
    ]
    return AlignmentGraph("test", tokens, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def refinement_cases(rng):
    """(graph, raw labels) pairs: random multilingual graphs of 1-5 languages,
    edgeless, sparse (isolated nodes) and dense, plus n = 1, each with random
    labels into 1, 2 and 4 groups (single-language communities included),
    singletons, and as many groups as nodes."""
    graphs = [
        random_multilingual_graph(rng, int(rng.integers(1, 6)), 5, p)
        for p in (0.0, 0.15, 0.4)
        for _ in range(8)
    ]
    graphs.append(AlignmentGraph("test", {"l00": ["w"]}, np.empty((0, 2), np.int64)))
    for g in graphs:
        for k in (1, 2, 4, g.n):
            yield g, rng.integers(-2, k, g.n)
        yield g, np.arange(g.n)


def from_labels_reference(raw) -> np.ndarray:
    """Labels renumbered 0..K-1 by ascending smallest member, one node at a time."""
    raw = np.asarray(raw, dtype=np.int64).tolist()
    first_seen: dict[int, int] = {}
    for v, lab in enumerate(raw):
        if lab not in first_seen:
            first_seen[lab] = v
    order = sorted(first_seen, key=first_seen.get)
    remap = {lab: i for i, lab in enumerate(order)}
    return np.array([remap[lab] for lab in raw], dtype=np.int64)


def refine_edges_reference(g: AlignmentGraph, labels) -> np.ndarray:
    """Sorted (u, v), u < v: every cross-language pair inside a community, pair by pair."""
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(np.asarray(labels).tolist()):
        groups.setdefault(c, []).append(v)
    pairs = []
    for group in groups.values():
        for ai in range(len(group)):
            u = group[ai]
            for bi in range(ai + 1, len(group)):
                v = group[bi]
                if g.node_lang[u] != g.node_lang[v]:
                    pairs.append((u, v) if u < v else (v, u))
    return np.array(sorted(set(pairs)), dtype=np.int64).reshape(-1, 2)


def community_links_reference(g: AlignmentGraph, labels, lang_pair) -> set:
    """(position in la, position in lb) of each refined edge between the pair's languages."""
    la, lb = lang_pair
    if la not in g.offsets or lb not in g.offsets:
        return set()
    la_idx = g.languages.index(la)
    lb_idx = g.languages.index(lb)
    links = set()
    for u, v in refine_edges_reference(g, labels):
        lu, lv = g.node_lang[u], g.node_lang[v]
        if lu == la_idx and lv == lb_idx:
            links.add((int(g.node_pos[u]), int(g.node_pos[v])))
        elif lu == lb_idx and lv == la_idx:
            links.add((int(g.node_pos[v]), int(g.node_pos[u])))
    return links


def gat_scalar(x, w, a, g: AlignmentGraph, slope: float = 0.2) -> np.ndarray:
    """Direct per-node evaluation of the attention layer on dense arrays."""
    n = g.n
    wx = x @ w
    out = np.zeros_like(wx)
    for i in range(n):
        nbhd = [i] + [int(j) for j in g.neighbors(i)]
        logits = []
        for j in nbhd:
            z = float(np.concatenate([wx[i], wx[j]]) @ a.ravel())
            logits.append(z if z > 0 else slope * z)
        logits = np.asarray(logits)
        e = np.exp(logits - logits.max())
        alphas = e / e.sum()
        for alpha, j in zip(alphas, nbhd):
            out[i] += alpha * wx[j]
    return out


def gat_aggregate_reference(alpha, values, nbr, starts):
    """Attention aggregation as the encoder first composed it: gather each
    slot's value row, scale it by the slot's weight and sum every node's slot
    segment with ``np.add.reduceat`` (``segment_sum``). *alpha* and *values*
    are Tensors, so the gradients of the composition can be compared too."""
    from mpalign import autodiff as ad

    return ad.segment_sum(ad.rows(values, nbr) * alpha, starts)


def decode_loss_two_calls(hidden, P, us, vs, neg_u, neg_v):
    """The batch loss with positives and negatives decoded in separate calls."""
    from mpalign import gnn

    p_pos = gnn.decode_pairs(hidden, us, vs, P)
    p_neg = gnn.decode_pairs(hidden, neg_u, neg_v, P) if len(neg_u) else None
    return gnn.batch_loss(p_pos, p_neg)


def loss_scalar(p_pos, p_neg, eps: float = 1e-7) -> float:
    def clamp(p):
        return min(max(p, eps), 1.0 - eps)

    total = -sum(math.log(clamp(p)) for p in p_pos) / len(p_pos)
    if len(p_neg):
        total += -sum(math.log(clamp(1.0 - p)) for p in p_neg) / len(p_neg)
    return total


def assemble_reference(sf, params, ablate) -> np.ndarray:
    """Node input rows by plain table lookup: each z-scored centrality times
    its lift row plus its bias row, then the GMC, LPC, position, language and
    word rows of the blocks not in *ablate*."""
    n = sf.z_cent.shape[0]
    blocks = []
    if "centrality" not in ablate:
        lift = sf.z_cent[:, :, None] * params["feat.cent_w"] + params["feat.cent_b"]
        blocks.append(lift.reshape(n, -1))
    if "community" not in ablate:
        blocks.append(params["feat.comm_gmc"][sf.comm_gmc])
        blocks.append(params["feat.comm_lpc"][sf.comm_lpc])
    if "position" not in ablate:
        blocks.append(params["feat.pos"][sf.pos_idx])
    if "language" not in ablate:
        blocks.append(params["feat.lang"][sf.lang_idx])
    if "word" not in ablate:
        blocks.append(params["feat.word"][sf.word_idx])
    return np.concatenate(blocks, axis=1)


def attention_slots_reference(g: AlignmentGraph):
    """Self slot plus one slot per neighbor for every node, one node at a time."""
    center, nbr, starts = [], [], []
    for v in range(g.n):
        starts.append(len(center))
        center.append(v)
        nbr.append(v)
        for w in g.neighbors(v):
            center.append(v)
            nbr.append(int(w))
    return (
        np.asarray(center, dtype=np.int64),
        np.asarray(nbr, dtype=np.int64),
        np.asarray(starts, dtype=np.int64),
    )


def sample_negatives_reference(sf, us, vs, rng):
    """Negatives drawn one side at a time: the v side, then the u side of each
    positive, one scalar ``rng.integers`` call per side with two or more tokens."""
    g = sf.graph
    neg_u, neg_v = [], []
    for u, v in zip(us, vs):
        lu = g.languages[g.node_lang[u]]
        lv = g.languages[g.node_lang[v]]
        start_u, count_u = g.offsets[lu]
        start_v, count_v = g.offsets[lv]
        if count_v >= 2:
            j = int(rng.integers(count_v - 1))
            if start_v + j >= v:
                j += 1
            neg_u.append(u)
            neg_v.append(start_v + j)
        if count_u >= 2:
            i = int(rng.integers(count_u - 1))
            if start_u + i >= u:
                i += 1
            neg_u.append(start_u + i)
            neg_v.append(v)
    return np.asarray(neg_u, dtype=np.int64), np.asarray(neg_v, dtype=np.int64)


def adamw_reference(params, grads, m, v, t, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                    weight_decay=0.01, frozen=()):
    """One AdamW step (Loshchilov & Hutter 2019) on whole arrays, one parameter
    at a time, updating *params*, *m* and *v* in place; returns the new step
    count. A missing gradient counts as zero."""
    b1, b2 = betas
    t += 1
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, p in params.items():
        if name in frozen:
            continue
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        if weight_decay:
            p -= lr * weight_decay * p
        m[name] += (1.0 - b1) * (g - m[name])
        v[name] += (1.0 - b2) * (g * g - v[name])
        p -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
    return t


def gradient_check_reference(sf, params, ablate, seed=0, sample_fraction=0.01, h=1e-5,
                             tolerance=1e-4, max_positives=16):
    """``gnn.gradient_check`` with every probe running the whole model."""
    from mpalign import gnn

    rng = np.random.default_rng(seed)
    params64 = {k: v.astype(np.float64) for k, v in params.items()}
    edges = sf.graph.edges
    take = min(max_positives, len(edges))
    sel = rng.choice(len(edges), size=take, replace=False)
    us, vs = edges[sel, 0], edges[sel, 1]
    neg_u, neg_v = gnn.sample_negatives(sf, us, vs, rng)
    loss, P = gnn._forward_loss(sf, params64, ablate, us, vs, neg_u, neg_v)
    loss.backward()
    analytic = {
        name: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for name, t in P.items()
    }

    def forward(name):
        val, _ = gnn._forward_loss(sf, params64, ablate, us, vs, neg_u, neg_v)
        return float(val.data)

    return gnn.compare_grads(forward, params64, analytic, rng,
                             sample_fraction=sample_fraction, h=h, tolerance=tolerance)


def frequency_bins_reference(predicted, gold, corpus, source_lang, n_bins=4):
    """Per-bin reports as a loop over the quantiles: each link's bin is looked
    up anew, and each sentence's sets are split once per bin."""
    freq = word_frequencies(corpus, source_lang)
    counts = np.asarray(sorted(freq.values()), dtype=np.float64)
    qs = np.quantile(counts, np.linspace(0, 1, n_bins + 1)[1:-1]) if n_bins > 1 else []

    def bin_of(count):
        # bin 1 = highest frequency
        for b in range(n_bins - 1):
            if count >= qs[n_bins - 2 - b]:
                return b + 1
        return n_bins

    def split(links, sid):
        out = [set() for _ in range(n_bins)]
        toks = corpus.sentences[sid].get(source_lang)
        for i, j in links:
            if toks is None or not 0 <= i < len(toks):
                continue
            out[bin_of(freq[toks[i]]) - 1].add((i, j))
        return out

    reports = []
    for b in range(n_bins):
        pred_b = {}
        gold_b = GoldAlignment(gold.lang_pair)
        occupied = False
        for sid in gold.possible:
            pred_b[sid] = split(predicted.get(sid, set()), sid)[b]
            gold_b.sure[sid] = split(gold.sure.get(sid, set()), sid)[b]
            gold_b.possible[sid] = split(gold.possible[sid], sid)[b] | gold_b.sure[sid]
            if pred_b[sid] or gold_b.possible[sid]:
                occupied = True
        reports.append(score(pred_b, gold_b) if occupied else None)
    return reports
