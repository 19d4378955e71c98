#!/usr/bin/env python3
"""Benchmark the graph kernels: graph building, centralities, components,
label propagation and greedy modularity.

Times each kernel (best of 3) on 60 random graphs of 72 nodes, then the
centralities, label propagation and greedy modularity of one paper-scale
sentence graph (84 languages x 25 tokens, n = 2,100). Prints a table, or one
JSON object with ``--json``.
"""

import json
import resource
import sys
import time

import numpy as np

from mpalign import kernels, synth
from mpalign.communities import gmc, lpc
from mpalign.corpus import BilingualAlignmentSet
from mpalign.graph import AlignmentGraph, build_graph


def make_graphs(n_graphs=60, n_languages=8, tokens_per_lang=9, seed=0):
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(n_graphs):
        tokens = {
            f"l{i:02d}": [f"w{j}" for j in range(tokens_per_lang)]
            for i in range(n_languages)
        }
        n = n_languages * tokens_per_lang
        edges = set()
        for _ in range(4 * n):
            u = int(rng.integers(n))
            v = int(rng.integers(n))
            if u // tokens_per_lang != v // tokens_per_lang:
                edges.add((min(u, v), max(u, v)))
        graphs.append(AlignmentGraph("bench", tokens, np.array(sorted(edges))))
    return graphs


def paper_scale_graph(n_languages=84, tokens=25, seed=7):
    """One synthetic sentence aligned across every pair of 84 languages."""
    res = synth.generate(
        synth.SynthConfig(
            n_sentences=1, n_languages=n_languages, vocab=40, len_min=tokens,
            len_max=tokens, edge_drop_rate=0.3, edge_noise_rate=0.05, seed=seed,
        )
    )
    sid = res.corpus.sentence_ids()[0]
    return build_graph(sid, res.corpus.sentences[sid], list(res.alignments.values()))


def alignment_sets(g):
    """The graph's edges as one link set per language pair."""
    sets = {}
    for u, v in g.edges.tolist():
        nu, nv = g.node(u), g.node(v)
        links = sets.setdefault((nu.language, nv.language), set())
        links.add((nu.position, nv.position))
    return [BilingualAlignmentSet(pair, {g.sentence_id: links}) for pair, links in sets.items()]


def bench(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_suite():
    graphs = make_graphs()
    inputs = [(g.sentence_id, g.tokens, alignment_sets(g)) for g in graphs]

    def build_pass():
        for sid, tokens, sets in inputs:
            build_graph(sid, tokens, sets)

    def centrality_pass():
        for g in graphs:
            kernels.centrality_bundle(g.indptr, g.indices, g.n)

    def component_pass():
        for g in graphs:
            kernels.connected_component_labels(g.indptr, g.indices, g.n)

    def lpc_pass():
        for i, g in enumerate(graphs):
            lpc(g, seed=i)

    def gmc_pass():
        for g in graphs:
            gmc(g)

    results = {
        "build_graph_s": bench(build_pass),
        "centralities_s": bench(centrality_pass),
        "components_s": bench(component_pass),
        "label_propagation_s": bench(lpc_pass),
        "gmc_s": bench(gmc_pass),
    }
    big = paper_scale_graph()
    results["paper_graph_nodes"] = big.n
    results["paper_graph_edges"] = big.m
    results["paper_centralities_s"] = bench(
        lambda: kernels.centrality_bundle(big.indptr, big.indices, big.n), repeats=1
    )
    results["paper_label_propagation_s"] = bench(lambda: lpc(big, seed=0), repeats=1)
    results["paper_gmc_s"] = bench(lambda: gmc(big), repeats=1)
    results["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return results


def main():
    results = run_suite()
    print(f"kernel timings (best of 3, {60} graphs of 72 nodes):")
    for key in ("build_graph_s", "centralities_s", "components_s", "label_propagation_s",
                "gmc_s"):
        print(f"  {key[:-2]:>20}: {results[key] * 1000:9.2f} ms")
    print(
        f"paper-scale graph (n={results['paper_graph_nodes']}, "
        f"m={results['paper_graph_edges']}, one run):"
    )
    for key in ("paper_centralities_s", "paper_label_propagation_s", "paper_gmc_s"):
        print(f"  {key[6:-2]:>20}: {results[key] * 1000:9.2f} ms")
    print(f"  {'peak RSS':>20}: {results['peak_rss_mb']:9.1f} MB")


if __name__ == "__main__":
    if "--json" in sys.argv:
        print(json.dumps(run_suite()))
    else:
        main()
