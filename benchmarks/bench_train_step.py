#!/usr/bin/env python3
"""Benchmark one training step of the link predictor, layer by layer.

Builds ``SENTENCES`` fixed synthetic sentence graphs (8 languages x 6 tokens,
the sentence shape of the end-to-end benchmark), initializes a hidden-512
model and cycles over them with the step ``train_model`` runs: encode, one
decoder pass over the positives and their negatives (as ``gnn._decode_loss``
runs it), loss, backward and the AdamW update.
As in ``train_model``, a step's tape is dropped when the step ends; backward
has already released its interior nodes. Each layer is timed in each of
``REPEATS`` steps (after ``WARMUP`` warm-up steps). The ``infer`` row then
times ``REPEATS`` tape-free encodes back to back, as
``inference.score_matrices`` runs them, on the same sentences and the trained
parameters. A last, untimed pass takes one step per sentence under
``tracemalloc``; ``step_peak_mb`` is the largest peak of those steps.
Prints the best and the median in ms with the spread (upper minus lower
quartile) per layer, the minor page faults per timed step and the step peak,
or one JSON object with ``--json``.
"""

import argparse
import json
import os
import resource
import time
import tracemalloc

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from mpalign import gnn, synth  # noqa: E402
from mpalign.autodiff import Tensor, narrow  # noqa: E402
from mpalign.features import FeatureStandardizer, centralities, featurize  # noqa: E402
from mpalign.graph import build_graph  # noqa: E402

LAYERS = ("encode", "decode", "loss", "backward", "adamw")
ROWS = LAYERS + ("step", "infer")
REPEATS = 100
WARMUP = 3
SENTENCES = 8


def make_step_inputs(hidden=512, seed=0):
    """The features and the positive and negative pairs of ``SENTENCES`` synth
    sentences, and one model for them all."""
    res = synth.generate(
        synth.SynthConfig(
            n_sentences=SENTENCES, n_languages=8, vocab=40, len_min=6, len_max=6,
            edge_drop_rate=0.3, edge_noise_rate=0.05, seed=seed,
        )
    )
    alignments = list(res.alignments.values())
    graphs = [
        build_graph(sid, res.corpus.sentences[sid], alignments)
        for sid in res.corpus.sentence_ids()
    ]
    langs = sorted(res.corpus.languages)
    words = sorted({(lang, tok) for g in graphs for lang in langs for tok in g.tokens[lang]})
    vocab = {word: i for i, word in enumerate(words)}
    standardizer = FeatureStandardizer.fit([centralities(g) for g in graphs])
    lang_index = {lang: i for i, lang in enumerate(langs)}
    config = gnn.TrainConfig(hidden=hidden)
    params = gnn.init_params(config, len(langs), len(vocab), np.random.default_rng(seed))
    steps = []
    for g in graphs:
        sf = featurize(g, standardizer, lang_index, vocab, config.seed)
        us, vs = g.edges[:, 0], g.edges[:, 1]
        neg_u, neg_v = gnn.sample_negatives(sf, us, vs, np.random.default_rng(seed))
        pairs = (np.concatenate([us, neg_u]), np.concatenate([vs, neg_v]), len(us))
        steps.append((sf, pairs))
    return steps, config, params


def timed_step(sf, pairs, config, params, opt) -> dict[str, float]:
    """The layer times of one step; its tape is dropped on return."""
    us, vs, n_pos = pairs
    t0 = time.perf_counter()
    P = gnn.as_leaves(params)
    hidden = gnn.encode(sf, P, config.ablate)
    t1 = time.perf_counter()
    p = gnn.decode_pairs(hidden, us, vs, P)
    t2 = time.perf_counter()
    loss = gnn.batch_loss(narrow(p, 0, n_pos), narrow(p, n_pos, len(us)))
    t3 = time.perf_counter()
    loss.backward()
    t4 = time.perf_counter()
    opt.step({name: t.grad for name, t in P.items()})
    t5 = time.perf_counter()
    marks = (t0, t1, t2, t3, t4, t5)
    times = {name: b - a for name, a, b in zip(LAYERS, marks, marks[1:])}
    times["step"] = t5 - t0
    return times


def run_suite(hidden=512):
    steps, config, params = make_step_inputs(hidden)
    opt = gnn.AdamW(params, lr=config.lr, frozen=gnn.frozen_param_names(config.ablate))
    for k in range(WARMUP):
        timed_step(*steps[k % len(steps)], config, params, opt)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    samples = [timed_step(*steps[k % len(steps)], config, params, opt) for k in range(REPEATS)]
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    frozen = {name: Tensor(arr) for name, arr in params.items()}
    for k in range(WARMUP + REPEATS):
        t0 = time.perf_counter()
        gnn.encode(steps[k % len(steps)][0], frozen, config.ablate)
        if k >= WARMUP:
            samples[k - WARMUP]["infer"] = time.perf_counter() - t0
    peaks = []
    for sf, pairs in steps:
        tracemalloc.start()
        timed_step(sf, pairs, config, params, opt)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    results = {
        "sentences": len(steps),
        "nodes": float(np.mean([sf.graph.n for sf, _ in steps])),
        "pairs": float(np.mean([len(p[0]) for _, p in steps])),
        "hidden": hidden,
        "repeats": REPEATS,
    }
    for name in ROWS:
        ms = np.array([s[name] for s in samples]) * 1000.0
        q1, med, q3 = np.percentile(ms, [25, 50, 75])
        results[f"{name}_best_ms"] = float(ms.min())
        results[f"{name}_median_ms"] = float(med)
        results[f"{name}_iqr_ms"] = float(q3 - q1)
    results["minor_faults_per_step"] = faults / REPEATS
    results["step_peak_mb"] = max(peaks) / 2**20
    results["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args()
    results = run_suite()
    if args.json:
        print(json.dumps(results))
        return
    print(
        f"train step ({results['sentences']} sentences, mean {results['nodes']:.0f} "
        f"nodes and {results['pairs']:.0f} pairs, hidden {results['hidden']}, "
        f"{results['repeats']} steps):"
    )
    print(f"  {'layer':>9}  {'best ms':>8}  {'median ms':>9}  {'IQR ms':>7}")
    for name in ROWS:
        print(
            f"  {name:>9}  {results[f'{name}_best_ms']:8.2f}  "
            f"{results[f'{name}_median_ms']:9.2f}  {results[f'{name}_iqr_ms']:7.2f}"
        )
    print(f"  minor page faults per step {results['minor_faults_per_step']:.1f}")
    print(f"  step peak (tracemalloc) {results['step_peak_mb']:.1f} MB")
    print(f"  peak RSS {results['peak_rss_mb']:.1f} MB")


if __name__ == "__main__":
    main()
