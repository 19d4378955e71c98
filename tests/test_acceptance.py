"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
The end-to-end corpus test (criterion 8) trains the full-size model on 2,000
sentences and takes a few minutes.
"""

import functools
import json
import time
import numpy as np
import pytest

from mpalign import gnn
from mpalign.cli import main
from mpalign.communities import Partition, cd_stats, gmc, lpc, modularity
from mpalign.corpus import GoldAlignment
from mpalign.evaluation import community_alignment_eval, score
from mpalign.features import BLOCK_WIDTHS, input_dim, partition
from mpalign.graph import build_graph
from mpalign.inference import gdfa, NEIGHBOR_OFFSETS
from mpalign.synth import SynthConfig, generate, write_synth

from oracles import arbitrary_graph, modularity_double_sum, random_graph, random_tree
from test_gnn import make_bundle


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] acceptance {num:02d}: {desc}")
                raise
            print(f"[PASS] acceptance {num:02d}: {desc}")

        return run

    return wrap


@criterion(1, "modularity matches the brute-force double sum")
def test_01_modularity_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(2, 8))
        g = random_graph(rng, n, float(rng.uniform(0.25, 0.9)))
        if g.m == 0:
            g = arbitrary_graph(n, [(0, 1)])
        for _ in range(3):
            labels = rng.integers(0, n, size=n)
            gamma = float(rng.uniform(0.0, 2.0))
            ours = modularity(g, Partition.from_labels(labels), gamma)
            ref = modularity_double_sum(g, labels, gamma)
            assert abs(ours - ref) <= 1e-12
            checked += 1
        assert modularity(g, Partition.whole(g.n), 1.0) == 0.0
    two_k2 = arbitrary_graph(4, [(0, 1), (2, 3)])
    assert modularity(two_k2, Partition(np.array([0, 0, 1, 1])), 1.0) == 0.5
    elapsed = time.perf_counter() - start
    assert checked == 150
    assert elapsed < 5.0, f"modularity oracle took {elapsed:.2f}s"


@criterion(2, "GMC and LPC recover planted disjoint cliques")
def test_02_community_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for instance in range(100):
        sizes = rng.integers(2, 6, size=int(rng.integers(2, 5)))
        edges, offset, truth = [], 0, []
        for size in sizes:
            nodes = list(range(offset, offset + int(size)))
            truth.append(set(nodes))
            edges += [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
            offset += int(size)
        g = arbitrary_graph(offset, edges)
        expected = {frozenset(c) for c in truth}

        p = gmc(g)
        assert {frozenset(m) for m in (set(x) for x in p.members())} == expected

        p = lpc(g, seed=instance)
        assert {frozenset(m) for m in (set(x) for x in p.members())} == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"community recovery took {elapsed:.2f}s"


@criterion(3, "centralities match brute-force shortest-path oracles")
def test_03_centrality_oracle():
    from mpalign.features import centralities
    from oracles import centralities_bruteforce

    rng = np.random.default_rng(303)
    trees = 0
    for trial in range(100):
        n = int(rng.integers(2, 10))
        if trial % 3 == 0:
            g = random_tree(rng, n)
            trees += 1
        else:
            g = random_graph(rng, n, float(rng.uniform(0.2, 0.9)))
        ours = centralities(g)
        ref = centralities_bruteforce(g)
        np.testing.assert_allclose(ours, ref, atol=1e-9)
        if trial % 3 == 0:
            np.testing.assert_allclose(ours[:, 2], ours[:, 3], atol=1e-12)
    assert trees >= 30


@criterion(4, "assembled features are 236-dim; ablations remove exact widths")
def test_04_feature_shape():
    sf, vocab = make_bundle()
    for ablate in [()] + [(block,) for block in BLOCK_WIDTHS]:
        width = 236 - sum(BLOCK_WIDTHS[b] for b in ablate)
        assert input_dim(ablate) == width
        cfg = gnn.TrainConfig(hidden=8, ablate=ablate)
        params = gnn.init_params(cfg, 2, len(vocab), np.random.default_rng(0))
        x = gnn.assemble(sf, gnn.as_leaves(params), ablate)
        assert x.data.shape == (sf.graph.n, width)


@criterion(5, "analytic gradients match central finite differences (64-bit)")
def test_05_gradient_check():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(500 + trial)
        edges = set()
        while len(edges) < 5:
            u = int(rng.integers(3))
            v = int(rng.integers(3))
            edges.add((u, 3 + v))
        sf, vocab = make_bundle(
            seed=trial, n_eng=3, n_fra=3, edges=sorted(edges)
        )
        cfg = gnn.TrainConfig(hidden=512)
        params = gnn.init_params(cfg, 2, len(vocab), rng)
        # sample a small stratified slice per trial so 20 full-size trials
        # stay inside the one-minute budget (about 250 parameters each)
        report = gnn.gradient_check(sf, params, (), seed=trial, sample_fraction=2e-4)
        assert report.ok, (trial, report.worst)
        # kink-adjacent samples (probes in different activation regions) are
        # excluded by a structural test; they must stay rare
        assert report.n_kink_skipped <= 0.02 * (report.n_checked + report.n_kink_skipped) + 1
        worst = max(worst, report.max_rel_error)
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 60.0, f"gradient checks took {elapsed:.2f}s"


@criterion(6, "grow-diag-final-and conformance and sandwich property")
def test_06_gdfa():
    # hand-traced cases
    assert gdfa({(0, 0)}, {(0, 0)}, 2, 2) == {(0, 0)}
    assert gdfa({(0, 0), (1, 1)}, {(0, 0), (1, 2)}, 2, 3) == {(0, 0), (1, 1), (1, 2)}
    assert gdfa({(0, 0)}, {(3, 4)}, 5, 6) == {(0, 0), (3, 4)}

    def randomized_rounds(fwd, bwd, m, l, rng):
        """Independent reimplementation with shuffled candidate order."""
        aligned = fwd & bwd
        union = fwd | bwd
        rows = {i for i, _ in aligned}
        cols = {j for _, j in aligned}
        candidates = list(union - aligned)
        while True:
            rng.shuffle(candidates)
            added = []
            for i, j in candidates:
                if (i in rows) and (j in cols):
                    continue
                if any((i + di, j + dj) in aligned for di, dj in NEIGHBOR_OFFSETS):
                    added.append((i, j))
            if not added:
                break
            for link in added:
                aligned.add(link)
                rows.add(link[0])
                cols.add(link[1])
                candidates.remove(link)
        for i, j in sorted(fwd - aligned) + sorted(bwd - fwd - aligned):
            if i not in rows and j not in cols:
                aligned.add((i, j))
                rows.add(i)
                cols.add(j)
        return aligned

    rng = np.random.default_rng(606)
    for trial in range(1000):
        m, l = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        fwd = {(int(rng.integers(m)), int(rng.integers(l)))
               for _ in range(int(rng.integers(0, 7)))}
        bwd = {(int(rng.integers(m)), int(rng.integers(l)))
               for _ in range(int(rng.integers(0, 7)))}
        out = gdfa(fwd, bwd, m, l)
        assert fwd & bwd <= out <= fwd | bwd
        if trial % 10 == 0:
            assert randomized_rounds(set(fwd), set(bwd), m, l, rng) == out


@criterion(7, "AER equals 1 - F1 whenever possible == sure")
def test_07_metric_identities():
    rng = np.random.default_rng(707)
    for _ in range(1000):
        sure = {(int(rng.integers(8)), int(rng.integers(8)))
                for _ in range(int(rng.integers(0, 10)))}
        pred = {(int(rng.integers(8)), int(rng.integers(8)))
                for _ in range(int(rng.integers(0, 10)))}
        gold = GoldAlignment(("a", "b"))
        gold.sure["v1"] = sure
        gold.possible["v1"] = set(sure)
        rep = score({"v1": pred}, gold)
        assert abs(rep.aer - (1.0 - rep.f1)) <= 1e-12
    rep = score(
        {"v1": {(0, 0)}},
        GoldAlignment(("a", "b"), {"v1": {(0, 0), (1, 1)}}, {"v1": {(0, 0), (1, 1)}}),
    )
    assert rep.precision == 1.0 and rep.recall == 0.5
    assert abs(rep.aer - 1.0 / 3.0) <= 1e-12


@pytest.fixture(scope="module")
def planted_run(tmp_path_factory):
    """Criterion-8 corpus and pipeline run, reused by criterion 9."""
    data = tmp_path_factory.mktemp("planted_data")
    out = tmp_path_factory.mktemp("planted_run")
    write_synth(
        generate(
            SynthConfig(
                n_sentences=2200, n_languages=8, vocab=300, len_min=6,
                len_max=12, edge_drop_rate=0.3, edge_noise_rate=0.05,
                seed=88, n_test=200,
            )
        ),
        data,
    )
    start = time.perf_counter()
    rc = main([
        "pipeline", "--data", str(data), "--out", str(out),
        "--pair", "l00,l01", "--gold", str(data / "l00-l01.gold"),
        "--train-ids", str(data / "train_ids.txt"),
        "--test-ids", str(data / "test_ids.txt"),
        "--seed", "13",
    ])
    elapsed = time.perf_counter() - start
    assert rc == 0
    return data, out, elapsed


@criterion(8, "end-to-end: trained model beats the noised input alignments")
def test_08_end_to_end(planted_run):
    data, out, elapsed = planted_run
    rows = {}
    for line in (out / "eval.tsv").read_text().splitlines()[1:]:
        parts = line.split("\t")
        rows[parts[0]] = [float(x) for x in parts[1:]]
    input_f1 = rows["input"][2]
    gnn_f1 = rows["gnn-tgdfa"][2]
    assert gnn_f1 >= input_f1 + 0.05, (gnn_f1, input_f1)
    assert gnn_f1 >= 0.85, gnn_f1

    losses = json.loads((out / "train_log.json").read_text())["batch_losses"]
    k = max(1, len(losses) // 10)
    assert np.mean(losses[-k:]) < np.mean(losses[:k])
    assert elapsed < 1800, f"pipeline took {elapsed:.0f}s"


@criterion(9, "label propagation finds about one community per concept")
def test_09_component_counts(planted_run):
    data, _, _ = planted_run
    k = 10
    res = generate(
        SynthConfig(
            n_sentences=200, n_languages=8, vocab=300, len_min=k, len_max=k,
            edge_drop_rate=0.3, edge_noise_rate=0.05, seed=99,
        )
    )
    graphs = [
        build_graph(sid, res.corpus.sentences[sid], list(res.alignments.values()))
        for sid in sorted(res.corpus.sentences)
    ]
    partitions = {g.sentence_id: partition(g, "lpc", 0) for g in graphs}
    stats = cd_stats(graphs, partitions)
    assert abs(stats.mean_components - k) <= 0.1 * k, stats.mean_components

    lpc_report = community_alignment_eval(graphs, partitions, res.gold, res.pair)
    input_preds = {
        sid: res.alignments[res.pair].links[sid] for sid in res.gold.possible
    }
    input_report = score(input_preds, res.gold)
    assert lpc_report.f1 > input_report.f1, (lpc_report.f1, input_report.f1)


@criterion(10, "same seed gives byte-identical checkpoints and alignments")
def test_10_determinism(tmp_path_factory):
    data = tmp_path_factory.mktemp("det_data")
    write_synth(
        generate(
            SynthConfig(
                n_sentences=120, n_languages=4, vocab=80, len_min=5, len_max=9,
                edge_drop_rate=0.25, edge_noise_rate=0.05, seed=55, n_test=20,
            )
        ),
        data,
    )
    outputs = []
    for run in ("r1", "r2"):
        out = tmp_path_factory.mktemp(f"det_{run}")
        rc = main([
            "pipeline", "--data", str(data), "--out", str(out),
            "--pair", "l00,l01", "--gold", str(data / "l00-l01.gold"),
            "--train-ids", str(data / "train_ids.txt"),
            "--test-ids", str(data / "test_ids.txt"),
            "--seed", "21",
        ])
        assert rc == 0
        outputs.append(out)
    a, b = outputs
    assert (a / "model.mpwa").read_bytes() == (b / "model.mpwa").read_bytes()
    assert (
        (a / "l00-l01.tgdfa.align").read_bytes()
        == (b / "l00-l01.tgdfa.align").read_bytes()
    )
