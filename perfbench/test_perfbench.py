"""Tests of the benchmark's own checks.

    python3 -m pytest perfbench

Each workload kind runs on a tiny corpus and must pass every check; corrupted
outputs (a shifted link, a wrong projected tag) must be rejected.
"""

import random
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
import mpalign  # noqa: E402
from mpalign import features, graph, pipeline, projection  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = workloads.Workload(
    languages=6, n_train=60, n_test=8, vocab=16, len_min=6, len_max=6,
    epochs=5, hidden=64, setup_repeats=2,
)
TINY_KINDS = {
    "pipeline": TINY,
    "train": replace(TINY, epochs=8, align_pairs=3),
}


def tiny_run(kind: str, tmp_path: Path, seed: int = 3) -> workloads.Bench:
    bench = workloads.Bench(TINY_KINDS[kind], seed, tmp_path / kind)
    bench.setup()
    bench.round(0, None)
    bench.round(1, Tracer())
    return bench


@pytest.fixture(scope="module", params=sorted(TINY_KINDS))
def bench(request, tmp_path_factory):
    b = tiny_run(request.param, tmp_path_factory.mktemp("bench"))
    yield b
    shutil.rmtree(b.work, ignore_errors=True)


def test_tiny_workload_passes_every_check(bench):
    quality = bench.check_outputs()
    assert bench.errors == []
    assert bench.attempted == 2 * bench.ops_per_round()
    assert bench.failed == 0
    assert 0.0 < quality["f1"] <= 1.0 and 0.0 < quality["projection_acc"] <= 1.0
    layers = bench.layer_metrics(quality)
    assert layers["inference.encodes_per_aligned_pair"][0] == 1.0
    assert layers["checkpoint.loads"][0] == bench.spec.align_repeats * len(bench.pairs) + 1


def shift_one_correct_link(path: Path, data: Path) -> None:
    """Move the first link that matches gold to the next target position."""
    src, tgt = checks.read_corpus(data, "l00"), checks.read_corpus(data, "l01")
    lines = path.read_text().splitlines()
    for n, line in enumerate(lines):
        sid, _, text = line.partition("\t")
        gold = checks.gold_links(src[sid], tgt[sid])
        links = text.split()
        for k, item in enumerate(links):
            i, _, j = item.partition("-")
            if (int(i), int(j)) in gold:
                links[k] = f"{i}-{(int(j) + 1) % len(tgt[sid])}"
                lines[n] = f"{sid}\t{' '.join(links)}"
                path.write_text("\n".join(lines) + "\n")
                return
    raise AssertionError(f"{path} has no correct link")


def test_shifted_link_is_rejected(bench):
    align = bench.pipeline_dir / "l00-l01.tgdfa.align"
    saved = align.read_bytes()
    try:
        shift_one_correct_link(align, bench.data)
        bench.errors = []
        bench.check_outputs()
        assert any("eval.tsv" in e for e in bench.errors)
        assert any("differs from the pipeline" in e for e in bench.errors)
    finally:
        align.write_bytes(saved)
        bench.errors = []


def test_wrong_projected_tag_is_rejected(bench):
    tags = bench.first["tags"]
    sid = sorted(tags)[0]
    saved = tags[sid]
    wrong = "X" if saved[0] != "X" else "NOUN"
    try:
        tags[sid] = (wrong,) + tuple(saved[1:])
        bench.errors = []
        bench.check_outputs()
        assert any(e.startswith(f"projection of {sid}") for e in bench.errors)
    finally:
        tags[sid] = saved
        bench.errors = []


def test_counts_and_eval_tsv(tmp_path):
    counts = checks.Counts()
    counts.add({(0, 0), (1, 2), (2, 1)}, {(0, 0), (1, 1), (2, 2), (3, 3)})
    p, r, f, aer = counts.prf()
    assert (p, r) == (1 / 3, 1 / 4)
    assert f == pytest.approx(2 / 7) and aer == pytest.approx(1 - 2 / 7)
    tsv = tmp_path / "eval.tsv"
    tsv.write_text(
        "method\tprecision\trecall\tf1\taer\tmacro_f1\n"
        f"gnn\t{p:.6f}\t{r:.6f}\t{f:.6f}\t{aer:.6f}\t0.5\n"
    )
    errors = []
    checks.check_eval_tsv(tsv, {"gnn": counts}, errors)
    assert errors == []
    counts.hits -= 1
    checks.check_eval_tsv(tsv, {"gnn": counts}, errors)
    assert len(errors) == 4


def test_gold_from_concept_ids():
    src = ["l00w0007", "l00w0003", "l00w0011"]
    tgt = ["l01w0011", "l01w0007", "l01w0005"]
    assert checks.gold_links(src, tgt) == {(0, 1), (2, 0)}
    assert checks.tag_of("l03w0009") == checks.TAGS[9 % len(checks.TAGS)]


def test_majority_vote_matches_projection_rules():
    rng = random.Random(5)
    tags = ("NOUN", "VERB", "ADJ")
    for trial in range(300):
        target = [f"l00w{i:04d}" for i in range(rng.randint(1, 6))]
        sources, mine = [], []
        for k in range(rng.randint(1, 4)):
            src = [(f"l0{k + 1}w{i:04d}", rng.choice(tags)) for i in range(rng.randint(1, 6))]
            links = {
                (rng.randrange(len(target)), rng.randrange(len(src)))
                for _ in range(rng.randint(0, 8))
            }
            sources.append(projection.ProjectionSource(f"l0{k + 1}", src, links))
            mine.append(([tag for _, tag in src], links))
        got = projection.project(f"s{trial}", target, sources).tags
        assert list(got) == checks.majority_tags(target, mine)


def test_tracer_patches_names_where_they_are_looked_up():
    tokens = {"l00": ["l00w0001", "l00w0002"], "l01": ["l01w0002", "l01w0001"]}
    from mpalign.corpus import BilingualAlignmentSet

    aset = BilingualAlignmentSet(("l00", "l01"), {"s": {(0, 1), (1, 0)}})
    g = graph.build_graph("s", tokens, [aset])
    original = features.centralities
    with Tracer() as tracer:
        pipeline.compute_centralities({"s": g}, ["s"])
        features.centralities(g)
        mpalign.centralities(g)
    assert tracer.calls["features.centralities"] == 3
    assert tracer.sentences["features.centralities"] == {"s"}
    assert features.centralities is original
    assert pipeline.centralities is original
    assert mpalign.centralities is original
