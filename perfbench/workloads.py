"""The benchmark's workloads: set-up, timed rounds, checks and metrics.

A run sets up ``setup_repeats`` times (the median is ``setup_s``), then runs
whole rounds until ``seconds`` have passed. A round is one cold
``pipeline.run_pipeline`` (graphs to ``eval.tsv``), then ``align_repeats``
align phases with the checkpoint it wrote.

The align phase does what ``mpalign align`` does per invocation, once per pair
``l00-l01`` .. ``l00-lK``: load the corpus, build every graph, then
``pipeline.align_with_model`` with the training seed. It then projects the
concept-derived tags of the ``lk`` tokens onto ``l00`` with
``projection.project``. Every round repeats the same operations, so the
outputs of every later align phase must equal the first one's byte for byte.

With tracing on, untraced and traced rounds alternate; per-layer figures come
from the traced rounds and the overhead from comparing the two kinds.
"""

import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from mpalign import pipeline as pl
from mpalign import projection, synth
from mpalign.corpus import load_pharaoh

import checks
from tracing import Tracer

TRAIN_SEED = 13
# a cold pipeline under a fixed seed writes these byte for byte the same
PIPELINE_OUTPUTS = ("model.mpwa", "train_log.json", "l00-l01.tgdfa.align", "eval.tsv")
BATCH_SIZE = pl.PipelineConfig.batch_size
EDGE_DROP, EDGE_NOISE = 0.3, 0.05  # input alignments: share of gold links dropped, wrong links added


@dataclass(frozen=True)
class Workload:
    languages: int
    n_train: int
    n_test: int
    vocab: int
    len_min: int
    len_max: int
    epochs: int = 1
    hidden: int = 512
    align_pairs: int = 1  # the align phase aligns l00-l01 .. l00-l{align_pairs}
    align_repeats: int = 3  # align phases per round
    setup_repeats: int = 15


WORKLOADS = {
    # Many languages: graph analysis (centralities, GMC/LPC) dominates. All
    # sentences have one length, so the work does not vary with the seed; the
    # align phases of a round take 10-20 s, so the align rate is not taken from
    # a few seconds of a machine whose speed drifts.
    "pipeline": Workload(
        languages=8, n_train=120, n_test=32, vocab=40, len_min=6, len_max=6, epochs=2,
        align_repeats=8,
    ),
    # The same corpus trained for four epochs: training does over half of the
    # cold pipeline's work. Smaller corpora (4 to 6 languages, or lengths 6..12
    # with a larger vocabulary) left the model below the input alignments on
    # some seeds (README.md).
    "train": Workload(
        languages=8, n_train=120, n_test=32, vocab=40, len_min=6, len_max=6, epochs=4,
        align_pairs=3,
    ),
}


def pair(k: int) -> tuple[str, str]:
    return (synth.language_code(0), synth.language_code(k))


class Bench:
    """One run of one workload inside the scratch directory ``work``."""

    def __init__(self, spec: Workload, seed: int, work: Path):
        self.spec = spec
        self.seed = seed
        self.work = work
        self.data = work / "data"
        self.pairs = [pair(k) for k in range(1, spec.align_pairs + 1)]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_s: list[float] = []
        self.pipeline_s: list[float] = []
        self.align_s: list[float] = []  # untraced align phases, in run order
        self.round_s: dict[bool, list[float]] = {False: [], True: []}
        self.layers: list[dict] = []
        self.layer_counts: list[dict] = []
        self.first: dict | None = None  # outputs of the first align phase
        self.pipeline_dir: Path | None = None

    # -- set-up -------------------------------------------------------------

    def synth_config(self) -> synth.SynthConfig:
        s = self.spec
        return synth.SynthConfig(
            n_sentences=s.n_train + s.n_test,
            n_languages=s.languages,
            vocab=s.vocab,
            len_min=s.len_min,
            len_max=s.len_max,
            edge_drop_rate=EDGE_DROP,
            edge_noise_rate=EDGE_NOISE,
            seed=self.seed,
            n_test=s.n_test,
        )

    def setup(self) -> None:
        for _ in range(self.spec.setup_repeats):
            start = time.perf_counter()
            shutil.rmtree(self.data, ignore_errors=True)
            synth.write_synth(synth.generate(self.synth_config()), self.data)
            self.setup_s.append(time.perf_counter() - start)
        self.test_ids = checks.read_ids(self.data / "test_ids.txt")
        self.train_ids = checks.read_ids(self.data / "train_ids.txt")

    def run_pipeline(self, out: Path) -> float:
        s = self.spec
        cfg = pl.PipelineConfig(
            data_dir=str(self.data),
            out_dir=str(out),
            pair=pair(1),
            gold=str(self.data / "l00-l01.gold"),
            train_ids=str(self.data / "train_ids.txt"),
            test_ids=str(self.data / "test_ids.txt"),
            seed=TRAIN_SEED,
            epochs=s.epochs,
            hidden=s.hidden,
        )
        start = time.perf_counter()
        pl.run_pipeline(cfg)
        return time.perf_counter() - start

    # -- timed rounds -------------------------------------------------------

    def ops_per_round(self) -> int:
        return 1 + self.spec.align_repeats * (len(self.pairs) + len(self.test_ids))

    def round(self, r: int, tracer: Tracer | None) -> None:
        out = self.work / f"round{r}"
        done = 0
        start = time.perf_counter()
        try:
            with tracer if tracer is not None else contextlib.nullcontext():
                pipeline_s = self.run_pipeline(out / "pipeline")
                done += 1
                model = out / "pipeline" / "model.mpwa"
                phases = []
                for a in range(self.spec.align_repeats):
                    align_start = time.perf_counter()
                    tags = self.align_phase(model, out / f"align{a}")
                    phases.append((time.perf_counter() - align_start, out / f"align{a}", tags))
                    done += len(self.pairs) + len(self.test_ids)
        except Exception as exc:  # noqa: BLE001 - count the failure, keep measuring
            print(f"perfbench: round {r} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.attempted += self.ops_per_round()
            self.failed += self.ops_per_round() - done
            return
        wall = time.perf_counter() - start
        self.attempted += self.ops_per_round()
        self.round_s[tracer is not None].append(wall)
        if tracer is not None:
            self.record_layers(tracer)
            self.check_counts(tracer)
        else:
            self.pipeline_s.append(pipeline_s)
            self.align_s.extend(align_s for align_s, _, _ in phases)
        self.keep_or_compare_pipeline(out / "pipeline")
        for _, align_dir, tags in phases:
            self.keep_or_compare(align_dir, tags)

    def align_phase(self, model: Path, out: Path) -> dict[str, tuple[str, ...]]:
        out.mkdir(parents=True)
        corpus, asets = pl.load_inputs(self.data)
        graphs = pl.build_all_graphs(corpus, asets)
        ids = [sid for sid in self.test_ids if sid in graphs]
        for p in self.pairs:
            cfg = pl.PipelineConfig(
                data_dir=str(self.data), out_dir=str(out), pair=p, seed=TRAIN_SEED
            )
            pl.align_with_model(model, graphs, corpus, ids, cfg, out / f"{p[0]}-{p[1]}.align")
        links = {
            p[1]: load_pharaoh(out / f"{p[0]}-{p[1]}.align", p).links for p in self.pairs
        }
        target = pair(1)[0]
        tags = {}
        for sid in ids:
            sources = [
                projection.ProjectionSource(
                    lang,
                    [(tok, checks.tag_of(tok)) for tok in corpus.sentences[sid][lang]],
                    links[lang].get(sid, set()),
                )
                for lang in links
            ]
            tags[sid] = projection.project(sid, corpus.sentences[sid][target], sources).tags
        return tags

    def keep_or_compare_pipeline(self, out: Path) -> None:
        if self.pipeline_dir is None:
            self.pipeline_dir = out
            return
        for name in PIPELINE_OUTPUTS:
            if (out / name).read_bytes() != (self.pipeline_dir / name).read_bytes():
                self.errors.append(f"{out}/{name} differs from the first round's")
        shutil.rmtree(out)

    def keep_or_compare(self, align_dir: Path, tags: dict) -> None:
        files = {p: (align_dir / f"{p[0]}-{p[1]}.align").read_bytes() for p in self.pairs}
        if self.first is None:
            self.first = {"dir": align_dir, "files": files, "tags": tags}
            return
        if files != self.first["files"] or tags != self.first["tags"]:
            self.errors.append(f"{align_dir}: outputs differ from the first align phase")
        shutil.rmtree(align_dir)

    # -- tracing ------------------------------------------------------------

    def record_layers(self, tracer: Tracer) -> None:
        self.layers.append(dict(tracer.self_s))
        counts = {
            "calls": dict(tracer.calls),
            "outside_training": dict(tracer.calls_outside_training),
            "graphs": {k: len(v) for k, v in tracer.sentences.items()},
        }
        if self.layer_counts and counts != self.layer_counts[0]:
            self.errors.append("traced call counts differ between rounds")
        self.layer_counts.append(counts)

    def expected_calls(self) -> dict[str, int]:
        """Calls each layer makes in one round, derived from the corpus alone."""
        n_train, n_test = len(self.train_ids), len(self.test_ids)
        n_all = n_train + n_test
        a, k = self.spec.align_repeats, len(self.pairs)
        phases = {
            # each align phase builds every graph, loads the checkpoint and
            # featurizes every test sentence once per pair
            "graph.build": a * n_all,
            "features.centralities": a * n_test * k,
            "communities.detect": 2 * a * n_test * k,
            "checkpoint.load": a * k,
            "checkpoint.save": 0,
            "gnn.adamw": 0,
            "projection.project": a * n_test,
        }
        steps = self.spec.epochs * checks.batches_per_epoch(
            self.data, self.train_ids, BATCH_SIZE
        )
        pipeline = {
            "graph.build": n_all,
            # standardizer fit, training features, test features for its own align
            "features.centralities": 2 * n_train + n_test,
            # communities TSV (GMC + LPC of every graph), then featurize
            "communities.detect": 2 * n_all + 2 * (n_train + n_test),
            "checkpoint.load": 1,
            "checkpoint.save": 1,
            "gnn.adamw": steps,
            "projection.project": 0,
        }
        return {name: phases[name] + pipeline[name] for name in phases}

    def aligned_pairs(self) -> int:
        """Sentence x language-pair alignments one round produces."""
        return len(self.test_ids) * (self.spec.align_repeats * len(self.pairs) + 1)

    def check_counts(self, tracer: Tracer) -> None:
        expected = self.expected_calls()
        expected_encodes = self.aligned_pairs()
        got = {name: tracer.calls[name] for name in expected}
        got_encodes = tracer.calls_outside_training["gnn.encode"]
        if got != expected or got_encodes != expected_encodes:
            self.errors.append(
                f"traced calls {got} (encodes outside training {got_encodes}) "
                f"!= expected {expected} (encodes {expected_encodes})"
            )

    def layer_metrics(self, quality: dict[str, float]) -> dict[str, tuple[float, str]]:
        times = {
            name: statistics.median(layer.get(name, 0.0) for layer in self.layers)
            for name in {n for layer in self.layers for n in layer}
        }
        counts = self.layer_counts[0]
        calls, graphs = counts["calls"], counts["graphs"]

        def t(name):
            return (times.get(name, 0.0), "s")

        def ratio(num, den):
            return (num / den if den else 0.0, "ratio")

        traced = statistics.median(self.round_s[True])
        plain = statistics.median(self.round_s[False])
        return {
            "features.centralities_s": t("features.centralities"),
            "features.centralities_per_graph": ratio(
                calls.get("features.centralities", 0), graphs.get("features.centralities", 0)
            ),
            "communities.detect_s": t("communities.detect"),
            "communities.detect_per_graph": ratio(
                calls.get("communities.detect", 0), 2 * graphs.get("communities.detect", 0)
            ),
            "features.featurize_s": t("features.featurize"),
            "features.word_embeddings_s": t("features.word_embeddings"),
            "gnn.train_steps": (calls.get("gnn.adamw", 0), "count"),
            "gnn.train_loss": (quality["train_loss"], "nats"),
            "gnn.encode_s": t("gnn.encode"),
            "gnn.decode_s": t("gnn.decode"),
            "gnn.loss_s": t("gnn.loss"),
            "autodiff.backward_s": t("autodiff.backward"),
            "gnn.adamw_s": t("gnn.adamw"),
            "gnn.negatives_s": t("gnn.negatives"),
            "inference.score_s": t("inference.score"),
            "inference.threshold_s": t("inference.threshold"),
            "inference.gdfa_s": t("inference.gdfa"),
            "inference.encodes_per_aligned_pair": ratio(
                counts["outside_training"].get("gnn.encode", 0), self.aligned_pairs()
            ),
            "checkpoint.save_s": t("checkpoint.save"),
            "checkpoint.load_s": t("checkpoint.load"),
            "checkpoint.loads": (calls.get("checkpoint.load", 0), "count"),
            "corpus.load_s": t("corpus.load"),
            "graph.build_s": t("graph.build"),
            "pipeline.communities_tsv_s": t("pipeline.communities_tsv"),
            "evaluation.score_s": t("evaluation.score"),
            "projection.project_s": t("projection.project"),
            "trace.overhead_pct": (100.0 * (traced - plain) / plain, "%"),
        }

    # -- checks and end-to-end metrics --------------------------------------

    def check_outputs(self) -> dict[str, float]:
        """Recompute quality from the written files; return the quality metrics."""
        errors = self.errors
        out = self.first["dir"]
        pipeline_dir = self.pipeline_dir
        first = pair(1)
        own = pipeline_dir / f"{first[0]}-{first[1]}.tgdfa.align"
        input_own = checks.score_file(
            self.data / f"{first[0]}-{first[1]}.align", self.data, first, self.test_ids,
            errors, predicted=False,
        )
        model_own = checks.score_file(own, self.data, first, self.test_ids, errors)
        checks.check_eval_tsv(
            pipeline_dir / "eval.tsv", {"input": input_own, "gnn-tgdfa": model_own}, errors
        )
        if own.read_bytes() != self.first["files"][first]:
            errors.append("align with the training seed differs from the pipeline's links")

        model, given = checks.Counts(), checks.Counts()
        for p in self.pairs:
            for total, path, predicted in ((model, out, True), (given, self.data, False)):
                c = checks.score_file(
                    path / f"{p[0]}-{p[1]}.align", self.data, p, self.test_ids, errors, predicted
                )
                total.pred += c.pred
                total.gold += c.gold
                total.hits += c.hits
        f1, input_f1 = model.prf()[2], given.prf()[2]
        checks.model_beats_input(f1, input_f1, errors)
        print(f"perfbench: F1 model {f1:.4f}, input {input_f1:.4f}", file=sys.stderr)

        losses = json.loads((pipeline_dir / "train_log.json").read_text())["batch_losses"]
        checks.loss_falls(losses, errors)
        k = max(1, len(losses) // 10)

        target = checks.read_corpus(self.data, first[0])
        sources = [
            (checks.read_corpus(self.data, p[1]), checks.read_links(out / f"{p[0]}-{p[1]}.align"))
            for p in self.pairs
        ]
        right = total = 0
        for sid in self.test_ids:
            toks = target[sid]
            expected = checks.majority_tags(
                toks, [([checks.tag_of(t) for t in corpus[sid]], links[sid]) for corpus, links in sources]
            )
            got = list(self.first["tags"][sid])
            if got != expected:
                errors.append(f"projection of {sid}: got {got}, majority vote gives {expected}")
            right += sum(tag == checks.tag_of(tok) for tag, tok in zip(got, toks))
            total += len(toks)
        return {
            "f1": f1,
            "train_loss": sum(losses[-k:]) / k,
            "projection_acc": right / total,
        }

    def end_to_end(self, quality: dict[str, float]) -> dict[str, tuple[float, str]]:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "pipeline_s": (statistics.median(self.pipeline_s), "s"),
            "align_pairs_per_s": (
                len(self.align_s) * len(self.test_ids) * len(self.pairs) / sum(self.align_s),
                "1/s",
            ),
            "f1": (quality["f1"], "ratio"),
            "projection_acc": (quality["projection_acc"], "ratio"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    bench = Bench(WORKLOADS[name], seed, work)
    bench.setup()
    start = time.perf_counter()
    r = 0
    while True:
        traced = trace and r % 2 == 1
        bench.round(r, Tracer() if traced else None)
        r += 1
        enough = time.perf_counter() - start >= seconds
        if enough and (not trace or r % 2 == 0):
            break
    if bench.first is None:
        raise RuntimeError("no round completed")
    quality = bench.check_outputs()
    for line in bench.errors:
        print(f"perfbench: {line}", file=sys.stderr)
    metrics = bench.layer_metrics(quality) if trace else bench.end_to_end(quality)
    return {
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
